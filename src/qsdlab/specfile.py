"""Kernel spec files: a flat JSON document describing one kernel.

Schema (all other top-level keys are a hard error)::

    {
      "schema_version": 1,            # optional, must be 1 if present
      "name": "...",                  # optional
      "domain": [lower, upper],       # required for density families
      "family": "affine_uniform" | "cubic_uniform" | "gaussian_shift"
                | "tabulated" | "explicit_matrix",
      "params": {...},                # every parameter of the family, no other;
                                      # matrices as nested lists
      "grid_size": N                  # required for density families
    }

The reference measure is Lebesgue and the quadrature the trapezoid rule;
neither is a key.  An ``explicit_matrix`` document takes neither ``domain``
nor ``grid_size``: its states are the matrix rows.  Any value ``KernelSpec``
refuses, a bad matrix too, is reported as a SchemaError.
"""

import json
import operator

from .errors import SchemaError
from .kernels import ALL_FAMILIES, KernelSpec

_ALLOWED_KEYS = {"schema_version", "name", "domain", "family", "params", "grid_size"}


def _number(value, what):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be a number, got {value!r}") from None


def spec_from_dict(doc):
    if not isinstance(doc, dict):
        raise SchemaError("spec document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}")
    if doc.get("schema_version", 1) != 1:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')}")
    family = doc.get("family")
    if family not in ALL_FAMILIES:
        raise SchemaError(f"family must be one of {ALL_FAMILIES}, got {family!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")

    domain = grid_size = None   # an explicit chain's come from its matrix
    if family == "explicit_matrix":
        ignored = {"domain", "grid_size"} & set(doc)
        if ignored:
            raise SchemaError(f"fields {sorted(ignored)} do not apply to explicit_matrix")
        if not isinstance(params.get("matrix"), list):
            raise SchemaError("explicit_matrix needs params.matrix as a list of rows")
    else:
        if "domain" not in doc:
            raise SchemaError("domain is required")
        domain = doc["domain"]
        if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
            raise SchemaError("domain must be [lower, upper]")
        domain = (_number(domain[0], "domain bound"), _number(domain[1], "domain bound"))
        if "grid_size" not in doc:
            raise SchemaError("grid_size is required")
        try:
            grid_size = operator.index(doc["grid_size"])
        except TypeError:
            raise SchemaError(f"grid_size must be an integer, got {doc['grid_size']!r}") from None

    try:
        return KernelSpec(domain=domain, family=family, params=params,
                          grid_size=grid_size, name=doc.get("name"))
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def spec_to_dict(spec):
    doc = {
        "schema_version": 1,
        "family": spec.family,
        "params": spec.params,
    }
    if spec.name:
        doc["name"] = spec.name
    if not spec.is_explicit:
        doc["domain"] = [spec.domain[0], spec.domain[1]]
        doc["grid_size"] = spec.grid_size
    return doc


def load_spec(path):
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except FileNotFoundError:
        raise SchemaError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec file is not valid JSON: {exc}")
    return spec_from_dict(doc)


def dump_spec(spec, path):
    with open(path, "w") as fp:
        json.dump(spec_to_dict(spec), fp, indent=2, sort_keys=True)
        fp.write("\n")
