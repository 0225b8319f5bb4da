"""Kernel spec files: a flat JSON document describing one kernel.

Schema (all other top-level keys are a hard error)::

    {
      "schema_version": 1,            # optional, must be 1 if present
      "name": "...",                  # optional
      "domain": [lower, upper],       # required for density families
      "family": "...",                # a key of kernels.FAMILIES
      "params": {...},                # every parameter of the family's record,
                                      # no other; matrices as nested lists
      "grid_size": N                  # required for density families
    }

The reference measure is Lebesgue and the quadrature the trapezoid rule;
neither is a key.  The file owns the rules of the document: a JSON object,
no key outside the schema, ``schema_version`` 1, and on an
``explicit_matrix`` no ``domain`` or ``grid_size``.  Every field's rule is
``KernelSpec``'s, as for a spec built in Python, tables included (a
``matrix`` or ``values`` that is not a numeric square table fails there);
what it refuses is a SchemaError with its reason, and so is a file that
cannot be read (missing, a directory, not UTF-8), is not JSON or nests
deeper than the parser's recursion limit.
"""

import json

from .errors import SchemaError
from .jsonout import dumps
from .kernels import KernelSpec

_ALLOWED_KEYS = {"schema_version", "name", "domain", "family", "params", "grid_size"}


def spec_from_dict(doc):
    if not isinstance(doc, dict):
        raise SchemaError("spec document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}")
    if doc.get("schema_version", 1) != 1:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')}")
    if doc.get("family") == "explicit_matrix":
        ignored = {"domain", "grid_size"} & set(doc)
        if ignored:
            raise SchemaError(f"fields {sorted(ignored)} do not apply to explicit_matrix")
    try:
        return KernelSpec(domain=doc.get("domain"), family=doc.get("family"),
                          params=doc.get("params", {}),
                          grid_size=doc.get("grid_size"), name=doc.get("name"))
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
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
    except FileNotFoundError:
        raise SchemaError(f"spec file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"spec file cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec file is not valid JSON: {exc}") from None
    except RecursionError as exc:
        raise SchemaError(f"spec file is nested too deeply to read: {exc}") from None
    return spec_from_dict(doc)


def dump_spec(spec, path):
    with open(path, "w") as fp:
        fp.write(dumps(spec_to_dict(spec)) + "\n")
