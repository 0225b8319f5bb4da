"""Command-line front end.

Subcommands::

    analyze            full spectral pipeline -> analysis.json (+ TV curve CSV)
    verify-hypothesis  continuity and reachability audits with verdicts
    yaglom             conditioned-law TV curve and rate fit
    simulate           Monte Carlo estimates with standard errors
    lobo               exact vs predicted leading term of cumulative sums
    fixtures           regenerate oracle fixtures and bundled spec files

``--spec`` accepts either a bundled name (see ``qsdlab.registry``) or a path
to a spec JSON file.  ``--seed`` (default 0) is the one source of the Monte
Carlo seed.  With ``--canonical`` the timestamp field is omitted so
repeated runs are byte-identical; ``simulate`` accepts the flag and reads
nothing of it, as ``estimates.csv`` carries no timestamp.

Exit codes: 0 success, 2 validation/schema error, 3 numerical refusal.
Each input is checked once, by the module that reads it; a command calls
those checks early, before the expensive work.
"""

import argparse
import csv
import dataclasses
import datetime
import functools
import os
import sys

import numpy as np

from . import registry, specfile
from .errors import (
    EscapeNode,
    MassExtinct,
    NeverSubunit,
    NotApplicable,
    NumericalError,
    Reducible,
    SizeLimitExceeded,
    ValidationError,
)
from .jsonout import dumps
from .kernels import FAMILIES, H1_PROBES, build_operator, check_h1_modulus, check_h2_reachability
from .measures import tv_distance
from .oracle import SIZE_CAP, FiniteChain, fixture_dict, lobo_leading_term, lobo_sum
from .qsd import (
    cesaro_fit,
    check_n_max,
    cyclic_components,
    fit_yaglom_rate,
    mass_decay_check,
    quasi_ergodic_measure,
    quasi_stationary_measure,
)
from .simulate import _estimates, _mover, budget_shortfall, check_seed, check_start
from .spectral import check_floats, check_size, peripheral_spectrum

SCHEMA_VERSION = 1


def _resolve_spec(value, grid_size=None):
    try:
        spec = registry.get_spec(value)
    except KeyError:
        spec = specfile.load_spec(value)
    if grid_size is not None and spec.is_explicit:
        raise NotApplicable("--grid-size does not apply to an explicit chain")
    return spec if grid_size is None else dataclasses.replace(spec, grid_size=grid_size)


def _write_json(doc, path, canonical):
    if not canonical:
        doc = {**doc, "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        fp.write(dumps(doc) + "\n")


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(header)
        w.writerows(rows)


def _rate_doc(fit):
    return {"model": fit.model, "rate": fit.fitted_rate,
            "constant": fit.fitted_constant, "r2": fit.r_squared,
            "passed": fit.passed}


def _analyze(args):
    """The pipeline that analyze and yaglom share: solve, fit the rate, write the TV curve.

    Returns the spec, the operator, the spectral data, the rate fit and the
    cyclic partition (None on an aperiodic chain).
    """
    spec = _resolve_spec(args.spec, args.grid_size)
    if args.n_max is not None:
        check_n_max(args.n_max, spec.grid_size, "--n-max")
    check_size(spec.grid_size)   # before the matrix is built
    op = build_operator(spec)
    sd = peripheral_spectrum(op)
    nu0 = np.zeros(op.size)
    if sd.period_m == 1:
        # generic start: off-center, so symmetric kernels do not annihilate
        # the odd modes (a center start can reach the limit law in one step)
        keep = op.nonescape_indices()
        nu0[keep[len(keep) // 4]] = 1.0
        fit, part = fit_yaglom_rate(op, nu0, n_max=args.n_max, sd=sd), None
    else:
        part = cyclic_components(sd, op)
        nu0[part.classes[0][0]] = 1.0
        fit = cesaro_fit(op, nu0, n_max=args.n_max, sd=sd, partition=part)
    _write_csv(os.path.join(args.out, "tv_curve.csv"), ["n", "tv"],
               ([int(n), repr(float(tv))] for n, tv in fit.data))
    return spec, op, sd, fit, part


def cmd_analyze(args):
    spec, op, sd, fit, part = _analyze(args)
    mu, lam = quasi_stationary_measure(sd)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": specfile.spec_to_dict(spec),
        "lambda": lam,
        "m": sd.period_m,
        "subdominant_radius": sd.subdominant_radius,
        "escape_indices": sorted(op.escape),
        "qsd": mu.tolist(),
        "qed": quasi_ergodic_measure(sd).tolist(),
        "classes": None if part is None else [list(c) for c in part.classes],
        "rates": {"yaglom" if part is None else "cesaro": _rate_doc(fit)},
    }
    try:
        decay = mass_decay_check(op, n_max=min(len(fit.data), 60))
        doc["decay"] = {"n0": decay.n0, "alpha": decay.alpha, "never_subunit": False}
    except NeverSubunit:
        doc["decay"] = {"n0": None, "alpha": None, "never_subunit": True}
    _write_json(doc, os.path.join(args.out, "analysis.json"), args.canonical)
    _write_json({"schema_version": SCHEMA_VERSION, **sd.to_json_dict()},
                os.path.join(args.out, "spectral.json"), args.canonical)
    return 0


def cmd_verify_hypothesis(args):
    spec = _resolve_spec(args.spec, args.grid_size)
    # no eigensolve, so no size cap; the H1 probe's two blocks, where the family has
    # rows to probe, keep to the float budget
    if not isinstance(FAMILIES[spec.family].rows, str):
        g = spec.grid_size
        check_floats(2 * H1_PROBES * g, f"--grid-size {g} needs two {H1_PROBES} x {g} H1 probe "
                                        "blocks")
    op = build_operator(spec)
    reach = check_h2_reachability(op)
    try:
        rep = check_h1_modulus(spec)
        h1 = {"verdict": rep.verdict,
              "deltas": rep.deltas.tolist(),
              "sup_distances": rep.sup_distances.tolist(),
              "probes": rep.probes, "grid_step": rep.grid_step}
    except NotApplicable as exc:
        h1 = {"verdict": "INDETERMINATE", "note": str(exc)}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": specfile.spec_to_dict(spec),
        "h1": h1,
        "h2": {
            "verdict": reach.verdict,
            "strongly_connected": reach.strongly_connected,
            "n_components": reach.n_components,
            "graph_period": reach.graph_period,
            "escape_indices": sorted(op.escape),
            # the audit raised AllNodesEscape when this would be false
            "nonescape_mass_positive": len(op.escape) < spec.grid_size,
        },
    }
    _write_json(doc, os.path.join(args.out, "hypothesis_report.json"), args.canonical)
    return 0


def cmd_yaglom(args):
    spec, _, _, fit, _ = _analyze(args)
    _write_json({"schema_version": SCHEMA_VERSION, "spec": specfile.spec_to_dict(spec),
                 "rate_fit": _rate_doc(fit)},
                os.path.join(args.out, "yaglom.json"), args.canonical)
    return 0


def cmd_simulate(args):
    n, n_paths = args.n, args.n_paths
    if n < 1 or n_paths < 1:
        raise ValidationError("simulate needs --n >= 1 and --n-paths >= 1")
    check_floats(n + 1, f"--n {n} needs {n + 1} absorption-time counts")
    seed = check_seed(args.seed)
    spec = _resolve_spec(args.spec, args.grid_size)
    if args.x0 is not None:
        x0 = check_start(spec, args.x0)  # before the eigensolve, not after
    else:
        x0 = 0 if spec.is_explicit else float(np.mean(spec.domain))
    check_size(spec.grid_size)
    op = build_operator(spec)
    mover = _mover(spec)   # a family with no draw is refused before the eigensolve
    sd = peripheral_spectrum(op)
    mu, lam = quasi_stationary_measure(sd)
    if spec.is_explicit:
        k = min(1, op.size - 1)
        h = lambda s: s == k   # added to the float sums as 0.0 or 1.0
        h_label = f"state:{k}"
    else:
        h = lambda y: y
        h_label = "y"
    notice = budget_shortfall(n, n_paths, lam)
    if notice is not None:
        print(f"warning: {notice}", file=sys.stderr)
    # one batch gives both the Yaglom histogram and the running sums of h
    est, est_b = _estimates(spec, mover, x0, n, n_paths, seed, h)
    tv = tv_distance(est.value, mu)
    rows = [
        ["yaglom_histogram", n, n_paths, est.effective_samples,
         ";".join(repr(float(v)) for v in est.value), repr(est.stderr)],
        ["yaglom_tv_vs_qsd", n, n_paths, est.effective_samples,
         repr(tv), repr(est.stderr)],
        [f"birkhoff_average[{h_label}]", n, n_paths,
         est_b.effective_samples, repr(est_b.value), repr(est_b.stderr)],
    ]
    _write_csv(os.path.join(args.out, "estimates.csv"),
               ["kind", "n", "n_paths", "survivors", "value", "stderr"], rows)
    return 0


def cmd_lobo(args):
    try:
        ns = [int(v) for v in args.n_list.split(",")]
    except ValueError:
        raise ValidationError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    if min(ns) < 1:
        raise ValidationError(f"--n-list entries must be at least 1, got {args.n_list!r}")
    spec = _resolve_spec(args.spec)
    if not spec.is_explicit:
        raise ValidationError("the exact cumulative-sum table needs an explicit chain")
    x0, h_state = check_start(spec, args.x0), check_start(spec, args.h_state)
    if spec.grid_size > SIZE_CAP:
        raise SizeLimitExceeded(
            f"the exact table is limited to {SIZE_CAP} states, got {spec.grid_size}")
    top, size = max(ns), spec.grid_size   # refused before any row, as --n-max is
    check_floats(top * size, f"--n-list entry {top} on {size} states needs {top * size} floats "
                             "of iterates")
    op = build_operator(spec)
    reach = check_h2_reachability(op)   # AllNodesEscape when every state dies at once
    if not reach.strongly_connected:
        raise Reducible(reach.reducible_message)
    for flag, state in (("--x0", x0), ("--h-state", h_state)):
        if state in op.escape:  # both terms vanish there: no ratio to report
            raise EscapeNode(f"{flag} {state} is in the escape set")
    chain = FiniteChain(Q=spec.matrix)
    h = np.zeros(chain.size)
    h[h_state] = 1.0
    preds = [lobo_leading_term(chain, h, x0, n) for n in ns]   # refused before any exact loop
    for n, pred in zip(ns, preds):
        if not pred:
            raise MassExtinct(f"the survival mass from state {x0} underflows to zero by n = {n}")
    rows = []
    for n, pred in zip(ns, preds):
        exact = lobo_sum(chain, h, x0, n)
        rows.append({"n": n, "exact": exact, "predicted": pred, "ratio": exact / pred})
    doc = {"schema_version": SCHEMA_VERSION, "spec": specfile.spec_to_dict(spec),
           "h_state": h_state, "x0": x0, "table": rows}
    _write_json(doc, os.path.join(args.out, "lobo_table.json"), args.canonical)
    _write_csv(os.path.join(args.out, "lobo_table.csv"), ["n", "exact", "predicted", "ratio"],
               ([r["n"], repr(r["exact"]), repr(r["predicted"]), repr(r["ratio"])] for r in rows))
    return 0


def cmd_fixtures(args):
    for name in ("sym2", "cycle2", "cycle3", "ds3"):
        chain = FiniteChain(Q=registry.get_spec(name).matrix)
        _write_json(fixture_dict(name, chain),
                    os.path.join(args.out, f"{name}.json"), canonical=True)
    for name in registry.builtin_names():
        specfile.dump_spec(registry.get_spec(name),
                           os.path.join(args.out, f"{name}.spec.json"))
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves no state in it."""
    p = argparse.ArgumentParser(prog="qsdlab",
                                description="conditioned-measure toolkit for absorbed chains")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid_size=True, canonical="omit the timestamp so outputs are byte-identical"):
        sp.add_argument("--spec", required=True,
                        help="bundled name or path to a spec JSON file")
        sp.add_argument("--out", required=True, help="output directory")
        if grid_size:
            sp.add_argument("--grid-size", type=int, default=None)
        sp.add_argument("--canonical", action="store_true", help=canonical)

    sp = sub.add_parser("analyze", help="spectral pipeline report")
    common(sp)
    sp.add_argument("--n-max", type=int, default=None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("verify-hypothesis", help="continuity/reachability audits")
    common(sp)
    sp.set_defaults(func=cmd_verify_hypothesis)

    sp = sub.add_parser("yaglom", help="conditioned-law TV curve and rate fit")
    common(sp)
    sp.add_argument("--n-max", type=int, default=None)
    sp.set_defaults(func=cmd_yaglom)

    sp = sub.add_parser("simulate", help="Monte Carlo cross-check")
    common(sp, canonical="accepted for a uniform command line and read by nothing: "
                         "estimates.csv carries no timestamp")
    sp.add_argument("--n-paths", type=int, default=10 ** 5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=10, help="time horizon")
    sp.add_argument("--x0", type=float, default=None, help="starting point/state")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("lobo", help="exact vs predicted cumulative-sum table")
    common(sp, grid_size=False)
    sp.add_argument("--n-list", default="60,120,240")
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--h-state", type=int, default=0,
                    help="state whose indicator is the summed test function")
    sp.set_defaults(func=cmd_lobo)

    sp = sub.add_parser("fixtures", help="regenerate oracle fixtures and bundled specs")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_fixtures)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # a usage error (2) or --help (0), already printed
        return exc.code
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
