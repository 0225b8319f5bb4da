"""qsdlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qsdlab is imported from ./src.
Workloads: dense-analyze, audit, mc-rejection, small-chains (see
workloads.py).  One process does all the work, with as many OpenBLAS
threads as CPUs it may run on unless OPENBLAS_NUM_THREADS says otherwise.

A run repeats whole passes over the workload's items: as many as fit in
--seconds at the workload's nominal pass time (at least two, so passes can
be compared byte for byte).  The pass count depends only on the arguments,
so the same arguments always attempt the same operations.  With --trace 1
it alternates untraced and traced passes.  It prints a readable
report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Results, the environment
record and the spans go to out/perfbench/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "out" / "perfbench"

MIN_ROUNDS = 2
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer time metric -> span names whose self time it sums
LAYER_SPANS = {
    "kernels.build_operator_s": ("kernels.build_operator",),
    "kernels.reachability_s": ("kernels.reachability",),
    "kernels.modulus_s": ("kernels.modulus",),
    "spectral.peripheral_spectrum_s": ("spectral.peripheral_spectrum",),
    "qsd.measures_s": ("qsd.measures",),
    "qsd.rate_fit_s": ("qsd.rate_fit",),
    "qsd.cyclic_components_s": ("qsd.cyclic_components",),
    "qsd.mass_decay_s": ("qsd.mass_decay",),
    "simulate.estimate_s": ("simulate.estimate",),
    "oracle.exact_qsd_qed_s": ("oracle.exact_qsd_qed",),
    "cli.self_s": ("cli.analyze", "cli.verify-hypothesis", "cli.simulate"),
}
# counts that must repeat exactly between traced passes
EXACT_COUNTS = ("kernels.matrix_bytes", "spectral.calls", "spectral.refusals",
                "qsd.propagation_steps", "simulate.path_steps", "simulate.live_path_steps")
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "kernels.matrix_bytes": "bytes",
    "spectral.calls": "count",
    "spectral.refusals": "count",
    "qsd.propagation_steps": "count",
    "simulate.path_steps": "count",
    "simulate.live_path_steps": "count",
    "simulate.survivor_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qsdlab.cli\n"
    "from qsdlab import get_spec\n"
    "for name, n in json.loads(sys.argv[2]):\n"
    "    get_spec(name, grid_size=n)\n"
)


def measure_setup(specs, repeats):
    """Times for a fresh interpreter to import qsdlab and resolve specs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(specs)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(wl, items, traced, workdir, tracer):
    from qsdlab.errors import QsdlabError

    first = len(tracer.spans)
    results, lat = [], []
    t_pass = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            if traced:
                res = wl.run_traced(item, workdir, tracer.span)
            else:
                res = wl.run_plain(item, workdir)
        except QsdlabError as exc:
            res = {"answer": None, "refusal": type(exc).__name__}
        except Exception:  # keep going: a crash is reported as a failed operation
            res = {"answer": None, "refusal": None, "error": traceback.format_exc(limit=3)}
        lat.append(time.perf_counter() - t0)
        results.append(res)
    wall = time.perf_counter() - t_pass
    return {"traced": traced, "wall": wall, "lat": lat, "results": results,
            "self": tracer.self_times(first) if traced else None}


def check_pass(wl, items, p, first, corrupt):
    """Issues of one pass: the workload's checks plus identity with the first pass."""
    issues = []  # (item id, kind, message)
    for item, res in zip(items, p["results"]):
        if res.get("error"):
            found = [("wrong", "crashed: " + res["error"])]
        else:
            found = list(wl.check(item, res, corrupt))
        values = json.dumps([res.get("answer"), res.get("oracle")], sort_keys=True)
        ref = first.setdefault(item["id"], {"values": values, "digest": None})
        if values != ref["values"]:
            found.append(("wrong", "answer differs from the first pass"))
        if res.get("digest"):
            if ref["digest"] is None:
                ref["digest"] = res["digest"]
            elif res["digest"] != ref["digest"]:
                found.append(("wrong", "canonical output bytes differ from the first pass"))
        issues += [(item["id"], kind, msg) for kind, msg in found]
    return issues


def fastest_pass(passes):
    """Wall time of a pass with every operation at its fastest over the passes.

    A shared machine slows down for seconds at a time; one pass in which an
    operation ran at full speed is enough for that operation, so slow spells
    that leave each operation one fast pass do not move this.
    """
    return sum(min(lat) for lat in zip(*(p["lat"] for p in passes)))


def end_to_end(setup_s, plain):
    return {
        "setup_s": setup_s,
        "wall_s": fastest_pass(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency(op_name, plain):
    """Per-operation latency: reported, not gated (a pass's latencies sum to
    its wall time, and three workloads have only three operations per pass)."""
    lat = [x for p in plain for x in p["lat"]]
    return {f"{op_name}_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            f"{op_name}_p99_ms": {"unit": "ms", "value": 1e3 * statistics.quantiles(
                lat, n=100, method="inclusive")[98]}}


def per_layer(plain, traced):
    counts = [p["counts"] for p in traced]
    mismatched = [k for k in EXACT_COUNTS if len({c.get(k, 0) for c in counts}) > 1]
    c = counts[0]
    out = {name: statistics.median(sum(p["self"].get(s, 0.0) for s in spans) for p in traced)
           for name, spans in LAYER_SPANS.items()}
    out.update({k: c.get(k, 0) for k in EXACT_COUNTS})
    paths = c.get("simulate.paths", 0)
    out["simulate.survivor_ratio"] = c.get("simulate.survivors", 0) / paths if paths else 0.0
    out["trace.overhead_s"] = fastest_pass(traced) - fastest_pass(plain)
    # wall time of a traced pass that no qsdlab layer's span covers
    out["trace.uncovered_s"] = statistics.median(
        p["wall"] - sum(v for k, v in p["self"].items() if not k.startswith("harness."))
        for p in traced)
    return out, mismatched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the self-test only")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb every reference value; all checks must then fail")
    args = ap.parse_args(argv)

    if not (SRC / "qsdlab" / "__init__.py").is_file():
        print(f"qsdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path[:0] = [str(SRC), str(HERE)]
    import envinfo
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    items = wl.items(args.seed, args.tiny)
    rounds = max(MIN_ROUNDS, round(args.seconds / (wl.pass_s * (1 + args.trace))))
    # set-up samples are spread over the gaps before, between and after the
    # rounds, so that a slow spell of the machine does not cover all of them
    repeats = 1 if args.tiny else SETUP_REPEATS
    gaps = [round(i * rounds / max(repeats - 1, 1)) for i in range(repeats)]
    setup_times = measure_setup(list(wl.setup_specs), gaps.count(0))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tracer = tracing.Tracer()
    passes, issues, first, first_results = [], [], {}, None
    try:
        for r in range(1, rounds + 1):
            for traced in (False, True)[:1 + args.trace]:
                p = run_pass(wl, items, traced, workdir, tracer)
                if traced:
                    # outside the pass's timing: counts that need extra work
                    p["counts"] = {}
                    for item, res in zip(items, p["results"]):
                        res.setdefault("counts", {}).update(wl.extra_counts(item))
                        for k, v in res["counts"].items():
                            p["counts"][k] = p["counts"].get(k, 0) + v
                issues += [(len(passes), *i) for i in
                           check_pass(wl, items, p, first, args.corrupt_reference)]
                # keep one pass's results, so memory does not grow with passes
                first_results = first_results or p["results"]
                del p["results"]
                passes.append(p)
            setup_times += measure_setup(list(wl.setup_specs), gaps.count(r))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(items) * len(passes)
    failed = len({(pi, iid) for pi, iid, _, _ in issues})
    correct = not any(kind == "wrong" for _, _, kind, _ in issues)

    e2e = end_to_end(statistics.median(setup_times), plain)
    extra = {**latency(wl.op_name, plain), **wl.extra_metrics(items, e2e["wall_s"], first_results)}
    layers, mismatched = per_layer(plain, traced) if traced else ({}, [])
    if mismatched:
        correct = False

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "corrupt_reference": args.corrupt_reference,
        "items": len(items), "setup_samples_s": setup_times, "passes": [{"traced": p["traced"], "wall_s": p["wall"]} for p in passes],
        "attempted": attempted, "failed": failed, "correct": correct,
        "failed_frac": failed / attempted, "op_latency_samples": sum(len(p["lat"]) for p in plain),
        "end_to_end": e2e, "workload_metrics": extra, "per_layer": layers,
        "count_mismatches": mismatched,
        "issues": [{"pass": pi, "item": iid, "kind": k, "message": m}
                   for pi, iid, k, m in issues[:200]],
        "environment": envinfo.collect(),
    }
    with open(OUT / f"{label}.json", "w") as fp:
        json.dump(record, fp, indent=2)
    if traced:
        tracer.dump(OUT / f"{label}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed} passes={len(plain)} untraced"
          f" + {len(traced)} traced, {len(items)} items per pass")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    kinds = {}
    for _, _, kind, msg in issues:
        key = (kind, msg.split(" ")[0])
        kinds[key] = kinds.get(key, 0) + 1
    for (kind, head), n in sorted(kinds.items()):
        print(f"  {n} x {kind}: {head} ...")
    if mismatched:
        print(f"  counts differ between traced passes: {mismatched}")
    print(f"{wl.op_name} latency samples = {record['op_latency_samples']}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, m in extra.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in layers.items():
        note = " (computed: N^2 * 8 per operator)" if name == "kernels.matrix_bytes" else ""
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}{note}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
