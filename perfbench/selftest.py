"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, a tiny run must print every named
metric with its unit (end-to-end untraced, per-layer traced), and a run
with --corrupt-reference must report more failed operations and
``correct: false``.  Finally a copy of the harness without the qsdlab
sources must exit non-zero without printing a result.  Exits 1 on any
problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and set(res) == KEYS else None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        base = None
        for trace in (0, 1):
            proc = run(w, trace)
            res = last_result(proc)
            if proc.returncode != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} != {want[trace]}")
            if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{w} trace={trace}: non-numeric metric value")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: correct={res['correct']} "
                                f"attempted={res['attempted']}")
            base = base or res
        bad = last_result(run(w, 0, "--corrupt-reference"))
        if bad is None or base is None or bad["correct"] or bad["failed"] <= base["failed"]:
            problems.append(f"{w}: a corrupted reference went unnoticed ({bad})")
        print(f"{w}: checked", flush=True)

    (ROOT / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or last_result(proc) is not None:
            problems.append("a checkout without sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
