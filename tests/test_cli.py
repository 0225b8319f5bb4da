import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import qsdlab as q
from qsdlab import cli, simulate, spectral
from qsdlab.cli import main
from qsdlab.errors import InvalidDomain, NegativeDensity, NotApplicable, SchemaError
from qsdlab.kernels import KernelSpec
from qsdlab.specfile import dump_spec, load_spec, spec_from_dict


# -- spec files ---------------------------------------------------------------

def test_spec_roundtrip(tmp_path):
    for name in q.builtin_names():
        spec = q.get_spec(name)
        path = tmp_path / f"{name}.json"
        dump_spec(spec, path)
        back = load_spec(path)
        assert back.family == spec.family
        assert back.params == spec.params
        assert back.grid_size == spec.grid_size


def test_unknown_top_level_field_is_hard_error():
    with pytest.raises(SchemaError):
        spec_from_dict({"family": "gaussian_shift", "domain": [0, 1],
                        "grid_size": 11, "params": {}, "surprise": 1})


def test_unknown_param_is_hard_error():
    with pytest.raises(SchemaError):
        spec_from_dict({"family": "cubic_uniform", "domain": [-2, 2],
                        "grid_size": 11, "params": {"noise_halfwidth": 6, "zz": 0}})


def test_gaussian_indicator_region_rejected():
    with pytest.raises(SchemaError):
        spec_from_dict({"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 11,
                        "params": {"sigma": 1.0, "indicator_region": [-0.5, 0.5]}})


def test_missing_file_is_schema_error():
    with pytest.raises(SchemaError):
        load_spec("/nonexistent/spec.json")


def test_unscaled_measure_with_a_scale_is_refused():
    # Lebesgue is the only reference measure and no key names it: a measure
    # field, with a scale or without, is refused, not dropped
    for measure in ({"name": "lebesgue", "scale": 2.0}, "lebesgue"):
        with pytest.raises(SchemaError, match=re.escape("unknown fields ['measure']")):
            spec_from_dict({"family": "gaussian_shift", "domain": [0, 1], "grid_size": 11,
                            "params": {"sigma": 1.0}, "measure": measure})


# -- CLI ----------------------------------------------------------------------

def test_analyze_bundled_and_file_spec_agree(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    spec_path = tmp_path / "sym2.json"
    dump_spec(q.get_spec("sym2"), spec_path)
    assert main(["analyze", "--spec", "sym2", "--out", str(out1), "--canonical"]) == 0
    assert main(["analyze", "--spec", str(spec_path), "--out", str(out2),
                 "--canonical"]) == 0
    assert (out1 / "analysis.json").read_bytes() == (out2 / "analysis.json").read_bytes()


def test_analyze_emits_required_fields(tmp_path):
    out = tmp_path / "o"
    assert main(["analyze", "--spec", "cycle3", "--out", str(out), "--canonical"]) == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["m"] == 3
    assert doc["classes"] == [[0, 1], [2, 3], [4, 5]]
    assert "cesaro" in doc["rates"]
    assert doc["decay"]["n0"] == 1
    curve = (out / "tv_curve.csv").read_text().splitlines()
    assert curve[0] == "n,tv"
    assert len(curve) > 100
    spec_doc = json.loads((out / "spectral.json").read_text())
    assert len(spec_doc["eigvals"]) == 3
    assert all(len(z) == 2 for z in spec_doc["eigvals"])


def test_verify_hypothesis_verdicts_have_evidence(tmp_path):
    out = tmp_path / "v"
    assert main(["verify-hypothesis", "--spec", "example21", "--grid-size", "101",
                 "--out", str(out), "--canonical"]) == 0
    doc = json.loads((out / "hypothesis_report.json").read_text())
    assert doc["h1"]["verdict"] == "PASS"
    assert len(doc["h1"]["deltas"]) == len(doc["h1"]["sup_distances"]) > 0
    assert doc["h1"]["probes"] == 64
    assert doc["h2"]["verdict"] == "PASS"
    assert doc["h2"]["graph_period"] == 1
    assert doc["h2"]["escape_indices"] == [0, 100]


def test_verify_hypothesis_explicit_h1_indeterminate(tmp_path):
    out = tmp_path / "v2"
    assert main(["verify-hypothesis", "--spec", "ds3", "--out", str(out),
                 "--canonical"]) == 0
    doc = json.loads((out / "hypothesis_report.json").read_text())
    assert doc["h1"]["verdict"] == "INDETERMINATE"
    assert doc["h2"]["verdict"] == "PASS"


def test_missing_spec_file_exits_2_without_partial_output(tmp_path):
    out = tmp_path / "none"
    assert main(["analyze", "--spec", str(tmp_path / "ghost.json"),
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b'{"family": "gaussian_shift\xff"}'],
                         ids=["directory", "not_utf8"])
def test_unreadable_spec_file_exits_2(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    if content is None:
        spec.mkdir()
    else:
        spec.write_bytes(content)
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError: spec file cannot be read" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_deeply_nested_spec_file_exits_2(tmp_path, capsys):
    # valid JSON past the parser's recursion limit, which ended in a RecursionError traceback
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100000 + "]" * 100000)
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError: spec file is nested too deeply to read" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_numerical_refusal_exits_3(tmp_path):
    bad = tmp_path / "red.json"
    bad.write_text(json.dumps({
        "family": "explicit_matrix",
        "params": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
    }))
    assert main(["analyze", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_size_cap_exits_2_before_any_eigensolve(tmp_path, monkeypatch, capsys):
    def no_eig(a, *args, **kwargs):
        raise AssertionError("eigensolve ran past the size cap")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(np.linalg, "eigvals", no_eig)
    monkeypatch.setattr(spectral, "_arnoldi", no_eig)
    assert main(["analyze", "--spec", "example21", "--grid-size", "2001",
                 "--out", str(tmp_path / "o")]) == 2
    assert "SizeLimitExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["analyze", "yaglom", "simulate"])
def test_size_cap_exits_2_before_the_matrix_is_built(tmp_path, monkeypatch, capsys, cmd):
    def no_build(spec):
        raise AssertionError("the operator was built past the size cap")

    monkeypatch.setattr(cli, "build_operator", no_build)
    assert main([cmd, "--spec", "example23gauss", "--grid-size", "2001",
                 "--out", str(tmp_path / "o")]) == 2
    assert "SizeLimitExceeded: dense eigensolve limited to 2000 nodes, got 2001" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "sym2", "--format", "json"],
    ["analyze", "--spec", "sym2", "--n-paths", "10"],
    ["fixtures", "--n-paths", "10"],
    ["analyze", "--spec", "sym2", "--peripheral-tol", "1e-6"],
    ["yaglom", "--spec", "sym2", "--peripheral-tol", "1e-6"],
    ["simulate", "--spec", "sym2", "--peripheral-tol", "1e-6"],
])
def test_ignored_flags_rejected(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {argv[-2]}" in err
    assert "Traceback" not in err


def test_simulate_csv_and_env_seed(tmp_path, monkeypatch):
    # --seed, default 0, is the one source of the seed: QSDLAB_SEED is not read
    args = ["simulate", "--spec", "sym2", "--n", "10", "--n-paths", "20000"]
    assert main(args + ["--out", str(tmp_path / "s7"), "--seed", "7"]) == 0
    assert main(args + ["--out", str(tmp_path / "s0"), "--seed", "0"]) == 0
    monkeypatch.setenv("QSDLAB_SEED", "7")
    assert main(args + ["--out", str(tmp_path / "env")]) == 0
    monkeypatch.setenv("QSDLAB_SEED", "abc")
    assert main(args + ["--out", str(tmp_path / "env7"), "--seed", "7"]) == 0
    b7, b0 = ((tmp_path / d / "estimates.csv").read_bytes() for d in ("s7", "s0"))
    assert b7 != b0
    assert (tmp_path / "env" / "estimates.csv").read_bytes() == b0
    assert (tmp_path / "env7" / "estimates.csv").read_bytes() == b7
    header = b7.decode().splitlines()[0]
    assert header == "kind,n,n_paths,survivors,value,stderr"


def test_simulate_budget_notice_is_one_plain_line(tmp_path):
    # the default run expects 97.7 survivors: one stderr line, not a Python warning
    src = os.path.dirname(os.path.dirname(q.__file__))
    out = subprocess.run([sys.executable, "-m", "qsdlab.cli", "simulate", "--spec", "example21",
                          "--out", str(tmp_path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: expected survivors 97.7 < 1000")
    assert ".py" not in out.stderr


def test_window_run_search_overflow_warns_nothing(tmp_path):
    # the centers 2x reach +-1.6e308 at the ends, so the window run search's
    # keys overflow to +-inf; every command answers with no NumPy warning
    spec = tmp_path / "overflow.spec.json"
    spec.write_text(json.dumps({"family": "affine_uniform", "domain": [-8e307, 8e307],
                                "grid_size": 11,
                                "params": {"a": 2, "b": 0, "noise_halfwidth": 8e307}}))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(q.__file__))}

    def run(cmd):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qsdlab.cli",
                               cmd, "--spec", str(spec), "--out", str(tmp_path / cmd)],
                              capture_output=True, text=True, env=env)

    hyp = run("verify-hypothesis")
    assert hyp.returncode == 0, hyp.stderr
    sim = run("simulate")
    assert sim.returncode == 3 and "Reducible: 2 communicating classes" in sim.stderr, sim.stderr
    assert ".py" not in hyp.stderr + sim.stderr


def test_simulate_refuses_running_sums_past_the_float_range(tmp_path):
    # points near 8e307: the draws past the float range are absorbed with no
    # NumPy warning, and the survivors' sums of y overflow: one refusal line
    spec = tmp_path / "wide.spec.json"
    spec.write_text(json.dumps({"family": "gaussian_shift", "domain": [-8e307, 8e307],
                                "grid_size": 11, "params": {"sigma": 3e307}}))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qsdlab.cli",
                          "simulate", "--spec", str(spec), "--n", "3", "--x0", "7e307",
                          "--out", str(tmp_path / "s")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(q.__file__))})
    assert out.returncode == 2, out.stderr
    assert out.stderr == "InvalidDomain: the running sums of h are not finite\n"
    assert not (tmp_path / "s" / "estimates.csv").exists()


def test_simulate_canonical_changes_no_byte(tmp_path):
    # estimates.csv carries no timestamp: the flag is accepted and read by nothing
    args = ["simulate", "--spec", "ds3", "--n", "5", "--n-paths", "20000", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--out", str(tmp_path / "canon"), "--canonical"]) == 0
    plain, canon = ((tmp_path / d / "estimates.csv").read_bytes() for d in ("plain", "canon"))
    assert plain == canon


def test_lobo_table(tmp_path):
    out = tmp_path / "l"
    assert main(["lobo", "--spec", "cycle3", "--out", str(out), "--canonical",
                 "--h-state", "2", "--n-list", "61,122,244"]) == 0
    doc = json.loads((out / "lobo_table.json").read_text())
    devs = [abs(row["ratio"] - 1) for row in doc["table"]]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_fixtures_regeneration_deterministic(tmp_path):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert main(["fixtures", "--out", str(out1)]) == 0
    assert main(["fixtures", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for n in names:
        assert (out1 / n).read_bytes() == (out2 / n).read_bytes()
    assert "ds3.json" in names and "example21.spec.json" in names


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    checked_in = os.path.join(here, "fixtures")
    assert main(["fixtures", "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(checked_in))
    assert sorted(os.listdir(tmp_path)) == names
    for n in names:
        with open(os.path.join(checked_in, n), "rb") as fp:
            assert (tmp_path / n).read_bytes() == fp.read(), n


def test_checked_in_fixtures_match_oracle():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "fixtures", "ds3.json")
    doc = json.loads(open(path).read())
    from qsdlab.oracle import FiniteChain, exact_qsd_qed

    mu, eta, lam, m = exact_qsd_qed(FiniteChain(Q=np.asarray(doc["Q"])))
    assert np.allclose(doc["mu"], mu, atol=1e-12)
    assert np.allclose(doc["eta"], eta, atol=1e-12)
    assert doc["lambda"] == pytest.approx(lam, abs=1e-14)
    assert doc["m"] == m


# -- one batch per simulate, and the exit-2 cases ------------------------------

@pytest.mark.parametrize("name,n", [("sym2", 4), ("example21", 6)])
def test_simulate_draws_one_batch_for_both_estimates(tmp_path, monkeypatch, name, n):
    # the chunk loop that simulate_batch runs, run once, with h
    calls, loop = [], simulate._chunk_survivors

    def counted(spec, mover, x0, n, n_paths, seed, h, tau_hist):
        calls.append(h is not None)
        return loop(spec, mover, x0, n, n_paths, seed, h, tau_hist)

    monkeypatch.setattr(simulate, "_chunk_survivors", counted)
    out = tmp_path / "s"
    assert main(["simulate", "--spec", name, "--n", str(n), "--n-paths", "200000",
                 "--seed", "11", "--out", str(out)]) == 0
    assert calls == [True]

    # the same rows from the two stand-alone estimators, each drawing its own batch
    spec = q.get_spec(name)
    op = q.build_operator(spec)
    mu, lam = q.quasi_stationary_measure(q.peripheral_spectrum(op))
    if spec.is_explicit:
        x0, h, label = 0, (lambda s: (s == 1).astype(float)), "state:1"
    else:
        x0, h, label = 0.0, (lambda y: y), "y"
    est = q.estimate_yaglom(spec, x0, n, 200_000, seed=11, lam_hint=lam, grid=op.grid)
    est_b = q.estimate_birkhoff(spec, x0, n, h, 200_000, seed=11, lam_hint=lam)
    with open(tmp_path / "two.csv", "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["kind", "n", "n_paths", "survivors", "value", "stderr"])
        w.writerow(["yaglom_histogram", n, 200_000, est.effective_samples,
                    ";".join(repr(float(v)) for v in est.value), repr(est.stderr)])
        w.writerow(["yaglom_tv_vs_qsd", n, 200_000, est.effective_samples,
                    repr(q.tv_distance(est.value, mu)), repr(est.stderr)])
        w.writerow([f"birkhoff_average[{label}]", n, 200_000, est_b.effective_samples,
                    repr(est_b.value), repr(est_b.stderr)])
    assert (out / "estimates.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_simulate_holds_the_sums_not_the_states(tmp_path):
    # four chunks of sym2, about 1.3M survivors: each chunk's states are
    # binned as the chunk ends, so the peak is the joined running sums (two
    # survivor-sized float arrays while they are joined) and one chunk's
    # workspace; the whole batch, with its int64 states joined and the
    # summaries' copies, peaked at 3.40 units of 8 bytes a survivor, this
    # command at 2.43
    out = tmp_path / "s"
    tracemalloc.start()
    try:
        code = main(["simulate", "--spec", "sym2", "--n", "4", "--n-paths",
                     str(4 * simulate.CHUNK_SIZE), "--seed", "7", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out / "estimates.csv", newline="") as fp:
        survivors = int(next(csv.DictReader(fp))["survivors"])
    assert code == 0 and survivors > 1_300_000
    assert peak <= 2.9 * 8 * survivors, peak / (8 * survivors)


@pytest.mark.parametrize("name,n,n_paths,survivors", [("example21", 10, 1000, 0),
                                                      ("sym2", 4, 300, 85)])
def test_simulate_too_few_survivors_exits_3(tmp_path, capsys, name, n, n_paths, survivors):
    # counted once every chunk is binned, before any row is written
    assert main(["simulate", "--spec", name, "--n", str(n), "--n-paths", str(n_paths),
                 "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert f"TooFewSurvivors: {survivors} survivors out of {n_paths} paths at n={n}" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n-paths", "0"], ["--n", "-3"]])
def test_simulate_empty_horizon_or_batch_exits_2(tmp_path, capsys, flags):
    # checked before the spec is even resolved
    assert main(["simulate", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "s")] + flags) == 2
    assert "ValidationError: simulate needs --n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name,x0", [("sym2", "-1"), ("sym2", "5"), ("sym2", "0.7"),
                                     ("example21", "1.5")])
def test_simulate_bad_start_exits_2(tmp_path, capsys, monkeypatch, name, x0):
    # refused before the operator is built and its spectrum solved
    monkeypatch.setattr(cli, "build_operator", None)
    assert main(["simulate", "--spec", name, "--n", "3", "--n-paths", "100000",
                 "--x0", x0, "--out", str(tmp_path / "s")]) == 2
    assert "InvalidDomain" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_tabulated_simulate_exits_2_before_any_eigensolve_or_draw(tmp_path, capsys, monkeypatch):
    # a tabulated density has no draw: refused before the eigensolve, and by a
    # batch of no steps
    def no_eig(op):
        raise AssertionError("eigensolve ran for a family with no draw")

    monkeypatch.setattr(cli, "peripheral_spectrum", no_eig)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"family": "tabulated", "domain": [0, 1], "grid_size": 3,
                                "params": {"values": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5],
                                                      [0.0, 0.5, 1.0]]}}))
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "s")]) == 2
    assert "NotApplicable: cannot simulate family 'tabulated'" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    with pytest.raises(NotApplicable, match="cannot simulate family 'tabulated'"):
        q.simulate_batch(load_spec(path), 0.5, 0, 10)


def test_grid_size_with_explicit_chain_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "sym2.json"
    dump_spec(q.get_spec("sym2"), spec_path)
    for spec in ("sym2", str(spec_path)):
        for cmd in ("analyze", "verify-hypothesis", "yaglom"):
            assert main([cmd, "--spec", spec, "--grid-size", "999",
                         "--out", str(tmp_path / "o")]) == 2
            assert "NotApplicable" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_kernel_spec_rejects_unread_params():
    with pytest.raises(InvalidDomain, match="sigmma"):
        KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift", params={"sigmma": 2.0})
    with pytest.raises(InvalidDomain, match="indicator_region"):
        KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift",
                   params={"sigma": 1.0, "indicator_region": [-0.5, 0.5]})
    with pytest.raises(InvalidDomain):
        KernelSpec(family="explicit_matrix",
                   params={"matrix": [[0.5, 0.25], [0.25, 0.5]], "a": 2.0})
    # spec files still report it as a schema error
    with pytest.raises(SchemaError, match="sigmma"):
        spec_from_dict({"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 11,
                        "params": {"sigmma": 2.0}})


def test_analyze_and_yaglom_fit_from_the_same_start(tmp_path):
    # period-2 chain on 6 states with interleaved classes {0, 2, 4}, {1, 3, 5}:
    # the off-centre node keep[len(keep) // 4] = 1 is not the first node of
    # cyclic class 0, which is where the Cesaro fit starts
    matrix = [[0.0, 0.117, 0.0, 0.213, 0.0, 0.57],
              [0.129, 0.0, 0.297, 0.0, 0.373, 0.0],
              [0.0, 0.436, 0.0, 0.124, 0.0, 0.34],
              [0.207, 0.0, 0.267, 0.0, 0.326, 0.0],
              [0.0, 0.311, 0.0, 0.14, 0.0, 0.449],
              [0.386, 0.0, 0.14, 0.0, 0.274, 0.0]]
    spec = tmp_path / "six.json"
    spec.write_text(json.dumps({"family": "explicit_matrix", "params": {"matrix": matrix}}))
    for cmd in ("analyze", "yaglom"):
        assert main([cmd, "--spec", str(spec), "--out", str(tmp_path / cmd),
                     "--canonical"]) == 0
    doc = json.loads((tmp_path / "analyze" / "analysis.json").read_text())
    assert doc["classes"] == [[0, 2, 4], [1, 3, 5]]
    curve = (tmp_path / "analyze" / "tv_curve.csv").read_bytes()
    assert curve == (tmp_path / "yaglom" / "tv_curve.csv").read_bytes()
    rate = json.loads((tmp_path / "yaglom" / "yaglom.json").read_text())["rate_fit"]
    assert rate == doc["rates"]["cesaro"]


@pytest.mark.parametrize("name", ["example21", "cycle3"])
def test_yaglom_computes_only_what_it_writes(tmp_path, monkeypatch, name):
    # yaglom writes the spec and the rate fit: no ergodic measure, no mass-decay orbit
    def unwritten(*args, **kwargs):
        raise AssertionError("computed for a report that yaglom does not write")

    monkeypatch.setattr(cli, "quasi_ergodic_measure", unwritten)
    monkeypatch.setattr(cli, "mass_decay_check", unwritten)
    assert main(["yaglom", "--spec", name, "--out", str(tmp_path / "y"), "--canonical"]) == 0
    assert json.loads((tmp_path / "y" / "yaglom.json").read_text())["rate_fit"]["passed"]


@pytest.mark.parametrize("cmd,name,n_max", [
    ("analyze", "sym2", "0"), ("analyze", "sym2", "-5"), ("analyze", "sym2", "2"),
    ("yaglom", "sym2", "4"), ("yaglom", "cycle2", "1"), ("analyze", "cycle2", "1"),
])
def test_short_rate_fit_horizon_exits_2(tmp_path, capsys, monkeypatch, cmd, name, n_max):
    # refused before the operator is built and its spectrum solved
    monkeypatch.setattr(cli, "build_operator", None)
    assert main([cmd, "--spec", name, "--n-max", n_max,
                 "--out", str(tmp_path / "o")]) == 2
    assert "ValidationError: --n-max must be at least 5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "example21", "--grid-size", "1601", "--n-max", "2499"],
    ["yaglom", "--spec", "example21", "--grid-size", "1601", "--n-max", "2499"],
    ["analyze", "--spec", "sym2", "--n-max", "1000000000"],
])
def test_long_rate_fit_horizon_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the horizon's n x N floats exceed the dense route's matrix budget, 2000**2
    # (1601 x 2499 > 4e6): refused before the operator is built, with nothing
    # allocated, where a billion steps ended in numpy's MemoryError traceback
    monkeypatch.setattr(cli, "build_operator", None)
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert "SizeLimitExceeded: --n-max" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", ["4000000", "1000000000"])
def test_long_simulate_horizon_exits_2(tmp_path, capsys, monkeypatch, n):
    # the n + 1 absorption-time counts exceed the same budget, 2000**2:
    # refused before the operator is built, with nothing allocated, where a
    # billion steps ended in numpy's MemoryError traceback
    monkeypatch.setattr(cli, "build_operator", None)
    tracemalloc.start()
    try:
        code = main(["simulate", "--spec", "sym2", "--n", n, "--n-paths", "1000",
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert f"SizeLimitExceeded: --n {n} needs" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid_size", ["31251", "10000000000"])
def test_audit_grid_over_the_probe_budget_exits_2(tmp_path, capsys, monkeypatch, grid_size):
    # the H1 probe's two 64 x N blocks exceed the same budget, 2000**2, from
    # 31251 nodes: refused before the grid is made, with nothing allocated,
    # where ten billion nodes ended in numpy's _ArrayMemoryError traceback
    monkeypatch.setattr(cli, "build_operator", None)
    tracemalloc.start()
    try:
        code = main(["verify-hypothesis", "--spec", "example21", "--grid-size", grid_size,
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert f"SizeLimitExceeded: --grid-size {grid_size} needs two 64 x" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("cmd,name", [("analyze", "sym2"), ("yaglom", "cycle2"),
                                      ("yaglom", "cycle3")])
def test_shortest_rate_fit_horizon_runs(tmp_path, cmd, name):
    out = tmp_path / "o"
    assert main([cmd, "--spec", name, "--n-max", "5", "--out", str(out)]) == 0
    with open(out / "tv_curve.csv") as fp:
        assert len(list(csv.reader(fp))) == 1 + 5


@pytest.mark.parametrize("flag,value", [
    ("--x0", "-1"), ("--x0", "5"), ("--h-state", "-1"), ("--h-state", "7"),
    # a 401-digit state, which float() overflowed before the range test
    pytest.param("--x0", str(10 ** 400), id="--x0-1e400"),
    pytest.param("--h-state", str(-10 ** 400), id="--h-state--1e400"),
])
def test_lobo_state_out_of_range_exits_2(tmp_path, capsys, flag, value):
    assert main(["lobo", "--spec", "sym2", flag, value,
                 "--out", str(tmp_path / "l")]) == 2
    assert "InvalidDomain" in capsys.readouterr().err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("matrix,flags,refused", [
    ([[0.4, 0.3, 0.1], [0.2, 0.4, 0.2], [0, 0, 0]], ["--x0", "2"], "--x0 2"),
    ([[0.4, 0.3, 0.1], [0.2, 0.4, 0.2], [0, 0, 0]], ["--h-state", "2"], "--h-state 2"),
    ([[0, 0, 0], [0.3, 0.4, 0.2], [0.2, 0.3, 0.4]], [], "--x0 0"),
], ids=["x0", "h_state", "default_x0"])
def test_lobo_on_an_escape_state_exits_2(tmp_path, capsys, matrix, flags, refused):
    # the exact sum and the leading term both vanish there: no ratio exists
    spec = _chain_file(tmp_path, matrix)
    assert main(["lobo", "--spec", spec, "--out", str(tmp_path / "l")] + flags) == 2
    err = capsys.readouterr().err
    assert f"EscapeNode: {refused} is in the escape set" in err and "Traceback" not in err
    assert not (tmp_path / "l").exists()


def test_lobo_refuses_a_survival_mass_that_underflows(tmp_path, capsys):
    # lam is about 0.011, so lam**240 is below the smallest double
    spec = _chain_file(tmp_path, [[0.01, 0.001], [0.002, 0.01]])
    assert main(["lobo", "--spec", spec, "--out", str(tmp_path / "l")]) == 3
    assert "MassExtinct: the survival mass from state 0 underflows to zero by n = 240" in (
        capsys.readouterr().err)
    assert not (tmp_path / "l").exists()
    out = tmp_path / "short"
    assert main(["lobo", "--spec", spec, "--n-list", "60,120", "--out", str(out)]) == 0
    rows = json.loads((out / "lobo_table.json").read_text())["table"]
    assert [r["n"] for r in rows] == [60, 120] and all(r["predicted"] > 0 for r in rows)


def test_lobo_refuses_before_any_exact_loop(tmp_path, monkeypatch, capsys):
    # ds3's survival mass underflows by n = 1000000: the leading terms refuse
    # before lobo_sum runs its n-step loop for any entry
    def no_loop(*args):
        raise AssertionError("lobo_sum ran before the refusal")

    monkeypatch.setattr(cli, "lobo_sum", no_loop)
    assert main(["lobo", "--spec", "ds3", "--n-list", "60,1000000,1300000",
                 "--out", str(tmp_path / "l")]) == 3
    assert "MassExtinct: the survival mass from state 0 underflows to zero by n = 1000000" in (
        capsys.readouterr().err)
    assert not (tmp_path / "l").exists()


_GAUSS = {"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 11,
          "params": {"sigma": 0.5}}
_AFFINE = {"family": "affine_uniform", "domain": [-1, 1], "grid_size": 11,
           "params": {"a": 2.0, "b": 0.0, "noise_halfwidth": 1.0}}
_TABLE = {"family": "tabulated", "domain": [0, 1], "grid_size": 2,
          "params": {"values": [[1.0, 0.0], [0.0, 1.0]]}}


@pytest.mark.parametrize("doc,error", [
    ({**_GAUSS, "grid_size": "abc"}, "SchemaError: grid_size must be an integer"),
    ({**_GAUSS, "grid_size": 2.7}, "SchemaError: grid_size must be an integer"),
    ({**_GAUSS, "domain": ["a", 1]}, "SchemaError: domain bound must be a number"),
    ({**_GAUSS, "measure": {"name": "lebesgue_scaled", "scale": 2.0}},
     "SchemaError: unknown fields ['measure']"),
    ({"family": "explicit_matrix", "params": {"matrix": 5}},
     "SchemaError: explicit matrix must be square and non-empty"),
    pytest.param({"family": "explicit_matrix", "params": {"matrix": [[0.5, "a"], [0.2, 0.3]]}},
                 "SchemaError: explicit matrix is not a numeric array",
                 id="doc5-SchemaError: non-numeric entry"),
    pytest.param({"family": "explicit_matrix", "params": {"matrix": [[0.5, 0.1], [0.2]]}},
                 "SchemaError: explicit matrix is not a numeric array",
                 id="doc6-SchemaError: ragged rows"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]], "labels": ["a"]}},
     "SchemaError: unknown params ['labels'] for family explicit_matrix"),
    ({"family": "affine_uniform", "domain": [-1, 1], "grid_size": 11,
      "params": {"a": 2.0, "b": 0.0}},
     "SchemaError: missing params ['noise_halfwidth'] for family affine_uniform"),
    ({**_GAUSS, "params": {}}, "SchemaError: missing params ['sigma'] for family gaussian_shift"),
    ({**_GAUSS, "params": {"sigma": "abc"}}, "SchemaError: sigma must be a finite number"),
    ({**_GAUSS, "params": {"sigma": 0}}, "SchemaError: sigma must be positive"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "b": None}},
     "SchemaError: b must be a finite number"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "a": True}},
     "SchemaError: a must be a finite number"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "a": float("inf")}},
     "SchemaError: a must be a finite number"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "noise_halfwidth": [6]}},
     "SchemaError: noise_halfwidth must be a finite number"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "noise_halfwidth": float("nan")}},
     "SchemaError: noise_halfwidth must be a finite number"),
    ({**_AFFINE, "params": {**_AFFINE["params"], "noise_halfwidth": -1.0}},
     "SchemaError: noise_halfwidth must be positive"),
    ({**_TABLE, "params": {"values": [[1.0, "x"], [1.0, 1.0]]}},
     "SchemaError: values is not a numeric array"),
    ({**_TABLE, "params": {"values": [[1.0, float("nan")], [1.0, 1.0]]}},
     "SchemaError: values has NaN or infinite entries"),
    ({**_TABLE, "params": {"values": [[1.0, 1.0, 1.0]]}},
     "SchemaError: values must be square and non-empty"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]]}, "domain": [5, 9]},
     "SchemaError: fields ['domain'] do not apply to explicit_matrix"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]]}, "grid_size": 1},
     "SchemaError: fields ['grid_size'] do not apply to explicit_matrix"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]]}, "quadrature": "trapezoid"},
     "SchemaError: unknown fields ['quadrature']"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]]}, "measure": "lebesgue"},
     "SchemaError: unknown fields ['measure']"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5]]},
      "quadrature": "ulam", "domain": [5, 9], "grid_size": 77},
     "SchemaError: unknown fields ['quadrature']"),
    ({**_GAUSS, "domain": ["-1", True]}, "SchemaError: domain bound must be a number"),
    ({**_TABLE, "params": {"values": [[1.0] * 3] * 3}},
     "SchemaError: values must be 2 x 2, got 3 x 3"),
])
def test_malformed_spec_file_exits_2(tmp_path, capsys, doc, error):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# each flaw of a table: the error KernelSpec raises and the reason after the table's name
_BAD_TABLES = {
    "negative": ([[0.5, -0.25], [0.25, 0.5]], NegativeDensity, "has negative entries"),
    "nan": ([[0.5, float("nan")], [0.25, 0.5]], InvalidDomain, "has NaN or infinite entries"),
    "ragged": ([[0.5, 0.25], [0.25]], InvalidDomain, "is not a numeric array"),
    "non_numeric": ([[0.5, "a"], [0.25, 0.5]], InvalidDomain, "is not a numeric array"),
    "not_square": ([[0.5, 0.25]], InvalidDomain, "must be square and non-empty"),
}


@pytest.mark.parametrize("flaw", sorted(_BAD_TABLES))
@pytest.mark.parametrize("family,key,name", [
    ("explicit_matrix", "matrix", "explicit matrix"), ("tabulated", "values", "values"),
], ids=["matrix", "values"])
def test_both_tables_are_refused_alike_when_the_spec_is_made(tmp_path, capsys, family, key,
                                                               name, flaw):
    # one rule for an explicit chain's matrix and a tabulated density's values,
    # from the library and from a spec file
    table, error, reason = _BAD_TABLES[flaw]
    doc = {"family": family, "params": {key: table}}
    if family == "tabulated":
        doc.update(domain=[0, 1], grid_size=2)
    with pytest.raises(error) as err:
        KernelSpec(**doc)
    assert type(err.value) is error and str(err.value).startswith(f"{name} {reason}")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"SchemaError: {name} {reason}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,error", [
    ("[1, 2]", "SchemaError: spec document must be a JSON object\n"),
    (json.dumps({"schema_version": 2, **_TABLE}), "SchemaError: unsupported schema_version 2\n"),
    ("{not json", "SchemaError: spec file is not valid JSON: "),
], ids=["not_an_object", "schema_version_2", "not_json"])
def test_spec_document_refusals(tmp_path, capsys, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "o").exists()


def test_kernel_spec_takes_no_quadrature():
    # the trapezoid rule is the one quadrature: there is no field to set
    with pytest.raises(TypeError):
        KernelSpec(domain=(0, 1), family="gaussian_shift", params={"sigma": 1.0},
                   grid_size=11, quadrature="trapezoid")


@pytest.mark.parametrize("doc,note", [
    ({**_TABLE, "grid_size": 3, "params": {"values": [[1.0] * 3] * 3}},
     "a tabulated density exists only on the grid nodes"),
    ({"family": "explicit_matrix", "params": {"matrix": [[0.5, 0.25], [0.25, 0.5]]}},
     "finite chains have no density to probe"),
], ids=["tabulated", "explicit"])
def test_h1_indeterminate_names_the_reason(tmp_path, doc, note):
    # a table has values only on the grid nodes, and the H1 probe looks between them
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "v"
    assert main(["verify-hypothesis", "--spec", str(spec), "--out", str(out),
                 "--canonical"]) == 0
    rep = json.loads((out / "hypothesis_report.json").read_text())
    assert rep["h1"] == {"verdict": "INDETERMINATE", "note": note}
    assert rep["h2"]["verdict"] == "PASS" and rep["h2"]["nonescape_mass_positive"]
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0


def test_lobo_on_a_density_family_exits_2(tmp_path, capsys):
    assert main(["lobo", "--spec", "example21", "--out", str(tmp_path / "l")]) == 2
    err = capsys.readouterr().err
    assert "ValidationError: the exact cumulative-sum table needs an explicit chain" in err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("cmd", ["analyze", "verify-hypothesis", "yaglom", "simulate"])
@pytest.mark.parametrize("bundled", [True, False])
def test_grid_size_zero_exits_2(tmp_path, capsys, cmd, bundled):
    spec = "example21"
    if not bundled:
        spec = str(tmp_path / "ex21.json")
        dump_spec(q.get_spec("example21"), spec)
    assert main([cmd, "--spec", spec, "--grid-size", "0", "--out", str(tmp_path / "o")]) == 2
    assert "InvalidDomain: grid_size must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_list", ["0", "60,abc", "60,-1", ""])
def test_lobo_bad_n_list_exits_2(tmp_path, capsys, n_list):
    # checked before the spec is even resolved
    assert main(["lobo", "--spec", str(tmp_path / "missing.json"), "--n-list", n_list,
                 "--out", str(tmp_path / "l")]) == 2
    assert "ValidationError: --n-list" in capsys.readouterr().err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", str(2 ** 64)]])
def test_simulate_bad_seed_exits_2(tmp_path, capsys, flag):
    # checked before the spec is even resolved
    assert main(["simulate", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "s")] + flag) == 2
    assert "ValidationError" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_simulate_largest_seed_runs(tmp_path):
    assert main(["simulate", "--spec", "sym2", "--n", "2", "--n-paths", "2000",
                 "--seed", str(2 ** 64 - 1), "--out", str(tmp_path / "s")]) == 0


def _chain_file(tmp_path, matrix):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"family": "explicit_matrix", "params": {"matrix": matrix}}))
    return str(path)


def test_lobo_above_oracle_cap_exits_2(tmp_path, capsys):
    spec = _chain_file(tmp_path, np.full((60, 60), 0.9 / 60).tolist())
    assert main(["lobo", "--spec", spec, "--out", str(tmp_path / "l")]) == 2
    err = capsys.readouterr().err
    assert "SizeLimitExceeded: the exact table is limited to 50 states, got 60" in err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("n_list", ["1333334", "60,1000000000"])
def test_lobo_horizon_over_the_budget_exits_2(tmp_path, capsys, monkeypatch, n_list):
    # n x states floats of iterates over the budget, 2000**2 (ds3 has 3
    # states): refused before any row, where a billion steps ran for an hour
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "lobo_sum", no_rows)
    assert main(["lobo", "--spec", "ds3", "--n-list", n_list, "--out", str(tmp_path / "l")]) == 2
    err = capsys.readouterr().err
    assert "SizeLimitExceeded: --n-list entry" in err and "Traceback" not in err
    assert not (tmp_path / "l").exists()


def test_lobo_horizon_at_the_budget_runs(tmp_path, monkeypatch):
    # 1333333 x 3 floats fit the budget: the row is computed
    steps = []
    monkeypatch.setattr(cli, "lobo_sum", lambda chain, h, x, n: steps.append(n) or 1.0)
    monkeypatch.setattr(cli, "lobo_leading_term", lambda chain, h, x, n: 1.0)
    assert main(["lobo", "--spec", "ds3", "--n-list", "1333333",
                 "--out", str(tmp_path / "l"), "--canonical"]) == 0
    assert steps == [1333333]


@pytest.mark.parametrize("cmd", ["analyze", "lobo"])
def test_all_escape_chain_exits_3(tmp_path, capsys, cmd):
    spec = _chain_file(tmp_path, [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([cmd, "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert "AllNodesEscape: no non-escape nodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_lobo_refuses_reducible_chain_exits_3(tmp_path, capsys):
    spec = _chain_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
    for cmd in ("analyze", "lobo"):
        assert main([cmd, "--spec", spec, "--out", str(tmp_path / cmd)]) == 3
        assert "Reducible: 2 communicating classes" in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


def test_vanishing_perron_pairing_is_ill_conditioned(tmp_path, capsys):
    # a 20-state birth-death chain drifting up: irreducible, so its Perron
    # root is simple, yet <mu_0, f_0> rounds to about 3e-16 (the oracle
    # measures an eigenvector condition number of about 1e18)
    n = 20
    matrix = np.diag(np.full(n, 0.05)) + np.diag(np.full(n - 1, 0.8), 1) \
        + np.diag(np.full(n - 1, 0.01), -1)
    spec = _chain_file(tmp_path, matrix.tolist())
    assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"IllConditionedEigenbasis: Perron pairing <mu_0, f_0> = \S+ at "
                     r"eigenvalue 0\.226887 is below its floor 1e-12", err), err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_periodic_birth_death_chain_reaches_the_pairing_floor(tmp_path, capsys):
    # with no holding the chain has period 2; no swept periodic birth-death
    # chain fails the cone or biorthonormality check, and this one is refused
    # at the pairing first
    n = 18
    matrix = np.diag(np.full(n - 1, 0.8), 1) + np.diag(np.full(n - 1, 0.01), -1)
    spec = _chain_file(tmp_path, matrix.tolist())
    assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"IllConditionedEigenbasis: Perron pairing <mu_0, f_0> = \S+ at "
                     r"eigenvalue 0\.176446 is below its floor 1e-12", err), err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-7, 3e-7, 1e-5, 2e-5, 3e-5])
def test_near_degenerate_pair_is_refused_as_no_gap(tmp_path, capsys, eps):
    # eigenvalues 0.5 +- eps of graph period 1: up to 1e-7 both lie in the
    # 1e-6 band, above that the second lies in the 1e-4 gap floor; at 3e-5
    # the gap clears the floor
    spec = _chain_file(tmp_path, [[0.5, eps], [eps, 0.5]])
    code = main(["analyze", "--spec", spec, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if eps == 3e-5:
        assert code == 0 and err == ""
        return
    assert code == 3 and not (tmp_path / "o").exists()
    assert re.fullmatch(r"NoSpectralGapWithinTol: [^\n]*\n", err), err


def test_cli_import_leaves_scipy_special_unloaded():
    # the Gaussian sampler and density import it where they need it; so do
    # the Toeplitz row's first product (numpy.fft) and simulate_batch's
    # worker (concurrent.futures)
    src = os.path.dirname(os.path.dirname(q.__file__))
    code = ("import sys, qsdlab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numpy.fft', 'concurrent.futures'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert "scipy.special" not in out.stdout
    assert "numpy.fft" not in out.stdout and "concurrent.futures" not in out.stdout


@pytest.mark.parametrize("cmd", ["analyze", "lobo"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrix_exits_2(tmp_path, capsys, cmd, bad):
    spec = _chain_file(tmp_path, [[bad, 0.2], [0.3, 0.4]])
    assert main([cmd, "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError: explicit matrix has NaN or infinite entries" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("cmd", ["analyze", "lobo"])
def test_lone_state_without_self_loop_is_reducible(tmp_path, capsys, cmd):
    spec = _chain_file(tmp_path, [[0.0, 1.0], [0.0, 0.0]])
    assert main([cmd, "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert ("Reducible: the only non-escape state has no self-loop"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("matrix", [
    [[0.5]],
    [[0.3, 0.3], [0.3, 0.3]],
    [[0.5, 0.5], [0.0, 0.0]],
    [[0.1, 0.2, 0.3], [0.05, 0.1, 0.15], [0.1, 0.2, 0.3]],
    [[0.3, 0.3], [0.3, 0.3000001]],
], ids=["1", "2", "zero_row", "3", "near"])
@pytest.mark.parametrize("cmd,report", [("analyze", "analysis.json"), ("yaglom", "yaglom.json")])
def test_rank_one_chain_reports_an_infinite_rate(tmp_path, cmd, report, matrix):
    # the conditioned law equals mu after one step (after two, to the floor,
    # for the nearly rank-one chain): nothing is left to fit
    spec = _chain_file(tmp_path, matrix)
    out = tmp_path / "o"
    assert main([cmd, "--spec", spec, "--out", str(out)]) == 0
    for path in out.iterdir():
        assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), path.name
    doc = (out / report).read_text()
    assert '"rate": Infinity' in doc and '"passed": true' in doc


def test_stochastic_chain_never_loses_mass(tmp_path):
    # no state leaks, so the survival mass never falls below one
    spec = _chain_file(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
    out = tmp_path / "o"
    assert main(["analyze", "--spec", spec, "--out", str(out), "--canonical"]) == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["decay"] == {"n0": None, "alpha": None, "never_subunit": True}
    assert doc["rates"]["yaglom"]["rate"] == math.inf and doc["rates"]["yaglom"]["passed"]


def _relabelled(matrix, perm):
    """The chain with state i renamed to the position of i in perm."""
    return np.asarray(matrix)[np.ix_(perm, perm)].tolist()


def test_cyclic_verdict_does_not_depend_on_the_escape_state_position(tmp_path):
    # state 1 never receives mass; relabelled, the escape state comes last
    matrix, perm = [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]], [0, 2, 1]
    docs = []
    for k, chain in enumerate((matrix, _relabelled(matrix, perm))):
        out = tmp_path / str(k)
        assert main(["analyze", "--spec", _chain_file(tmp_path, chain), "--out", str(out)]) == 0
        docs.append(json.loads((out / "analysis.json").read_text()))
    a, b = docs
    assert a["lambda"] == b["lambda"] and a["m"] == b["m"] == 2
    assert a["rates"] == b["rates"] and a["rates"]["cesaro"]["passed"]
    for field in ("qsd", "qed"):
        assert b[field] == [a[field][i] for i in perm], field
    assert b["classes"] == [[perm.index(i) for i in c] for c in a["classes"]]


def test_cyclic_chain_leaking_into_the_escape_state_is_answered(tmp_path):
    # both classes send mass 0.2 into the dying state 1, which belongs to no
    # class; either labelling gives the oracle's answer and a passing fit
    matrix, perm = [[0, 0.2, 0.5], [0, 0, 0], [0.5, 0.2, 0]], [0, 2, 1]
    mu, eta, lam, m = q.exact_qsd_qed(q.FiniteChain(Q=np.array(matrix)))
    docs = []
    for k, chain in enumerate((matrix, _relabelled(matrix, perm))):
        out = tmp_path / str(k)
        assert main(["analyze", "--spec", _chain_file(tmp_path, chain), "--out", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["rates"]["cesaro"]["passed"]
        docs.append(doc)
    a, b = docs
    assert a["m"] == b["m"] == m == 2 and a["lambda"] == b["lambda"]
    assert abs(a["lambda"] - lam) <= 1e-10
    for field, exact in (("qsd", mu), ("qed", eta)):
        assert b[field] == [a[field][i] for i in perm], field
        assert np.abs(np.array(a[field]) - exact).max() <= 1e-10, field


def test_cyclic_classes_do_not_depend_on_the_eigenfunction_size(tmp_path):
    # f_0 is about 2.6e-11 on state 2, which the classes of the reachability
    # audit place as well as any other state
    matrix = [[0, 0.5, 0], [0.5, 0, 0.3], [0, 1e-11, 0]]
    out = tmp_path / "o"
    assert main(["analyze", "--spec", _chain_file(tmp_path, matrix), "--out", str(out)]) == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["m"] == 2 and doc["classes"] == [[0, 2], [1]]
    mu, _, lam, m = q.exact_qsd_qed(q.FiniteChain(Q=np.array(matrix)))
    assert m == 2 and abs(doc["lambda"] - lam) <= 1e-12
    assert np.abs(np.array(doc["qsd"]) - mu).max() <= 1e-9


def test_simulate_survival_rate_beyond_float_range_runs(tmp_path, capsys):
    # lambda is about 2.5e199, so n_paths * lambda**3 overflows a float: the
    # survivor budget is compared in log space
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"family": "cubic_uniform", "domain": [-1e200, 1e200],
                                "grid_size": 5, "params": {"noise_halfwidth": 1.0}}))
    out = tmp_path / "s"
    assert main(["simulate", "--spec", str(path), "--n", "3", "--n-paths", "2000",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "estimates.csv").exists()


@pytest.mark.parametrize("cmd", ["analyze", "verify-hypothesis", "yaglom", "simulate"])
def test_weighted_matrix_overflow_exits_2(tmp_path, capsys, cmd):
    # finite table values times the quadrature weights (5e11) overflow
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"family": "tabulated", "domain": [0, 1e12], "grid_size": 3,
                                "params": {"values": [[1e300] * 3] * 3}}))
    assert main([cmd, "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "InvalidDomain: row masses overflow" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# density documents whose operator is not sub-Markov, with the largest row mass:
# a table of 2s; a quadrature row mass of 7.98 where the true one is below 1
# (sigma is h / 20); a table whose lambda is 5e176
NOT_SUB_MARKOV = {
    "table_of_twos": ({"family": "tabulated", "domain": [0, 1], "grid_size": 2,
                       "params": {"values": [[2, 2], [2, 2]]}}, "2.0"),
    "narrow_gaussian": ({"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 101,
                         "params": {"sigma": 1e-3}}, "7.97884"),
    "huge_table": ({"family": "tabulated", "domain": [0, 1e-123], "grid_size": 2,
                    "params": {"values": [[0, 1e300], [1e300, 0]]}}, "5.0000000000000006e+176"),
}


@pytest.mark.parametrize("cmd", ["analyze", "verify-hypothesis", "yaglom", "simulate"])
@pytest.mark.parametrize("case", sorted(NOT_SUB_MARKOV))
def test_density_row_sum_above_one_exits_2(tmp_path, capsys, cmd, case):
    doc, top = NOT_SUB_MARKOV[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"RowSumExceedsOne: row sum {top}" in err and "exceeds one" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family,params", [
    ("gaussian_shift", {"sigma": 1e-310}),
    ("affine_uniform", {"a": 2.0, "b": 0.0, "noise_halfwidth": 1e-310}),
])
def test_non_finite_density_is_invalid_domain(tmp_path, capsys, family, params):
    # the density overflows to infinity: an invalid input, not a negative density
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": family, "domain": [-1, 1], "grid_size": 11,
                                "params": params}))
    assert main(["verify-hypothesis", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "InvalidDomain: density evaluated to a non-finite value" in err
    assert not (tmp_path / "o").exists()


# density documents refused with exit 2, and the reason: the density, then
# its product with the quadrature weights (5e11), overflows
OVERFLOWING = {
    "narrow_gaussian": ({"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 11,
                         "params": {"sigma": 1e-310}},
                        "density evaluated to a non-finite value"),
    "narrow_window": ({"family": "affine_uniform", "domain": [-1, 1], "grid_size": 11,
                       "params": {"a": 2.0, "b": 0.0, "noise_halfwidth": 1e-310}},
                      "density evaluated to a non-finite value"),
    "huge_table": ({"family": "tabulated", "domain": [0, 1e12], "grid_size": 3,
                    "params": {"values": [[1e300] * 3] * 3}},
                   "row masses overflow: the density times the weights is not finite"),
}


@pytest.mark.parametrize("cmd", ["analyze", "verify-hypothesis"])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_density_is_refused_in_one_line(tmp_path, capsys, cmd, name):
    # no NumPy RuntimeWarning comes before the refusal
    doc, reason = OVERFLOWING[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"InvalidDomain: {reason}\n"
    assert not (tmp_path / "o").exists()


WIDE = {"family": "gaussian_shift", "domain": [-1.5e308, 1.5e308], "grid_size": 5,
        "params": {"sigma": 1.0}}


@pytest.mark.parametrize("cmd", [["analyze"], ["verify-hypothesis"],
                                 ["simulate", "--n", "3", "--n-paths", "1000"]],
                         ids=["analyze", "verify-hypothesis", "simulate"])
def test_overflowing_domain_width_is_refused_in_one_line(tmp_path, capsys, cmd):
    # upper - lower overflows: refused by KernelSpec, before linspace makes NaN nodes
    reason = "domain width 1.5e+308 - -1.5e+308 is not finite"
    with pytest.raises(InvalidDomain, match=f"^{re.escape(reason)}$"):
        KernelSpec(**WIDE)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(WIDE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(cmd + ["--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"SchemaError: {reason}\n"
    assert not (tmp_path / "o").exists()


def test_birkhoff_stderr_of_huge_values_is_finite(tmp_path):
    # values near 1e200: their squared deviations would overflow unscaled
    doc = {"family": "gaussian_shift", "domain": [1e200, 2e200], "grid_size": 5,
           "params": {"sigma": 1e200}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--spec", str(path), "--n", "3", "--n-paths", "20000",
                     "--out", str(tmp_path / "s")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = list(csv.DictReader((tmp_path / "s" / "estimates.csv").open()))
    (row,) = [r for r in rows if r["kind"] == "birkhoff_average[y]"]
    assert math.isfinite(float(row["stderr"])) and 1e197 < float(row["stderr"]) < 1e198
    assert float(row["value"]) == pytest.approx(1.5e200, rel=0.01)
