"""scripts/run_pipeline.py: every case is a valid command line, and no two share a directory."""

import importlib.util
from pathlib import Path

from qsdlab.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_parses_and_has_its_own_directory(tmp_path):
    cases = load_script().cases(str(tmp_path))
    outs = [out for out, _ in cases]
    assert len(set(outs)) == len(outs)
    parser = build_parser()
    for out, commands in cases:
        # the commands of one directory write different files: one of each
        # kind, and never analyze with yaglom (both write tv_curve.csv)
        kinds = {argv[0] for argv in commands}
        assert len(kinds) == len(commands) and not {"analyze", "yaglom"} <= kinds, out
        for argv in commands:
            args = parser.parse_args(argv + ["--out", out])   # a renamed flag exits 2 here
            assert args.out == out
            # every report in the tree is canonical: no case writes a run log
            assert getattr(args, "canonical", True), argv
    # every family of case is there: the bundled trees and the comparisons
    groups = {Path(out).relative_to(tmp_path).parts[0] for out in outs}
    assert {"mc", "hyp", "lobo", "specs", "arnoldi", "example21", "sym2"} <= groups
    # the Arnoldi cases: seven bundled grids from 11 to 1601 nodes, and the
    # narrow Gaussian, whose runs restart
    arnoldi = {Path(out).name: commands for out, commands in cases
               if Path(out).parent == tmp_path / "arnoldi"}
    assert sorted(arnoldi) == ["example21_1601", "example21_401", "example21_41",
                               "example22cubic_11", "example22cubic_801",
                               "example23gauss_61", "example23gauss_801", "gauss_narrow_801"]
    assert arnoldi["example22cubic_11"] == [
        ["analyze", "--spec", "example22cubic", "--grid-size", "11", "--canonical"]]
    assert arnoldi["gauss_narrow_801"] == [
        ["analyze", "--spec", str(tmp_path / "arnoldi" / "gauss_narrow.spec.json"), "--canonical"]]
    # the simulate cases include one move alone (sym2, n 1) and the two fused
    # first moves alone (example21, n 2 from 0.9)
    mc = {Path(out).name for out, _ in cases if Path(out).parent == tmp_path / "mc"}
    assert {"sym2_n_1", "sym2_n_4", "example21_n_2_x0_0.9"} <= mc
    # the window whose run search overflows to +-inf, on a spec the script writes
    hyp = {Path(out).name: commands for out, commands in cases
           if Path(out).parent == tmp_path / "hyp"}
    assert hyp["window_overflow"] == [
        ["verify-hypothesis", "--spec", str(tmp_path / "hyp" / "window_overflow.spec.json"),
         "--canonical"]]
