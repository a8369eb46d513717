"""Command-line interface: exit codes, output formats, file side effects."""

import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from resil.cli import main

ROOT = Path(__file__).resolve().parent.parent

FAST = ["--grid", "201", "--refine", "2"]

# The launcher an installer writes for a `[project.scripts]` entry
# `name = "module:attr"` (PyPA entry-points specification).
LAUNCHER = """#!{python}
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""

TOY_IDX = {"d": 0.1, "tau": 0.1, "phi": 0.1, "eta": 1.0}


def write_indices_file(path, entries):
    path.write_text(json.dumps(entries))
    return str(path)


def assert_help_runs(exe, env=None):
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # The subcommands as listed in the usage line, e.g. "{index,net,sim}";
    # a substring test would also match "simulation" in the help text.
    listed = re.search(r"\{([\w,]+)\}", proc.stdout)
    assert listed, proc.stdout
    assert {"index", "sim"} <= set(listed.group(1).split(","))


def test_console_script_installed(tmp_path):
    # The `resil` console script, as declared in pyproject.toml, runs the
    # CLI.  The launcher is written here from the declaration, so the check
    # needs no install; an installed copy is checked as well where one exists.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["resil"]
    module, attr = target.split(":")

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "resil"
    launcher.write_text(LAUNCHER.format(python=sys.executable, module=module,
                                        attr=attr))
    launcher.chmod(0o755)
    env = dict(os.environ)
    for var, first in (("PATH", bindir), ("PYTHONPATH", ROOT / "src")):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    exe = shutil.which("resil", path=env["PATH"])
    assert exe == str(launcher)
    assert_help_runs(exe, env)

    try:
        dist = importlib.metadata.distribution("resil")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
    assert installed.get("resil") == target
    exe = shutil.which("resil")
    assert exe, "console script 'resil' not on PATH"
    assert_help_runs(exe)


def test_index_compute_toy(capsys, tmp_path):
    out = tmp_path / "idx.json"
    code = main(["index", "compute", "--model", "toy_linear",
                 "--subsystem", "S1", "--out", str(out), *FAST])
    assert code == 0
    assert capsys.readouterr().out.strip() == "S1: (0.1, 0.1, 0.1, 1)"
    doc = json.loads(out.read_text())
    assert doc["S1"]["d"] == pytest.approx(0.1)
    assert doc["S1"]["eta"] == pytest.approx(1.0)


def test_index_compute_out_merges(capsys, tmp_path):
    out = tmp_path / "idx.json"
    write_indices_file(out, {"S1": {"d": 9, "tau": 9, "phi": 9, "eta": 9}})
    code = main(["index", "compute", "--model", "toy_pair",
                 "--subsystem", "S2", "--out", str(out), *FAST])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["S1"]["d"] == 9  # untouched entry survives the merge
    assert doc["S2"]["d"] == pytest.approx(0.1)
    # The merge writes the index-file format of `net propagate --out`.
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


def test_index_verify_pass_and_fail(capsys):
    code = main(["index", "verify", "--model", "toy_linear", "--subsystem", "S1",
                 "--index", "0.1,0.1,0.1,1", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "offline margin" in out

    code = main(["index", "verify", "--model", "toy_linear", "--subsystem", "S1",
                 "--index", "0.1,0.2,0.1,1", *FAST])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_index_verify_vacuous_note(capsys):
    # d = 0 makes recovery vacuous; the offline margin still fails because
    # the toy plant drifts into the boundary with no buffer to absorb it.
    code = main(["index", "verify", "--model", "toy_linear", "--subsystem", "S1",
                 "--index", "0,1e9,1e-9,1", *FAST])
    out = capsys.readouterr().out
    assert code == 1
    assert "note:" in out
    assert "FAIL" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    code = main(["index", "verify", "--model", "toy_linear", "--subsystem", "S1",
                 "--index", "1,2,3", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")

    code = main(["index", "verify", "--model", "toy_linear", "--subsystem", "S1",
                 "--index", "0.1,-1,0.1,1", *FAST])
    assert_error_exit(capsys, code, "--index: tau must be positive, got -1.0")

    code = main(["index", "compute", "--model", "toy_linear",
                 "--subsystem", "S9", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown subsystem" in captured.err

    code = main(["index", "compute", "--model", str(tmp_path / "nope.json"),
                 "--subsystem", "S1", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert "not found" in captured.err

    with pytest.raises(SystemExit) as exc:
        main(["sim", "run", "--model", "toy_linear", "--indices", "x.json",
              "--horizon", "1", "--schedules", "1", "--seed", "1",
              "--adversary", "worst", "--out", "x"])
    assert exc.value.code == 2


def test_out_of_range_numbers_exit_2(capsys, tmp_path):
    # Each reaches the oracle as inf or nan unless rejected, so each is an
    # input error that names its input.
    # A negative --tau-max used to loop forever; the others failed with
    # errors that did not name the flag, or ran to a wrong verdict.
    cases = [("--eps", v, "eps must be positive and finite") for v in ("inf", "nan")]
    cases += [("--tau-max", v, "tau_max must be positive") for v in ("-1", "0", "nan")]
    cases += [("--phi-min", v, "phi_min must be positive and finite")
              for v in ("0", "-1", "nan", "inf")]
    for flag, value, message in cases:
        code = main(["index", "compute", "--model", "toy_linear", "--subsystem", "S1",
                     flag, value, *FAST])
        assert code == 2
        assert message in capsys.readouterr().err
    # net propagate used to fail inside the solvers with "tau must be positive".
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX, "S2": TOY_IDX})
    for value in ("-1", "0", "nan"):
        code = main(["net", "propagate", "--model", "toy_pair", "--indices", idx,
                     "--tau-max", value, *FAST])
        assert code == 2
        assert "tau_max must be positive" in capsys.readouterr().err

    base = json.loads((ROOT / "src" / "resil" / "models" / "toy_linear.json").read_text())
    mpath = tmp_path / "m.json"
    for key, value, where in (("alpha_z", math.inf, "model.alpha_z"),
                              ("alpha_z", math.nan, "model.alpha_z"),
                              ("h", "1 - 1e999*x1*x1", "model.subsystems[0].h")):
        doc = json.loads(json.dumps(base))
        (doc["subsystems"][0] if key == "h" else doc)[key] = value
        mpath.write_text(json.dumps(doc))
        code = main(["index", "compute", "--model", str(mpath), "--subsystem", "S1",
                     *FAST])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and where in err


def test_sim_run_non_finite_horizon_or_dt_exits_2(capsys, tmp_path):
    # An infinite horizon would draw fault intervals forever; nan reached
    # int() in the step count.
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX})
    for flag, value in (("--horizon", "inf"), ("--horizon", "nan"),
                        ("--dt", "inf"), ("--dt", "nan")):
        argv = {"--horizon": "1", "--dt": "0.01", flag: value}
        code = main(["sim", "run", "--model", "toy_linear", "--indices", idx,
                     "--horizon", argv["--horizon"], "--dt", argv["--dt"],
                     "--schedules", "1", "--seed", "1", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err


def test_sim_run_dt_must_divide_horizon(capsys, tmp_path):
    # 0.03 used to end the run at t = 0.09 and 0.5 ran past the horizon.
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX})
    for dt in ("0.03", "0.5"):
        code = main(["sim", "run", "--model", "toy_linear", "--indices", idx,
                     "--horizon", "0.1", "--dt", dt, "--schedules", "1", "--seed", "1",
                     "--out", str(tmp_path / "sim")])
        assert code == 2
        assert f"dt = {dt} does not divide the horizon 0.1" in capsys.readouterr().err


def test_index_compute_infeasible_prints_diagnostics(capsys, tmp_path):
    # With mu = 0 no band recovers, so every depth fails at its recovery
    # scan; the last one tried is d = 2, the depth of h = 1 - x1 on [-1, 1].
    base = json.loads((ROOT / "src" / "resil" / "models" / "toy_linear.json").read_text())
    base["subsystems"][0]["mu"] = ["0"]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(base))
    code = main(["index", "compute", "--model", str(mpath), "--subsystem", "S1",
                 "--eps", "0.25", *FAST])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == "S1: infeasible: no buffer depth in the sweep admits a valid index"
    assert "S1: d = 2" in lines
    assert "S1: stage = recovery" in lines
    assert "S1: detail = 0" in lines


def test_model_resolution_prefers_filesystem(capsys, tmp_path):
    # A file whose name shadows a bundled model must win the lookup.
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "ONLY", "states": ["x1"], "inputs": ["u1"],
                        "f": ["0"], "g": [["1"]], "h": "1 - x1", "mu": ["-1"],
                        "state_box": [[-1, 1]], "input_box": [[-1, 1]]}],
        "couplings": [],
    }
    path = tmp_path / "toy_linear.json"
    path.write_text(json.dumps(model))
    code = main(["index", "compute", "--model", str(path),
                 "--subsystem", "ONLY", *FAST])
    assert code == 0
    assert capsys.readouterr().out.startswith("ONLY:")


def test_workers_do_not_change_index(capsys):
    printed = []
    for workers in ("1", "2"):
        code = main(["index", "compute", "--model", "cstr_series", "--subsystem", "S1",
                     "--eps", "250", "--workers", workers, *FAST])
        assert code == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].startswith("S1: (")
    code = main(["index", "compute", "--model", "cstr_series", "--subsystem", "S1",
                 "--eps", "250", "--workers", "0", *FAST])
    assert code == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


def test_net_delta(capsys):
    code = main(["net", "delta", "--model", "toy_pair", *FAST])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "S1: delta = 0 (pairwise_sum)"
    assert out[1] == "S2: delta = -0.2 (pairwise_sum)"

    code = main(["net", "delta", "--model", "toy_pair", "--exact", *FAST])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "S2: delta = -0.2 (exact_joint)"


def test_net_propagate_writes_updated_indices(capsys, tmp_path):
    idx = write_indices_file(tmp_path / "idx.json",
                             {"S1": TOY_IDX, "S2": TOY_IDX})
    # On toy_pair the joint-grid delta of S2 equals the pairwise sum.
    for delta in ([], ["--exact"]):
        out = tmp_path / f"prop{len(delta)}.json"
        code = main(["net", "propagate", "--model", "toy_pair", "--indices", idx,
                     "--out", str(out), *delta, *FAST])
        printed = capsys.readouterr().out
        assert code == 0
        assert "Guaranteed" in printed
        assert "R1 threshold" in printed
        assert "S2: delta = -0.2," in printed
        doc = json.loads(out.read_text())
        assert doc["S1"]["tau"] == pytest.approx(0.1)  # no incoming couplings
        assert doc["S2"]["tau"] == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert doc["S2"]["phi"] == pytest.approx(0.125, rel=1e-9)
        assert doc["S2"]["eta"] == pytest.approx(0.8, rel=1e-9)


def test_net_propagate_infeasible_exit(capsys, tmp_path):
    # d beyond the reach of h cannot be repaired by any coupling budget.
    idx = write_indices_file(
        tmp_path / "idx.json",
        {"S1": TOY_IDX, "S2": {"d": 5.0, "tau": 0.1, "phi": 0.1, "eta": 1.0}})
    out = tmp_path / "prop.json"
    code = main(["net", "propagate", "--model", "toy_pair", "--indices", idx,
                 "--out", str(out), *FAST])
    printed = capsys.readouterr().out
    assert code == 1
    assert "INFEASIBLE" in printed
    doc = json.loads(out.read_text())
    assert "S1" in doc and "S2" not in doc


def test_net_verify(capsys, tmp_path):
    good = write_indices_file(
        tmp_path / "good.json",
        {"S1": TOY_IDX,
         "S2": {"d": 0.1, "tau": 1.0 / 12.0, "phi": 0.125, "eta": 0.8}})
    code = main(["net", "verify", "--model", "toy_pair",
                 "--indices", good, *FAST])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.count("PASS") == 2

    bad = write_indices_file(
        tmp_path / "bad.json",
        {"S1": TOY_IDX, "S2": {"d": 0.1, "tau": 0.5, "phi": 0.125, "eta": 0.8}})
    code = main(["net", "verify", "--model", "toy_pair", "--indices", bad, *FAST])
    printed = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in printed

    vacuous = write_indices_file(
        tmp_path / "vacuous.json",
        {"S1": {**TOY_IDX, "d": 0.0},
         "S2": {"d": 0.1, "tau": 1.0 / 12.0, "phi": 0.125, "eta": 0.8}})
    code = main(["net", "verify", "--model", "toy_pair", "--indices", vacuous, *FAST])
    printed = capsys.readouterr().out
    assert code == 1
    assert "S1: note: recovery vacuous: zero buffer depth\n" in printed


def test_index_files_that_are_not_index_maps_exit_2(capsys, tmp_path):
    for text, read_error, merge_error in (
            ("not json", "not valid JSON", "existing output file is not valid JSON"),
            ("[1, 2]", "expected a name -> index map",
             "existing output file is not an index map")):
        path = tmp_path / "idx.json"
        path.write_text(text)
        code = main(["net", "verify", "--model", "toy_pair", "--indices", str(path), *FAST])
        assert_error_exit(capsys, code, f"{path}: {read_error}")
        # An existing --out is read before the sweep: no index is computed and lost.
        for argv in commands_writing(tmp_path, path):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == f"error: {path}: {merge_error}\n"
            assert path.read_text() == text


def commands_writing(tmp_path, out):
    """index compute and net propagate on toy_pair, each with --out out."""
    idx = write_indices_file(tmp_path / "in.json", {"S1": TOY_IDX, "S2": TOY_IDX})
    return [[*command, "--out", str(out), *FAST] for command in (
        ["index", "compute", "--model", "toy_pair", "--subsystem", "S1"],
        ["net", "propagate", "--model", "toy_pair", "--indices", idx])]


def test_out_that_is_a_directory_exits_2_before_the_sweep(capsys, tmp_path):
    # An OSError on a command's file is a file error (exit 2), not a
    # traceback; the path is opened before the sweep, so nothing is printed.
    for argv in commands_writing(tmp_path, tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: [Errno 21] Is a directory")


def test_out_in_a_missing_directory_exits_2_before_the_sweep(capsys, tmp_path):
    # The directory of --out is checked before the sweep: nothing is
    # printed, so no computed index is shown and then lost.  A file in its
    # place is no directory either.
    (tmp_path / "afile").write_text("")
    for out in (tmp_path / "nodir" / "idx.json", tmp_path / "afile" / "idx.json"):
        for argv in commands_writing(tmp_path, out):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error:")
    assert not (tmp_path / "nodir").exists()


def test_sim_run_out_that_is_a_file_exits_2(capsys, tmp_path):
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX, "S2": TOY_IDX})
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["sim", "run", "--model", "toy_pair", "--indices", idx, "--horizon", "0.1",
                 "--schedules", "1", "--seed", "7", "--dt", "0.01", "--out", str(out)])
    assert_error_exit(capsys, code, "[Errno 17] File exists")


def test_sim_run_writes_traces_and_summary(capsys, tmp_path):
    idx = write_indices_file(
        tmp_path / "idx.json",
        {"S1": {"d": 1000, "tau": 0.0008, "phi": 0.002, "eta": 100},
         "S2": {"d": 1000, "tau": 0.0008, "phi": 0.002, "eta": 100}})
    out = tmp_path / "sim"
    code = main(["sim", "run", "--model", "cstr_series", "--indices", idx,
                 "--horizon", "0.2", "--schedules", "2", "--seed", "7",
                 "--dt", "0.0004", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.startswith("safe 2/2")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["safe_count"] == 2
    assert summary["schedules"] == 2
    assert summary["recovery_deadlines_met"] == 2
    assert summary["seed"] == 7
    assert summary["adversary"] == "bang-bang"
    assert summary["min_h"] > 0

    for k in range(2):
        data = np.loadtxt(out / f"trace_{k:03d}.csv", delimiter=",", skiprows=1)
        assert data.shape[0] == 501
        assert data[0, 0] == 0.0
        assert data[-1, 0] == pytest.approx(0.2)
    with open(out / "trace_000.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,loc_1,x_1_1,x_1_2,u_1_1,h_1,loc_2,x_2_1,x_2_2,u_2_1,h_2"


def test_sim_run_runaway_model_exits_2(capsys, tmp_path):
    # The toy plant has no equilibrium under its feedback law, so a long
    # horizon from the default start leaves the state box.
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX})
    code = main(["sim", "run", "--model", "toy_linear", "--indices", idx,
                 "--horizon", "1.0", "--schedules", "1", "--seed", "3",
                 "--dt", "0.001", "--out", str(tmp_path / "sim")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_sim_run_unsafe_exit_code(capsys, tmp_path):
    # Indices that overstate tau let the schedule hold the plant offline
    # long enough to cross h = 0: exit code 1, not an error.
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "S1", "states": ["x1"], "inputs": ["u1"],
                        "f": ["0"], "g": [["1"]], "h": "-0.5 - x1",
                        "mu": ["0"], "state_box": [[-1, 1]],
                        "input_box": [[-1, 1]]}],
        "couplings": [],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(model))
    idx = write_indices_file(
        tmp_path / "idx.json",
        {"S1": {"d": 0.1, "tau": 0.5, "phi": 0.05, "eta": 1.0}})
    out = tmp_path / "sim"
    code = main(["sim", "run", "--model", str(mpath), "--indices", idx,
                 "--horizon", "1.0", "--schedules", "3", "--seed", "1",
                 "--dt", "0.001", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["safe_count"] < 3
    assert summary["min_h"] < 0
    assert "safe" in printed


def test_numeric_error_exits_2(capsys, tmp_path):
    # f = 1/x1 divides by zero at the grid node x1 = 0: a numeric error in
    # the model, reported like a model error rather than as a traceback.
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "S1", "states": ["x1"], "inputs": ["u1"],
                        "f": ["1/x1"], "g": [["1"]], "h": "1 - x1*x1",
                        "mu": ["0"], "state_box": [[-1, 1]],
                        "input_box": [[-1, 1]]}],
        "couplings": [],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(model))
    code = main(["index", "compute", "--model", str(mpath), "--subsystem", "S1",
                 "--grid", "201"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "division by zero" in captured.err


def one_state_model(tmp_path, f, h, input_box=(-1, 1)):
    """Path of a model with one subsystem x1' = f + u1 on [-1, 1], u1 in
    input_box, safety function h and the law mu = 0."""
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "S1", "states": ["x1"], "inputs": ["u1"],
                        "f": [f], "g": [["1"]], "h": h, "mu": ["0"],
                        "state_box": [[-1, 1]], "input_box": [list(input_box)]}],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(model))
    return str(mpath)


def assert_error_exit(capsys, code, message):
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_empty_grid_safe_set_exits_2(capsys, tmp_path):
    # h = 0.01 - x1^2 is positive only within 0.1 of 0: the load check, at
    # grid 64, finds the safe set, but the two nodes x1 = -1, 1 of grid 2
    # do not.  That is an input the grid cannot serve, not an infeasible
    # index or a failed check (exit 1).
    mpath = one_state_model(tmp_path, "-x1", "0.01 - x1^2")
    idx = write_indices_file(tmp_path / "idx.json", {"S1": TOY_IDX})
    for argv in (["index", "compute", "--subsystem", "S1"],
                 ["index", "verify", "--subsystem", "S1", "--index", "0.1,0.1,0.1,1"],
                 ["net", "verify", "--indices", idx]):
        code = main([*argv, "--model", mpath, "--grid", "2"])
        assert_error_exit(capsys, code, "region contains no grid point")


def test_drift_overflowing_to_minus_inf_exits_2(capsys, tmp_path):
    # exp(800 x1) overflows for x1 > 0.89, so the drift of h = x1 + 1 is
    # -inf there.  That is a numeric error, not an empty region.
    mpath = one_state_model(tmp_path, "-exp(800*x1)", "x1 + 1")
    for argv in (["index", "compute", "--eps", "0.5"],
                 ["index", "verify", "--index", "0.1,0.1,0.1,1"]):
        code = main([*argv, "--model", mpath, "--subsystem", "S1", "--grid", "41"])
        assert_error_exit(capsys, code, "objective produced -inf on the grid")


def test_sum_of_finite_drift_terms_overflowing_exits_2(capsys, tmp_path):
    # f = -1e308 and the worst input -1e308 are finite; their sum overflows
    # to -inf.  stderr carries the error line alone, no numpy warning.
    mpath = one_state_model(tmp_path, "-1e308", "x1 + 1", input_box=(-1e308, 1e308))
    code = main(["index", "compute", "--model", mpath, "--subsystem", "S1",
                 "--eps", "0.5", "--grid", "41"])
    assert_error_exit(capsys, code, "objective produced -inf on the grid")


@pytest.mark.parametrize("subsystem, argv", [
    # -inf * 0: dh/dx2 = -exp(x2) exp(-exp(x2)) at large x2, times f2 = -(0)
    ({"f": ["0", "-(0)"], "h": "exp(-(exp(x2)))", "mu": ["exp(-(exp(-3)))"],
      "state_box": [[0, 1000], [0, 1000]]},
     ["index", "verify", "--index", "0.1,0.1,0.1,0"]),
    # 0/0 in mu at the node x1 = 0
    ({"f": ["1", "0"], "h": "-(x1)", "mu": ["0/x1"], "state_box": [[-1, 0], [-2, 0]]},
     ["index", "compute", "--eps", "0.3"]),
])
def test_nan_from_a_model_exits_2_without_a_warning(capsys, tmp_path, subsystem, argv):
    # The nan is reported as an error line; no numpy RuntimeWarning is
    # printed before it.
    model = {"alpha_z": 1.0, "subsystems": [{
        "name": "S1", "states": ["x1", "x2"], "inputs": ["u1"], "g": [["1"], ["0"]],
        "input_box": [[-1, 1]], **subsystem}]}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--model", str(mpath), "--subsystem", "S1", "--grid", "21"])
    assert_error_exit(capsys, code, "objective produced nan on the grid")


def test_drift_of_inf_on_the_whole_safe_set_exits_2(capsys, tmp_path):
    # The safe set x1 >= 0.95 holds the grid nodes 0.95 and 1.0, where
    # exp(800 x1) overflows: the region is not empty, its drift is +inf.
    mpath = one_state_model(tmp_path, "exp(800*x1)", "x1 - 0.95")
    code = main(["index", "compute", "--model", mpath, "--subsystem", "S1",
                 "--eps", "0.01", "--grid", "41"])
    assert_error_exit(capsys, code, "objective is +inf at every grid point of the region")


def test_sim_run_with_unbounded_tau(capsys, tmp_path):
    # h = 1 - x^2 never decreases, whatever the input in [0, 1], so the
    # index has tau = inf and a schedule may hold S1 offline to the horizon.
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "S1", "states": ["x1"], "inputs": ["u1"],
                        "f": ["-x1"], "g": [["x1"]], "h": "1 - x1^2", "mu": ["0"],
                        "state_box": [[-1, 1]], "input_box": [[0, 1]]}],
    }
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    idx = tmp_path / "idx.json"
    code = main(["index", "compute", "--model", str(mpath), "--subsystem", "S1",
                 "--tau-max", "inf", "--out", str(idx), *FAST])
    assert code == 0
    assert json.loads(idx.read_text())["S1"]["tau"] == math.inf
    capsys.readouterr()
    out = tmp_path / "sim"
    code = main(["sim", "run", "--model", str(mpath), "--indices", str(idx),
                 "--horizon", "1", "--schedules", "3", "--seed", "2",
                 "--dt", "0.01", "--out", str(out)])
    assert code in (0, 1)
    assert capsys.readouterr().out.startswith("safe ")
    assert json.loads((out / "summary.json").read_text())["schedules"] == 3


def test_sim_run_division_by_zero_exits_2(capsys, tmp_path):
    # Loading never evaluates f, so the pole first shows in the simulator.
    model = {
        "alpha_z": 1.0,
        "subsystems": [{"name": "S1", "states": ["x1"], "inputs": ["u1"],
                        "f": ["1/(x1 - x1)"], "g": [["1"]], "h": "1 - x1^2",
                        "mu": ["0"], "state_box": [[-1, 1]], "input_box": [[-1, 1]]}],
    }
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    idx = tmp_path / "idx.json"
    idx.write_text(json.dumps({"S1": {"d": 0.1, "tau": 0.1, "phi": 0.1, "eta": 1.0}}))
    code = main(["sim", "run", "--model", str(mpath), "--indices", str(idx),
                 "--horizon", "0.1", "--schedules", "1", "--seed", "1", "--dt", "0.01",
                 "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert code == 2
    assert "division by zero" in err and "S1" in err
