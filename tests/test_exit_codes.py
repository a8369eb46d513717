"""The CLI's exit-code contract as a property over generated models.

Every run of `resil.cli.main` ends with 0, 1 or 2, and no warning escapes
it.  Exit 2 prints `error:` (or argparse usage) and creates or changes no
file; exit 0 from `index compute` or `net propagate` leaves an index file
that loads back.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import tempfile
import warnings
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from resil.cli import main
from resil.exprs import ExpressionError
from resil.interconnect import Network
from resil.model_io import load_indices, load_model
from resil.oracle import EmptyRegionError, OracleSettings, sup_h
from resil.subsystem import ModelError

LITERALS = ("0", "0.5", "1", "2", "-3", "1e308")
BOXES = ([-1, 1], [0, 2], [-3, 0.5])
GRID = ["--grid", "21"]

# --out as the command finds it: absent, in a missing directory, an
# existing file (its text is drawn) or an existing directory.
OUTS = {"absent": "out", "missing-dir": "nodir/out", "file": "taken", "dir": "outdir"}


# Strategies are built once: hypothesis validates each new strategy object,
# and a tree drawn through fresh ones costs more than the run it feeds.
SHAPES = {(binary, unary): st.sampled_from(
    ["leaf"] + ["binary"] * binary + ["exp", "negate"] * unary)
    for binary in (False, True) for unary in (False, True)}
OPERATORS = st.sampled_from("+-*/")
SPLITS = {n: st.integers(1, n - 1) for n in range(2, 6)}


@functools.lru_cache
def leaves_over(names):
    return st.sampled_from(LITERALS + names)


def draw_tree(draw, names, leaves=5, depth=0):
    """Expression text: a tree of at most leaves leaves over names and
    LITERALS, under at most 3 nested exp or negation nodes."""
    shape = draw(SHAPES[leaves > 1, depth < 3])
    if shape == "leaf":
        return draw(leaves_over(names))
    if shape != "binary":
        inner = draw_tree(draw, names, leaves, depth + 1)
        return f"exp({inner})" if shape == "exp" else f"-({inner})"
    left = draw(SPLITS[leaves])
    return "({} {} {})".format(draw_tree(draw, names, left, depth), draw(OPERATORS),
                               draw_tree(draw, names, leaves - left, depth))


@st.composite
def subsystems(draw, k):
    states = [f"x{2 * k + i + 1}" for i in range(draw(st.integers(1, 2)))]
    input_box = draw(st.sampled_from([[-1, 1], [0, 0.5]]))

    def expr():
        return draw_tree(draw, tuple(states))

    doc = {"name": f"S{k + 1}", "states": states, "inputs": [f"u{k + 1}"],
           "f": [expr() for _ in states], "g": [[expr()] for _ in states],
           "h": expr(), "mu": [expr()],
           "state_box": [draw(st.sampled_from(BOXES)) for _ in states],
           "input_box": [input_box]}
    if draw(st.sampled_from([True, True, False])):
        doc["mu_saturation"] = [input_box]
    return doc


@st.composite
def models(draw):
    """1-3 subsystems, each ordered pair coupled with probability 1/3."""
    subs = [draw(subsystems(k)) for k in range(draw(st.integers(1, 3)))]
    couplings = []
    for src, dst in itertools.permutations(subs, 2):
        if draw(st.sampled_from([True, False, False])):
            both = src["states"] + dst["states"]
            couplings.append({"from": src["name"], "to": dst["name"],
                              "w": [draw_tree(draw, tuple(both)) for _ in dst["states"]]})
    return {"alpha_z": 1.0, "subsystems": subs, "couplings": couplings}


# Edge values: d = 0, tau = Infinity, a phi whose 3 phi overflows.
INDEX = st.tuples(st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.1, 1.0, math.inf]),
                  st.sampled_from([0.1, 1.0, 1e308]), st.sampled_from([0.0, 1.0])).map(
    lambda quadruple: dict(zip(("d", "tau", "phi", "eta"), quadruple)))


@st.composite
def cases(draw):
    """(model, indices, argv without --model, --indices, --eps and --out,
    the --out kind or None, the text of the existing file)."""
    model = draw(models())
    names = [s["name"] for s in model["subsystems"]]
    indices = {name: draw(INDEX) for name in names}
    name = draw(st.sampled_from(names))
    argv = draw(st.sampled_from([
        ["index", "compute", "--subsystem", name, *GRID],
        ["index", "verify", "--subsystem", name, *GRID, "--index",
         ",".join(str(v) for v in indices[name].values())],
        ["net", "delta", *GRID],
        ["net", "propagate", *GRID],
        ["net", "verify", *GRID],
        ["sim", "run", "--seed", "1"]]))
    if argv[1] in ("delta", "propagate"):
        argv += draw(st.sampled_from([[], ["--exact"]]))
    if argv[1] == "propagate":
        argv += draw(st.sampled_from([[], ["--prefer", "r2"]]))
    if argv[1] == "run":  # two in three runs get past the dt check
        horizon, dt = draw(st.sampled_from([("0.1", "0.01"), ("0.1", "0.01"), ("1", "0.3")]))
        argv += ["--horizon", horizon, "--dt", dt,
                 "--schedules", draw(st.sampled_from(["0", "2", "-1"]))]
    out = (draw(st.sampled_from(sorted(OUTS))) if argv[1] in ("compute", "propagate", "run")
           else None)
    taken = draw(st.sampled_from(["not json", json.dumps(indices)]))
    # one index file in four misses a subsystem or names one too many
    edit = draw(st.sampled_from(["", "", "", "missing", "extra"]))
    if edit == "missing":
        del indices[name]
    elif edit == "extra":
        indices["S9"] = draw(INDEX)
    return model, indices, argv, out, taken


def test_sim_run_checks_seed_and_schedules():
    # A negative --seed used to exit 2 with numpy's "expected non-negative
    # integer", or with --schedules 0 exit 0 and record the seed; a negative
    # --schedules named generate_schedule's parameter.  Each exits 2 naming
    # its flag, before --out is created.
    for seed, schedules, flag in (("-1", "1", "--seed"), ("-1", "0", "--seed"),
                                  ("1", "-1", "--schedules")):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "model.json").write_text(json.dumps(TOY_LINEAR))
            (root / "idx.json").write_text(json.dumps({"S1": TOY_INDEX}))
            code, err = run(["sim", "run", "--seed", seed, "--schedules", schedules,
                             "--horizon", "0.1", "--dt", "0.01",
                             "--model", str(root / "model.json"),
                             "--indices", str(root / "idx.json"), "--out", str(root / "out")])
            assert (code, err) == (2, f"error: {flag} must be nonnegative\n")
            assert not (root / "out").exists()


def sweep_step(mpath, name):
    """--eps for index compute, where the case gives none: at most 9 depths
    up to sup h, for runtime.  The sweep makes a scan per depth, and h can
    reach 1e308 here, where a fixed step asks for more than compute_index's
    100,000 depths and exits 2 before any scan."""
    try:
        s = next(s for s in load_model(mpath).network.subsystems if s.name == name)
        return repr(max(0.5, sup_h(s, OracleSettings(21)) / 8))
    except (ModelError, ExpressionError, ValueError, ArithmeticError, EmptyRegionError):
        return "0.5"  # the command fails the same way, and is checked


def snapshot(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, stderr.getvalue()


def bundled(name):
    return json.loads((resources.files("resil") / "models" / f"{name}.json").read_text())


TOY_LINEAR, TOY_PAIR = bundled("toy_linear"), bundled("toy_pair")
TOY = TOY_LINEAR["subsystems"][0]
TOY_INDEX = {"d": 0.1, "tau": 0.1, "phi": 0.1, "eta": 1.0}
HUGE_H = {"alpha_z": 1.0, "couplings": [], "subsystems": [{**TOY, "h": "1e308 - x1"}]}


def nan_model(**subsystem):
    return {"alpha_z": 1.0, "couplings": [], "subsystems": [{
        "name": "S1", "states": ["x1", "x2"], "inputs": ["u1"], "g": [["1"], ["0"]],
        "input_box": [[-1, 1]], **subsystem}]}


def sim_run(horizon, dt, schedules):
    return ["sim", "run", "--seed", "3", "--horizon", horizon, "--dt", dt,
            "--schedules", schedules]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cases())
# sim run used to create --out before the run was checked or simulated.
@example((TOY_LINEAR, {"S1": TOY_INDEX}, sim_run("1", "0.3", "1"), "absent", ""))
@example((TOY_LINEAR, {"S1": TOY_INDEX}, sim_run("1", "0.01", "-1"), "absent", ""))
@example((TOY_LINEAR, {"S1": TOY_INDEX}, sim_run("1.0", "0.001", "1"), "absent", ""))
# index compute used to sweep before finding that --out had no directory.
@example((TOY_PAIR, {"S1": TOY_INDEX, "S2": TOY_INDEX},
          ["index", "compute", "--subsystem", "S1", *GRID], "missing-dir", ""))
# Both used to print a numpy RuntimeWarning before the error line.
@example((nan_model(f=["0", "-(0)"], h="exp(-(exp(x2)))", mu=["exp(-(exp(-3)))"],
                    state_box=[[0, 1000], [0, 1000]]),
          {"S1": TOY_INDEX}, ["index", "verify", "--subsystem", "S1", *GRID,
                              "--index", "0.1,0.1,0.1,0"], None, ""))
@example((nan_model(f=["1", "0"], h="-(x1)", mu=["0/x1"], state_box=[[-1, 0], [-2, 0]]),
          {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID], None, ""))
# inf * 0 in the worst-input term printed a RuntimeWarning before the error.
@example(({"alpha_z": 1.0, "couplings": [], "subsystems": [{
    "name": "S1", "states": ["x1", "x2"], "inputs": ["u1"], "f": ["0", "0"],
    "g": [["0"], ["1e308"]], "h": "exp(x2)", "mu": ["0"], "state_box": [[-1, 1], [-1, 1]],
    "input_box": [[0, 0.5]], "mu_saturation": [[0, 0.5]]}]},
    {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID], None, ""))
# The gradient of x1 / 1e308 squared 1e308: an OverflowError and a
# traceback, then exit 2.  It is 1.0 / 1e308 now, and the sweep a result.
@example(({"alpha_z": 1.0, "couplings": [], "subsystems": [{**TOY, "h": "x1 / 1e308"}]},
          {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID], None, ""))
# A literal power that overflows as a Python float, in h and its gradient.
@example(({"alpha_z": 1.0, "couplings": [], "subsystems": [{**TOY, "h": "x1 * 1e200^2"}]},
          {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID], None, ""))
# An RK4 step that overflowed printed a RuntimeWarning before the error.
@example(({"alpha_z": 1.0, "couplings": [], "subsystems": [{
    "name": "S1", "states": ["x1", "x2"], "inputs": ["u1"], "f": ["0", "0"],
    "g": [["0"], ["1e308"]], "h": "0", "mu": ["1"], "state_box": [[-1, 1], [-1, 1]],
    "input_box": [[-1, 1]], "mu_saturation": [[-1, 1]]}]},
    {"S1": {"d": 0.0, "tau": 0.1, "phi": 0.1, "eta": 0.0}},
    sim_run("0.1", "0.01", "2"), "absent", ""))
# The depth sweep is bounded: eps = 0.5 up to sup h = 1e308 used to run
# until it was killed, with or without --maximize-tau.
@example((HUGE_H, {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID,
                                      "--eps", "0.5"], None, "")).via("unbounded depth sweep")
@example((HUGE_H, {"S1": TOY_INDEX}, ["index", "compute", "--subsystem", "S1", *GRID,
                                      "--eps", "0.5", "--maximize-tau"], None, "")
         ).via("unbounded depth sweep, tau first")
def test_exit_code_contract(case):
    model, indices, argv, out, taken = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mpath, ipath = root / "model.json", root / "idx.json"
        mpath.write_text(json.dumps(model))
        ipath.write_text(json.dumps(indices))
        (root / "taken").write_text(taken)
        (root / "outdir").mkdir()
        argv = [*argv, "--model", str(mpath)]
        if argv[0] != "index" and argv[1] != "delta":
            argv += ["--indices", str(ipath)]
        if argv[1] == "compute" and "--eps" not in argv:
            argv += ["--eps", sweep_step(str(mpath), argv[3])]
        if out is not None:
            argv += ["--out", str(root / OUTS[out])]
        before = snapshot(root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run(argv)
        assert code in (0, 1, 2), (code, err)
        if code == 2:
            assert err.startswith(("error:", "usage:")), err
            assert snapshot(root) == before
        if code == 0 and argv[1] in ("compute", "propagate") and out is not None:
            path = root / OUTS[out]
            net = load_model(str(mpath)).network
            written = json.loads(path.read_text())
            load_indices(str(path), Network(tuple(
                s for s in net.subsystems if s.name in written)))
