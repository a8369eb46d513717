"""Release acceptance suite.

Each test covers one gate and prints a single pass/fail line so the run
log doubles as the acceptance report.  Tolerances and time budgets are
asserted, not merely reported.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from resil.cli import main
from resil.exprs import compile_expression, differentiate, parse_expression
from resil.hybrid_sim import AdversaryPolicy, FaultSchedule, simulate
from resil.interconnect import (
    GUARANTEED,
    Network,
    compute_delta,
    feasibility_r1,
    feasibility_r2,
    propagate_indices,
    solve_r1,
    solve_r2,
    verify_network,
)
from resil.model_io import load_model
from resil.oracle import (
    OracleSettings,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
)
from resil.resilience import Infeasible, ResilienceIndex, compute_index
from resil.subsystem import Subsystem

FINE = OracleSettings(grid_points_per_dim=2001, refinement_rounds=2)


def report(num, label, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    assert ok, f"acceptance {num:02d} {label}{tail}"


def bundled(stem):
    return str(resources.files("resil") / "models" / f"{stem}.json")


def test_01_toy_index_equals_closed_form(tmp_path, capsys):
    out = tmp_path / "idx.json"
    t0 = time.perf_counter()
    code = main(["index", "compute", "--model", "toy_linear",
                 "--subsystem", "S1", "--grid", "2001", "--refine", "2",
                 "--out", str(out)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    got = json.loads(out.read_text())["S1"]
    expected = {"d": 0.1, "tau": 0.1, "phi": 0.1, "eta": 1.0}
    ok = (code == 0
          and all(abs(got[k] - v) <= 1e-6 for k, v in expected.items())
          and elapsed < 5.0)
    report(1, "toy index equals closed form", ok,
           f"{tuple(got[k] for k in ('d', 'tau', 'phi', 'eta'))}, {elapsed:.2f} s")


def test_02_toy_oracle_minima_equal_closed_forms():
    s = load_model(bundled("toy_linear")).network.subsystems[0]
    off = min_offline_drift(s, FINE).value
    rec = min_recovery_drift(s, 0.1, FINE).value
    inv = min_invariance_margin(s, 0.1, 1.0, FINE).value
    ok = (abs(off - (-1.0)) <= 1e-6
          and abs(rec - 1.0) <= 1e-6
          and abs(inv - 1.0) <= 1e-6)
    report(2, "toy oracle minima equal closed forms", ok,
           f"offline {off:.8f}, recovery {rec:.8f}, invariance {inv:.8f}")


def random_index(rng):
    return ResilienceIndex(d=float(rng.uniform(0.1, 3.0)),
                           tau=float(rng.uniform(0.05, 2.0)),
                           phi=float(rng.uniform(0.05, 2.0)),
                           eta=float(rng.uniform(0.0, 2.0)))


def test_03_feasibility_thresholds_are_sufficient():
    rng = np.random.default_rng(20260819)
    n = 1000
    t0 = time.perf_counter()
    r1_ok = r2_ok = 0
    for _ in range(n):
        idx = random_index(rng)
        z = float(rng.uniform(0.1, 3.0))
        sup = idx.d + float(rng.uniform(0.0, 3.0))
        # Clear the threshold by at least 0.01, off R1's strict boundary
        # (d + phi*delta = 0, or d' = 0 with d/tau - delta > 0), the only
        # place where the verdict and the solver disagree.
        delta1 = feasibility_r1(idx, 0.0, z).threshold + float(rng.uniform(0.01, 2.0))
        assert feasibility_r1(idx, delta1, z).verdict == GUARANTEED
        if isinstance(solve_r1(idx, delta1, z, sup), ResilienceIndex):
            r1_ok += 1
        delta2 = feasibility_r2(idx, 0.0, z, sup).threshold + 1e-6 \
            + float(rng.uniform(0.0, 2.0))
        assert feasibility_r2(idx, delta2, z, sup).verdict == GUARANTEED
        if isinstance(solve_r2(idx, delta2, z, sup), ResilienceIndex):
            r2_ok += 1
    elapsed = time.perf_counter() - t0
    ok = r1_ok == n and r2_ok == n and elapsed < 10.0
    report(3, "feasibility thresholds are sufficient", ok,
           f"shrink {r1_ok}/{n}, grow {r2_ok}/{n}, {elapsed:.2f} s")


def test_04_grow_guarantee_implies_shrink_guarantee():
    rng = np.random.default_rng(31415)
    exceptions = 0
    guaranteed = 0
    for _ in range(1000):
        idx = random_index(rng)
        z = float(rng.uniform(0.1, 3.0))
        sup = idx.d + float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(-6.0, 6.0))
        if feasibility_r2(idx, delta, z, sup).verdict == GUARANTEED:
            guaranteed += 1
            if feasibility_r1(idx, delta, z).verdict != GUARANTEED:
                exceptions += 1
    ok = exceptions == 0 and guaranteed > 0
    report(4, "grow guarantee implies shrink guarantee", ok,
           f"{guaranteed} guaranteed grow verdicts, {exceptions} exceptions")


def test_05_helpful_coupling_construction_satisfies_shrink_rows():
    rng = np.random.default_rng(27182)
    tol = 1e-12
    bad = 0
    for k in range(1000):
        idx = random_index(rng) if k % 20 else ResilienceIndex(
            0.0, float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)),
            float(rng.uniform(0.0, 2.0)))
        z = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.0, 4.0))
        out = solve_r1(idx, delta, z, idx.d)
        d, tau, phi, eta = idx.as_tuple()
        rows = [
            -tol <= out.d <= d + tol,
            -out.d / out.tau <= -d / tau + delta + tol,
            out.eta <= delta + min(d / phi, eta + z * (d - out.d)) + tol,
        ]
        denom = d + phi * delta
        if denom > 0:
            rows.append(out.phi >= phi * out.d / denom - tol)
        rows.append(out.phi <= phi + tol)
        rows.append(out.tau >= tau)
        bad += int(not all(rows))
    report(5, "helpful-coupling construction satisfies shrink rows", bad == 0,
           f"{1000 - bad}/1000 within 1e-12")


def line_block(name, x, u, h_text):
    sv = (x,)
    return Subsystem(name=name, state_vars=sv, input_vars=(u,),
                     f=(parse_expression("0", sv),),
                     g=((parse_expression("1", sv),),),
                     h=parse_expression(h_text, sv),
                     mu=(parse_expression("0", sv),),
                     state_box=((-1.0, 1.0),), input_box=((-1.0, 1.0),))


def random_network(rng):
    n = int(rng.integers(2, 4))
    xs = [f"x{k + 1}" for k in range(n)]
    subs = []
    for k in range(n):
        q = round(float(rng.uniform(1.0, 3.0)), 3)
        sign = "-" if rng.random() < 0.5 else "+"
        subs.append(line_block(f"S{k + 1}", xs[k], f"u{k + 1}",
                               f"{q} {sign} {xs[k]}"))
    couplings = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                a, b, c, e = (round(float(v), 3) for v in rng.uniform(-2, 2, 4))
                text = f"({a}) + ({b})*{xs[i]} + ({c})*{xs[j]} + ({e})*{xs[i]}*{xs[j]}"
                couplings[(i, j)] = (parse_expression(text, (xs[i], xs[j])),)
    if not couplings:
        couplings[(0, 1)] = (parse_expression(f"0.5*{xs[0]}", (xs[0], xs[1])),)
    return Network(tuple(subs), couplings)


def brute_force_delta(net, j, n_axis):
    """Joint-grid minimum of the coupling drift into j, computed with the
    expression engine and plain numpy only."""
    incoming = [(i, w) for (i, jj), w in net.couplings.items() if jj == j]
    if not incoming:
        return 0.0
    xj = net.subsystems[j].state_vars[0]
    dh = compile_expression(differentiate(net.subsystems[j].h, xj), (xj,))
    axes = [np.linspace(s.state_box[0][0], s.state_box[0][1], n_axis)
            for s in net.subsystems]
    cols = np.meshgrid(*axes, indexing="ij", sparse=True)
    total = None
    for i, w in incoming:
        xi = net.subsystems[i].state_vars[0]
        wfn = compile_expression(w[0], (xi, xj))
        term = np.asarray(dh(cols[j]) * wfn(cols[i], cols[j]))
        total = term if total is None else total + term
    return float(np.min(total))


def test_06_pairwise_delta_underapproximates_joint_minimum():
    rng = np.random.default_rng(60001)
    settings = OracleSettings(grid_points_per_dim=65, refinement_rounds=1)
    t0 = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    for _ in range(50):
        net = random_network(rng)
        n = len(net.subsystems)
        # Nominal joint lattice of at least 200^3 points; the couplings are
        # multilinear, so any endpoint-carrying grid hits the exact minimum.
        n_axis = 201 if n == 3 else 2829
        for j in range(n):
            exact = compute_delta(net, j, settings, exact=True)
            pairwise = compute_delta(net, j, settings)
            brute = brute_force_delta(net, j, n_axis)
            assert abs(exact.value - brute) <= 1e-6, (exact.value, brute)
            assert pairwise.value <= exact.value + 1e-6
            worst_gap = max(worst_gap, abs(exact.value - brute))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(6, "pairwise coupling drift underapproximates the joint minimum",
           ok, f"{checked} subsystems, max |exact - brute| = {worst_gap:.2e}, "
               f"{elapsed:.1f} s")


def test_07_pair_pipeline_margins_nonnegative():
    model = load_model(bundled("toy_pair"))
    net = model.network
    indices = {}
    for j, s in enumerate(net.subsystems):
        got = compute_index(s, model.alpha_z, settings=FINE)
        assert not isinstance(got, Infeasible)
        indices[j] = got
    outcomes = propagate_indices(net, indices, model.alpha_z, settings=FINE)
    assert all(o.ok for o in outcomes.values())
    propagated = {j: o.index for j, o in outcomes.items()}
    reports = verify_network(net, propagated, model.alpha_z, FINE)
    margins = [(r.margin_offline, r.margin_recovery, r.margin_invariance)
               for r in reports.values()]
    ok = all(m >= -1e-6 for triple in margins for m in triple)
    report(7, "pair pipeline margins are nonnegative", ok,
           "; ".join(f"({a:.3g}, {b:.3g}, {c:.3g})" for a, b, c in margins))


@pytest.fixture(scope="module")
def cstr_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("cstr")
    idx = base / "idx.json"
    prop = base / "prop.json"
    t0 = time.perf_counter()
    for name in ("S1", "S2"):
        code = main(["index", "compute", "--model", "cstr_series",
                     "--subsystem", name, "--eps", "1000",
                     "--grid", "201", "--refine", "2", "--out", str(idx)])
        assert code == 0
    code = main(["net", "propagate", "--model", "cstr_series",
                 "--indices", str(idx), "--grid", "201", "--out", str(prop)])
    assert code == 0
    return base, str(prop), time.perf_counter() - t0


def test_08_reactor_pipeline_all_schedules_safe(cstr_artifacts, capsys):
    base, prop, setup_elapsed = cstr_artifacts
    out = base / "sim"
    t0 = time.perf_counter()
    code = main(["sim", "run", "--model", "cstr_series", "--indices", prop,
                 "--horizon", "2", "--schedules", "200", "--seed", "42",
                 "--adversary", "bang-bang", "--dt", "0.0005",
                 "--out", str(out)])
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    temps_ok = True
    t_min, t_max = np.inf, -np.inf
    for k in range(200):
        data = np.loadtxt(out / f"trace_{k:03d}.csv", delimiter=",", skiprows=1)
        temps = data[:, [2, 7]]  # reactor temperatures of both subsystems
        t_min = min(t_min, float(temps.min()))
        t_max = max(t_max, float(temps.max()))
        temps_ok &= bool(((temps >= 300.0) & (temps <= 400.0)).all())
    elapsed = time.perf_counter() - t0 + setup_elapsed
    ok = (code == 0 and summary["safe_count"] == 200 and temps_ok
          and elapsed < 120.0)
    report(8, "reactor pipeline holds 200/200 schedules safe", ok,
           f"safe {summary['safe_count']}/200, T in [{t_min:.1f}, {t_max:.1f}], "
           f"{elapsed:.1f} s")


def test_09_integrator_fourth_order_convergence():
    sv = ("x1",)
    s = Subsystem(name="S1", state_vars=sv, input_vars=("u1",),
                  f=(parse_expression("-x1", sv),),
                  g=((parse_expression("1", sv),),),
                  h=parse_expression("10 - x1", sv),
                  mu=(parse_expression("0", sv),),
                  state_box=((-2.5, 2.5),), input_box=((-1.0, 1.0),))
    net = Network((s,))
    idx = ResilienceIndex(0.0, 1.0, 1.0, 0.0)
    schedule = FaultSchedule(1.0, ((),))
    rng = np.random.default_rng(90)
    ratios = []
    for _ in range(10):
        x0 = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        errs = []
        for dt in (0.05, 0.025):
            trace = simulate(net, {0: idx}, schedule, AdversaryPolicy(),
                             dt=dt, horizon=1.0, x0=[(x0,)])
            exact = x0 * np.exp(-trace.times)
            errs.append(float(np.max(np.abs(trace.states["S1"][:, 0] - exact))))
        ratios.append(errs[0] / errs[1])
    ok = all(r >= 12.0 for r in ratios)
    report(9, "integrator shows fourth-order convergence", ok,
           f"min ratio {min(ratios):.1f} over 10 starts")


def test_10_repeated_runs_byte_identical(cstr_artifacts, capsys):
    base, prop, _ = cstr_artifacts
    dirs = [base / "rep1", base / "rep2"]
    for out in dirs:
        code = main(["sim", "run", "--model", "cstr_series", "--indices", prop,
                     "--horizon", "2", "--schedules", "5", "--seed", "42",
                     "--dt", "0.0005", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    ok = names == sorted(p.name for p in dirs[1].iterdir()) and bool(names)
    for name in names:
        ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report(10, "repeated simulation runs are byte-identical", ok,
           f"{len(names)} files compared")
