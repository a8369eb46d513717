"""Coupled-network tests: delta estimates, R1/R2 systems, propagation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from resil.exprs import parse_expression
from resil.interconnect import (
    GUARANTEED,
    UNKNOWN,
    DeltaEstimate,
    DimensionMismatchError,
    Network,
    compute_delta,
    feasibility_r1,
    feasibility_r2,
    propagate_indices,
    solve_r1,
    solve_r2,
    verify_network,
)
from resil.oracle import OracleSettings
from resil.resilience import DEFAULT_TAU_MAX, Infeasible, ResilienceIndex
from resil.subsystem import ModelError, Subsystem

SETTINGS = OracleSettings(grid_points_per_dim=501, refinement_rounds=2)


def unit_block(name, x, u):
    sv = (x,)
    return Subsystem(
        name=name, state_vars=sv, input_vars=(u,),
        f=(parse_expression("0", sv),),
        g=((parse_expression("1", sv),),),
        h=parse_expression(f"1 - {x}", sv),
        mu=(parse_expression("-1", sv),),
        state_box=((-1.0, 1.0),), input_box=((-1.0, 1.0),),
    )


def make_pair(w="0.1*(x1 - x2)"):
    s1 = unit_block("S1", "x1", "u1")
    s2 = unit_block("S2", "x2", "u2")
    coupling = (parse_expression(w, ("x1", "x2")),)
    return Network((s1, s2), {(0, 1): coupling})


IDX = ResilienceIndex(0.1, 0.1, 0.1, 1.0)


def test_network_validation():
    s1 = unit_block("S1", "x1", "u1")
    s2 = unit_block("S2", "x2", "u2")
    Network((s1, s2))

    with pytest.raises(ModelError):
        Network((s1, unit_block("S1", "x2", "u2")))
    with pytest.raises(ModelError):
        Network((s1, unit_block("S2", "x1", "u2")))
    with pytest.raises(ModelError):
        Network((s1, unit_block("S2", "x2", "x1")))
    w = (parse_expression("x1", ("x1",)),)
    with pytest.raises(ModelError):
        Network((s1, s2), {(0, 5): w})
    with pytest.raises(ModelError):
        Network((s1, s2), {(1, 1): w})
    with pytest.raises(DimensionMismatchError):
        Network((s1, s2), {(0, 1): (parse_expression("x1", ("x1",)),) * 2})
    with pytest.raises(ModelError):
        Network((s1, s2), {(0, 1): (parse_expression("x9", ("x9",)),)})


def test_network_lookup_and_incoming():
    net = make_pair()
    assert net.names == ("S1", "S2")
    assert net.index_of("S2") == 1
    with pytest.raises(KeyError):
        net.index_of("S9")
    assert net.incoming(0) == []
    assert [i for i, _ in net.incoming(1)] == [0]


def test_delta_no_incoming_is_zero():
    net = make_pair()
    for exact in (True, False):
        est = compute_delta(net, 0, SETTINGS, exact)
        assert est == DeltaEstimate(0, 0.0, est.method, ())


def test_delta_pair_frozen_value():
    # grad h2 . W = -0.1 (x1 - x2), minimized at x1 = 1, x2 = -1.
    net = make_pair()
    exact = compute_delta(net, 1, SETTINGS, exact=True)
    pairwise = compute_delta(net, 1, SETTINGS)
    assert exact.value == pytest.approx(-0.2, abs=1e-12)
    assert pairwise.value == pytest.approx(-0.2, abs=1e-12)
    assert exact.method == "exact_joint"
    assert pairwise.method == "pairwise_sum"
    assert dict(exact.arg) == {"x1": 1.0, "x2": -1.0}
    assert pairwise.arg == exact.arg == (("x1", 1.0), ("x2", -1.0))


def test_delta_pairwise_underapproximates_exact():
    # Two couplings share the target state; relaxing it separately per pair
    # can only lower the sum.
    s1 = unit_block("S1", "x1", "u1")
    s2 = unit_block("S2", "x2", "u2")
    s3 = unit_block("S3", "x3", "u3")
    # Per-pair minimizers want x2 at opposite corners (+1 vs -1); jointly
    # the two contributions cancel to a constant -2.
    net = Network((s1, s2, s3), {
        (0, 1): (parse_expression("x1*(1 + x2)", ("x1", "x2")),),
        (2, 1): (parse_expression("-x3*(1 - x2)", ("x3", "x2")),),
    })
    exact = compute_delta(net, 1, SETTINGS, exact=True)
    pairwise = compute_delta(net, 1, SETTINGS)
    assert pairwise.value <= exact.value + 1e-9
    assert exact.value == pytest.approx(-2.0, abs=1e-9)
    assert pairwise.value == pytest.approx(-4.0, abs=1e-9)


COUPLING_TERMS = st.lists(st.tuples(st.sampled_from(["0.5", "-1", "2", "-0.25"]),
                                    st.sampled_from(["1", "x1", "x2", "x3", "x1*x2", "x2*x3",
                                                     "x1*x1", "x2*x2", "x1*x3"])),
                          min_size=1, max_size=3)


def coupling(terms, sv):
    """The sum of the terms over the variables in sv (others read as 1)."""
    text = " + ".join(f"{c}*{m}" for c, m in terms)
    for x in {"x1", "x2", "x3"} - set(sv):
        text = text.replace(x, "1")
    return (parse_expression(text, sv),)


@hsettings(max_examples=60, deadline=None)
@given(COUPLING_TERMS, st.integers(0, 2))
def test_delta_one_source_exact_is_pairwise(terms, rounds):
    # With one source the joint and the pairwise minimum are one query: the
    # same grid, the same expression.
    net = Network((unit_block("S1", "x1", "u1"), unit_block("S2", "x2", "u2")),
                  {(0, 1): coupling(terms, ("x1", "x2"))})
    st_ = OracleSettings(grid_points_per_dim=21, refinement_rounds=rounds)
    exact = compute_delta(net, 1, st_, exact=True)
    pairwise = compute_delta(net, 1, st_)
    assert exact.value.hex() == pairwise.value.hex()  # bit for bit, signed zeros too
    assert exact.arg == pairwise.arg
    assert (exact.method, pairwise.method) == ("exact_joint", "pairwise_sum")


@hsettings(max_examples=60, deadline=None)
@given(COUPLING_TERMS, COUPLING_TERMS, st.integers(2, 21))
def test_delta_two_sources_pairwise_at_most_exact(terms1, terms3, n):
    # At 0 rounds both scan the same nodes; each pair's minimum is at most
    # that term at the joint minimizer, and rounded addition is monotone.
    net = Network((unit_block("S1", "x1", "u1"), unit_block("S2", "x2", "u2"),
                   unit_block("S3", "x3", "u3")),
                  {(0, 1): coupling(terms1, ("x1", "x2")),
                   (2, 1): coupling(terms3, ("x3", "x2"))})
    st_ = OracleSettings(grid_points_per_dim=n, refinement_rounds=0)
    exact = compute_delta(net, 1, st_, exact=True)
    pairwise = compute_delta(net, 1, st_)
    assert pairwise.value <= exact.value
    assert [v for v, _ in pairwise.arg] == ["x1", "x2", "x3", "x2"]  # pairs [i, j]


def test_solve_r1_shrink_example():
    out = solve_r1(ResilienceIndex(1, 1, 1, 1), 0.5, 1.0, sup=2.0, tau_max=10.0)
    assert isinstance(out, ResilienceIndex)
    assert out.d == pytest.approx(1.0)
    assert out.tau == pytest.approx(2.0)
    assert out.phi == pytest.approx(2.0 / 3.0)
    assert out.eta == pytest.approx(1.5)


def test_solve_r1_hostile_coupling_infeasible():
    out = solve_r1(ResilienceIndex(1, 1, 1, 1), -3.0, 1.0, sup=2.0)
    assert isinstance(out, Infeasible)
    assert out.diagnostics["denom"] == pytest.approx(-2.0)


def test_solve_r1_shrinks_depth_under_mild_hostility():
    # delta = -0.5: the full depth still works (eta' = -0.5 + 1 = 0.5 >= 0).
    out = solve_r1(ResilienceIndex(1, 1, 1, 1), -0.5, 1.0, sup=2.0)
    assert isinstance(out, ResilienceIndex)
    assert out.d == pytest.approx(1.0)
    assert out.eta == pytest.approx(0.5)
    assert out.phi == pytest.approx(2.0)  # 1*1/(1 - 0.5)
    assert out.tau == pytest.approx(1.0 / 1.5)


def test_solve_r2_zero_margin_infeasible():
    out = solve_r2(ResilienceIndex(1, 1, 1, 1), 0.0, 1.0, sup=2.0)
    assert isinstance(out, Infeasible)
    assert out.diagnostics["rhs"] == pytest.approx(0.0)


def test_solve_r2_grow_example():
    out = solve_r2(ResilienceIndex(1, 1, 1, 1), 0.2, 0.5, sup=1.5)
    assert isinstance(out, ResilienceIndex)
    assert out.d == pytest.approx(1.0)
    assert out.tau == pytest.approx(1.25)
    assert out.phi == pytest.approx(1.0 / 0.95)
    assert out.eta == pytest.approx(1.2)


def test_rsys_argument_checks():
    with pytest.raises(ValueError):
        solve_r1(IDX, 0.0, 0.0, sup=2.0)
    with pytest.raises(ValueError):
        solve_r2(IDX, 0.0, 1.0, sup=0.05)
    with pytest.raises(ValueError):
        feasibility_r2(IDX, 0.0, 1.0, sup=0.05)


def test_feasibility_r1_threshold():
    idx = ResilienceIndex(1, 1, 1, 1)
    feas = feasibility_r1(idx, -0.5, 1.0)
    assert feas.threshold == pytest.approx(-1.0)
    assert feas.verdict == GUARANTEED
    assert feasibility_r1(idx, -1.5, 1.0).verdict == UNKNOWN
    assert feasibility_r1(idx, 0.0, 1.0).verdict == GUARANTEED
    # The sufficient condition is nonstrict.
    assert feasibility_r1(idx, -1.0, 1.0).verdict == GUARANTEED


def test_feasibility_r2_threshold_strict():
    idx = ResilienceIndex(1, 1, 1, 1)
    feas = feasibility_r2(idx, 0.1, 1.0, sup=2.0)
    assert feas.threshold == pytest.approx(0.0)
    assert feas.verdict == GUARANTEED
    assert feasibility_r2(idx, 0.0, 1.0, sup=2.0).verdict == UNKNOWN
    # Depth already at the reach of h: the z-term vanishes.
    assert feasibility_r2(idx, 0.0, 1.0, sup=1.0).verdict == GUARANTEED


def test_r1_solver_at_exact_threshold_boundary():
    # At delta exactly on the nonstrict R1 threshold, d + phi*delta = 0 and
    # the recovery row phi' >= phi d'/(d + phi*delta) admits no finite phi',
    # so Guaranteed verdict and solver outcome disagree only on the boundary
    # set of measure zero.
    idx = ResilienceIndex(1, 1, 1, 1)
    assert feasibility_r1(idx, -1.0, 1.0).verdict == GUARANTEED
    assert isinstance(solve_r1(idx, -1.0, 1.0, sup=2.0), Infeasible)
    # The other strict row: eta' >= 0 leaves only d' = 0, where the offline
    # row d'/tau' >= d/tau - delta = 2 admits no tau'.
    idx = ResilienceIndex(1, 1, 0.5, 0)
    assert feasibility_r1(idx, -1.0, 1.0).verdict == GUARANTEED
    assert isinstance(solve_r1(idx, -1.0, 1.0, sup=2.0), Infeasible)


def test_solve_r1_at_zero_depth():
    # The recovery row is vacuous at zero depth, so d + phi*delta = 0 does
    # not make it infeasible: a harmless coupling keeps the zero buffer.
    idx = ResilienceIndex(0.0, 1.0, 1.0, 0.5)
    assert feasibility_r1(idx, 0.0, 1.0).verdict == GUARANTEED
    out = solve_r1(idx, 0.0, 1.0, 1.0)
    assert out == ResilienceIndex(0.0, DEFAULT_TAU_MAX, 1.0, 0.0)
    # A hostile coupling leaves a zero buffer no margin: eta' = delta < 0.
    assert isinstance(solve_r1(idx, -0.1, 1.0, 1.0), Infeasible)


def test_solve_r1_keeps_depth_below_first_lattice_step():
    # Every feasible depth lies in (0, 0.0026), below d/999 = 0.0047: a scan
    # of 1000 depths from d down to 0 found none and returned Infeasible.
    idx = ResilienceIndex(4.7187296296907775, 0.4170474777753187,
                          0.23945959450804602, 0.8783700688458784)
    delta, z = -4.279981979379286, 0.7212568069450517
    assert feasibility_r1(idx, delta, z).verdict == GUARANTEED
    assert isinstance(reference_solve_r1(idx, delta, z, 10.0), Infeasible)
    out = solve_r1(idx, delta, z, 10.0)
    assert isinstance(out, ResilienceIndex)
    assert 0 < out.d < 0.0026 and out.eta == 0.0
    assert_r1_rows(idx, out, delta, z)


def test_solve_r2_at_zero_depth_takes_sup():
    idx = ResilienceIndex(0.0, 1.0, 1.0, 1.0)
    out = solve_r2(idx, 0.5, 1.0, sup=0.25)
    assert out == ResilienceIndex(0.25, DEFAULT_TAU_MAX, 0.25 / 0.5, 1.75)
    # sup = 0 leaves no positive depth, and the verdict says so.
    assert isinstance(solve_r2(idx, 0.5, 1.0, sup=0.0), Infeasible)
    assert feasibility_r2(idx, 0.5, 1.0, sup=0.0).verdict == UNKNOWN


def test_solvers_at_the_ends_of_the_float_range():
    # A subnormal depth leaves phi' = phi d'/(d + phi delta) no positive
    # float (this raised), and a subnormal rate bound leaves phi' = d'/rhs
    # none below inf: both report Infeasible.
    tiny = ResilienceIndex(5e-324, 1.0, 1.0, 0.0)
    assert isinstance(solve_r1(tiny, 2.0, 1.0, 5e-324), Infeasible)
    zero = ResilienceIndex(0.0, 1.0, 1.0, 20.0)
    assert isinstance(solve_r2(zero, 2.2250738585072014e-308, 1.0, 10.0), Infeasible)


def reference_solve_r1(idx, delta, z, sup, tau_max=DEFAULT_TAU_MAX):
    """The shrink solver as a scan of 1000 evenly spaced depths from d down
    to 0, returning the first that works: the lattice answer the closed
    form must not fall below."""
    d, tau, phi, eta = idx.as_tuple()
    denom = d + phi * delta
    if denom <= 0:
        return Infeasible("denom")
    a = d / tau - delta
    for dp in np.linspace(d, 0.0, 1000):
        dp = float(dp)
        if a > 0:
            if dp <= 0:
                continue
            taup = min(tau_max, dp / a)
        else:
            taup = tau_max
        phip = phi if dp == 0 else phi * dp / denom
        etap = delta + min(d / phi, eta + z * (d - dp))
        if etap < 0:
            continue
        return ResilienceIndex(dp, taup, phip, etap)
    return Infeasible("lattice")


def reference_solve_r2(idx, delta, z, sup, tau_max=DEFAULT_TAU_MAX):
    """The grow solver as a scan of 1000 evenly spaced depths from d up to sup."""
    d, tau, phi, eta = idx.as_tuple()
    rhs = delta + min(d / phi, eta - z * (sup - d))
    if rhs <= 0:
        return Infeasible("rhs")
    a = d / tau - delta
    for dp in np.linspace(d, sup, 1000) if sup > d else np.array([d]):
        dp = float(dp)
        if dp <= 0:
            continue
        taup = tau_max if a <= 0 else min(tau_max, dp / a)
        etap = delta + eta + z * (dp - d)
        if etap < 0:
            continue
        return ResilienceIndex(dp, taup, dp / rhs, etap)
    return Infeasible("lattice")


def moderate(top, sign=False):
    """0 or a magnitude in [1e-6, top]: floats far from both ends of the
    float range, where the derived bounds neither underflow nor overflow
    (test_solvers_at_the_ends_of_the_float_range covers those)."""
    values = st.one_of(st.just(0.0), st.floats(1e-6, top))
    return st.one_of(values, values.map(lambda v: -v)) if sign else values


def assert_r1_rows(old, new, delta, z):
    """Every row of the shrink system R1, exactly."""
    d, tau, phi, eta = old.as_tuple()
    assert 0 <= new.d <= d
    assert -new.d / new.tau <= -d / tau + delta
    denom = d + phi * delta
    if denom > 0:
        assert new.phi >= phi * new.d / denom
    assert new.eta <= delta + min(d / phi, eta + z * (d - new.d))


@st.composite
def rsys_problems(draw):
    """An index (a third of them or more at zero depth), a coupling budget
    delta, a rate z and the reach sup >= d of h."""
    d = draw(moderate(10.0))
    idx = ResilienceIndex(d, draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0)),
                          draw(moderate(10.0)))
    return (idx, draw(moderate(30.0, sign=True)), draw(st.floats(0.01, 10.0)),
            d + draw(moderate(10.0)))


@hsettings(max_examples=500, deadline=None)
@given(rsys_problems())
def test_solve_r1_closed_form_properties(problem):
    idx, delta, z, sup = problem
    d, tau, phi, eta = idx.as_tuple()
    out = solve_r1(idx, delta, z, sup)
    if isinstance(out, ResilienceIndex):
        assert_r1_rows(idx, out, delta, z)
    lattice = reference_solve_r1(idx, delta, z, sup)
    if isinstance(lattice, ResilienceIndex):
        assert isinstance(out, ResilienceIndex) and out.d >= lattice.d
    # Verdict and solvability agree, except on R1's strict boundary: the
    # recovery row's d + phi*delta > 0 at d > 0, and the offline row at
    # d' = 0, the only depth whose eta' >= 0 (in floating point).
    boundary = (d > 0 and d + phi * delta <= 0) or (
        d / tau - delta > 0 and delta + min(d / phi, eta + z * (d - math.ulp(0.0))) < 0)
    if not boundary:
        assert (feasibility_r1(idx, delta, z).verdict == GUARANTEED) == \
            isinstance(out, ResilienceIndex)


@hsettings(max_examples=500, deadline=None)
@given(rsys_problems())
def test_solve_r2_closed_form_properties(problem):
    idx, delta, z, sup = problem
    d, tau, phi, eta = idx.as_tuple()
    out = solve_r2(idx, delta, z, sup)
    if isinstance(out, ResilienceIndex):
        rhs = delta + min(d / phi, eta - z * (sup - d))
        assert d <= out.d <= sup
        assert -out.d / out.tau <= -d / tau + delta
        assert out.phi >= out.d / rhs
        assert 0 <= out.eta <= delta + eta + z * (out.d - d)
    lattice = reference_solve_r2(idx, delta, z, sup)
    if isinstance(lattice, ResilienceIndex):
        assert isinstance(out, ResilienceIndex) and out.d >= lattice.d
    assert (feasibility_r2(idx, delta, z, sup).verdict == GUARANTEED) == \
        isinstance(out, ResilienceIndex)


def test_r2_guaranteed_implies_r1_guaranteed():
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = rng.uniform(0.01, 3)
        idx = ResilienceIndex(d, rng.uniform(0.1, 3), rng.uniform(0.1, 3),
                              rng.uniform(0, 3))
        z = rng.uniform(0.1, 3)
        sup = d + rng.uniform(0, 3)
        delta = rng.uniform(-4, 4)
        if feasibility_r2(idx, delta, z, sup).verdict == GUARANTEED:
            assert feasibility_r1(idx, delta, z).verdict == GUARANTEED


def test_improve_examples():
    # A helpful coupling (delta >= 0) keeps the depth and tightens phi.
    out = solve_r1(ResilienceIndex(1, 1, 1, 1), 1.0, 1.0, 1.0)
    assert out.as_tuple() == (1.0, DEFAULT_TAU_MAX, 0.5, 2.0)
    out = solve_r1(ResilienceIndex(2, 1, 1, 0.5), 0.5, 1.0, 2.0)
    assert out.as_tuple() == (2.0, 1.3333333333333333, 0.8, 1.0)


def test_improve_random_properties():
    # Under a helpful coupling the shrink system keeps d, never shortens tau
    # or lengthens phi, and satisfies every row.
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = rng.uniform(0, 3) if rng.random() < 0.9 else 0.0
        idx = ResilienceIndex(d, rng.uniform(0.05, 4), rng.uniform(0.05, 4),
                              rng.uniform(0, 4))
        delta = rng.uniform(0, 5)
        z = rng.uniform(0.05, 4)
        out = solve_r1(idx, delta, z, idx.d)
        assert_r1_rows(idx, out, delta, z)
        assert out.d == idx.d
        assert out.tau >= idx.tau
        assert out.phi <= idx.phi + 1e-15
        assert out.eta >= 0


def test_propagate_pair_frozen():
    net = make_pair()
    indices = {0: IDX, 1: IDX}
    out = propagate_indices(net, indices, 1.0, settings=SETTINGS)

    assert out[0].ok
    assert out[0].index == IDX  # nothing enters S1; certificate unchanged
    assert out[0].system == "R1"
    assert out[0].feasibility.verdict == GUARANTEED

    assert out[1].ok
    assert out[1].system == "R1"
    assert out[1].feasibility.verdict == GUARANTEED
    assert out[1].delta.value == pytest.approx(-0.2, abs=1e-12)
    got = out[1].index
    assert got.d == pytest.approx(0.1)
    assert got.tau == pytest.approx(1.0 / 12.0)
    assert got.phi == pytest.approx(0.125)
    assert got.eta == pytest.approx(0.8)


def test_propagate_requires_all_indices():
    net = make_pair()
    with pytest.raises(ValueError):
        propagate_indices(net, {0: IDX}, 1.0, settings=SETTINGS)


def test_propagate_depth_beyond_reach_is_infeasible():
    net = make_pair()
    deep = ResilienceIndex(5.0, 0.1, 0.1, 1.0)
    out = propagate_indices(net, {0: IDX, 1: deep}, 1.0, settings=SETTINGS)
    assert not out[1].ok
    assert "reach" in out[1].infeasible.reason


def test_propagate_prefer_r2_on_helpful_coupling():
    net = make_pair(w="-0.3 - 0.1*x1")
    indices = {0: IDX, 1: IDX}
    out = propagate_indices(net, indices, 0.05, settings=SETTINGS, prefer="r2")
    assert out[1].ok
    assert out[1].system == "R2"
    assert out[1].feasibility.verdict == GUARANTEED
    assert out[1].delta.value == pytest.approx(0.2, abs=1e-12)
    got = out[1].index
    assert got.d == pytest.approx(0.1)
    assert got.tau == pytest.approx(0.125)
    assert got.phi == pytest.approx(0.1 / 1.105)
    assert got.eta == pytest.approx(1.2)


def test_propagate_hostile_coupling_reports_both_failures():
    # W pushes x2 upward, toward the h2 boundary; grad h2 = -1 makes the
    # drift contribution -40(1+x1), so delta = -80 overwhelms the index.
    net = make_pair(w="40*(1 + x1)")
    out = propagate_indices(net, {0: IDX, 1: IDX}, 1.0, settings=SETTINGS)
    assert not out[1].ok
    assert "R1" in out[1].infeasible.reason and "R2" in out[1].infeasible.reason


def test_propagate_validates_arguments():
    net = make_pair()
    with pytest.raises(ValueError):
        propagate_indices(net, {0: IDX, 1: IDX}, 1.0, prefer="r3")


def test_verify_network_pair_frozen_margins():
    net = make_pair()
    propagated = {
        0: IDX,
        1: ResilienceIndex(0.1, 1.0 / 12.0, 0.125, 0.8),
    }
    reports = verify_network(net, propagated, 1.0, SETTINGS)
    assert reports[0].passed and reports[1].passed
    assert reports[0].margin_offline == pytest.approx(0.0, abs=1e-9)
    assert reports[0].margin_recovery == pytest.approx(0.0, abs=1e-6)
    assert reports[0].margin_invariance == pytest.approx(0.0, abs=1e-9)
    assert reports[1].margin_offline == pytest.approx(0.0, abs=1e-9)
    assert reports[1].margin_recovery == pytest.approx(0.19, abs=1e-5)
    assert reports[1].margin_invariance == pytest.approx(0.19, abs=1e-5)


def test_verify_network_catches_broken_index():
    net = make_pair()
    # Standalone-valid S2 index: the coupling drift (delta = -0.2) breaks it.
    reports = verify_network(net, {0: IDX, 1: IDX}, 1.0, SETTINGS)
    assert reports[0].passed
    assert not reports[1].passed
    assert reports[1].margin_offline == pytest.approx(-0.2, abs=1e-9)


def test_verify_network_requires_indices():
    net = make_pair()
    with pytest.raises(ValueError):
        verify_network(net, {0: IDX}, 1.0, SETTINGS)
