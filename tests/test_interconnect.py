"""Coupled-network tests: delta estimates, R1/R2 systems, propagation."""

import numpy as np
import pytest

from resil.exprs import parse_expression
from resil.interconnect import (
    GUARANTEED,
    UNKNOWN,
    DeltaEstimate,
    DimensionMismatchError,
    Network,
    compute_delta_exact,
    compute_delta_pairwise,
    feasibility_r1,
    feasibility_r2,
    improve_by_interconnection,
    propagate_indices,
    solve_r1,
    solve_r2,
    verify_network,
)
from resil.oracle import OracleSettings
from resil.resilience import Infeasible, ResilienceIndex
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
    for compute in (compute_delta_exact, compute_delta_pairwise):
        est = compute(net, 0, SETTINGS)
        assert est == DeltaEstimate(0, 0.0, est.method, ())


def test_delta_pair_frozen_value():
    # grad h2 . W = -0.1 (x1 - x2), minimized at x1 = 1, x2 = -1.
    net = make_pair()
    exact = compute_delta_exact(net, 1, SETTINGS)
    pairwise = compute_delta_pairwise(net, 1, SETTINGS)
    assert exact.value == pytest.approx(-0.2, abs=1e-12)
    assert pairwise.value == pytest.approx(-0.2, abs=1e-12)
    assert exact.method == "exact_joint"
    assert pairwise.method == "pairwise_sum"
    assert dict(exact.arg) == {"x1": 1.0, "x2": -1.0}
    assert dict(pairwise.arg[0]) == {"x1": 1.0, "x2": -1.0}


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
    exact = compute_delta_exact(net, 1, SETTINGS)
    pairwise = compute_delta_pairwise(net, 1, SETTINGS)
    assert pairwise.value <= exact.value + 1e-9
    assert exact.value == pytest.approx(-2.0, abs=1e-9)
    assert pairwise.value == pytest.approx(-4.0, abs=1e-9)


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
    # At delta exactly on the nonstrict R1 threshold the constructive scan
    # has no positive-phi solution (it would need a zero recovery deadline),
    # so Guaranteed verdict and solver outcome disagree only on the boundary
    # set of measure zero.
    idx = ResilienceIndex(1, 1, 1, 1)
    assert feasibility_r1(idx, -1.0, 1.0).verdict == GUARANTEED
    assert isinstance(solve_r1(idx, -1.0, 1.0, sup=2.0), Infeasible)


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
    out = improve_by_interconnection(ResilienceIndex(1, 1, 1, 1), 1.0, 1.0)
    assert out.as_tuple() == pytest.approx((1.0, 1.0, 0.5, 2.0))
    out = improve_by_interconnection(ResilienceIndex(2, 1, 1, 0.5), 0.5, 1.0)
    assert out.as_tuple() == pytest.approx((2.0, 1.0, 0.8, 1.0))
    with pytest.raises(ValueError):
        improve_by_interconnection(IDX, -0.1, 1.0)


def test_improve_random_properties():
    # The canonical helpful-coupling solution keeps (d, tau), tightens phi,
    # and satisfies every shrink-system row; the construction self-checks
    # the rows to 1e-12, so reaching the assert below means they held.
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = rng.uniform(0, 3) if rng.random() < 0.9 else 0.0
        idx = ResilienceIndex(d, rng.uniform(0.05, 4), rng.uniform(0.05, 4),
                              rng.uniform(0, 4))
        delta = rng.uniform(0, 5)
        z = rng.uniform(0.05, 4)
        out = improve_by_interconnection(idx, delta, z)
        assert out.d == idx.d
        assert out.tau == idx.tau
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
        propagate_indices(net, {0: IDX, 1: IDX}, 1.0, delta_method="joint")
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
