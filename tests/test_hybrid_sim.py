"""Fault-injection simulator tests: schedules, integration, verdicts, CSV."""

import dataclasses
import math
import os

import numpy as np
import pytest

from resil.exprs import parse_expression
from resil.hybrid_sim import (
    AdversaryPolicy,
    FaultSchedule,
    NonFiniteStateError,
    ScheduleError,
    check_trace_safety,
    export_trace_csv,
    generate_schedule,
    simulate,
    simulate_batch,
    validate_schedule,
    validate_trace,
)
from resil.interconnect import Network
from resil.resilience import ResilienceIndex
from resil.subsystem import Subsystem

from test_interconnect import make_pair, unit_block

IDX = ResilienceIndex(0.1, 0.1, 0.1, 1.0)


def single_net(h="1 - x1", f="0", mu="-1"):
    sv = ("x1",)
    s = Subsystem(
        name="S1", state_vars=sv, input_vars=("u1",),
        f=(parse_expression(f, sv),),
        g=((parse_expression("1", sv),),),
        h=parse_expression(h, sv),
        mu=(parse_expression(mu, sv),),
        state_box=((-1.0, 1.0),), input_box=((-1.0, 1.0),),
    )
    return Network((s,))


def sched(horizon, *intervals, subsystems=1, target=0):
    per = [() for _ in range(subsystems)]
    per[target] = tuple(intervals)
    return FaultSchedule(horizon=horizon, intervals=tuple(per))


def test_adversary_policy_validation():
    AdversaryPolicy(kind="random", seed=3)
    with pytest.raises(ValueError):
        AdversaryPolicy(kind="worst")


def test_validate_schedule_bounds():
    indices = {0: IDX}
    validate_schedule(sched(1.0, (0.2, 0.3)), indices)
    with pytest.raises(ScheduleError):
        validate_schedule(sched(1.0, (0.2, 0.35)), indices)  # longer than tau
    with pytest.raises(ScheduleError):
        validate_schedule(sched(1.0, (0.2, 0.3), (0.35, 0.4)), indices)  # gap < phi
    with pytest.raises(ScheduleError):
        validate_schedule(sched(1.0, (0.95, 1.1)), indices)  # past horizon
    with pytest.raises(ScheduleError):
        validate_schedule(sched(1.0, (-0.1, 0.05)), indices)
    with pytest.raises(ScheduleError):
        validate_schedule(sched(1.0, (0.3, 0.3)), indices)  # empty interval
    validate_schedule(sched(1.0, (0.2, 0.3), (0.4, 0.5)), indices)


def test_generate_schedule_invariants():
    indices = {0: ResilienceIndex(0.1, 0.3, 0.2, 1.0),
               1: ResilienceIndex(0.2, 0.15, 0.6, 0.5)}
    schedules = generate_schedule(123, 5.0, indices, 40)
    assert len(schedules) == 40
    for s in schedules:
        validate_schedule(s, indices)
        for j, ivs in enumerate(s.intervals):
            idx = indices[j]
            if ivs:
                assert ivs[0][0] < 3 * idx.phi
            for (a, b) in ivs:
                assert 0 < b - a <= idx.tau * (1 + 1e-9)
            for (_, e0), (s1, _) in zip(ivs, ivs[1:]):
                gap = s1 - e0
                assert idx.phi * (1 - 1e-9) <= gap <= 3 * idx.phi + idx.tau


def test_generate_schedule_deterministic_per_seed():
    indices = {0: IDX}
    a = generate_schedule(7, 2.0, indices, 5)
    b = generate_schedule(7, 2.0, indices, 5)
    assert a == b
    c = generate_schedule(8, 2.0, indices, 5)
    assert a != c
    # Trace k is the same no matter how many schedules are drawn.
    assert generate_schedule(7, 2.0, indices, 2) == a[:2]


def test_generate_schedule_interval_count_bound():
    # tau=0.1 offline plus a gap of at least phi=0.5 gives a cycle of at
    # least ~0.5; a 2-time-unit horizon fits at most 4 intervals.
    indices = {0: ResilienceIndex(0.1, 0.1, 0.5, 1.0)}
    for s in generate_schedule(41, 2.0, indices, 200):
        assert len(s.intervals[0]) <= 4


def test_generate_schedule_align_dt_snaps_boundaries():
    indices = {0: IDX}
    dt = 0.01
    schedules = generate_schedule(11, 2.0, indices, 20, align_dt=dt)
    for s in schedules:
        validate_schedule(s, indices)
        for (a, b) in s.intervals[0]:
            assert abs(a / dt - round(a / dt)) < 1e-6
            assert abs(b / dt - round(b / dt)) < 1e-6


def test_generate_schedule_argument_validation():
    assert generate_schedule(1, 1.0, {0: IDX}, 0) == []
    with pytest.raises(ValueError):
        generate_schedule(1, 0.0, {0: IDX}, 1)
    with pytest.raises(ValueError):
        generate_schedule(1, 1.0, {0: IDX}, -1)


def test_generate_schedule_infinite_tau_stays_offline_to_horizon():
    # No length is drawn for tau = inf: the first start is the only draw
    # before the interval runs to the horizon.
    indices = {0: ResilienceIndex(0.0, math.inf, 0.1, 1.0), 1: IDX}
    free = generate_schedule(5, 2.0, indices, 10)
    aligned = generate_schedule(5, 2.0, indices, 10, align_dt=0.01)
    for k, (s, snapped) in enumerate(zip(free, aligned)):
        validate_schedule(s, indices)
        start = np.random.default_rng([5, k]).uniform(0.0, 3.0 * 0.1)
        assert s.intervals[0] == ((start, 2.0),)
        assert s.intervals[1]
        ((a, b),) = snapped.intervals[0]
        assert 0 <= a - start < 0.01 and b == pytest.approx(2.0)


def test_simulate_toy_piecewise_trajectory():
    # Online drift -1, offline bang-bang drift +1; both are state-constant,
    # so RK4 reproduces the kinked line exactly.
    net = single_net()
    schedule = sched(1.0, (0.2, 0.3))
    trace = simulate(net, {0: IDX}, schedule, AdversaryPolicy("bang-bang"),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    t = trace.times
    x = trace.states["S1"][:, 0]
    expected = np.where(t <= 0.2, 0.5 - t,
                        np.where(t <= 0.3, 0.3 + (t - 0.2), 0.4 - (t - 0.3)))
    np.testing.assert_allclose(x, expected, atol=1e-12)
    np.testing.assert_allclose(trace.h["S1"], 1 - expected, atol=1e-12)
    assert trace.events == ((0.2, "S1", "offline"), (0.3, "S1", "online"))
    loc = trace.loc["S1"]
    offline_samples = (t >= 0.2 - 1e-12) & (t < 0.3 - 1e-12)
    np.testing.assert_array_equal(loc == 0, offline_samples)
    assert trace.violations == ()

    verdict = check_trace_safety(trace, net, {0: IDX})
    assert verdict.safe
    assert verdict.recovery_deadlines_met
    assert verdict.first_violation is None
    assert verdict.min_h["S1"] == pytest.approx(0.5)


def test_constant_adversary_holds_entry_vertex():
    net = single_net()
    schedule = sched(1.0, (0.2, 0.3))
    bb = simulate(net, {0: IDX}, schedule, AdversaryPolicy("bang-bang"),
                  dt=0.01, horizon=1.0, x0=[(0.5,)])
    const = simulate(net, {0: IDX}, schedule, AdversaryPolicy("constant"),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    # The drift coefficient never changes sign here, so both adversaries
    # pick the same vertex.
    np.testing.assert_allclose(const.states["S1"], bb.states["S1"], atol=1e-12)
    offline = const.loc["S1"] == 0
    assert (const.inputs["S1"][offline, 0] == 1.0).all()


def test_random_adversary_uses_box_vertices_and_is_seeded():
    net = single_net()
    schedule = sched(1.0, (0.2, 0.5))
    idx = ResilienceIndex(0.5, 0.4, 0.1, 1.0)
    a = simulate(net, {0: idx}, schedule, AdversaryPolicy("random", seed=5),
                 dt=0.01, horizon=1.0, x0=[(0.5,)])
    b = simulate(net, {0: idx}, schedule, AdversaryPolicy("random", seed=5),
                 dt=0.01, horizon=1.0, x0=[(0.5,)])
    np.testing.assert_array_equal(a.states["S1"], b.states["S1"])
    offline = a.loc["S1"] == 0
    assert set(np.unique(a.inputs["S1"][offline, 0])) <= {-1.0, 1.0}
    c = simulate(net, {0: idx}, schedule, AdversaryPolicy("random", seed=6),
                 dt=0.01, horizon=1.0, x0=[(0.5,)])
    assert not np.array_equal(a.inputs["S1"], c.inputs["S1"])


def test_online_law_reevaluated_along_trajectory():
    # mu = -x makes the closed loop x' = -x; RK4 at dt=0.01 tracks the
    # exponential to ~1e-12.
    net = single_net(mu="-x1", f="-x1")
    # f=-x1 plus g*mu=-x1 gives x' = -2x.
    trace = simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    expected = 0.5 * np.exp(-2.0 * trace.times)
    np.testing.assert_allclose(trace.states["S1"][:, 0], expected, atol=1e-10)


def test_default_x0_is_deepest_safe_point():
    net = single_net(h="1 - x1*x1", f="-x1", mu="0")
    trace = simulate(net, {0: ResilienceIndex(0.5, 1.0, 1.0, 0.0)}, sched(0.5),
                     AdversaryPolicy(), dt=0.01, horizon=0.5)
    # x0 is located by grid search, so it sits near the peak, not on it.
    np.testing.assert_allclose(trace.states["S1"], 0.0, atol=1e-5)
    np.testing.assert_allclose(trace.h["S1"], 1.0, atol=1e-9)
    assert (trace.loc["S1"] == 1).all()
    assert trace.events == ()


def test_x0_below_buffer_rejected():
    net = single_net()
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(),
                 dt=0.01, horizon=1.0, x0=[(0.95,)])
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(),
                 dt=0.01, horizon=1.0, x0=[(0.0, 0.0)])


def test_runaway_state_raises():
    net = single_net()  # mu = -1 keeps pushing x below the box
    with pytest.raises(NonFiniteStateError) as err:
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(),
                 dt=0.01, horizon=1.0, x0=[(-0.95,)])
    assert err.value.subsystem == "S1"
    assert 0.2 <= err.value.time <= 0.3  # crosses -1.2 near t = 0.25


def violation_fixture():
    # Safe set x <= 0.5; offline pushes x upward well past the boundary
    # while staying inside the state box.
    net = single_net(h="0.5 - x1")
    idx = ResilienceIndex(0.1, 0.5, 0.1, 1.0)
    schedule = sched(1.0, (0.1, 0.6))
    trace = simulate(net, {0: idx}, schedule, AdversaryPolicy("bang-bang"),
                     dt=0.01, horizon=1.0, x0=[(0.3,)])
    return net, idx, trace


def test_violation_detected_and_refined():
    net, idx, trace = violation_fixture()
    # x(t) = 0.2 + (t - 0.1) while offline crosses h = 0 at t = 0.4.
    assert trace.violations
    t_v, name, h_v = trace.violations[0]
    assert name == "S1"
    assert t_v == pytest.approx(0.405, abs=1e-9)
    assert h_v == pytest.approx(-0.005, abs=1e-9)

    verdict = check_trace_safety(trace, net, {0: idx})
    assert not verdict.safe
    assert verdict.min_h["S1"] == pytest.approx(-0.2, abs=1e-9)
    assert verdict.first_violation[0] == pytest.approx(0.405, abs=1e-9)


def test_refinement_applies_switch_inside_half_step():
    # The crossing lies between samples 0.30 and 0.31 and the fault starts
    # at 0.302, inside the re-integrated half-step [0.30, 0.305].  Offline,
    # x rises at rate 1 from 0.499, so h(0.305) = 0.5 - 0.502 = -0.002 and
    # the first half holds the crossing.  A refinement that stayed online
    # through the half-step would keep h = 0.001 there and report the
    # second half, (0.3075, -0.003).
    net = single_net(h="0.5 - x1", mu="0")
    idx = ResilienceIndex(0.0, 0.5, 0.1, 1.0)
    for kind in ("bang-bang", "constant"):
        trace = simulate(net, {0: idx}, sched(1.0, (0.302, 0.6)), AdversaryPolicy(kind),
                         dt=0.01, horizon=1.0, x0=[(0.499,)])
        ((t_v, name, h_v),) = trace.violations
        assert (t_v, name) == (0.305, "S1"), kind
        assert h_v == pytest.approx(-0.002, abs=1e-12), kind


def test_recovery_deadline_miss_detected():
    net, idx, trace = violation_fixture()
    # Recovery starts at t=0.6 from h=-0.2 and needs 0.3 time units to
    # reach the buffer; the deadline phi + dt = 0.11 is long gone.
    verdict = check_trace_safety(trace, net, {0: idx})
    assert not verdict.recovery_deadlines_met


def test_truncated_recovery_window_not_assessed():
    net = single_net(h="0.5 - x1")
    idx = ResilienceIndex(0.1, 0.5, 0.1, 1.0)
    schedule = sched(0.65, (0.1, 0.6))
    trace = simulate(net, {0: idx}, schedule, AdversaryPolicy("bang-bang"),
                     dt=0.01, horizon=0.65, x0=[(0.3,)])
    verdict = check_trace_safety(trace, net, {0: idx})
    assert not verdict.safe
    assert verdict.recovery_deadlines_met  # deadline 0.71 is past the horizon


def test_batch_matches_single_runs():
    net = make_pair()
    indices = {0: IDX, 1: IDX}
    schedules = [
        FaultSchedule(1.0, (((0.2, 0.3),), ())),
        FaultSchedule(1.0, (((0.15, 0.25),), ((0.45, 0.55),))),
    ]
    for kind in ("bang-bang", "constant"):
        batch = simulate_batch(net, indices, schedules, AdversaryPolicy(kind),
                               dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
        for schedule, got in zip(schedules, batch):
            alone = simulate(net, indices, schedule, AdversaryPolicy(kind),
                             dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
            for name in net.names:
                for field in ("states", "inputs", "h"):
                    np.testing.assert_allclose(getattr(got, field)[name],
                                               getattr(alone, field)[name], atol=1e-10)
                np.testing.assert_array_equal(got.loc[name], alone.loc[name])
            assert got.events == alone.events


def test_random_adversary_uses_each_subsystems_own_box():
    # S2's input box differs from S1's, so an input row whose columns were
    # paired with the wrong subsystem's bounds would leave {-1, 1} for S2.
    pair = make_pair()
    s1, s2 = pair.subsystems
    s2 = dataclasses.replace(s2, input_box=((-3.0, -0.5),))
    net = Network((s1, s2), pair.couplings)
    schedule = FaultSchedule(0.5, (((0.1, 0.2), (0.3, 0.4)), ((0.15, 0.25), (0.35, 0.45))))
    trace = simulate(net, {0: IDX, 1: IDX}, schedule, AdversaryPolicy("random", seed=2),
                     dt=0.01, horizon=0.5, x0=[(0.5,), (0.5,)])
    for name, vertices in (("S1", {-1.0, 1.0}), ("S2", {-3.0, -0.5})):
        u = trace.inputs[name][:, 0]
        offline = trace.loc[name] == 0
        assert set(np.unique(u[offline])) == vertices, name
        assert (u[~offline] == -1.0).all(), name  # the online law mu = -1


def test_schedule_needs_one_interval_tuple_per_subsystem():
    net = make_pair()
    for intervals in ((((0.2, 0.3),),), ((), (), ((0.2, 0.3),))):
        with pytest.raises(ScheduleError,
                           match=f"{len(intervals)} interval tuples for 2 subsystems"):
            simulate(net, {0: IDX, 1: IDX}, FaultSchedule(1.0, intervals),
                     AdversaryPolicy(), dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])


def no_input_block(name="S0", x="x0"):
    sv = (x,)
    return Subsystem(
        name=name, state_vars=sv, input_vars=(),
        f=(parse_expression(f"-{x}", sv),), g=((),),
        h=parse_expression(f"1 - {x}", sv), mu=(),
        state_box=((-1.0, 1.0),), input_box=(),
    )


@pytest.mark.parametrize("kind", ["bang-bang", "constant", "random"])
def test_subsystem_without_inputs(tmp_path, kind):
    adversary = AdversaryPolicy(kind, seed=1)
    alone = simulate(Network((no_input_block(),)), {0: IDX}, sched(1.0, (0.2, 0.3)),
                     adversary, dt=0.01, horizon=1.0, x0=[(0.5,)])
    assert alone.inputs["S0"].shape == (101, 0)
    # Going offline changes nothing when there is no input to attack.
    np.testing.assert_allclose(alone.states["S0"][:, 0], 0.5 * np.exp(-alone.times),
                               atol=1e-9)

    # Beside the pair (the coupling S1 -> S2 kept), the pair's traces are
    # those of the pair alone.
    pair = make_pair()
    s1, s2 = pair.subsystems
    net = Network((s1, no_input_block(), s2), {(0, 2): pair.couplings[(0, 1)]})
    indices = {0: IDX, 1: IDX, 2: IDX}
    intervals = (((0.2, 0.3),), ((0.1, 0.2),), ((0.45, 0.55),))
    trace = simulate(net, indices, FaultSchedule(1.0, intervals), adversary,
                     dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,), (0.5,)])
    ref = simulate(pair, {0: IDX, 1: IDX}, FaultSchedule(1.0, intervals[::2]), adversary,
                   dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
    assert trace.inputs["S0"].shape == (101, 0)
    for name in ("S1", "S2"):
        for field in ("states", "inputs", "h", "loc"):
            np.testing.assert_array_equal(getattr(trace, field)[name],
                                          getattr(ref, field)[name])
    path = os.path.join(tmp_path, "trace.csv")
    export_trace_csv(trace, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "t,loc_1,x_1_1,u_1_1,h_1,loc_2,x_2_1,h_2,loc_3,x_3_1,u_3_1,h_3"


def test_multi_subsystem_schedules_are_positional():
    net = make_pair()
    indices = {0: IDX, 1: IDX}
    schedule = FaultSchedule(1.0, (((0.2, 0.3),), ()))
    trace = simulate(net, indices, schedule, AdversaryPolicy(),
                     dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
    assert (trace.loc["S2"] == 1).all()
    assert any(name == "S1" for _, name, _ in trace.events)
    assert all(name == "S1" for _, name, _ in trace.events)


def test_off_grid_boundaries_hit_exactly():
    net = single_net()
    schedule = sched(1.0, (0.105, 0.205))
    trace = simulate(net, {0: IDX}, schedule, AdversaryPolicy(),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    # Offline [0.105, 0.205) lasts exactly 0.1: the state returns to a path
    # parallel to the online-only one, displaced by 2 * 0.1.
    x = trace.states["S1"][:, 0]
    t = trace.times
    tail = t >= 0.205
    np.testing.assert_allclose(x[tail], 0.5 - t[tail] + 0.2, atol=1e-12)
    validate_trace(trace)


def test_validate_trace_checks():
    net, _, trace = violation_fixture()
    validate_trace(trace)
    validate_trace(trace, max_h_rate=1.0)
    with pytest.raises(ValueError):
        validate_trace(trace, max_h_rate=0.5)
    trace.loc["S1"] = trace.loc["S1"].copy()
    trace.loc["S1"][3] = 0  # fake an unscheduled switch
    with pytest.raises(ValueError):
        validate_trace(trace)


def test_simulate_argument_validation():
    net = single_net()
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.01, horizon=0.0)
    with pytest.raises(ScheduleError):
        simulate(net, {0: IDX}, sched(1.0, (0.0, 0.5)), AdversaryPolicy(),
                 dt=0.01, horizon=1.0, x0=[(0.5,)])
    assert simulate_batch(net, {0: IDX}, [], AdversaryPolicy(),
                          dt=0.01, horizon=1.0) == []


def test_export_trace_csv(tmp_path):
    net = single_net()
    trace = simulate(net, {0: IDX}, sched(0.1, (0.02, 0.05)), AdversaryPolicy(),
                     dt=0.01, horizon=0.1, x0=[(0.5,)])
    path = os.path.join(tmp_path, "trace.csv")
    export_trace_csv(trace, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,loc_1,x_1_1,u_1_1,h_1"
    assert len(lines) == len(trace.times) + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], trace.times, rtol=1e-8)
    np.testing.assert_allclose(data[:, 2], trace.states["S1"][:, 0], rtol=1e-8)
    # 9 significant digits: a third is rendered with 9 digits, no more.
    row = simulate(net, {0: IDX}, sched(0.1), AdversaryPolicy(),
                   dt=1.0 / 3.0, horizon=0.1, x0=[(1.0 / 3.0,)])
    export_trace_csv(row, path)
    with open(path) as fh:
        body = fh.read().splitlines()[1]
    assert "0.333333333" in body
    assert "0.3333333333" not in body


def test_export_trace_csv_pair_column_order(tmp_path):
    net = make_pair()
    trace = simulate(net, {0: IDX, 1: IDX}, FaultSchedule(0.1, ((), ())),
                     AdversaryPolicy(), dt=0.01, horizon=0.1,
                     x0=[(0.5,), (0.5,)])
    path = os.path.join(tmp_path, "pair.csv")
    export_trace_csv(trace, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "t,loc_1,x_1_1,u_1_1,h_1,loc_2,x_2_1,u_2_1,h_2"
