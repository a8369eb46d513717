"""Fault-injection simulator tests: schedules, integration, verdicts, CSV."""

import dataclasses
import math
import os
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resil.exprs import (
    BinaryOp,
    Literal,
    Variable,
    _add,
    _mul,
    compile_expression,
    parse_expression,
)
from resil.hybrid_sim import (
    AdversaryPolicy,
    FaultSchedule,
    HybridTrace,
    NonFiniteStateError,
    SafetyVerdict,
    ScheduleError,
    _CompiledNetwork,
    _Workspace,
    _adversary_rows,
    _locations,
    check_trace_safety,
    export_trace_csv,
    generate_schedule,
    simulate,
    simulate_batch,
    validate_schedule,
)
from resil.interconnect import Network
from resil.model_io import load_model
from resil.resilience import ResilienceIndex
from resil.subsystem import Subsystem, worst_vertex

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
    # each bound also has an absolute slack of 1e-9: a length of
    # tau + 5e-10, a gap of phi - 5e-10 and an end of horizon + 1.5e-9 pass
    validate_schedule(sched(1.0, (0.2, 0.3 + 5e-10), (0.4, 0.5), (0.92, 1.0 + 1.5e-9)), indices)


def reference_validate(schedule, indices):
    """validate_schedule with the bounds checked one interval at a time."""
    rel = 1e-9
    for j, ivs in enumerate(schedule.intervals):
        idx = indices[j]
        prev_end = None
        for (start, end) in ivs:
            where = f"subsystem {j}, interval [{start:.6g}, {end:.6g})"
            if not (0.0 <= start < end <= schedule.horizon * (1 + rel) + rel):
                raise ScheduleError(f"{where}: outside [0, horizon]")
            if end - start > idx.tau * (1 + rel) + rel:
                raise ScheduleError(f"{where}: length exceeds tau = {idx.tau:.6g}")
            if prev_end is not None and start - prev_end < idx.phi * (1 - rel) - rel:
                raise ScheduleError(f"{where}: gap after previous interval is "
                                    f"below phi = {idx.phi:.6g}")
            prev_end = end


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_schedule_equals_scalar_reference(data):
    # Starts, lengths and gaps on eighths, shifted by less or more than the
    # 1e-9 slack: bounds fall just inside and just outside [0, horizon],
    # tau = 0.25 and phi = 0.125.  A first start of -2 eighths is nan, which
    # makes every later bound nan.
    near = st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9])

    def eighths(lo, hi):
        return st.builds(lambda k, e: k / 8 + e if k > -2 else math.nan,
                         st.integers(lo, hi), near)

    per_sub = []
    for _ in range(2):
        t, ivs = data.draw(eighths(-2, 6)), []
        for _ in range(data.draw(st.integers(0, 5))):
            length, gap = data.draw(eighths(1, 3)), data.draw(eighths(0, 2))
            ivs.append((t, t + length))
            t = t + length + gap
        per_sub.append(tuple(ivs))
    schedule = FaultSchedule(2.0, tuple(per_sub))
    indices = {0: ResilienceIndex(0.1, 0.25, 0.125, 1.0),
               1: ResilienceIndex(0.1, math.inf, 0.25, 1.0)}

    def outcome(validate):
        try:
            validate(schedule, indices)
        except ScheduleError as err:
            return str(err)

    assert outcome(validate_schedule) == outcome(reference_validate)


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
    # An infinite horizon would draw intervals forever.
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            generate_schedule(1, horizon, {0: IDX}, 1)
    # A step that is not positive and finite used to snap every interval
    # away: a schedule with no fault.
    for dt in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="align_dt must be positive and finite"):
            generate_schedule(7, 1.0, {0: IDX}, 1, align_dt=dt)


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


def reference_schedule(seed, horizon, indices, count, align_dt=None):
    """generate_schedule as one scalar rng.uniform call per drawn value."""
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        per_sub = []
        for j in sorted(indices):
            idx = indices[j]
            ivs = []
            t = rng.uniform(0.0, 3.0 * idx.phi)
            while t < horizon:
                length = (idx.tau - rng.uniform(0.0, idx.tau)
                          if math.isfinite(idx.tau) else math.inf)
                start, end = t, min(t + length, horizon)
                if align_dt is not None:
                    i0 = math.ceil(start / align_dt - 1e-9)
                    i1 = math.floor(end / align_dt + 1e-9)
                    if i1 > i0:
                        ivs.append((i0 * align_dt, i1 * align_dt))
                elif end > start:
                    ivs.append((start, end))
                t = t + length + rng.uniform(idx.phi, 3.0 * idx.phi)
            per_sub.append(tuple(ivs))
        out.append(FaultSchedule(horizon=horizon, intervals=tuple(per_sub)))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_generate_schedule_equals_scalar_reference(data):
    # phi from horizon/2000 (hundreds of intervals, read in several blocks)
    # to above the horizon (often no interval at all)
    horizon = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    indices = {}
    for j in range(data.draw(st.integers(1, 3), label="subsystems")):
        phi = horizon * data.draw(st.floats(1 / 2000, 1.5), label="phi/horizon")
        tau = data.draw(st.one_of(st.just(math.inf),
                                  st.floats(1e-3, 2.0).map(lambda r: r * horizon)), label="tau")
        indices[j] = ResilienceIndex(0.1, tau, phi, 1.0)
    align_dt = data.draw(st.sampled_from([None, horizon / 100, horizon / 1000]), label="align_dt")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    count = data.draw(st.integers(1, 3), label="count")
    assert (generate_schedule(seed, horizon, indices, count, align_dt)
            == reference_schedule(seed, horizon, indices, count, align_dt))


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
    # Where one interval ends on the sample that starts the next, it picks
    # again: offline from 0.1, u = +1 drives x (x' = u - 2) across the peak
    # of h = 1 - x^2 at 0.2, so the pick at 0.3 is -1.
    net = single_net(h="1 - x1*x1", f="-2", mu="0")
    const = simulate(net, {0: ResilienceIndex(0.1, 0.2, 1e-9, 1.0)},
                     sched(0.5, (0.1, 0.3), (0.3, 0.5)), AdversaryPolicy("constant"),
                     dt=0.01, horizon=0.5, x0=[(0.3,)])
    u = const.inputs["S1"][:, 0]
    assert (u[10:30] == 1.0).all() and (u[30:50] == -1.0).all()


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


def test_random_adversary_does_not_reread_the_schedule_stream():
    # generate_schedule draws schedule b from default_rng([seed, b]); sim run
    # passes one --seed to both, so trace b's bits come from [seed, b, 1].
    net = single_net()
    idx = ResilienceIndex(0.5, 0.6, 0.1, 1.0)
    schedules = [sched(1.0, (0.2, 0.7)), sched(1.0, (0.3, 0.8))]
    traces = simulate_batch(net, {0: idx}, schedules, AdversaryPolicy("random", seed=7),
                            dt=0.01, horizon=1.0, x0=[(0.5,)])
    for b, trace in enumerate(traces):
        offline = trace.loc["S1"] == 0
        assert offline.sum() >= 40
        u = trace.inputs["S1"][offline, 0]
        for stream, equal in (([7, b], False), ([7, b, 1], True)):
            bits = np.random.default_rng(stream).integers(0, 2, size=(101, 1), dtype=np.uint8)
            assert np.array_equal(u, -1.0 + 2.0 * bits[offline, 0]) == equal, (b, stream)


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


def test_x0_needs_one_tuple_per_subsystem():
    # One tuple used to raise IndexError, three a numpy broadcast error.
    net = load_model(str(resources.files("resil") / "models" / "toy_pair.json")).network
    schedule = FaultSchedule(1.0, ((), ()))
    indices = {0: IDX, 1: IDX}
    for x0 in ([(0.5,)], [(0.5,)] * 3):
        message = f"x0 has {len(x0)} tuples for 2 subsystems"
        with pytest.raises(ValueError, match=message):
            simulate(net, indices, schedule, AdversaryPolicy(), dt=0.01, horizon=1.0, x0=x0)
        with pytest.raises(ValueError, match=message):
            simulate_batch(net, indices, [schedule], AdversaryPolicy(),
                           dt=0.01, horizon=1.0, x0=x0)


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
    # The fault starts on sample 0.30, and the crossing lies between 0.30
    # and 0.31, so the re-integrated half-step [0.30, 0.305] starts offline.
    # Offline, x rises at rate 1 from 0.499, so h(0.305) = 0.5 - 0.504 =
    # -0.004 and the first half holds the crossing.  A half-step that stayed
    # online would keep h = 0.001 there and report the second half,
    # (0.3075, -0.004).
    net = single_net(h="0.5 - x1", mu="0")
    idx = ResilienceIndex(0.0, 0.5, 0.1, 1.0)
    for kind in ("bang-bang", "constant"):
        trace = simulate(net, {0: idx}, sched(1.0, (0.3, 0.6)), AdversaryPolicy(kind),
                         dt=0.01, horizon=1.0, x0=[(0.499,)])
        ((t_v, name, h_v),) = trace.violations
        assert (t_v, name) == (0.305, "S1"), kind
        assert h_v == pytest.approx(-0.004, abs=1e-12), kind


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


def reference_safety(trace, net, indices):
    """check_trace_safety with one boolean window per online event."""
    min_h = {}
    candidates = list(trace.violations)
    for name in trace.names:
        h = trace.h[name]
        min_h[name] = float(h.min()) if len(h) else math.inf
        bad = np.nonzero(h < 0)[0]
        if len(bad):
            k = int(bad[0])
            candidates.append((float(trace.times[k]), name, float(h[k])))
    deadlines_met = True
    t = trace.times
    t_end = float(t[-1]) if len(t) else 0.0
    tol = 1e-9 * max(1.0, t_end)
    for (time, name, kind) in trace.events:
        if kind != "online":
            continue
        deadline = time + indices[net.index_of(name)].phi + trace.dt
        if deadline > t_end + tol:
            continue
        window = (t >= time - tol) & (t <= deadline + tol)
        if not trace.in_buffer[name][window].any():
            deadlines_met = False
    return SafetyVerdict(safe=all(v >= 0 for v in min_h.values()),
                         first_violation=min(candidates) if candidates else None,
                         min_h=min_h, recovery_deadlines_met=deadlines_met)


def hand_trace(net, dt, h, in_buffer, events):
    """A HybridTrace on the samples k dt with the given h rows, in-buffer
    masks and events; states, inputs and locations are not read."""
    n = len(h[0])
    return HybridTrace(
        names=net.names, times=np.arange(n) * dt, states={}, inputs={},
        h=dict(zip(net.names, np.array(h, dtype=float))), loc={},
        in_buffer=dict(zip(net.names, np.array(in_buffer, dtype=bool))),
        events=tuple(sorted(events)), violations=(), dt=dt)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_check_trace_safety_equals_per_event_reference(data):
    # Binary fractions make every sample time, deadline and horizon exact,
    # so deadlines fall before, on and just past the horizon, and windows
    # end on a sample or within tol of one.  An in-buffer density of 0
    # misses every assessed deadline; no trace of the benchmark's campaigns
    # misses one.
    net = make_pair()
    dt = data.draw(st.sampled_from([0.125, 0.25, 0.5]), label="dt")
    n = data.draw(st.integers(1, 24), label="samples")
    tol = 1e-9 * max(1.0, (n - 1) * dt)
    indices = {j: ResilienceIndex(0.1, 0.1, dt * data.draw(st.integers(1, 3)), 1.0)
               for j in range(2)}
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="in-buffer density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
    masks, h = rng.random((2, n)) < density, rng.uniform(-1.0, 1.0, (2, n))
    # an event on a sample, within tol of one, or off the grid
    offset = st.sampled_from([0.0, 0.5 * tol, -0.5 * tol, tol, -tol, 2 * tol, -2 * tol,
                              0.5 * dt])
    events = [(max(0.0, k * dt + data.draw(offset)), name, kind)
              for k, name, kind in data.draw(st.lists(st.tuples(
                  st.integers(0, n), st.sampled_from(net.names),
                  st.sampled_from(["online", "offline"])), max_size=16), label="events")]
    trace = hand_trace(net, dt, h, masks, events)
    assert check_trace_safety(trace, net, indices) == reference_safety(trace, net, indices)
    # each window on its own, in the buffer at one sample next to one of its
    # ends, so that neither another window nor another sample hides an edge
    for time, name, kind in events:
        end = time + indices[net.index_of(name)].phi + dt
        for k in {round(x / dt) + d for x in (time, end) for d in (-1, 0, 1)} & set(range(n)):
            one = dataclasses.replace(trace, events=((time, name, kind),),
                                      in_buffer=dict.fromkeys(net.names, np.arange(n) == k))
            assert check_trace_safety(one, net, indices) == reference_safety(one, net, indices)


def exp_pair():
    """Two coupled subsystems whose lg, -(2x + x^2) exp(x) exp(c x), reads
    the state through exp and ^."""
    def sub(name, x, c):
        sv = (x,)
        return Subsystem(
            name=name, state_vars=sv, input_vars=(f"u_{x}",), f=(parse_expression(f"-{x}", sv),),
            g=((parse_expression(f"exp({c}*{x})", sv),),),
            h=parse_expression(f"1 - {x}^2*exp({x})", sv), mu=(parse_expression(f"-{x}", sv),),
            state_box=((-1.0, 1.0),), input_box=((-0.5, 1.0),))
    return Network((sub("S1", "x1", 1), sub("S2", "x2", -2)),
                   {(0, 1): (parse_expression("0.1*x1", ("x1",)),)})


def test_batch_matches_single_runs():
    # Bit for bit: a batch row sees the operations of a run alone, though
    # the adversary evaluates lg on every row.  Rows 0-1-3 (S1 at 0.2) and
    # 2-3 (S2 at 0.45) go offline at the same grid time.  Every switch is a
    # sample time, so the batch steps on the same grid as each run alone.
    schedules = [
        FaultSchedule(1.0, (((0.2, 0.3),), ())),
        FaultSchedule(1.0, (((0.2, 0.3),), ())),
        FaultSchedule(1.0, (((0.15, 0.25), (0.4, 0.5)), ((0.45, 0.55),))),
        FaultSchedule(1.0, (((0.2, 0.28),), ((0.45, 0.5),))),
    ]
    for net in (make_pair(), exp_pair()):
        indices = {0: IDX, 1: IDX}
        for kind in ("bang-bang", "constant"):
            batch = simulate_batch(net, indices, schedules, AdversaryPolicy(kind),
                                   dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
            for schedule, got in zip(schedules, batch):
                alone = simulate(net, indices, schedule, AdversaryPolicy(kind),
                                 dt=0.01, horizon=1.0, x0=[(0.5,), (0.5,)])
                for name in net.names:
                    for field in ("states", "inputs", "h", "loc"):
                        assert (getattr(got, field)[name].tobytes()
                                == getattr(alone, field)[name].tobytes()), (kind, field, name)
                assert got.events == alone.events
                assert got.violations == alone.violations


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batch_rows_equal_runs_alone(data):
    # Random aligned schedules, S1's with phi = 1e-9, so that snapping can
    # close a gap, and one hand-built schedule whose S1 intervals meet at
    # 0.2, where the constant adversary picks its vertex again.
    net = data.draw(st.sampled_from([make_pair, exp_pair]), label="net")()
    kind = data.draw(st.sampled_from(["bang-bang", "constant"]), label="kind")
    dt = data.draw(st.sampled_from([0.01, 0.025]), label="dt")
    taus = st.sampled_from([0.1, 0.15, 0.2])
    indices = {0: ResilienceIndex(0.1, data.draw(taus, label="tau1"), 1e-9, 1.0),
               1: ResilienceIndex(0.1, data.draw(taus, label="tau2"),
                                  data.draw(st.sampled_from([1e-9, 0.03, 0.1]), label="phi2"),
                                  1.0)}
    schedules = generate_schedule(data.draw(st.integers(0, 1000), label="seed"), 0.5, indices,
                                  data.draw(st.integers(0, 3), label="count"), align_dt=dt)
    schedules.insert(data.draw(st.integers(0, len(schedules)), label="at"),
                     FaultSchedule(0.5, (((0.1, 0.2), (0.2, 0.3)), ())))
    x0 = [(0.5,), (0.5,)]
    batch = simulate_batch(net, indices, schedules, AdversaryPolicy(kind), dt, 0.5, x0)
    for schedule, got in zip(schedules, batch):
        alone = simulate(net, indices, schedule, AdversaryPolicy(kind), dt, 0.5, x0)
        for name in net.names:
            for field in ("states", "inputs", "h", "loc"):
                assert (getattr(got, field)[name].tobytes()
                        == getattr(alone, field)[name].tobytes()), (field, name)
        assert got.events == alone.events
        assert got.violations == alone.violations


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


def test_schedule_horizon_must_be_the_simulations():
    # a schedule drawn for a longer horizon used to lose its later
    # intervals without a word
    for horizon in (5.0, 0.5, 1.0 + 1e-6):
        with pytest.raises(ScheduleError, match=f"schedule horizon {horizon:g} differs from "
                                                "the simulation horizon 1"):
            simulate(single_net(), {0: IDX}, sched(horizon, (0.3, 0.35)), AdversaryPolicy(),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    # equal up to rounding is the same horizon
    trace = simulate(single_net(), {0: IDX}, sched(0.1 * 10, (0.3, 0.35)), AdversaryPolicy(),
                     dt=0.01, horizon=1.0, x0=[(0.5,)])
    assert trace.events == ((0.3, "S1", "offline"), (0.35, "S1", "online"))


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
    # Locations change only on samples: a bound between two is an error
    # that names the schedule, the subsystem and dt.
    net = single_net()
    on_grid, off_grid = sched(1.0, (0.1, 0.2)), sched(1.0, (0.105, 0.205))
    message = "schedule 1, subsystem 0: interval bound 0.105 is not a multiple of dt = 0.01"
    with pytest.raises(ScheduleError, match=message):
        simulate_batch(net, {0: IDX}, [on_grid, off_grid], AdversaryPolicy(),
                       dt=0.01, horizon=1.0, x0=[(0.5,)])
    # A bound within 1e-9 steps of a sample is that sample.
    ref = simulate(net, {0: IDX}, on_grid, AdversaryPolicy(), dt=0.01, horizon=1.0,
                   x0=[(0.5,)])
    near = simulate(net, {0: IDX}, sched(1.0, (0.1 + 5e-12, 0.2 - 5e-12)), AdversaryPolicy(),
                    dt=0.01, horizon=1.0, x0=[(0.5,)])
    assert (np.nonzero(np.diff(near.loc["S1"]))[0] + 1).tolist() == [10, 20]
    for field in ("states", "inputs", "h", "loc"):
        np.testing.assert_array_equal(getattr(near, field)["S1"], getattr(ref, field)["S1"])


def test_simulate_argument_validation():
    net = single_net()
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.01, horizon=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=bad, horizon=1.0)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            simulate(net, {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.01, horizon=bad)
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
                   dt=0.05, horizon=0.1, x0=[(1.0 / 3.0,)])
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


def savetxt_bytes(trace, path):
    """The file np.savetxt(fmt="%.9g") writes for trace: every column as a
    float, loc included."""
    cols, arrays = ["t"], [trace.times]
    for pos, name in enumerate(trace.names, start=1):
        st_, u = trace.states[name], trace.inputs[name]
        cols += [f"loc_{pos}", *(f"x_{pos}_{i + 1}" for i in range(st_.shape[1])),
                 *(f"u_{pos}_{i + 1}" for i in range(u.shape[1])), f"h_{pos}"]
        arrays += [np.asarray(trace.loc[name], dtype=float), st_, u, trace.h[name]]
    np.savetxt(path, np.column_stack(arrays), fmt="%.9g", delimiter=",", comments="",
               header=",".join(cols))
    return path.read_bytes()


@pytest.mark.parametrize("rows", [0, 8, 300])
def test_export_trace_csv_bytes_match_savetxt(tmp_path, rows):
    # Exported one after the other, as sim run does: two traces sharing one
    # times array (the second reads the formatted t column of the first),
    # one with other times in between, then a copy of the first times with
    # equal bytes, times of another dtype, loc columns of each kind, and
    # last the first times' bytes read as another dtype.
    # 300 rows are a full 256-row block and a partial one.
    special = np.array([-0.0, 1e-300, np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.5e7, 5e-324])
    rng = np.random.default_rng(1)

    def col(n=None):
        """Every special value once per column, in a random order, then
        random values of 9 and more significant digits."""
        cols = np.stack([np.concatenate([rng.permutation(special),
                                         rng.standard_normal(rows) * 10.0 ** rng.integers(-5, 6)])
                         for _ in range(n or 1)], axis=1)[:rows]
        return cols if n else cols[:, 0]

    def trace(times, loc_a, loc_b=None):
        return HybridTrace(
            names=("A", "B"), times=times,
            states={"A": col(2), "B": col(1)}, inputs={"A": col(1), "B": np.empty((rows, 0))},
            h={"A": col(), "B": col()},
            loc={"A": loc_a, "B": np.ones(rows, np.int8) if loc_b is None else loc_b},
            in_buffer={}, events=(), violations=(), dt=0.25)

    times = np.arange(rows) * 0.25
    bits = rng.integers(0, 2, rows, dtype=np.int8)  # both 0 and 1
    other_loc = np.resize(np.array([2, -1, 0, 1, 127], np.int8), rows)
    traces = [
        trace(times, bits),
        trace(times, bits[::-1].copy(), bits),
        trace(times / 3.0 + 0.1, bits),
        trace(times.copy(), np.zeros(rows, np.int8)),
        trace(times.astype(np.float32) + np.float32(0.1), bits),
        trace(times, bits.astype(bool), (1 - bits).astype(bool)),
        trace(times, np.resize([-0.0, 1.0, 0.0], rows), np.resize([0.5, 1.0, np.nan], rows)),
        trace(times, other_loc, bits.astype(np.int64)),
        trace(times, np.resize(np.array([0, 1, 2], np.uint8), rows)),
        trace(times.view(np.int64), bits),  # the bytes of times, as integers
    ]
    for k, tr in enumerate(traces):
        path = tmp_path / f"trace_{k}.csv"
        export_trace_csv(tr, str(path))
        assert path.read_bytes() == savetxt_bytes(tr, tmp_path / f"ref_{k}.csv"), k


def reference_locations(schedules, dt, n):
    """_locations one interval at a time, by slice assignment."""
    offline = np.zeros((len(schedules), n, len(schedules[0].intervals)), dtype=bool)
    entering = np.zeros_like(offline)
    for b, sched in enumerate(schedules):
        for j, ivs in enumerate(sched.intervals):
            bounds = np.array(ivs, dtype=float).reshape(2 * len(ivs))
            k = np.round(bounds / dt)
            off_grid = np.abs(bounds / dt - k) > 1e-9
            if off_grid.any():
                raise ScheduleError(f"schedule {b}, subsystem {j}: interval bound "
                                    f"{bounds[off_grid.argmax()]:.6g} is not a multiple "
                                    f"of dt = {dt:g}")
            for i0, i1 in k.astype(int).reshape(len(ivs), 2).tolist():
                offline[b, i0:i1, j] = True
                entering[b, i0:min(i0 + 1, i1), j] = True
    return offline, entering


def assert_locations_match_reference(steps, dt, n_steps):
    """steps[b][j]: schedule b's intervals of subsystem j, in sample indices."""
    schedules = [FaultSchedule(n_steps * dt, tuple(tuple((i0 * dt, i1 * dt) for i0, i1 in ivs)
                                                   for ivs in per_sub))
                 for per_sub in steps]

    def outcome(locations):
        try:
            return locations(schedules, dt, n_steps + 1)
        except ScheduleError as err:
            return str(err)

    got, want = outcome(_locations), outcome(reference_locations)
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.flags.c_contiguous
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("steps", [
    [[()], [()]],                          # empty interval tuples
    [[((3, 4), (6, 7))], [((0, 1),)]],     # single-step intervals
    [[((1, 3), (3, 5), (5, 6))]],          # adjacent intervals
    [[((0, 2), (7, 10)), ((0, 10),)]],    # starting at 0, ending at the horizon
    [[((2, 2 + 1e-11), (4, 5), (10, 10 + 1e-11))]],  # bounds on one sample: no location
    [[((1, 2), (2, 2 + 1e-11)), ((2, 2 + 1e-11), (2 + 2e-11, 3))]],  # two ends, two starts on one sample
    [[((8, 12),)], [((11, 13),)]],        # past the last sample: clipped, as a slice clips
])
def test_locations_cases(steps):
    assert_locations_match_reference(steps, 0.01, 10)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_locations_equal_per_interval_reference(data):
    # Random aligned schedules, B <= 5 and J <= 3: gaps of 0 make adjacent
    # intervals and a first start of 0, lengths of 1 single-step ones, and
    # the last interval may end at the horizon.  A shift of a tenth of a
    # step puts a bound off the grid, where both name the same first bound.
    n_steps, dt = data.draw(st.integers(1, 12)), data.draw(st.sampled_from([0.01, 0.25, 0.1]))
    n_sub = data.draw(st.integers(1, 3))
    steps = []
    for _ in range(data.draw(st.integers(1, 5))):
        per_sub = []
        for _ in range(n_sub):
            t, ivs = 0, []
            for gap, length in data.draw(st.lists(st.tuples(st.integers(0, 3),
                                                            st.integers(1, 4)), max_size=4)):
                if t + gap + length > n_steps:
                    break
                ivs.append((t + gap, t + gap + length))
                t += gap + length
            per_sub.append(tuple(ivs))
        steps.append(per_sub)
    if data.draw(st.booleans()):
        b = data.draw(st.integers(0, len(steps) - 1))
        j = data.draw(st.integers(0, n_sub - 1))
        if steps[b][j]:
            i = data.draw(st.integers(0, len(steps[b][j]) - 1))
            i0, i1 = steps[b][j][i]
            steps[b][j] = (*steps[b][j][:i], (i0 + 0.1, i1), *steps[b][j][i + 1:])
    assert_locations_match_reference(steps, dt, n_steps)


def test_division_by_zero_in_simulator_names_subsystem():
    # x' = -1 from x1 = 0.5: the second RK4 stage of the first step reads
    # stage = 0.5 + (0.5 dt)(-1), and sample 1 is 0.5 + (dt/6)(-6)
    stage = 0.5 + (0.5 * 0.01) * -1.0
    sample1 = float(simulate(single_net(), {0: IDX}, sched(1.0), AdversaryPolicy(), dt=0.01,
                             horizon=1.0, x0=[(0.5,)]).states["S1"][1, 0])
    for net in (single_net(f="1/(x1 - x1)"),
                # zero at the stage state only: a later RK4 stage divides by zero
                single_net(f=f"(x1 - 0.5)*(1/(x1 - {stage!r}))"),
                # zero in the h recorded at sample 1, 100 at x0
                single_net(h=f"1/(x1 - {sample1!r})")):
        with pytest.raises(ZeroDivisionError, match="division by zero") as err:
            simulate_batch(net, {0: IDX}, [sched(1.0)], AdversaryPolicy(), dt=0.01,
                           horizon=1.0, x0=[(0.5,)])
        assert "S1" in str(err.value)


def coupled_model():
    """Two coupled subsystems with ^, Negate and hand-built negative literals,
    no saturation, and one input name, v, in both."""
    sv1, sv2 = ("p", "q"), ("r",)
    s1 = Subsystem(
        name="P", state_vars=sv1, input_vars=("v",),
        f=(parse_expression("-p^3 + q*exp(-p)", sv1),
           BinaryOp("^", BinaryOp("*", Literal(-2.0), Variable("p")), Literal(2.0))),
        g=((parse_expression("1 + p^2", sv1),), (Literal(-0.5),)),
        h=parse_expression("4 - p^2 - q^2", sv1), mu=(parse_expression("-p - q^2", sv1),),
        state_box=((-2.0, 2.0), (-2.0, 2.0)), input_box=((-10.0, 10.0),))
    s2 = Subsystem(
        name="R", state_vars=sv2, input_vars=("v",),
        f=(parse_expression("-r + 0.5*r^2", sv2),), g=((parse_expression("2", sv2),),),
        h=parse_expression("1 - r^2", sv2), mu=(parse_expression("-(r - -1)", sv2),),
        state_box=((-1.0, 1.0),), input_box=((-3.0, 3.0),))
    return Network((s1, s2), {(0, 1): (parse_expression("0.25*(p - r)", ("p", "r")),),
                              (1, 0): (Literal(0.0), parse_expression("-q*r", ("q", "r")))})


def shared_model():
    """Drift component 0 is a subexpression of component 1 and of h, so the
    kernels read its temporary again after it is a value."""
    sv = ("x1", "x2")
    s = Subsystem(
        name="S", state_vars=sv, input_vars=("u1",),
        f=(parse_expression("x1*x2", sv), parse_expression("x1*x2 + 1", sv)),
        g=((Literal(0.0),), (parse_expression("x2", sv),)),
        h=parse_expression("1 - x1*x2", sv), mu=(parse_expression("x1*x2", sv),),
        state_box=((-1.0, 1.0), (-1.0, 1.0)), input_box=((-1.0, 1.0),),
        mu_saturation=((-0.5, 0.5),))
    return Network((s,))


def lanes_model():
    """A1 and A2 differ only in literals, boxes and saturation bounds; B is
    A1 with p^3 for p^2 in g; C has a structure of its own.  A1's second
    drift is the literal 0, and takes A2's coupling; A1 drives C.  Listed
    A1, B, A2, C, so that the lanes of a group are not neighbours."""
    def a(name, i, lit, exponent=2):
        p, q, sv = f"p{i}", f"q{i}", (f"p{i}", f"q{i}")
        return Subsystem(
            name=name, state_vars=sv, input_vars=(f"v{i}",),
            f=(parse_expression(f"-{lit[0]}*{p} + {q}*exp(-{lit[1]}*{p})", sv),
               parse_expression(lit[2], sv)),
            g=((parse_expression(f"1 + {lit[3]}*{p}^{exponent}", sv),), (Literal(0.0),)),
            h=parse_expression(f"{lit[4]} - {p}^2 - {lit[5]}*{q}^2", sv),
            mu=(parse_expression(f"-{lit[6]}*{p}", sv),), mu_saturation=(lit[7],),
            state_box=lit[8], input_box=((-2.0, 2.0),))
    a1 = ("2", "0.5", "0", "0.5", "1", "0.25", "3", (-1.0, 1.0), ((-1.0, 1.0), (-2.0, 2.0)))
    a2 = ("3", "0.25", "0.5", "2", "2", "0.5", "4", (-1.5, 0.5), ((-1.5, 1.5), (-1.0, 1.0)))
    sv = ("r",)
    c = Subsystem(
        name="C", state_vars=sv, input_vars=("w",), f=(parse_expression("-r + 0.5*r^2", sv),),
        g=((parse_expression("2", sv),),), h=parse_expression("1 - r^2", sv),
        mu=(parse_expression("-(r + 1)", sv),), state_box=((-1.0, 1.0),),
        input_box=((-3.0, 3.0),))
    return Network((a("A1", 1, a1), a("B", 3, a1, exponent=3), a("A2", 2, a2), c), {
        (2, 0): (parse_expression("0.1*(p2 - p1)", ("p1", "p2")),
                 parse_expression("0.2*q2", ("q2",))),
        (0, 3): (parse_expression("0.25*(p1 - r)", ("p1", "r")),)})


def groupings_model():
    """Subsystems whose f print alike but group differently: S1 is S0 with
    p + p + 2*3 for p + (p + 2), S2 with 2*p*q for 2*(p*q), S3 with
    p + q + r for p + (q + r); S4 is S0 with other literals."""
    def sub(j, f):
        sv = tuple(f"{v}{j}" for v in "pqr")
        f = [parse_expression(e.replace("p", sv[0]).replace("q", sv[1]).replace("r", sv[2]), sv)
             for e in f]
        return Subsystem(
            name=f"S{j}", state_vars=sv, input_vars=(f"u{j}",), f=tuple(f),
            g=((parse_expression("1", sv),), (Literal(0.0),), (Literal(0.0),)),
            h=parse_expression(f"1 - {sv[0]}^2 - {sv[1]}^2 - {sv[2]}^2", sv),
            mu=(parse_expression(f"-{sv[0]}", sv),), state_box=((-1.0, 1.0),) * 3,
            input_box=((-1.0, 1.0),))
    s0 = ("p + (p + 2)", "2*(p*q)", "p + (q + r)")
    return Network(tuple(sub(j, f) for j, f in enumerate([
        s0, ("p + p + 2*3", *s0[1:]), (s0[0], "2*p*q", s0[2]), (*s0[:2], "p + q + r"),
        ("p + (p + 5)", "3*(p*q)", s0[2])])))


NETWORKS = {
    "cstr_series": load_model(str(resources.files("resil") / "models" / "cstr_series.json")
                              ).network,
    "coupled": coupled_model(),
    "shared": shared_model(),
    "lanes": lanes_model(),
    "groupings": groupings_model(),
}


def test_lanes_are_subsystems_equal_up_to_literals():
    # A1 and A2 share a group; B (an exponent apart) and C do not
    assert _CompiledNetwork(NETWORKS["lanes"]).groups == [[0, 2], [1], [3]]
    assert _CompiledNetwork(NETWORKS["cstr_series"]).groups == [[0, 1]]
    assert _CompiledNetwork(NETWORKS["coupled"]).groups == [[0], [1]]
    # trees that print alike but group differently are not lanes
    assert _CompiledNetwork(NETWORKS["groupings"]).groups == [[0, 4], [1], [2], [3]]


@pytest.mark.parametrize("name", ["cstr_series", "lanes"])
def test_every_allocated_buffer_is_used(name):
    # The buffers that some kernel line names are closure cells of the
    # function that allocates them; one that no line names stays a local.
    code = _CompiledNetwork(NETWORKS[name]).make.fn.__code__
    assert [v for v in code.co_varnames if v[0] in "tuc"] == []
    assert {v[0] for v in code.co_cellvars} >= set("tuc")


def reference_rhs(net, X, offline, held):
    """The right-hand side as one compiled expression per state column,
    f_i + g_i u + the incoming couplings, with u the where-select of the held
    input and Subsystem.mu_values."""
    cols = list(X.T)
    state_names = tuple(n for s in net.subsystems for n in s.state_vars)
    out, c, k0 = np.empty_like(X), 0, 0
    for j, s in enumerate(net.subsystems):
        mu = s.mu_values(cols[c:c + s.n_states])
        u = [np.where(offline[:, j], held[:, k0 + k], m) for k, m in enumerate(mu)]
        for i in range(s.n_states):
            expr = s.f[i]
            for k, name in enumerate(s.input_vars):
                expr = _add(expr, _mul(s.g[i][k], Variable(name)))
            for _, w in net.incoming(j):
                expr = _add(expr, w[i])
            out[:, c + i] = compile_expression(expr, state_names + s.input_vars)(*cols, *u)
        c, k0 = c + s.n_states, k0 + s.n_inputs
    return out


def draw_batch(data, net, rows):
    """States inside the box and its 10 % excursion band, any held input
    inside the input box, any offline mask."""
    subs = net.subsystems
    X = np.array([[data.draw(st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
                   for s in subs for lo, hi in s.state_box] for _ in range(rows)])
    held = np.array([[data.draw(st.floats(lo, hi)) for s in subs for lo, hi in s.input_box]
                     for _ in range(rows)])
    offline = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=len(subs),
                                                   max_size=len(subs)),
                                          min_size=rows, max_size=rows)), dtype=bool)
    return X, offline, held


def lane_major(cnet, X, offline, held):
    """A batch drawn subsystem-major in cnet's lane-major columns, the states
    column-contiguous as in a workspace, with the per-input offline mask."""
    return np.asfortranarray(X[:, cnet.x_perm]), offline[:, cnet.u_owner], held[:, cnet.u_perm]


def load(ws, X, offline, held, src=0):
    """The lane-major batch copied into the workspace: states[src], the mask
    and the held inputs."""
    ws.states[src][:], ws.offline[:], ws.held[:] = X, offline, held


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_is_bit_equal_to_per_expression_reference(data):
    net = NETWORKS[data.draw(st.sampled_from(sorted(NETWORKS)), label="network")]
    cnet = _CompiledNetwork(net)
    subs = net.subsystems
    # one network at changing row counts, each with a workspace of its own
    rows = data.draw(st.integers(1, 5), label="rows")
    for rows in (rows, 1, rows):
        X, offline, held = draw_batch(data, net, rows)
        if data.draw(st.booleans(), label="midpoint row"):
            # lg is 0 at every network's box midpoint: the adversary's tie
            X[0] = [(lo + hi) / 2 for s in subs for lo, hi in s.state_box]

        ws = _Workspace(cnet, len(X))
        lanes = lane_major(cnet, X, offline, held)
        load(ws, *lanes)
        u_out, h_out = np.empty_like(held), np.empty((rows, len(subs)))
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            ws.advance(0, data.draw(st.floats(1e-5, 1e-3), label="h"), u_out, h_out)
        # the first stage's slope is the right-hand side at the sample
        assert ws.k1.tobytes() == reference_rhs(net, X, offline, held)[:, cnet.x_perm].tobytes()
        lg = np.empty_like(held)
        ws.lg(lanes[0], lg)
        vertex = _adversary_rows(cnet, ws, AdversaryPolicy("bang-bang"), lanes[0], None)
        for j, s in enumerate(subs):
            cols, ks = list(lanes[0][:, cnet.xs[j]].T), range(held.shape[1])[cnet.us[j]]
            on = ~offline[:, j]
            for k, mu in zip(ks, s.mu_values(cols)):
                assert u_out[on, k].tobytes() == np.broadcast_to(mu, rows)[on].tobytes()
                assert u_out[~on, k].tobytes() == lanes[2][~on, k].tobytes()
            by_name = dict(zip(s.state_vars, cols))
            want = s.compiled.h(*(by_name[n] for n in s.compiled.h.names))
            assert h_out[:, cnet.hs[j]].tobytes() == np.broadcast_to(want, rows).tobytes()
            for k, fn, (lo, hi) in zip(ks, s.compiled.lg, s.input_box):
                want = np.broadcast_to(fn(*(by_name[n] for n in fn.names)), rows)
                assert lg[:, k].tobytes() == want.tobytes()
                want = worst_vertex(want, float(lo), float(hi))
                assert vertex[:, k].tobytes() == want.tobytes()


def reference_rk4(net, X, h, offline, held):
    def f(Y):
        return reference_rhs(net, Y, offline, held)
    k1 = f(X)
    k2 = f(X + (0.5 * h) * k1)
    k3 = f(X + (0.5 * h) * k2)
    k4 = f(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rk4_step_is_bit_equal_to_fresh_array_reference(data):
    net = NETWORKS[data.draw(st.sampled_from(sorted(NETWORKS)), label="network")]
    cnet = _CompiledNetwork(net)
    X, offline, held = draw_batch(data, net, data.draw(st.integers(1, 5), label="rows"))
    h = data.draw(st.floats(1e-5, 1e-3), label="h")
    want1 = reference_rk4(net, X, h, offline, held)
    want2 = reference_rk4(net, want1, h, offline, held)

    ws = _Workspace(cnet, len(X))
    lanes = lane_major(cnet, X, offline, held)
    load(ws, *lanes)
    want1, want2 = want1[:, cnet.x_perm], want2[:, cnet.x_perm]
    u_out, h_out = np.empty_like(held), np.empty((len(X), len(net.subsystems)))
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        ws.advance(0, h, u_out, h_out)
        assert ws.states[1].tobytes() == want1.tobytes()
        # the input state is never written
        assert ws.states[0].tobytes() == lanes[0].tobytes()
        # the step after reads the new state and writes the other ping-pong buffer
        ws.advance(1, h, u_out, h_out)
    assert ws.states[0].tobytes() == want2.tobytes()
    assert ws.states[1].tobytes() == want1.tobytes()
