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
    _rk4_step,
    check_trace_safety,
    export_trace_csv,
    generate_schedule,
    simulate,
    simulate_batch,
    validate_schedule,
    validate_trace,
)
from resil.interconnect import Network
from resil.model_io import load_model
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


@pytest.mark.parametrize("rows", [0, 8])
def test_export_trace_csv_bytes_match_savetxt(tmp_path, rows):
    special = np.array([-0.0, 1e-300, np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.5e7, 5e-324])
    rng = np.random.default_rng(1)

    def col(n=None):
        """Every special value once per column, in a random order."""
        cols = np.stack([rng.permutation(special) for _ in range(n or 1)], axis=1)[:rows]
        return cols if n else cols[:, 0]

    trace = HybridTrace(
        names=("A", "B"), times=np.arange(rows) * 0.25,
        states={"A": col(2), "B": col(1)}, inputs={"A": col(1), "B": np.empty((rows, 0))},
        h={"A": col(), "B": col()},
        loc={"A": rng.integers(0, 2, rows, dtype=np.int8), "B": np.ones(rows, np.int8)},
        in_buffer={}, events=(), violations=(), dt=0.25)
    path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
    export_trace_csv(trace, str(path))
    mat = np.column_stack([trace.times, trace.loc["A"].astype(float), trace.states["A"],
                           trace.inputs["A"], trace.h["A"], trace.loc["B"].astype(float),
                           trace.states["B"], trace.h["B"]])
    np.savetxt(ref, mat, fmt="%.9g", delimiter=",", comments="",
               header="t,loc_1,x_1_1,x_1_2,u_1_1,h_1,loc_2,x_2_1,h_2")
    assert path.read_bytes() == ref.read_bytes()


def test_division_by_zero_in_simulator_names_subsystem():
    net = single_net(f="1/(x1 - x1)")
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


NETWORKS = {
    "cstr_series": load_model(str(resources.files("resil") / "models" / "cstr_series.json")
                              ).network,
    "coupled": coupled_model(),
    "shared": shared_model(),
}


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_is_bit_equal_to_per_expression_reference(data):
    net = NETWORKS[data.draw(st.sampled_from(sorted(NETWORKS)), label="network")]
    cnet = _CompiledNetwork(net)
    subs = net.subsystems
    # one network at changing row counts: each count has its own workspace,
    # and a count seen before reuses its buffers
    rows = data.draw(st.integers(1, 5), label="rows")
    for rows in (rows, 1, rows):
        X, offline, held = draw_batch(data, net, rows)

        ws = cnet.workspace(len(X))
        got = ws.rhs(X, offline, held, np.empty_like(X))
        assert got.tobytes() == reference_rhs(net, X, offline, held).tobytes()

        u_out, h_out = np.empty_like(held), np.empty((rows, len(subs)))
        ws.record(X, offline, held, u_out, h_out)
        lg = ws.lg(X)
        for j, s in enumerate(subs):
            cols = list(X[:, cnet.xs[j]].T)
            on = ~offline[:, j]
            for k, mu in zip(range(cnet.us[j].start, cnet.us[j].stop), s.mu_values(cols)):
                assert u_out[on, k].tobytes() == np.broadcast_to(mu, rows)[on].tobytes()
                assert u_out[~on, k].tobytes() == held[~on, k].tobytes()
            assert h_out[:, j].tobytes() == s.compiled.h(*cols).tobytes()
            by_name = dict(zip(s.state_vars, cols))
            for k, fn in zip(range(cnet.us[j].start, cnet.us[j].stop), s.compiled.lg):
                want = np.broadcast_to(fn(*(by_name[n] for n in fn.names)), rows)
                assert np.broadcast_to(lg[k], rows).tobytes() == want.tobytes()


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
    X_before = X.copy()
    want1 = reference_rk4(net, X, h, offline, held)
    want2 = reference_rk4(net, want1, h, offline, held)

    got1 = _rk4_step(cnet, X, h, offline, held)
    assert got1.tobytes() == want1.tobytes()
    got2 = _rk4_step(cnet, got1, h, offline, held)
    assert got2.tobytes() == want2.tobytes()
    # the input state is never written, and the step after writes the
    # other ping-pong buffer
    assert X.tobytes() == X_before.tobytes()
    assert got1.tobytes() == want1.tobytes()
    assert got2 is not got1
