"""Fault-injection simulation of interconnected subsystems.

Each subsystem is a two-location hybrid automaton: online it applies its
own saturated feedback law, offline an adversary drives the input anywhere
inside the input box.  Offline intervals come from a dwell-constrained
schedule (lengths at most tau, gaps at least phi).  The coupled ODEs are
integrated with fixed-step RK4 on the union of the sample grid and all
schedule boundaries, so location switches happen at exact times.

Batches of schedules integrate together as one vectorized system; traces
are deterministic given (seed, model, schedules, dt).  A state row holds
every state, subsystem j's in columns xs[j], and an input row (held,
recorded, random bits) every input, subsystem j's in columns us[j]; each
trace's arrays are views of the batch records.  The network's expressions
run as generated straight-line kernels that compute a shared subexpression
once, with one kernel call per RK4 stage and one per recorded sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import Variable, _add, _mul, compile_lines, straight_line
from .interconnect import Network
from .oracle import OracleSettings, argmax_h
from .resilience import ResilienceIndex
from .subsystem import grad_dot

# States may wander this fraction of a box width outside the box before the
# run is aborted as a modeling error rather than scored as unsafe.
_BOX_EXCURSION = 0.10

_ADVERSARY_KINDS = ("bang-bang", "constant", "random")


class ScheduleError(Exception):
    """Schedule violates the dwell constraints of the indices."""


class NonFiniteStateError(Exception):
    """State exploded or left its box by more than the allowed excursion."""

    def __init__(self, time: float, subsystem: str, trace: int = 0):
        super().__init__(f"non-finite or runaway state in {subsystem!r} "
                         f"at t = {time:.6g} (trace {trace})")
        self.time = time
        self.subsystem = subsystem
        self.trace = trace


@dataclass(frozen=True)
class FaultSchedule:
    """Per-subsystem sorted disjoint offline intervals [start, end) within
    [0, horizon], positionally aligned with the network's subsystems."""

    horizon: float
    intervals: tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True)
class AdversaryPolicy:
    """kind 'constant': input-box vertex chosen at each offline entry and
    held; 'bang-bang': per step, the vertex minimizing the instantaneous
    drift of h; 'random': per step, a seeded random vertex."""

    kind: str = "bang-bang"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _ADVERSARY_KINDS:
            raise ValueError(f"adversary kind must be one of {_ADVERSARY_KINDS}")


@dataclass
class HybridTrace:
    names: tuple[str, ...]
    times: np.ndarray
    states: dict[str, np.ndarray]
    inputs: dict[str, np.ndarray]
    h: dict[str, np.ndarray]
    loc: dict[str, np.ndarray]        # 1 = online, 0 = offline
    in_buffer: dict[str, np.ndarray]
    events: tuple[tuple[float, str, str], ...]
    violations: tuple[tuple[float, str, float], ...]
    dt: float


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    first_violation: tuple[float, str, float] | None
    min_h: dict[str, float]
    recovery_deadlines_met: bool


def validate_schedule(schedule: FaultSchedule, indices: dict[int, ResilienceIndex]):
    """Raise ScheduleError unless every interval respects the dwell bounds."""
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


def generate_schedule(seed: int, horizon: float, indices: dict[int, ResilienceIndex],
                      count: int, align_dt: float | None = None) -> list[FaultSchedule]:
    """Random admissible schedules: offline lengths uniform in (0, tau],
    online gaps uniform in [phi, 3 phi], first start uniform in [0, 3 phi).
    An infinite tau draws no length: its first offline interval runs to the
    horizon.

    With align_dt, boundaries snap inward to the integration grid (starts up,
    ends down); snapping only shortens intervals and widens gaps, so the
    dwell invariants survive.  Intervals shorter than one step are dropped.
    """
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if count < 0:
        raise ValueError("count must be nonnegative")
    order = sorted(indices)
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        per_sub = []
        for j in order:
            idx = indices[j]
            ivs = []
            t = rng.uniform(0.0, 3.0 * idx.phi)
            while t < horizon:
                length = (idx.tau - rng.uniform(0.0, idx.tau)  # lands in (0, tau]
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


# -- compiled network kernel ---------------------------------------------------

class _CompiledNetwork:
    """A network's expressions as straight-line kernels over one row layout:
    a batch row holds every state, subsystem j's in columns xs[j], and an
    input row holds every input, subsystem j's in columns us[j].
    rhs(X, offline, held, out) writes the right-hand side into out and
    returns it, record(X, offline, held, u_out, h_out) writes the effective
    input rows and every h, and lg(X) returns every input's lg value.  An
    effective input is the held adversary input where its subsystem is
    offline, the saturated feedback law where it is online."""

    def __init__(self, net: Network):
        self.net = net
        self.names = net.names
        subs = net.subsystems
        self.state_names: tuple[str, ...] = tuple(n for s in subs for n in s.state_vars)
        ends = np.cumsum([[s.n_states, s.n_inputs] for s in subs], axis=0).tolist()
        self.xs = [slice(e - s.n_states, e) for s, (e, _) in zip(subs, ends)]
        self.us = [slice(e - s.n_inputs, e) for s, (_, e) in zip(subs, ends)]
        self.u_owner = np.repeat(np.arange(len(subs)), [s.n_inputs for s in subs])
        self.box_lo = np.array([lo for s in subs for lo, _ in s.state_box])
        self.box_hi = np.array([hi for s in subs for _, hi in s.state_box])
        self.u_lo = np.array([lo for s in subs for lo, _ in s.input_box], dtype=float)
        self.u_hi = np.array([hi for s in subs for _, hi in s.input_box], dtype=float)

        ids = {n: f"x{c}" for c, n in enumerate(self.state_names)}
        unpack = [f"{x} = X[:, {c}]" for c, x in enumerate(ids.values())]
        head, temps, drift = list(unpack), {}, []  # head ends with the inputs u{k}
        for j, s in enumerate(subs):
            ks = range(self.us[j].start, self.us[j].stop)
            laws = straight_line(s.mu, ids, head, temps)
            for k, law, sat in zip(ks, laws, s.mu_saturation or [None] * s.n_inputs):
                if sat is not None:
                    law = f"clip({law}, {float(sat[0])!r}, {float(sat[1])!r})"
                head.append(f"u{k} = where(offline[:, {j}], held[:, {k}], {law})")
            names = {**ids, **{u: f"u{k}" for u, k in zip(s.input_vars, ks)}}
            for i, expr in enumerate(s.f):
                for g, u in zip(s.g[i], s.input_vars):
                    expr = _add(expr, _mul(g, Variable(u)))
                for _, w in net.incoming(j):
                    expr = _add(expr, w[i])
                drift.append((expr, names))
        label = ", ".join(self.names)

        lines, rhs_temps = list(head), dict(temps)
        for c, (expr, names) in enumerate(drift):
            lines.append(f"out[:, {c}] = {straight_line([expr], names, lines, rhs_temps)[0]}")
        self.rhs = compile_lines(lines + ["return out"], ("X", "offline", "held", "out"),
                                 f"drift of {label}")
        lines = head + [f"u_out[:, {k}] = u{k}" for k in range(len(self.u_owner))]
        hs = straight_line([s.h for s in subs], ids, lines, temps)
        self.record = compile_lines(lines + [f"h_out[:, {j}] = {v}" for j, v in enumerate(hs)],
                                    ("X", "offline", "held", "u_out", "h_out"),
                                    f"inputs and h of {label}")
        lines = list(unpack)
        lg = straight_line([grad_dot(s.compiled.grad, [row[k] for row in s.g])
                            for s in subs for k in range(s.n_inputs)], ids, lines, {})
        self.lg = compile_lines(lines + [f"return ({''.join(v + ', ' for v in lg)})"], ("X",),
                                f"lg of {label}")

    def h(self, j: int, X: np.ndarray):
        return self.net.subsystems[j].compiled.h(*X[:, self.xs[j]].T)

    def vertex_rows(self, X: np.ndarray, which) -> np.ndarray:
        """Input rows holding, for each subsystem j in which, the input-box
        vertex minimizing the instantaneous drift of h_j; other columns 0."""
        lg = self.lg(X)
        out = np.zeros((len(X), len(self.u_owner)))
        for j in which:
            us = self.us[j]
            for k, v in zip(range(us.start, us.stop),
                            self.net.subsystems[j].worst_vertex(lg[us])):
                out[:, k] = v
        return out


def _refresh_held(cnet, adversary, X, offline, held, bits):
    """Per-step input of every offline subsystem, written into held in place:
    the drift-minimizing vertex (bang-bang) or the vertex this step's random
    bits pick, u_lo + bits (u_hi - u_lo).  The constant adversary keeps the
    vertex it chose on entry."""
    if adversary.kind == "constant" or not offline.any():
        return
    if adversary.kind == "bang-bang":
        u = cnet.vertex_rows(X, np.flatnonzero(offline.any(axis=0)))
    else:
        u = cnet.u_lo + bits * (cnet.u_hi - cnet.u_lo)
    np.copyto(held, u, where=offline[:, cnet.u_owner])


def _rk4_step(cnet, X, h_seg, offline, held):
    """One RK4 step, one kernel call per stage; online traces re-evaluate mu
    at each stage state, offline traces keep their held adversary input."""
    k1 = cnet.rhs(X, offline, held, np.empty_like(X))
    k2 = cnet.rhs(X + (0.5 * h_seg) * k1, offline, held, np.empty_like(X))
    k3 = cnet.rhs(X + (0.5 * h_seg) * k2, offline, held, np.empty_like(X))
    k4 = cnet.rhs(X + h_seg * k3, offline, held, np.empty_like(X))
    return X + (h_seg / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _switches(schedules, t_end):
    """Every location switch up to t_end as (time, row, subsystem,
    to_offline), in schedule order: each interval's start, then its end."""
    return [(t, b, j, to_off)
            for b, sched in enumerate(schedules)
            for j, ivs in enumerate(sched.intervals)
            for interval in ivs
            for t, to_off in zip(interval, (True, False)) if t <= t_end]


def _integrate(cnet, adversary, T, X, offline, held, switches, bits, bit_rows,
               visit=None):
    """The one stepping loop over the time grid T, which holds every switch
    time.  At each grid time: apply its switches (the constant adversary
    picks its vertex on entry), refresh the held inputs with the random bits
    bits[:, bit_rows[m]], show the state to visit, then take one RK4 step to
    the next grid time.  Returns the state at T[-1]."""
    flips_at: dict[int, list[tuple[int, int, bool]]] = {}
    for (time, row, j, to_off) in switches:
        flips_at.setdefault(int(np.searchsorted(T, time)), []).append((row, j, to_off))
    for m in range(len(T)):
        t = float(T[m])
        for (row, j, to_off) in flips_at.get(m, ()):
            offline[row, j] = to_off
            if to_off and adversary.kind == "constant":
                us = cnet.us[j]
                held[row, us] = cnet.vertex_rows(X[row:row + 1], (j,))[0, us]
        _refresh_held(cnet, adversary, X, offline, held,
                      bits[:, bit_rows[m]] if bits is not None else None)
        if visit is not None:
            visit(m, X)
        if m + 1 < len(T):
            X = _rk4_step(cnet, X, float(T[m + 1]) - t, offline, held)
    return X


def _resolve_x0(net, indices, x0):
    if x0 is None:
        settings = OracleSettings()
        parts = [argmax_h(s, settings) for s in net.subsystems]
    else:
        parts = [tuple(map(float, p)) for p in x0]
        for s, p in zip(net.subsystems, parts):
            if len(p) != s.n_states:
                raise ValueError(f"x0 for {s.name!r} must have {s.n_states} components")
    for j, (s, p) in enumerate(zip(net.subsystems, parts)):
        h0 = float(s.compiled.h(*p))
        d = indices[j].d
        if h0 < d - 1e-9 * max(1.0, abs(d)):
            raise ValueError(f"x0 for {s.name!r} has h = {h0:.6g} below the "
                             f"buffer depth d = {d:.6g}")
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def simulate(net: Network, indices: dict[int, ResilienceIndex],
             schedule: FaultSchedule, adversary: AdversaryPolicy,
             dt: float, horizon: float, x0=None) -> HybridTrace:
    return simulate_batch(net, indices, [schedule], adversary, dt, horizon, x0)[0]


def simulate_batch(net: Network, indices: dict[int, ResilienceIndex],
                   schedules: list[FaultSchedule], adversary: AdversaryPolicy,
                   dt: float, horizon: float, x0=None) -> list[HybridTrace]:
    """Integrate every schedule over a shared time grid.  x0 (per-subsystem
    tuples) defaults to each subsystem's deepest safe point and must lie in
    every buffer region."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"dt = {dt:g} does not divide the horizon {horizon:g}")
    n_sub = len(net.subsystems)
    for sched in schedules:
        if len(sched.intervals) != n_sub:
            raise ScheduleError(f"schedule has {len(sched.intervals)} interval tuples "
                                f"for {n_sub} subsystems")
        validate_schedule(sched, indices)
    B = len(schedules)
    if B == 0:
        return []

    cnet = _CompiledNetwork(net)
    x0_row = _resolve_x0(net, indices, x0)

    samples = np.arange(n_steps + 1) * dt
    samples.flags.writeable = False  # shared by every trace
    switches = _switches(schedules, samples[-1])
    T = np.unique(np.concatenate([samples, np.array([sw[0] for sw in switches])]))
    sample_pos = np.searchsorted(T, samples)
    is_sample = np.zeros(len(T), dtype=bool)
    is_sample[sample_pos] = True
    sample_index = np.cumsum(is_sample) - 1
    N = len(samples)
    n_u = len(cnet.u_owner)

    rand_bits = None if adversary.kind != "random" else np.stack(
        [np.random.default_rng([adversary.seed, b]).integers(0, 2, size=(N, n_u), dtype=np.uint8)
         for b in range(B)])

    offline = np.zeros((B, n_sub), dtype=bool)
    held = np.zeros((B, n_u))

    rec_states = np.empty((B, N, len(cnet.state_names)))
    rec_u = np.empty((B, N, n_u))
    rec_h = np.empty((B, N, n_sub))
    rec_loc = np.empty((B, N, n_sub), dtype=np.int8)

    width10 = _BOX_EXCURSION * (cnet.box_hi - cnet.box_lo)
    lo_lim = cnet.box_lo - width10
    hi_lim = cnet.box_hi + width10

    def record(m, X):
        if not is_sample[m]:
            return
        k = int(sample_index[m])
        bad = ~np.isfinite(X) | (X < lo_lim) | (X > hi_lim)
        if bad.any():
            b, c = np.argwhere(bad)[0]
            j = next(j for j, xs in enumerate(cnet.xs) if c < xs.stop)
            raise NonFiniteStateError(float(T[m]), net.subsystems[j].name, int(b))
        rec_states[:, k] = X
        cnet.record(X, offline, held, rec_u[:, k], rec_h[:, k])
        rec_loc[:, k] = ~offline

    _integrate(cnet, adversary, T, np.tile(x0_row, (B, 1)), offline, held, switches,
               rand_bits, sample_index, record)

    floor = np.array([indices[j].d - 1e-9 * max(1.0, abs(indices[j].d)) for j in range(n_sub)])
    in_buffer = rec_h >= floor

    def views(rec, b, cols):
        """Trace b's columns of a batch record, per subsystem; the traces'
        slices never overlap, so no trace copies its data."""
        return {name: rec[b, :, c] for name, c in zip(cnet.names, cols)}

    own: list[list] = [[] for _ in range(B)]
    for sw in switches:
        own[sw[1]].append(sw)
    traces = []
    for b in range(B):
        events = sorted((t, cnet.names[j], "offline" if to_off else "online")
                        for (t, _, j, to_off) in own[b])
        violations = _refine_violations(cnet, own[b], adversary, samples, rec_states[b],
                                        rec_h[b], rec_loc[b], rec_u[b],
                                        rand_bits[b:b + 1] if rand_bits is not None else None)
        traces.append(HybridTrace(
            names=cnet.names, times=samples, states=views(rec_states, b, cnet.xs),
            inputs=views(rec_u, b, cnet.us), h=views(rec_h, b, range(n_sub)),
            loc=views(rec_loc, b, range(n_sub)), in_buffer=views(in_buffer, b, range(n_sub)),
            events=tuple(events), violations=violations, dt=dt))
    return traces


def _refine_violations(cnet, switches, adversary, samples, states_b, h_b, loc_b,
                       u_b, bits_b):
    """One bisection per h sign change between consecutive samples: the first
    half-step is re-integrated from the recorded sample, through the trace's
    own switches inside it, to decide which half holds the crossing."""
    out = []
    for j in range(h_b.shape[1]):
        hs = h_b[:, j]
        for k in np.nonzero((hs[:-1] >= 0) & (hs[1:] < 0))[0]:
            t0, t1 = float(samples[k]), float(samples[k + 1])
            tm = 0.5 * (t0 + t1)
            window = [(t, 0, i, to_off) for (t, _, i, to_off) in switches if t0 < t <= tm]
            T = np.unique(np.array([t0, tm] + [sw[0] for sw in window]))
            # held is refreshed in place, and u_b is the trace's own inputs.
            X = _integrate(cnet, adversary, T, states_b[k:k + 1], loc_b[k:k + 1] == 0,
                           u_b[k:k + 1].copy(), window, bits_b, np.full(len(T), k))
            h_mid = float(np.asarray(cnet.h(j, X)).reshape(()))
            if h_mid < 0:
                out.append((tm, cnet.names[j], h_mid))
            else:
                out.append((0.5 * (tm + t1), cnet.names[j], 0.5 * (h_mid + float(hs[k + 1]))))
    return tuple(out)


def validate_trace(trace: HybridTrace, max_h_rate: float | None = None):
    """Structural checks: strictly increasing times, finite h, locations
    switching only at event times, and (optionally) a loose h-continuity
    bound |dh| <= max_h_rate * dt * 1.05 + tolerance."""
    t = trace.times
    if len(t) > 1 and not (np.diff(t) > 0).all():
        raise ValueError("times must be strictly increasing")
    # An event between samples becomes visible at the first sample at or
    # after it, so map each event time to that index.
    event_samples = {math.ceil(e[0] / trace.dt - 1e-9) for e in trace.events}
    for name in trace.names:
        h = trace.h[name]
        if not np.isfinite(h).all():
            raise ValueError(f"{name}: non-finite h values")
        loc = trace.loc[name]
        changes = np.nonzero(np.diff(loc))[0] + 1
        for k in changes:
            if round(float(t[k]) / trace.dt) not in event_samples:
                raise ValueError(f"{name}: location changed at t = {t[k]:.6g} "
                                 f"with no scheduled event")
        if max_h_rate is not None and len(t) > 1:
            bound = max_h_rate * np.diff(t) * 1.05 + 1e-9
            if (np.abs(np.diff(h)) > bound).any():
                raise ValueError(f"{name}: h jumps faster than the declared rate")


def check_trace_safety(trace: HybridTrace, net: Network,
                       indices: dict[int, ResilienceIndex]) -> SafetyVerdict:
    """Sampled safety verdict plus the recovery obligation: after each
    offline-to-online switch the buffer must be re-entered within phi plus
    one step of slack.  Windows cut off by the horizon are not assessed."""
    min_h = {}
    candidates = list(trace.violations)
    for name in trace.names:
        h = trace.h[name]
        min_h[name] = float(h.min()) if len(h) else math.inf
        bad = np.nonzero(h < 0)[0]
        if len(bad):
            k = int(bad[0])
            candidates.append((float(trace.times[k]), name, float(h[k])))
    safe = all(v >= 0 for v in min_h.values())
    first = min(candidates) if candidates else None

    deadlines_met = True
    t = trace.times
    t_end = float(t[-1]) if len(t) else 0.0
    tol = 1e-9 * max(1.0, t_end)
    for (time, name, kind) in trace.events:
        if kind != "online":
            continue
        j = net.index_of(name)
        deadline = time + indices[j].phi + trace.dt
        if deadline > t_end + tol:
            continue
        window = (t >= time - tol) & (t <= deadline + tol)
        if not trace.in_buffer[name][window].any():
            deadlines_met = False
    return SafetyVerdict(safe=safe, first_violation=first, min_h=min_h,
                         recovery_deadlines_met=deadlines_met)


def export_trace_csv(trace: HybridTrace, path: str):
    """Columns: t, then per subsystem j (1-based position): loc_j, the state
    components x_j_1.., the inputs u_j_1.., and h_j; 9 significant digits,
    written as np.savetxt(fmt="%.9g", delimiter=",") writes them."""
    cols, arrays = ["t"], [trace.times]
    for pos, name in enumerate(trace.names, start=1):
        st, u = trace.states[name], trace.inputs[name]
        cols += [f"loc_{pos}", *(f"x_{pos}_{i + 1}" for i in range(st.shape[1])),
                 *(f"u_{pos}_{i + 1}" for i in range(u.shape[1])), f"h_{pos}"]
        arrays += [trace.loc[name], st, u, trace.h[name]]
    mat, row = np.column_stack(arrays), ",".join(["%.9g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, len(mat), 256):  # a block at a time keeps the lists small
            fh.writelines(row % tuple(r) for r in mat[i:i + 256].tolist())
