"""Fault-injection simulation of interconnected subsystems.

Each subsystem is a two-location hybrid automaton: online it applies its
own saturated feedback law, offline an adversary drives the input anywhere
inside the input box.  Offline intervals come from a dwell-constrained
schedule (lengths at most tau, gaps at least phi).  The coupled ODEs are
integrated with fixed-step RK4 on the union of the sample grid and all
schedule boundaries, so location switches happen at exact times.

Batches of schedules integrate together as one vectorized system; traces
are deterministic given (seed, model, schedules, dt).  One row per trace
holds all states, subsystem j's in the columns xs[j]; one input row holds
all inputs, subsystem j's in the columns us[j] (empty for a subsystem
without inputs).  The held adversary inputs, the recorded inputs and the
random bits all use the input rows, and each trace's arrays are views of
the batch records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import Expression, Variable, _add, _mul, compile_expression
from .interconnect import Network
from .oracle import OracleSettings, argmax_h
from .resilience import ResilienceIndex

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

    With align_dt, boundaries snap inward to the integration grid (starts up,
    ends down); snapping only shortens intervals and widens gaps, so the
    dwell invariants survive.  Intervals shorter than one step are dropped.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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
                length = idx.tau - rng.uniform(0.0, idx.tau)  # lands in (0, tau]
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
    """All expressions of a network compiled against one row layout: a batch
    row holds every state, subsystem j's in columns xs[j], and an input row
    holds every input, subsystem j's in columns us[j]."""

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

        col = {name: c for c, name in enumerate(self.state_names)}
        # per subsystem, per input: lg_k and the state columns it reads
        self.lg = [[(fn, [col[n] for n in fn.names]) for fn in s.compiled.lg] for s in subs]
        # per state column: its derivative over (*states, *inputs of its subsystem)
        self.deriv = []
        for j, s in enumerate(subs):
            inc = net.incoming(j)
            for i in range(s.n_states):
                expr: Expression = s.f[i]
                for k, u_name in enumerate(s.input_vars):
                    expr = _add(expr, _mul(s.g[i][k], Variable(u_name)))
                for _, w in inc:
                    expr = _add(expr, w[i])
                fn = compile_expression(expr, self.state_names + s.input_vars)
                self.deriv.append((fn, self.us[j]))

    def h(self, j: int, X: np.ndarray):
        return self.net.subsystems[j].compiled.h(*X[:, self.xs[j]].T)

    def _input_rows(self, n: int, values, which) -> np.ndarray:
        """n input rows whose columns us[j], for each subsystem j in which,
        hold the per-input values(j); the other columns are 0."""
        out = np.zeros((n, len(self.u_owner)))
        for j in which:
            us = self.us[j]
            for k, v in zip(range(us.start, us.stop), values(j)):
                out[:, k] = v
        return out

    def vertex_rows(self, X: np.ndarray, which) -> np.ndarray:
        """Input rows holding, for each subsystem j in which, the input-box
        vertex minimizing the instantaneous drift of h_j."""
        cols = X.T
        return self._input_rows(len(X), lambda j: self.net.subsystems[j].worst_vertex(
            [np.asarray(fn(*cols[reads])) for fn, reads in self.lg[j]]), which)

    def effective_u(self, X: np.ndarray, offline: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Input rows: the held adversary input where the owning subsystem is
        offline, the clamped feedback law where it is online."""
        mu = self._input_rows(len(X), lambda j: self.net.subsystems[j].mu_values(
            X[:, self.xs[j]].T), range(len(self.us)))
        return np.where(offline[:, self.u_owner], held, mu)

    def drift(self, X: np.ndarray, offline: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Vectorized right-hand side; online traces re-evaluate mu at the
        stage state, offline traces keep their held adversary input."""
        cols = list(X.T)
        u = list(self.effective_u(X, offline, held).T)
        out = np.empty_like(X)
        for c, (fn, us) in enumerate(self.deriv):
            out[:, c] = fn(*cols, *u[us])
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
    k1 = cnet.drift(X, offline, held)
    k2 = cnet.drift(X + (0.5 * h_seg) * k1, offline, held)
    k3 = cnet.drift(X + (0.5 * h_seg) * k2, offline, held)
    k4 = cnet.drift(X + h_seg * k3, offline, held)
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
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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

    n_steps = max(1, int(round(horizon / dt)))
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
        rec_u[:, k] = cnet.effective_u(X, offline, held)
        for j in range(n_sub):
            rec_h[:, k, j] = cnet.h(j, X)
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
    components x_j_1.., the inputs u_j_1.., and h_j; 9 significant digits."""
    cols = ["t"]
    arrays = [trace.times]
    for pos, name in enumerate(trace.names, start=1):
        cols.append(f"loc_{pos}")
        arrays.append(trace.loc[name].astype(float))
        st = trace.states[name]
        for i in range(st.shape[1]):
            cols.append(f"x_{pos}_{i + 1}")
            arrays.append(st[:, i])
        u = trace.inputs[name]
        for i in range(u.shape[1]):
            cols.append(f"u_{pos}_{i + 1}")
            arrays.append(u[:, i])
        cols.append(f"h_{pos}")
        arrays.append(trace.h[name])
    mat = np.column_stack(arrays) if len(trace.times) else np.empty((0, len(cols)))
    np.savetxt(path, mat, fmt="%.9g", delimiter=",",
               header=",".join(cols), comments="")
