"""Fault-injection simulation of interconnected subsystems.

Each subsystem is a two-location hybrid automaton: online it applies its
own saturated feedback law, offline an adversary drives the input anywhere
inside the input box.  Offline intervals come from a dwell-constrained
schedule (lengths at most tau, gaps at least phi).  The coupled ODEs are
integrated with fixed-step RK4 on the union of the sample grid and all
schedule boundaries, so location switches happen at exact times.

Batches of schedules integrate together as one vectorized system; traces
are deterministic given (seed, model, schedules, dt).
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
    """All expressions of a network compiled against one global state order."""

    def __init__(self, net: Network):
        self.net = net
        self.names = net.names
        self.state_names: tuple[str, ...] = tuple(
            n for s in net.subsystems for n in s.state_vars)
        subs = net.subsystems
        self.offsets = [sum(s.n_states for s in subs[:j]) for j in range(len(subs))]
        self.u_slot = [sum(s.n_inputs for s in subs[:j]) for j in range(len(subs))]
        self.n_total = len(self.state_names)
        self.box_lo = np.array([lo for s in net.subsystems for lo, _ in s.state_box])
        self.box_hi = np.array([hi for s in net.subsystems for _, hi in s.state_box])

        self.deriv = []   # per global component: callable(*state_cols, *u_cols_of_its_subsystem)
        self.owner = []   # per global component: subsystem position
        col = {name: c for c, name in enumerate(self.state_names)}
        # per subsystem, per input: lg_k and the global columns it reads
        self.lg = [[(fn, [col[n] for n in fn.names]) for fn in s.compiled.lg]
                   for s in net.subsystems]
        for j, s in enumerate(net.subsystems):
            inc = net.incoming(j)
            for i in range(s.n_states):
                expr: Expression = s.f[i]
                for k, u_name in enumerate(s.input_vars):
                    expr = _add(expr, _mul(s.g[i][k], Variable(u_name)))
                for _, w in inc:
                    expr = _add(expr, w[i])
                fn = compile_expression(expr, self.state_names + s.input_vars)
                self.deriv.append(fn)
                self.owner.append(j)

    def local(self, j: int, cols) -> list:
        """Subsystem j's own state columns out of the global ones."""
        o = self.offsets[j]
        return cols[o:o + self.net.subsystems[j].n_states]

    def h(self, j: int, cols):
        return self.net.subsystems[j].compiled.h(*self.local(j, cols))

    def mu_matrix(self, j: int, cols) -> np.ndarray:
        u = self.net.subsystems[j].mu_values(self.local(j, cols))
        return np.stack([np.broadcast_to(v, cols[0].shape) for v in u], axis=-1)

    def vertex_u(self, j: int, cols) -> np.ndarray:
        """Input-box vertex minimizing the instantaneous drift of h_j."""
        s = self.net.subsystems[j]
        parts = []
        for (fn, reads), (lo, hi) in zip(self.lg[j], s.input_box):
            c = np.asarray(fn(*[cols[r] for r in reads]))
            parts.append(np.where(c * lo <= c * hi, lo, hi))
        return np.stack([np.broadcast_to(p, cols[0].shape) for p in parts], axis=-1)

    def random_vertex(self, j: int, bits: np.ndarray) -> np.ndarray:
        """Input-box vertex of subsystem j picked by its slice of the bits rows."""
        s = self.net.subsystems[j]
        lo = np.array([b[0] for b in s.input_box])
        hi = np.array([b[1] for b in s.input_box])
        o = self.u_slot[j]
        return lo + bits[:, o:o + s.n_inputs] * (hi - lo)

    def drift(self, states: np.ndarray, offline: np.ndarray,
              held_u: list[np.ndarray]) -> np.ndarray:
        """Vectorized right-hand side; online traces re-evaluate mu at the
        stage state, offline traces keep their held adversary input."""
        cols = [states[:, c] for c in range(self.n_total)]
        u_eff = self.effective_u(cols, offline, held_u)
        out = np.empty_like(states)
        for c, fn in enumerate(self.deriv):
            j = self.owner[c]
            u_cols = [u_eff[j][:, k] for k in range(u_eff[j].shape[1])]
            out[:, c] = fn(*cols, *u_cols)
        return out

    def effective_u(self, cols, offline: np.ndarray,
                    held_u: list[np.ndarray]) -> list[np.ndarray]:
        """Per subsystem, the held adversary input where offline and the
        clamped feedback law where online."""
        return [np.where(offline[:, j, None], held_u[j], self.mu_matrix(j, cols))
                for j in range(len(self.net.subsystems))]


def _refresh_held(cnet, adversary, X, offline, held_u, bits):
    """Per-step input of every offline subsystem: the drift-minimizing vertex
    (bang-bang) or the vertex this step's random bits pick (one row per
    trace).  The constant adversary keeps the vertex it chose on entry."""
    if adversary.kind == "constant":
        return
    cols = [X[:, c] for c in range(cnet.n_total)]
    for j in range(len(held_u)):
        if offline[:, j].any():
            u = (cnet.vertex_u(j, cols) if adversary.kind == "bang-bang"
                 else cnet.random_vertex(j, bits))
            held_u[j] = np.where(offline[:, j, None], u, held_u[j])


def _rk4_step(cnet, X, h_seg, offline, held_u):
    k1 = cnet.drift(X, offline, held_u)
    k2 = cnet.drift(X + (0.5 * h_seg) * k1, offline, held_u)
    k3 = cnet.drift(X + (0.5 * h_seg) * k2, offline, held_u)
    k4 = cnet.drift(X + h_seg * k3, offline, held_u)
    return X + (h_seg / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    for sched in schedules:
        validate_schedule(sched, indices)
    n_sub = len(net.subsystems)
    B = len(schedules)
    if B == 0:
        return []

    cnet = _CompiledNetwork(net)
    x0_row = _resolve_x0(net, indices, x0)

    n_steps = max(1, int(round(horizon / dt)))
    samples = np.arange(n_steps + 1) * dt
    t_end = samples[-1]
    bounds = [t for sched in schedules for ivs in sched.intervals
              for (s, e) in ivs for t in (s, e) if t <= t_end]
    T = np.unique(np.concatenate([samples, np.array(bounds, dtype=float)])) \
        if bounds else samples
    sample_pos = np.searchsorted(T, samples)
    is_sample = np.zeros(len(T), dtype=bool)
    is_sample[sample_pos] = True
    sample_index = np.cumsum(is_sample) - 1
    N = len(samples)

    # Location flips, grouped by grid segment.
    flips_at: dict[int, list[tuple[int, int, bool]]] = {}
    for b, sched in enumerate(schedules):
        for j, ivs in enumerate(sched.intervals):
            for (s, e) in ivs:
                if s <= t_end:
                    flips_at.setdefault(int(np.searchsorted(T, s)), []).append((b, j, True))
                if e <= t_end:
                    flips_at.setdefault(int(np.searchsorted(T, e)), []).append((b, j, False))

    rand_bits = None
    if adversary.kind == "random":
        per_trace = []
        width = sum(s.n_inputs for s in net.subsystems)
        for b in range(B):
            rng = np.random.default_rng([adversary.seed, b])
            per_trace.append(rng.integers(0, 2, size=(N, width), dtype=np.uint8))
        rand_bits = np.stack(per_trace)

    X = np.tile(x0_row, (B, 1))
    offline = np.zeros((B, n_sub), dtype=bool)
    held_u = [np.zeros((B, s.n_inputs)) for s in net.subsystems]

    rec_states = np.empty((B, N, cnet.n_total))
    rec_u = [np.empty((B, N, s.n_inputs)) for s in net.subsystems]
    rec_h = np.empty((B, N, n_sub))
    rec_loc = np.empty((B, N, n_sub), dtype=np.int8)

    width10 = _BOX_EXCURSION * (cnet.box_hi - cnet.box_lo)
    lo_lim = cnet.box_lo - width10
    hi_lim = cnet.box_hi + width10

    for m in range(len(T)):
        t = float(T[m])
        for (b, j, to_off) in flips_at.get(m, ()):
            offline[b, j] = to_off
            if to_off and adversary.kind == "constant":
                cols = [X[b:b + 1, c] for c in range(cnet.n_total)]
                held_u[j][b] = cnet.vertex_u(j, cols)[0]
        bits = rand_bits[:, int(sample_index[m])] if rand_bits is not None else None
        _refresh_held(cnet, adversary, X, offline, held_u, bits)
        if is_sample[m]:
            k = int(sample_index[m])
            if not np.isfinite(X).all() or (X < lo_lim).any() or (X > hi_lim).any():
                bad = ~np.isfinite(X) | (X < lo_lim) | (X > hi_lim)
                b, c = np.argwhere(bad)[0]
                raise NonFiniteStateError(t, net.subsystems[cnet.owner[c]].name, int(b))
            rec_states[:, k] = X
            cols = [X[:, c] for c in range(cnet.n_total)]
            u_eff = cnet.effective_u(cols, offline, held_u)
            for j in range(n_sub):
                rec_u[j][:, k] = u_eff[j]
                rec_h[:, k, j] = cnet.h(j, cols)
                rec_loc[:, k, j] = np.where(offline[:, j], 0, 1)
        if m + 1 < len(T):
            X = _rk4_step(cnet, X, float(T[m + 1]) - t, offline, held_u)

    traces = []
    for b in range(B):
        events = []
        for j, ivs in enumerate(schedules[b].intervals):
            name = net.subsystems[j].name
            for (s, e) in ivs:
                if s <= t_end:
                    events.append((s, name, "offline"))
                if e <= t_end:
                    events.append((e, name, "online"))
        events.sort()
        violations = _refine_violations(cnet, schedules[b], adversary, indices,
                                        samples, rec_states[b], rec_h[b],
                                        rec_loc[b], [rec_u[j][b] for j in range(n_sub)],
                                        rand_bits[b] if rand_bits is not None else None)
        states = {}
        inputs = {}
        h = {}
        loc = {}
        buf = {}
        for j, s in enumerate(net.subsystems):
            o = cnet.offsets[j]
            states[s.name] = rec_states[b, :, o:o + s.n_states].copy()
            inputs[s.name] = rec_u[j][b].copy()
            h[s.name] = rec_h[b, :, j].copy()
            loc[s.name] = rec_loc[b, :, j].copy()
            d = indices[j].d
            buf[s.name] = rec_h[b, :, j] >= d - 1e-9 * max(1.0, abs(d))
        traces.append(HybridTrace(names=cnet.names, times=samples.copy(),
                                  states=states, inputs=inputs, h=h, loc=loc,
                                  in_buffer=buf, events=tuple(events),
                                  violations=violations, dt=dt))
    return traces


def _refine_violations(cnet, schedule, adversary, indices, samples, states_b,
                       h_b, loc_b, u_b, bits_b):
    """One bisection per h sign change between consecutive samples: the first
    half-step is re-integrated to decide which half holds the crossing."""
    out = []
    n_sub = h_b.shape[1]
    for j in range(n_sub):
        hs = h_b[:, j]
        crossings = np.nonzero((hs[:-1] >= 0) & (hs[1:] < 0))[0]
        for k in crossings:
            t0, t1 = float(samples[k]), float(samples[k + 1])
            tm = 0.5 * (t0 + t1)
            h_mid = _h_at(cnet, schedule, adversary, indices, samples, states_b,
                          loc_b, u_b, bits_b, int(k), tm, j)
            if h_mid < 0:
                out.append((tm, cnet.names[j], float(h_mid)))
            else:
                out.append((0.5 * (tm + t1), cnet.names[j],
                            0.5 * (float(h_mid) + float(hs[k + 1]))))
    return tuple(out)


def _h_at(cnet, schedule, adversary, indices, samples, states_b, loc_b, u_b,
          bits_b, k, t_target, j_watch):
    """Re-integrate one trace from sample k to t_target and evaluate h there."""
    n_sub = len(cnet.net.subsystems)
    X = states_b[k:k + 1].copy()
    offline = np.array([[loc_b[k, j] == 0 for j in range(n_sub)]])
    held_u = [u_b[j][k:k + 1].copy() for j in range(n_sub)]
    t0 = float(samples[k])
    cuts = {t_target}
    flips = []
    for j, ivs in enumerate(schedule.intervals):
        for (s, e) in ivs:
            for time, to_off in ((s, True), (e, False)):
                if t0 < time <= t_target:
                    cuts.add(time)
                    flips.append((time, j, to_off))
    grid = sorted(cuts | {t0})
    bits = bits_b[k:k + 1] if bits_b is not None else None
    for m, t in enumerate(grid):
        for (time, j, to_off) in flips:
            if abs(time - t) <= 1e-12 * max(1.0, abs(time)):
                offline[0, j] = to_off
                if to_off and adversary.kind == "constant":
                    cols = [X[:, c] for c in range(cnet.n_total)]
                    held_u[j][0] = cnet.vertex_u(j, cols)[0]
        _refresh_held(cnet, adversary, X, offline, held_u, bits)
        if m + 1 < len(grid):
            X = _rk4_step(cnet, X, grid[m + 1] - t, offline, held_u)
    cols = [X[:, c] for c in range(cnet.n_total)]
    return float(np.asarray(cnet.h(j_watch, cols)).reshape(()))


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
