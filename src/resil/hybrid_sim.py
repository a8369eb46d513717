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

The kernels and the RK4 stages allocate no arrays: every ufunc call in
them writes into a workspace that the compiled network keeps per row
count (the batch, and one row for refinement).  The kernels are compiled
together with the code that allocates their own buffers, the temporaries,
inputs and constant rows; the workspace adds the slopes, the stage state
and two ping-pong states.  Each operation is the one the expression trees
spell, in the same order, so traces are bit-equal to evaluating every
expression on fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import Literal, Variable, _add, _mul, compile_kernels, straight_line
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
    """Raise ScheduleError unless every interval respects the dwell bounds.
    The first interval that breaks one is named, with the first bound it
    breaks: [0, horizon], then tau, then the gap phi after the previous
    interval."""
    rel = 1e-9
    for j, ivs in enumerate(schedule.intervals):
        idx = indices[j]
        bounds = np.array(ivs, dtype=float).reshape(2 * len(ivs))  # start0, end0, ...
        start, end = bounds[0::2], bounds[1::2]
        # nan is outside, as it fails "not (a <= b)"
        outside = ~((0.0 <= start) & (start < end)
                    & (end <= schedule.horizon * (1 + rel) + rel))
        step = np.diff(bounds)  # length0, gap0, length1, ...
        too_long = step[0::2] > idx.tau * (1 + rel) + rel
        bad = outside | too_long
        bad[1:] |= step[1::2] < idx.phi * (1 - rel) - rel
        if bad.any():
            i = int(bad.argmax())
            why = ("outside [0, horizon]" if outside[i] else
                   f"length exceeds tau = {idx.tau:.6g}" if too_long[i] else
                   f"gap after previous interval is below phi = {idx.phi:.6g}")
            raise ScheduleError(f"subsystem {j}, interval [{start[i]:.6g}, {end[i]:.6g}): {why}")


class _Uniforms:
    """A generator's doubles, drawn ahead in blocks and read in order, so
    that the block sizes change no value."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.ahead = rng, np.empty(0)

    def peek(self, n: int) -> np.ndarray:
        """The next n values, left unread."""
        if n > len(self.ahead):
            self.ahead = np.concatenate([self.ahead, self.rng.random(n - len(self.ahead))])
        return self.ahead[:n]

    def read(self, n: int) -> np.ndarray:
        values = self.peek(n)
        self.ahead = self.ahead[n:]
        return values


def _offline_runs(draws: _Uniforms, horizon: float, tau: float, phi: float):
    """One subsystem's interval starts and unclipped ends, bit-equal to the
    loop t = uniform(0, 3 phi); while t < horizon: length = tau -
    uniform(0, tau), an interval [t, t + length), t = t + length +
    uniform(phi, 3 phi).  uniform(lo, hi) is lo + (hi - lo) r, and a running
    sum over [t, length, gap, length, gap, ...] adds in the loop's order, so
    its even prefixes are the starts and its odd ones the ends.  A block
    holds the expected number of intervals left before the horizon; when
    it falls short, the next block sums on from its last start.  m
    intervals read 1 + 2m values."""
    start = 3.0 * phi * draws.read(1)[0]
    if math.isinf(tau):  # no length is drawn, only the gap after the interval
        n = int(start < horizon)
        draws.read(n)
        return np.full(n, start), np.full(n, tau)
    parts = []
    while start < horizon:
        k = 1 + int(min((horizon - start) / (0.5 * tau + 2.0 * phi), 1 << 16))
        r = draws.peek(2 * k)
        t = np.empty(2 * k + 1)
        t[0] = start
        np.subtract(tau, tau * r[0::2], out=t[1::2])
        np.add(phi, (3.0 * phi - phi) * r[1::2], out=t[2::2])
        t = np.add.accumulate(t)
        below = t[0::2] < horizon
        m = k if below.all() else int(below.argmin())
        parts.append(t[:2 * m])
        start = t[2 * m]
        draws.read(2 * m)
    t = np.concatenate(parts or [np.empty(0)])
    return t[0::2], t[1::2]


def generate_schedule(seed: int, horizon: float, indices: dict[int, ResilienceIndex],
                      count: int, align_dt: float | None = None) -> list[FaultSchedule]:
    """Random admissible schedules: offline lengths uniform in (0, tau],
    online gaps uniform in [phi, 3 phi], first start uniform in [0, 3 phi).
    An infinite tau draws no length: its first offline interval runs to the
    horizon.  Schedule k reads the stream default_rng([seed, k]), one
    subsystem after the other in index order.  A subsystem's draws are taken
    as blocks of doubles, and a running sum over each block gives its
    interval bounds, bit-equal to drawing them one by one with rng.uniform
    (_offline_runs).

    With align_dt, boundaries snap inward to the integration grid (starts up,
    ends down); snapping only shortens intervals and widens gaps, so the
    dwell invariants survive.  Intervals shorter than one step are dropped.
    """
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = []
    for k in range(count):
        draws = _Uniforms(np.random.default_rng([seed, k]))
        per_sub = []
        for j in sorted(indices):
            start, end = _offline_runs(draws, horizon, indices[j].tau, indices[j].phi)
            end = np.minimum(end, horizon)
            if align_dt is None:
                keep = end > start
            else:
                i0, i1 = np.ceil(start / align_dt - 1e-9), np.floor(end / align_dt + 1e-9)
                keep, start, end = i1 > i0, i0 * align_dt, i1 * align_dt
            per_sub.append(tuple(zip(start[keep].tolist(), end[keep].tolist())))
        out.append(FaultSchedule(horizon=horizon, intervals=tuple(per_sub)))
    return out


# -- compiled network kernel ---------------------------------------------------

class _Workspace:
    """The kernels rhs, record and lg for one row count, closed over their
    own buffers, and every array the RK4 step writes: the slopes k1-k4, the
    stage state, two ping-pong states and the vertex rows.  State-shaped
    buffers are column-contiguous, so that a state column X[:, c] is
    contiguous."""

    def __init__(self, cnet: "_CompiledNetwork", rows: int):
        self.rhs, self.record, self.lg = cnet.make(rows)
        shape = (rows, len(cnet.state_names))
        self.k1, self.k2, self.k3, self.k4, self.stage, *self.states = (
            np.empty(shape, order="F") for _ in range(7))
        self.vertex = np.empty((rows, len(cnet.u_owner)))


class _CompiledNetwork:
    """A network's expressions as straight-line kernels over one row layout:
    a batch row holds every state, subsystem j's in columns xs[j], and an
    input row holds every input, subsystem j's in columns us[j].
    rhs(X, offline, held, out) writes the right-hand side into out and
    returns it, record(X, offline, held, u_out, h_out) writes the effective
    input rows and every h, and lg(X) returns every input's lg value; each
    is a kernel of workspace(len(X)).  An effective input is the held
    adversary input where its subsystem is offline, the saturated feedback
    law where it is online.  The kernels allocate nothing: each writes into
    buffers of its workspace, so a value lg returns lives until the next
    kernel call at that row count."""

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
        self._workspaces: dict[int, _Workspace] = {}

        ids = {n: f"x{c}" for c, n in enumerate(self.state_names)}
        unpack = [f"{x} = X[:, {c}]" for c, x in enumerate(ids.values())]
        head, temps, consts, drift = list(unpack), {}, {}, []  # head ends with the inputs u{k}
        for j, s in enumerate(subs):
            ks = range(self.us[j].start, self.us[j].stop)
            laws = straight_line(s.mu, ids, head, temps, consts)
            for k, law, sat in zip(ks, laws, s.mu_saturation or [None] * s.n_inputs):
                if sat is None:
                    head.append(f"copyto(u{k}, {law})")
                else:  # np.clip(law, lo, hi), bit for bit
                    lo, hi = straight_line([Literal(float(v)) for v in sat], ids, head, temps,
                                           consts)
                    head += [f"maximum({lo}, {law}, out=u{k})", f"minimum({hi}, u{k}, out=u{k})"]
                head.append(f"copyto(u{k}, held[:, {k}], where=offline[:, {j}])")
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
            (v,) = straight_line([expr], names, lines, rhs_temps, consts)
            lines.append(f"copyto(out[:, {c}], {v})")
        rhs = (lines + ["return out"], ("X", "offline", "held", "out"), f"drift of {label}")
        lines = head + [f"u_out[:, {k}] = u{k}" for k in range(len(self.u_owner))]
        hs = straight_line([s.h for s in subs], ids, lines, temps, consts)
        lines += [f"h_out[:, {j}] = {v}" for j, v in enumerate(hs)]
        record = (lines, ("X", "offline", "held", "u_out", "h_out"), f"inputs and h of {label}")
        lines, lg_temps = list(unpack), {}
        lg = straight_line([e for s in subs for e in s.compiled.lg_trees],
                           ids, lines, lg_temps, consts)
        lg = (lines + [f"return ({''.join(v + ', ' for v in lg)})"], ("X",), f"lg of {label}")
        n_temps = max(len(rhs_temps), len(temps), len(lg_temps))
        self.make = compile_kernels((rhs, record, lg), consts, [
            *(f"t{i}" for i in range(n_temps)), *(f"u{k}" for k in range(len(self.u_owner)))])

    def workspace(self, rows: int) -> _Workspace:
        ws = self._workspaces.get(rows)
        if ws is None:
            ws = self._workspaces[rows] = _Workspace(self, rows)
        return ws

    def vertex_rows(self, X: np.ndarray, which) -> np.ndarray:
        """The workspace's input rows holding, for each subsystem j in which,
        the input-box vertex minimizing the instantaneous drift of h_j; other
        columns are left as they were."""
        ws = self.workspace(len(X))
        lg, out = ws.lg(X), ws.vertex
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
    at each stage state, offline traces keep their held adversary input.
    Every stage writes into the workspace in the operation order of
    X + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), and the new state goes to the
    ping-pong buffer that X is not, so X itself is never written."""
    ws = cnet.workspace(len(X))
    rhs, k1, k2, k3, k4, S = ws.rhs, ws.k1, ws.k2, ws.k3, ws.k4, ws.stage
    rhs(X, offline, held, k1)
    rhs(np.add(X, np.multiply(0.5 * h_seg, k1, S), S), offline, held, k2)
    rhs(np.add(X, np.multiply(0.5 * h_seg, k2, S), S), offline, held, k3)
    rhs(np.add(X, np.multiply(h_seg, k3, S), S), offline, held, k4)
    np.add(k1, np.multiply(2.0, k2, S), S)
    np.add(S, np.multiply(2.0, k3, k2), S)
    np.add(S, k4, S)
    return np.add(X, np.multiply(h_seg / 6.0, S, S), ws.states[X is ws.states[0]])


def _switches(schedules, t_end):
    """Every location switch up to t_end as (time, row, subsystem,
    to_offline), in schedule order: each interval's start, then its end."""
    return [(t, b, j, to_off)
            for b, sched in enumerate(schedules)
            for j, ivs in enumerate(sched.intervals)
            for interval in ivs
            for t, to_off in zip(interval, (True, False)) if t <= t_end]


def _integrate(cnet, adversary, T, X, offline, held, switches, bits, bit_rows):
    """The one stepping loop over the time grid T, which holds every switch
    time.  At each grid time T[m]: apply its switches (the constant adversary
    picks its vertex on entry), refresh the held inputs with the random bits
    bits[:, bit_rows[m]], yield (m, X), then take one RK4 step to the next
    grid time."""
    flips_at: dict[int, list[tuple[int, int, bool]]] = {}
    times = np.fromiter((sw[0] for sw in switches), float, len(switches))
    for m, (_, row, j, to_off) in zip(np.searchsorted(T, times), switches):
        flips_at.setdefault(int(m), []).append((row, j, to_off))
    for m in range(len(T)):
        t = float(T[m])
        for (row, j, to_off) in flips_at.get(m, ()):
            offline[row, j] = to_off
            if to_off and adversary.kind == "constant":
                us = cnet.us[j]
                held[row, us] = cnet.vertex_rows(X[row:row + 1], (j,))[0, us]
        _refresh_held(cnet, adversary, X, offline, held,
                      bits[:, bit_rows[m]] if bits is not None else None)
        yield m, X
        if m + 1 < len(T):
            X = _rk4_step(cnet, X, float(T[m + 1]) - t, offline, held)


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
    inside, below_hi = np.empty((2, B, len(cnet.state_names)), dtype=bool)
    ws = cnet.workspace(B)

    for m, X in _integrate(cnet, adversary, T, np.tile(x0_row, (B, 1)), offline, held,
                           switches, rand_bits, sample_index):
        if not is_sample[m]:
            continue
        k = int(sample_index[m])
        # nan fails both comparisons, and +-inf one of them
        np.greater_equal(X, lo_lim, inside)
        np.logical_and(inside, np.less_equal(X, hi_lim, below_hi), inside)
        if not inside.all():
            b, c = np.argwhere(~inside)[0]
            j = next(j for j, xs in enumerate(cnet.xs) if c < xs.stop)
            raise NonFiniteStateError(float(T[m]), net.subsystems[j].name, int(b))
        rec_states[:, k] = X
        ws.record(X, offline, held, rec_u[:, k], rec_h[:, k])
        np.logical_not(offline, rec_loc[:, k])

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
        hs, h = h_b[:, j], cnet.net.subsystems[j].compiled.h
        for k in np.nonzero((hs[:-1] >= 0) & (hs[1:] < 0))[0]:
            t0, t1 = float(samples[k]), float(samples[k + 1])
            tm = 0.5 * (t0 + t1)
            window = [(t, 0, i, to_off) for (t, _, i, to_off) in switches if t0 < t <= tm]
            T = np.unique(np.array([t0, tm] + [sw[0] for sw in window]))
            # held is refreshed in place, and u_b is the trace's own inputs.
            for _, X in _integrate(cnet, adversary, T, states_b[k:k + 1], loc_b[k:k + 1] == 0,
                                   u_b[k:k + 1].copy(), window, bits_b, np.full(len(T), k)):
                pass
            h_mid = float(np.asarray(h(*X[:, cnet.xs[j]].T)).reshape(()))
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
    one step of slack.  Windows cut off by the horizon are not assessed.

    The sample times are sorted, so each subsystem's recovery windows
    [s - tol, s + phi + dt + tol] become index ranges by one searchsorted
    per end, and a window is met when the running count of in-buffer
    samples grows across it."""
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
    online: dict[str, list[float]] = {}
    for (time, name, kind) in trace.events:
        if kind == "online":
            online.setdefault(name, []).append(time)
    for name, times in online.items():
        start = np.array(times, dtype=float)
        deadline = start + indices[net.index_of(name)].phi + trace.dt
        assessed = deadline <= t_end + tol
        lo = np.searchsorted(t, start[assessed] - tol, "left")
        hi = np.searchsorted(t, deadline[assessed] + tol, "right")
        seen = np.concatenate([[0], np.cumsum(trace.in_buffer[name])])
        deadlines_met &= bool((seen[hi] > seen[lo]).all())
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
