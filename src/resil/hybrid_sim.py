"""Fault-injection simulation of interconnected subsystems.

Each subsystem is a two-location hybrid automaton: online it applies its
own saturated feedback law, offline an adversary drives the input anywhere
inside the input box.  Offline intervals come from a dwell-constrained
schedule (lengths at most tau, gaps at least phi).  The coupled ODEs are
integrated with fixed-step RK4 on the sample grid.  Every schedule bound
is a sample time, so the locations are data: one offline mask per batch,
known before the first step, and each batch row is its run alone.

Batches of schedules integrate together as one vectorized system; traces
are deterministic given (seed, model, schedules, dt).  Subsystems whose
expressions differ only in literal values are lanes of one group, and the
columns are lane-major: a state row holds every state, subsystem j's in the
step slice xs[j], and an input row (held, recorded, random bits) every
input, subsystem j's in us[j]; each trace's arrays are views of the batch
records.  The network's expressions run as generated straight-line kernels
that compute a shared subexpression once and a group's trees once over all
its lanes, with one kernel call per sample: the workspace's advance records
the sample's inputs and h and takes its RK4 step, whose first stage reuses
the recorded feedback law.  The adversary is one rule over input rows,
written by one masked copy.

The kernels and the RK4 stages allocate no arrays: every ufunc call in
them writes into a workspace of one row count (a batch builds one for its
rows, and one of one row for refinement).  The kernels are compiled
together with the code that allocates their own buffers, the temporaries,
inputs and constant blocks; the workspace adds the states, slopes, mask
and held inputs, with column blocks bound once.  The stepping loop
allocates only the adversary rows of a sample where some input is
refreshed (worst_vertex's np.where); the per-input refresh mask and those
samples are found once per batch.  Each operation is the one the
expression trees spell, in the same order, so traces are bit-equal to
evaluating every expression on fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .exprs import (Literal, Variable, _add, _is_zero, _mul, compile_kernels, eval_expression,
                    free_variables, lane_tree, straight_line)
from .interconnect import Network
from .oracle import OracleSettings, argmax_h
from .resilience import ResilienceIndex
from .subsystem import worst_vertex

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
    [0, horizon], positionally aligned with the network's subsystems.  A
    simulation needs every bound to be a sample time, a multiple of its dt."""

    horizon: float
    intervals: tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True)
class AdversaryPolicy:
    """kind 'bang-bang': per step, the vertex minimizing the instantaneous
    drift of h; 'constant': that vertex chosen at each offline entry and
    held; 'random': per step, trace b's random vertex from the stream
    [seed, b, 1] (schedule b reads [seed, b], which is [seed, b, 0])."""

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
    if align_dt is not None and not 0 < align_dt < math.inf:
        raise ValueError("align_dt must be positive and finite")
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
    """The kernels first, slope and lg of one row count, closed over their
    own buffers, and every array an RK4 step reads or writes: two ping-pong
    states, the stage state, the slopes k1-k4, the per-input offline mask
    and the held inputs, with the column blocks the kernels read bound once,
    and the lg rows.  Buffers are column-contiguous, so that a block of
    adjacent columns is contiguous.  advance is the one kernel call per
    sample."""

    def __init__(self, cnet: "_CompiledNetwork", rows: int):
        self.first, self.slope, self.lg = (k.fn for k in cnet.make(rows))
        shape, n_u = (rows, len(cnet.x_owner)), len(cnet.u_owner)
        *self.states, self.stage, self.k1, self.k2, self.k3, self.k4 = (
            np.empty(shape, order="F") for _ in range(7))
        self.offline = np.empty((rows, n_u), bool, order="F")
        self.held = np.zeros((rows, n_u), order="F")
        self.lg_rows = np.empty((rows, n_u))
        blocks = [tuple(a[:, i:j] for i, j in cnet.x_views)
                  for a in (*self.states, self.stage, self.k1, self.k2, self.k3, self.k4)]
        self.state_cols, (self.stage_cols, *self.k_cols) = blocks[:2], blocks[2:]
        self.inputs = tuple(a[:, i:j] for a in (self.offline, self.held) for i, j in cnet.u_views)

    def advance(self, src: int, step: float | None, u_out, h_out):
        """Write the effective inputs and every h at states[src] into the
        record rows u_out and h_out, then, unless step is None, the RK4 step
        of that length into the other state, in the operation order of X +
        (h/6)*(((k1 + 2*k2) + 2*k3) + k4); online rows re-evaluate mu at each
        stage.  The kernels run raw, under the caller's np.errstate."""
        X, S, k1, k2, k3, k4 = self.states[src], self.stage, self.k1, self.k2, self.k3, self.k4
        Sc, (d1, d2, d3, d4), V = self.stage_cols, self.k_cols, self.inputs
        self.first(self.state_cols[src], None if step is None else d1, V, u_out, h_out)
        if step is None:
            return
        np.add(X, np.multiply(0.5 * step, k1, S), S)
        self.slope(Sc, d2, V)
        np.add(X, np.multiply(0.5 * step, k2, S), S)
        self.slope(Sc, d3, V)
        np.add(X, np.multiply(step, k3, S), S)
        self.slope(Sc, d4, V)
        np.add(k1, np.multiply(2.0, k2, S), S)
        np.add(S, np.multiply(2.0, k3, k2), S)
        np.add(S, k4, S)
        np.add(X, np.multiply(step / 6.0, S, S), self.states[1 - src])


class _CompiledNetwork:
    """A network's expressions as straight-line kernels over lanes:
    subsystems whose trees are equal up to their variables and literal
    values form a group (a subsystem with no twin, a group of one), whose
    trees run once over (rows, L) blocks of its L lanes, a literal a block
    of the lanes' own values.  Columns are lane-major (group, then role,
    then lane), so one role's lanes are one contiguous block; subsystem j's
    states are the step-L columns xs[j] of a state row, its inputs us[j] of
    an input row, its h column hs[j] of an h row.  x_perm and u_perm give
    each column's subsystem-major column, x_owner and u_owner its subsystem.

    first(X, D, V, u_out, h_out) writes the effective input rows and every h
    into the record rows u_out and h_out, then, unless D is None, the
    right-hand side into the slope blocks D; slope(X, D, V) writes only the
    latter.  X and D hold the blocks x_views (the lane blocks, and the single
    columns a coupling term reads or adds into, after the lanes', in incoming
    order) of column-contiguous arrays, V those u_views of the per-input
    offline mask, then of the held inputs.  lg(X, out) writes input k's lg
    value into column k of out.  An effective input is the held adversary
    input where its subsystem is offline, the saturated feedback law where it
    is online.  The kernels of a _Workspace of len(X) rows allocate nothing:
    each writes into its buffers."""

    def __init__(self, net: Network):
        self.names, subs = net.names, net.subsystems
        drifts = [[reduce(_add, [_mul(g, Variable(u)) for g, u in zip(gs, s.input_vars)], f)
                   for f, gs in zip(s.f, s.g)] for s in subs]  # f_i + sum_k g_ik u_k
        groups = {}
        for j, s in enumerate(subs):
            groups.setdefault(_lane_key(s, drifts[j]), []).append(j)
        self.groups = list(groups.values())
        self.x_perm, self.xs, self.x_owner = self._layout([s.n_states for s in subs])
        self.u_perm, self.us, self.u_owner = self._layout([s.n_inputs for s in subs])
        self.hs = [c.start for c in self._layout([1] * len(subs))[1]]
        self.box_lo, self.box_hi = np.array([b for s in subs for b in s.state_box],
                                            float).reshape(-1, 2)[self.x_perm].T
        self.u_lo, self.u_hi = np.array([b for s in subs for b in s.input_box],
                                        float).reshape(-1, 2)[self.u_perm].T
        self.label = f"inputs, h and drift of {', '.join(self.names)}"

        consts, lanes, n_x = {}, [], len(self.x_perm)  # lanes: (group, x and u blocks, names)

        def emit(g, names, trees, lines, temps, outs=None):
            """Group g's lane trees, trees(j) member j's, as straight-line code."""
            return straight_line([lane(t, names) for t in zip(*map(trees, g))], lines, temps,
                                 outs, f"t{len(g)}_")

        def lane(trees, names):  # trees, one per lane, as one tree over the blocks names
            return lane_tree(trees, names, lambda src: consts.setdefault(
                f"full((rows, {len(trees)}), {src}, order='F')", f"c{len(consts)}"))

        for g in self.groups:
            s, L, x, u = subs[g[0]], len(g), self.xs[g[0]].start, self.us[g[0]].start
            xb = [(x + i * L, x + i * L + L) for i in range(s.n_states)]
            ub = [(u + r * L, u + r * L + L) for r in range(s.n_inputs)]
            lanes.append((g, xb, ub, {**{v: "x%d_%d" % b for v, b in zip(s.state_vars, xb)},
                                      **{v: "u%d_%d" % b for v, b in zip(s.input_vars, ub)}}))
        at = dict(zip([v for s in subs for v in s.state_vars], np.argsort(self.x_perm).tolist()))
        couplings = []  # (column, w replaces a lane drift of 0, w) in incoming order
        for j in range(len(subs)):
            for i, c in enumerate(range(n_x)[self.xs[j]]):
                ws = [w[i] for _, w in net.incoming(j) if not _is_zero(w[i])]
                couplings += [(c, k == 0 and _is_zero(drifts[j][i]), w) for k, w in enumerate(ws)]
        single = {k for c, _, w in couplings for k in (c, *map(at.get, free_variables(w)))}
        self.x_views = sorted({(c, c + 1) for c in single}.union(*(e[1] for e in lanes)))
        self.u_views = [b for _, _, ub, _ in lanes for b in ub]
        col = {v: f"x{c}_{c + 1}" for v, c in at.items()}

        head = [f"({''.join(f'x{a}_{b}, ' for a, b in self.x_views)}) = X",
                f"({''.join(f'{p}{a}_{b}, ' for p in 'ov' for a, b in self.u_views)}) = V"]
        temps, records = {}, []
        for g, _, ub, names in lanes:
            laws = emit(g, names, lambda j: subs[j].mu, head, temps)
            for r, ((a, b), law) in enumerate(zip(ub, laws)):
                if subs[g[0]].mu_saturation is None:
                    head.append(f"copyto(u{a}_{b}, {law})")
                else:  # np.clip(law, lo, hi), bit for bit
                    lo, hi = (lane([Literal(float(subs[j].mu_saturation[r][e])) for j in g],
                                   names).name for e in (0, 1))
                    head += [f"maximum({lo}, {law}, out=u{a}_{b})",
                             f"minimum({hi}, u{a}_{b}, out=u{a}_{b})"]
                head.append(f"copyto(u{a}_{b}, v{a}_{b}, where=o{a}_{b})")
                records.append(f"u_out[:, {a}:{b}] = u{a}_{b}")

        def slopes(lines, temps):
            """Each lane drift's last call writes into its slope block; the
            coupling terms, computed before any slope is written, then add
            into their columns."""
            lines.append(f"({''.join(f'd{a}_{b}, ' for a, b in self.x_views)}) = D")
            terms = straight_line([lane([w], col) for *_, w in couplings], lines, temps,
                                  prefix="t1_")
            for g, xb, _, names in lanes:
                outs = ["d%d_%d" % b for b in xb]
                for v, out in zip(emit(g, names, drifts.__getitem__, lines, temps, outs), outs):
                    if v != out:  # a variable, a constant block or a value computed before
                        lines.append(f"copyto({out}, {v})")
            for (c, replace, _), v in zip(couplings, terms):
                d = f"d{c}_{c + 1}"
                lines.append(f"copyto({d}, {v})" if replace else f"add({d}, {v}, {d})")
            return lines

        slope_temps = dict(temps)
        slope = slopes(list(head), slope_temps)
        first = head + records
        for g, _, _, names in lanes:
            (h,) = emit(g, names, lambda j: [subs[j].h], first, temps)
            first.append(f"h_out[:, {self.hs[g[0]]}:{self.hs[g[0]] + len(g)}] = {h}")
        first = slopes(first + ["if D is None: return"], temps)
        lg, lg_temps = [f"x{a}_{b} = X[:, {a}:{b}]" for _, xb, _, _ in lanes for a, b in xb], {}
        for g, _, ub, names in lanes:
            values = emit(g, names, lambda j: subs[j].compiled.lg_trees, lg, lg_temps)
            lg += [f"out[:, {a}:{b}] = {v}" for (a, b), v in zip(ub, values)]
        arrays = {t: f"empty((rows, {t[1:t.index('_')]}), order='F')"  # t<width>_<k>
                  for d in (temps, slope_temps, lg_temps) for t in d.values() if t[0] == "t"}
        arrays.update({f"u{a}_{b}": f"empty((rows, {b - a}), order='F')" for a, b in self.u_views})
        arrays.update({name: src for src, name in consts.items()})
        self.make = compile_kernels(
            ((first, ("X", "D", "V", "u_out", "h_out"), self.label),
             (slope, ("X", "D", "V"), self.label), (lg, ("X", "out"), self.label)), arrays)

    def _layout(self, sizes):
        """Lane-major columns for sizes[j] of subsystem j: each one's
        subsystem-major column and subsystem, and subsystem j's step slice."""
        perm, owner, cols, at = [], [], [None] * len(sizes), np.cumsum([0, *sizes]).tolist()
        for g in self.groups:
            for lane, j in enumerate(g):
                cols[j] = slice(len(perm) + lane, len(perm) + len(g) * sizes[j], len(g))
            perm += [at[j] + i for i in range(sizes[g[0]]) for j in g]
            owner += [j for _ in range(sizes[g[0]]) for j in g]
        return perm, cols, owner


def _lane_key(s, drifts):
    """Subsystem s's per-sample trees, variables renamed by position and each
    literal-only subtree a placeholder: trees compare by structure, so equal
    keys are lanes of one group."""
    pos = {v: f"v{i}" for i, v in enumerate((*s.state_vars, *s.input_vars))}
    return (s.mu_saturation is None, s.n_states, s.n_inputs,
            *(lane_tree([e], pos, lambda _: "#")
              for e in (*s.mu, *drifts, s.h, *s.compiled.lg_trees)))


def _adversary_rows(cnet, ws, adversary, X, bits):
    """Every input's adversary vertex in each row of X, ws's states: the one
    the random bits pick, u_lo + bits (u_hi - u_lo), or else the one
    minimizing the instantaneous drift of its subsystem's h."""
    if adversary.kind == "random":
        return cnet.u_lo + bits * (cnet.u_hi - cnet.u_lo)
    ws.lg(X, ws.lg_rows)
    return worst_vertex(ws.lg_rows, cnet.u_lo, cnet.u_hi)


def _locations(schedules, dt, n):
    """offline[b, k, j]: sample k of n lies in an offline interval of
    subsystem j in schedule b; entering[b, k, j]: one starts there, also
    where the one before ends.  Every bound must be a multiple of dt to
    within 1e-9 steps; the first bound that is not, in schedule, subsystem
    and interval order, is named.  One pass over every bound: offline is
    the running sum along the samples of +1 at each start and -1 at each
    end, entering one scatter of the starts."""
    B, J = len(schedules), len(schedules[0].intervals)
    cells = [ivs for sched in schedules for ivs in sched.intervals]  # cell b J + j
    counts = [len(ivs) for ivs in cells]
    bounds = np.fromiter(chain.from_iterable(chain.from_iterable(cells)), float, 2 * sum(counts))
    frac = bounds / dt
    k = np.round(frac)
    frac -= k
    off_grid = np.abs(frac, out=frac) > 1e-9
    if off_grid.any():
        i = int(off_grid.argmax())
        b, j = divmod(int(np.repeat(np.arange(len(cells)), counts)[i // 2]), J)
        raise ScheduleError(f"schedule {b}, subsystem {j}: interval bound {bounds[i]:.6g} "
                            f"is not a multiple of dt = {dt:g}")
    # The masks are the largest arrays, so the index arrays are made in place.
    del bounds, frac, off_grid
    at = np.minimum(k, n, out=k).astype(np.intp).reshape(-1, 2)  # as a slice clips them
    del k
    up, down, nonempty = at[:, 0] < n, at[:, 1] < n, at[:, 0] < at[:, 1]
    at *= J  # from here flat indices in (B, n, J): (b, 0, j) of each cell, + k J
    at += np.repeat((np.arange(B)[:, None] * (n * J) + np.arange(J)).reshape(-1), counts)[:, None]
    steps = np.zeros((B, n, J), np.int8)
    np.add.at(steps.reshape(-1), at[up, 0], 1)  # bounds on one sample each count
    np.subtract.at(steps.reshape(-1), at[down, 1], 1)
    starts = at[nonempty, 0]
    del at
    offline = np.cumsum(steps, axis=1, out=steps) > 0
    entering = steps.view(bool)  # the sums are read; their memory holds the second mask
    entering.fill(False)
    entering.reshape(-1)[starts] = True
    return offline, entering


def _integrate(cnet, adversary, ws, T, offline, entering, bits, rec_states, rec_u, rec_h):
    """The one stepping loop over the sample times T, from ws.states[0], with
    offline[:, m] and entering[:, m] the locations at T[m], made per input
    once.  At each T[m]: write the adversary rows (random bits bits[:, m])
    into the held inputs of every offline (row, input) cell, or for the
    constant adversary of the cells entering an interval, check the box,
    record the state, and advance from it with offline[:, m] as the mask."""
    offline = offline[:, :, cnet.u_owner]
    refresh = entering[:, :, cnet.u_owner] if adversary.kind == "constant" else offline
    due = refresh.any(axis=(0, 2)).tolist()
    width10 = _BOX_EXCURSION * (cnet.box_hi - cnet.box_lo)
    lo_lim, hi_lim = cnet.box_lo - width10, cnet.box_hi + width10
    inside, below_hi = np.empty((2, *ws.stage.shape), dtype=bool)
    src = 0
    for m in range(len(T)):
        X = ws.states[src]
        if due[m]:
            rows = _adversary_rows(cnet, ws, adversary, X, None if bits is None else bits[:, m])
            np.copyto(ws.held, rows, where=refresh[:, m])
        # nan fails both comparisons, and +-inf one of them
        np.greater_equal(X, lo_lim, inside)
        np.logical_and(inside, np.less_equal(X, hi_lim, below_hi), inside)
        if not inside.all():
            b, c = np.argwhere(~inside)[0]
            raise NonFiniteStateError(float(T[m]), cnet.names[cnet.x_owner[c]], int(b))
        rec_states[:, m] = X
        np.copyto(ws.offline, offline[:, m])
        step = float(T[m + 1]) - float(T[m]) if m + 1 < len(T) else None
        ws.advance(src, step, rec_u[:, m], rec_h[:, m])
        src = 1 - src


def _resolve_x0(net, indices, floor, x0):
    if x0 is None:
        settings = OracleSettings()
        parts = [argmax_h(s, settings) for s in net.subsystems]
    else:
        parts = [tuple(map(float, p)) for p in x0]
        if len(parts) != len(net.subsystems):
            raise ValueError(f"x0 has {len(parts)} tuples for {len(net.subsystems)} subsystems")
        for s, p in zip(net.subsystems, parts):
            if len(p) != s.n_states:
                raise ValueError(f"x0 for {s.name!r} must have {s.n_states} components")
    for j, (s, p) in enumerate(zip(net.subsystems, parts)):
        h0 = float(eval_expression(s.h, dict(zip(s.state_vars, p))))
        if h0 < floor[j]:
            raise ValueError(f"x0 for {s.name!r} has h = {h0:.6g} below the "
                             f"buffer depth d = {indices[j].d:.6g}")
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def simulate(net: Network, indices: dict[int, ResilienceIndex],
             schedule: FaultSchedule, adversary: AdversaryPolicy,
             dt: float, horizon: float, x0=None) -> HybridTrace:
    return simulate_batch(net, indices, [schedule], adversary, dt, horizon, x0)[0]


def simulate_batch(net: Network, indices: dict[int, ResilienceIndex],
                   schedules: list[FaultSchedule], adversary: AdversaryPolicy,
                   dt: float, horizon: float, x0=None) -> list[HybridTrace]:
    """Integrate every schedule on the sample grid k dt, k = 0..horizon/dt,
    each row by the same operations as its run alone.  Every schedule must
    span this horizon and every interval bound be a sample time
    (ScheduleError otherwise); ``sim run`` aligns its schedules to dt.  x0
    (one tuple per subsystem) defaults to each subsystem's deepest safe
    point and must lie in every buffer region."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"dt = {dt:g} does not divide the horizon {horizon:g}")
    n_sub = len(net.subsystems)
    for sched in schedules:
        if abs(sched.horizon - horizon) > 1e-9 * horizon:
            raise ScheduleError(f"schedule horizon {sched.horizon:g} differs from the "
                                f"simulation horizon {horizon:g}")
        if len(sched.intervals) != n_sub:
            raise ScheduleError(f"schedule has {len(sched.intervals)} interval tuples "
                                f"for {n_sub} subsystems")
        validate_schedule(sched, indices)
    B = len(schedules)
    if B == 0:
        return []

    N = n_steps + 1
    offline, entering = _locations(schedules, dt, N)
    cnet = _CompiledNetwork(net)
    # h >= d up to rounding: the buffer region, for x0 and for in_buffer
    floor = np.array([indices[j].d - 1e-9 * max(1.0, abs(indices[j].d)) for j in range(n_sub)])
    x0_row = _resolve_x0(net, indices, floor, x0)[cnet.x_perm]

    samples = np.arange(N) * dt
    samples.flags.writeable = False  # shared by every trace
    n_u = len(cnet.u_owner)
    # the draw's columns are the subsystem-major inputs
    rand_bits = None if adversary.kind != "random" else np.stack(
        [np.random.default_rng([adversary.seed, b, 1]).integers(0, 2, (N, n_u), np.uint8)
         [:, cnet.u_perm] for b in range(B)])

    rec_states, rec_u, rec_h = (np.empty((B, N, n)) for n in (len(cnet.x_owner), n_u, n_sub))
    ws = _Workspace(cnet, B)
    ws.states[0][:] = x0_row

    # One errstate per batch for the raw kernels: an overflow gives inf or
    # nan, which the box check reports as a runaway state, so it is ignored.
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="raise"):
            _integrate(cnet, adversary, ws, samples, offline, entering, rand_bits, rec_states,
                       rec_u, rec_h)
            ws1 = _Workspace(cnet, 1)
            violations = [_refine_violations(cnet, ws1, samples, rec_states[b], rec_h[b],
                                             rec_u[b], offline[b]) for b in range(B)]
    except FloatingPointError:
        raise ZeroDivisionError(f"division by zero evaluating '{cnet.label}'") from None

    rec_loc = (~offline).view(np.int8)
    in_buffer = rec_h >= floor[np.argsort(cnet.hs)]

    def views(rec, b, cols):
        """Trace b's columns of a record, per subsystem: views, as traces never overlap."""
        return {name: rec[b, :, c] for name, c in zip(cnet.names, cols)}

    traces = []
    for b, sched in enumerate(schedules):
        events = sorted((t, name, kind) for name, ivs in zip(cnet.names, sched.intervals)
                        for iv in ivs for t, kind in zip(iv, ("offline", "online")))
        traces.append(HybridTrace(
            names=cnet.names, times=samples, states=views(rec_states, b, cnet.xs),
            inputs=views(rec_u, b, cnet.us), h=views(rec_h, b, cnet.hs),
            loc=views(rec_loc, b, range(n_sub)), in_buffer=views(in_buffer, b, cnet.hs),
            events=tuple(events), violations=violations[b], dt=dt))
    return traces


def _refine_violations(cnet, ws, samples, states_b, h_b, u_b, offline_b):
    """One bisection per h sign change between consecutive samples: the first
    half-step is re-integrated from the recorded sample k, to decide which
    half holds the crossing.  No switch lies inside a step, so the half-step
    keeps sample k's location, and an offline input its recorded value: one
    advance of the one-row workspace ws from a copy of the recorded row, and
    one of no step for the h row at the half-step."""
    out = []
    u_out, h_out = np.empty_like(u_b[:1]), np.empty_like(h_b[:1])
    for j, name in enumerate(cnet.names):
        hs = h_b[:, cnet.hs[j]]
        for k in np.nonzero((hs[:-1] >= 0) & (hs[1:] < 0))[0]:
            t0, t1 = float(samples[k]), float(samples[k + 1])
            tm = 0.5 * (t0 + t1)
            ws.states[0][0], ws.held[0] = states_b[k], u_b[k]
            ws.offline[0] = offline_b[k, cnet.u_owner]
            ws.advance(0, tm - t0, u_out, h_out)
            ws.advance(1, None, u_out, h_out)
            h_mid = float(h_out[0, cnet.hs[j]])
            if h_mid < 0:
                out.append((tm, name, h_mid))
            else:
                out.append((0.5 * (tm + t1), name, 0.5 * (h_mid + float(hs[k + 1]))))
    return tuple(out)


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


_LOC_FIELDS = np.array([b"0", b"1"], dtype=object)
_time_fields = [None, None]  # the last times exported: (dtype, bytes), its fields


def _formatted_times(times: np.ndarray) -> np.ndarray:
    """The %.9g fields of a times array, as an object array of bytes.  Every
    trace of a batch shares its times, so the last array's fields are kept,
    keyed by its bytes."""
    key = (times.dtype.str, times.tobytes())
    if _time_fields[0] != key:
        text = b"%.9g\n" * len(times) % tuple(times.tolist())
        _time_fields[:] = key, np.array(text.split(b"\n")[:-1], dtype=object)
    return _time_fields[1]


def export_trace_csv(trace: HybridTrace, path: str):
    """Columns: t, then per subsystem j (1-based position): loc_j, the state
    components x_j_1.., the inputs u_j_1.., and h_j; 9 significant digits,
    written byte for byte as np.savetxt(fmt="%.9g", delimiter=",") writes
    them.  Only the state, input and h fields are formatted per trace: the
    t fields once per times array, and an integer loc column holding only 0
    and 1 is copied from the fields b"0" and b"1" (any other loc formats as
    %.9g).  Rows go out 256 at a time through one object block, formatted
    by one bytes % per block."""
    cols, is_float, fixed, floats = ["t"], [False], [_formatted_times(trace.times)], []
    for pos, name in enumerate(trace.names, start=1):
        st, u, loc = trace.states[name], trace.inputs[name], np.asarray(trace.loc[name])
        cols += [f"loc_{pos}", *(f"x_{pos}_{i + 1}" for i in range(st.shape[1])),
                 *(f"u_{pos}_{i + 1}" for i in range(u.shape[1])), f"h_{pos}"]
        if loc.dtype.kind in "biu" and ((loc == 0) | (loc == 1)).all():
            fixed.append(_LOC_FIELDS[loc.astype(np.intp)])
            is_float.append(False)
        else:
            floats.append(loc)
            is_float.append(True)
        floats += [st, u, trace.h[name]]
        is_float += [True] * (st.shape[1] + u.shape[1] + 1)
    fixed, mat = np.column_stack(fixed), np.column_stack(floats)
    at_fixed, at_float = np.flatnonzero(~np.array(is_float)), np.flatnonzero(is_float)
    row = b",".join(b"%.9g" if f else b"%b" for f in is_float) + b"\n"
    block = np.empty((min(256, len(mat)), len(cols)), dtype=object)
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\n")
        for i in range(0, len(mat), 256):
            rows = block[:len(mat) - i]
            rows[:, at_fixed], rows[:, at_float] = fixed[i:i + 256], mat[i:i + 256]
            fh.write(row * len(rows) % tuple(rows.ravel().tolist()))
