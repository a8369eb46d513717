"""Dense-grid extremum oracle over box regions.

Every quantity the index computations need (worst-case drifts, band minima,
the peak of the safety function) is a minimum of a continuous function over
a box, possibly restricted by safety-function inequalities; a maximum is
the minimum of the negation.  ``grid_minimize`` is the one scan: it
evaluates an objective on an axis-aligned grid with vectorized numpy
broadcasting, then shrinks the box around the incumbent for a fixed number
of refinement rounds.

An objective is a sum of ``Term``s: callables that each declare the axes
they read, added left to right.  A trailing axis that one term reads, and
no region, is minimized out of that term before the terms are added, so a
scan costs the grid of the axes the terms share, not the product of all
axes.  Rounded addition is monotone in each operand, so this gives the same
values and the same minimizer as the full grid.

A term may also name eliminated axes along which its value is monotone
(``exprs.monotone_variables`` proves it for a compiled tree).  Such an axis
is evaluated at its first and last grid points only, and the minimum along
it lies at one of them: a term over m of them costs 2^m points, not n^m.
The rule is exact, not approximate.  Where both ends are finite, every
point between is finite and raises no error, and a nonzero minimum has one
bit pattern.  So the full line is evaluated instead wherever a value at
the ends is not finite (a nan, -inf or error between them shows as it
would) or the minimum at the ends is 0 (the line may hold both -0.0 and
0.0, and the reduction's choice depends on where they lie).  The
coordinates of the winner on the eliminated axes still come from a full
scan of its line.

``StateGrid`` lays the axes out over the state variables that the terms
and the safety functions read, for one subsystem or several coupled ones,
and is private to this module.  Every compiled function of a subsystem
(``h``, ``mu``, ``lf``, ``lg``) takes exactly the variables it reads, so
``StateGrid.term`` binds one by its names, and a variable that no function
reads has no axis.  ``StateGrid.minimize``, the one caller of
``grid_minimize``, scans where each subsystem lies in its safety set and a
target in a ``Region`` (an interval of its h values), and returns an
``Extremum`` whose witness ``arg`` is (name, value) pairs in axis order.
It serves two queries.  ``minimum`` minimizes an expression over the
product of subsystems' safety sets; ``sup_h`` and ``argmax_h`` are its
minimum of -h, scanned once per subsystem and settings.  ``drift_minimum``
builds the drift objectives from the drift layer (``lf``, ``lg``, see
``subsystem``) as terms: coupling, ``lf``, one per input (worst input-box
vertex, which ends the witness, or closed loop), and an optional
``z max(h - lo, 0)``.  The three index-condition queries call it:
``min_offline_drift``, ``min_recovery_drift`` and
``min_invariance_margin``, which take a network's participants and
coupling drift; so does the verifier, to learn whether h goes below d
where the grid misses a recovery band.  ``depth_profile`` evaluates the
round-0 grid of every depth's recovery and invariance scan at once: the
closed-loop drift at each grid point of the safety set, sorted by h, from
which ``DepthProfile.rules_out`` finds the depths that a grid point already
fails, and that the scans would therefore reject.

Non-finite values: a term value of nan or -inf anywhere on the scanned
box raises FloatingPointError, and so does a sum of finite terms that
overflows to -inf in the region.  +inf is allowed and makes a point no
candidate, like a point outside the region.  A scan whose first grid holds
no point of the region raises EmptyRegionError; one whose points of the
region are all valued +inf raises FloatingPointError.  A scan that cannot
be allocated raises MemoryError naming its axes and the grid.

Determinism: ties on the grid resolve to the lexicographically smallest
point in axis order, regardless of chunking or eliminated axes.
Refinement never loses the incumbent, so reported values improve
monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exprs import _ZERO, Expression, Negate, _is_zero
from .subsystem import (
    SAFE_SET,
    Region,
    Subsystem,
    buffer_region,
    compile_reads,
    safe_minus_buffer,
    worst_vertex,
)

# Cap on the points of the largest array a chunk builds: the grid left after
# elimination, or a term over an eliminated axis before it is reduced.
# 4M float64 points are 32 MB per array.
_CHUNK_BUDGET = 4_000_000

# Absolute slack on region boundaries and on index-condition margins.
MARGIN_TOLERANCE = 1e-9


class EmptyRegionError(Exception):
    """No grid point satisfied the region predicate."""


@dataclass(frozen=True)
class OracleSettings:
    grid_points_per_dim: int = 200
    refinement_rounds: int = 2

    def __post_init__(self):
        if self.grid_points_per_dim < 2:
            raise ValueError("grid_points_per_dim must be at least 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be nonnegative")


@dataclass(frozen=True)
class Extremum:
    value: float
    arg: tuple[tuple[str, float], ...]  # the witness, (name, value) pairs


class Term(NamedTuple):
    """A callable over the bindings and the positions of the axes it reads.
    The value must not depend on any other axis.  monotone holds read axes
    along which the value is monotone for every fixed value of the others,
    finite between any two points where it is finite, and raises nowhere
    between two points where it is finite (see exprs.monotone_variables)."""

    fn: Callable
    reads: frozenset
    monotone: frozenset = frozenset()


def _shaped(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def _kept_axes(terms, predicate: Term | None, ndim: int) -> int:
    """Number k of leading axes a scan keeps.  Axes k, ..., ndim - 1 are each
    read by at most one term and not by the predicate, so each can be
    minimized out of its term before the terms are added.  Only a suffix is
    eliminated, which keeps the C-order tie-break; axis 0 stays, because the
    scan is chunked along it."""
    k = ndim
    while (k > 1 and (predicate is None or k - 1 not in predicate.reads)
           and sum(k - 1 in t.reads for t in terms) <= 1):
        k -= 1
    return k


def _fold(terms, bindings, k: int):
    """Left-to-right sum of the terms at the bindings, each term that reads
    an axis from k on minimized over those axes first (_term_minimum).  A
    term value of nan or -inf anywhere on the bindings raises
    FloatingPointError; +inf is allowed.  With no term at -inf, no sum is
    inf + -inf unless finite values overflow (_scan_chunk raises there), so
    the eliminated sum has the minimum of the full one.  Overflow and
    invalid operations in the terms and the sum are not warned about: they
    give the values that raise."""
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in terms:
            v = (_term_minimum(t, bindings, k) if any(i >= k for i in t.reads)
                 else t.fn(bindings))
            low = np.min(v)
            if not low > -math.inf:  # the min propagates nan
                raise FloatingPointError(f"objective produced {low} on the grid")
            total = v if total is None else total + v
    return total


def _term_minimum(t: Term, bindings, k: int) -> np.ndarray:
    """t at the bindings, minimized over the axes from k on.  The axes among
    them that t is monotone in are bound to their first and last grid
    points only, 2^m points for m of them, where the minimum along each
    lies.  Lines through a point of the other axes where a value at those
    points is not finite, or where their minimum is 0, are evaluated in full
    instead: the full line can hold -0.0 and 0.0, and which of them the
    reduction returns depends on where they lie.  So the result is the full
    minimum bit for bit, and an error or a nan or -inf on the full grid is
    raised or returned as it would be."""
    ndim = len(bindings)
    elim = tuple(range(k, ndim))
    ends = [i for i in elim if i in t.monotone]

    def values(b):
        v = np.asarray(t.fn(b), dtype=float)
        return v.reshape((1,) * (ndim - v.ndim) + v.shape)

    if not ends:
        return values(bindings).min(axis=elim, keepdims=True)
    raw = values([np.take(b, [0, -1], axis=i) if i in ends else b
                  for i, b in enumerate(bindings)])
    v = raw.min(axis=elim, keepdims=True)
    redo = (v == 0) | ~np.isfinite(raw).all(axis=elim, keepdims=True)
    if redo.any():
        # Full lines in slabs along one kept axis, each slab in _CHUNK_BUDGET.
        axis = next((a for a in range(k) if v.shape[a] > 1), 0)
        sel = np.flatnonzero(redo.any(axis=tuple(a for a in range(ndim) if a != axis)))
        line = math.prod(bindings[i].shape[i] for i in elim if raw.shape[i] > 1)
        step = max(1, _CHUNK_BUDGET // (line * v.size // v.shape[axis]))
        for lo in range(0, sel.size, step):
            rows, part = sel[lo:lo + step], list(bindings)
            part[axis] = np.take(bindings[axis], rows, axis=axis)
            v[(slice(None),) * axis + (rows,)] = values(part).min(axis=elim, keepdims=True)
    return v


def _slab_values(terms, grids, k):
    """The bindings of one slab (a slice along axis 0) and the sum of the
    terms on its first k axes, the rest minimized out of their terms (see
    _fold for the non-finite rule)."""
    ndim = len(grids)
    shape = tuple(g.size for g in grids[:k]) + (1,) * (ndim - k)
    bindings = [_shaped(g, i, ndim) for i, g in enumerate(grids)]
    return bindings, np.broadcast_to(np.asarray(_fold(terms, bindings, k), dtype=float), shape)


def _scan_chunk(terms, predicate, grids, k):
    """Evaluate one slab and return its best point over the first k axes,
    or None when the slab holds no point of the region.  The best value is
    +inf when every point of the region has it.  Values, mask and argmin
    live on those axes."""
    bindings, vals = _slab_values(terms, grids, k)
    shape = vals.shape
    if predicate is not None:
        mask = predicate.fn(bindings)
        if not np.any(mask):
            return None
        vals = np.where(mask, vals, np.inf)
    flat = int(np.argmin(vals))  # C order: ties pick the lexicographically first point
    best = float(vals.flat[flat])
    if not best > -math.inf:  # finite terms whose sum overflowed
        raise FloatingPointError(f"objective produced {best} on the grid")
    idx = np.unravel_index(flat, shape)
    return best, tuple(float(g[i]) for g, i in zip(grids[:k], idx))


def grid_minimize(objective, axes, predicate, settings: OracleSettings):
    """Minimize objective over the box spanned by axes.

    objective is a sequence of Terms whose sum is minimized; predicate is
    None or a Term whose value is the region mask.  Each term receives a
    list of broadcast-shaped arrays, one per axis, in axis order.  Returns
    (value, arg) where arg is a tuple of coordinates in axis order.  A point
    valued +inf is no candidate.  When the initial grid holds no point of
    the region, raises EmptyRegionError; when it holds some, all valued
    +inf, FloatingPointError.  nan and -inf raise (see _fold).
    """
    terms = list(objective)
    if not axes:
        if predicate is not None and not predicate.fn([]):
            raise EmptyRegionError("region contains no grid point")
        vals = np.asarray(_fold(terms, [], 0), dtype=float).reshape(())
        return float(vals), ()
    k = _kept_axes(terms, predicate, len(axes))
    n = settings.grid_points_per_dim
    bounds = [(float(lo), float(hi)) for lo, hi in axes]
    orig = list(bounds)
    incumbent_val = math.inf
    incumbent_arg = None
    for round_no in range(settings.refinement_rounds + 1):
        grids = [np.linspace(lo, hi, n) for lo, hi in bounds]
        best = _scan_round(terms, predicate, grids, k)
        if round_no == 0 and best is None:
            raise EmptyRegionError("region contains no grid point")
        if round_no == 0 and best[0] == math.inf:
            raise FloatingPointError("objective is +inf at every grid point of the region")
        if best is not None and best[0] < incumbent_val:
            incumbent_val, incumbent_arg = best
        bounds = _shrink(orig, bounds, incumbent_arg, n)
    return incumbent_val, incumbent_arg


def _scan_round(terms, predicate, grids, k):
    """Best (value, point) on one grid, scanning the first k axes in chunks
    along axis 0; the coordinates on the eliminated axes are found for the
    winner alone."""
    axis0 = grids[0]
    rows_per_chunk = _rows_per_chunk(terms, grids, k)
    best = None
    for lo in range(0, axis0.size, rows_per_chunk):
        r = _scan_chunk(terms, predicate, [axis0[lo:lo + rows_per_chunk]] + grids[1:], k)
        # Strict <, in chunk order: ties keep the C-order first point.
        if r is not None and (best is None or r[0] < best[0]):
            best = r
    if best is None or len(best[1]) == len(grids):
        return best
    # The winner is a point on the first k axes.  Its line through the
    # eliminated axes, scanned in full, has the same minimum; the first
    # point in C order that reaches it completes the coordinates.
    line = [np.array([c]) for c in best[1]] + grids[k:]
    return best[0], _scan_chunk(terms, None, line, len(grids))[1]


def _rows_per_chunk(terms, grids, k):
    """Rows of axis 0 per chunk that keep a chunk's arrays in _CHUNK_BUDGET.
    An eliminated axis that a term is monotone in counts as its 2 endpoints."""
    sizes = [g.size for g in grids]
    per_row = max([math.prod(sizes[1:k])]
                  + [math.prod(2 if i >= k and i in t.monotone else sizes[i]
                               for i in t.reads if i) for t in terms if 0 in t.reads])
    return max(1, _CHUNK_BUDGET // per_row)


def _shrink(orig, bounds, arg, n):
    new = []
    for (olo, ohi), (lo, hi), center in zip(orig, bounds, arg):
        step = (hi - lo) / (n - 1)
        half = max(2.0 * step, 1e-15 * max(1.0, abs(center)))
        new.append((max(olo, center - half), min(ohi, center + half)))
    return new


# -- grids over the variables an objective reads ------------------------------

class StateGrid:
    """Axes for the state variables of one or more subsystems that the
    terms or a safety function read, in subsystem and state order.  No
    other variable enters a scan, so the grid minimum is the full one's."""

    def __init__(self, subsystems, needed):
        needed = set(needed).union(*(s.compiled.h.names for s in subsystems))
        self.subsystems = tuple(subsystems)
        self.axis_names = [n for s in self.subsystems for n in s.state_vars if n in needed]
        self.axes = [box for s in self.subsystems
                     for n, box in zip(s.state_vars, s.state_box) if n in needed]
        self.slots = {n: i for i, n in enumerate(self.axis_names)}

    def term(self, fn) -> Term:
        """A compiled function as a Term over the axes of its names, called
        on shaped bindings or a grid point in axis order."""
        slots = [self.slots[n] for n in fn.names]
        return Term(lambda b: fn(*[b[i] for i in slots]), frozenset(slots),
                    frozenset(self.slots[n] for n in fn.monotone))

    def minimize(self, terms, settings: OracleSettings,
                 target: Subsystem | None = None, region: Region = SAFE_SET) -> Extremum:
        """Minimize the sum of terms over the grid points where every
        subsystem lies in its safety set and target in region.  The witness
        names the axes in axis order.  A scan too large for memory raises
        MemoryError naming the axes and the grid."""
        regions = [(region if s is target else SAFE_SET, self.term(s.compiled.h))
                   for s in self.subsystems]

        def predicate(bindings):
            out = None
            for r, h in regions:
                cond = r.contains(h.fn(bindings), MARGIN_TOLERANCE)
                out = cond if out is None else (out & cond)
            return out

        h_reads = frozenset().union(*(h.reads for _, h in regions))
        try:
            value, arg = grid_minimize(terms, self.axes, Term(predicate, h_reads), settings)
        except MemoryError:
            raise MemoryError(f"a scan over the axes {', '.join(self.axis_names)} at "
                              f"{settings.grid_points_per_dim} points each does not fit in "
                              "memory; lower --grid") from None
        return Extremum(value, tuple(zip(self.axis_names, arg)))


def minimum(e: Expression, subsystems, settings: OracleSettings) -> Extremum:
    """Minimize e over the product of the subsystems' safety sets."""
    fn = compile_reads(e)
    grid = StateGrid(subsystems, fn.names)
    return grid.minimize([grid.term(fn)], settings)


# -- objectives over the drift layer --------------------------------------------

def _drift_terms(s: Subsystem, participants, closed_loop: bool, coupling: Expression):
    """The grid of a drift scan of h_s and its terms: coupling, lf, then one
    per input, reading the variables its compiled functions take; with the
    lg terms, for the input-vertex witness."""
    comp = s.compiled
    fns = ([] if _is_zero(coupling) else [compile_reads(coupling)]) + [comp.lf]
    laws = comp.mu if closed_loop else ()
    grid = StateGrid(participants or (s,), {n for fn in (*fns, *comp.lg, *laws) for n in fn.names})
    terms = [grid.term(fn) for fn in fns]
    lg, mu = [grid.term(fn) for fn in comp.lg], [grid.term(fn) for fn in laws]
    for k, (c, box) in enumerate(zip(lg, s.input_box)):
        if closed_loop:
            def u_term(b, c=c.fn, k=k):
                # clamp_mu is the one saturation rule; it clamps every law.
                return c(b) * s.clamp_mu([m.fn(b) for m in mu])[k]
            terms.append(Term(u_term, c.reads | mu[k].reads))
        else:
            def u_term(b, c=c.fn, box=box):
                # Affine in u: the input's worst value is a box endpoint.
                v = np.asarray(c(b))
                return np.minimum(v * box[0], v * box[1])
            terms.append(Term(u_term, c.reads))
    return grid, terms, lg


def drift_minimum(s: Subsystem, region: Region, settings: OracleSettings,
                  closed_loop: bool, z: float | None = None,
                  participants=None, coupling: Expression = _ZERO) -> Extremum:
    """Minimize the drift of h_s, coupling + lf + sum_k lg_k u_k, over region
    (with every other participant in its safety set).  u is the clamped
    feedback law when closed_loop, else the worst input-box vertex at each
    grid point, reconstructed at the minimizer for the witness; z adds
    z max(h - region.lo, 0), which is z (h - lo) on the region save where
    the MARGIN_TOLERANCE slack admits h just below lo.  The sum is handed
    to the grid as Terms in that order."""
    grid, terms, lg = _drift_terms(s, participants, closed_loop, coupling)
    if z is not None:
        h = grid.term(s.compiled.h)
        terms.append(Term(lambda b: z * np.maximum(h.fn(b) - region.lo, 0.0), h.reads))

    ex = grid.minimize(terms, settings, s, region)
    point = [v for _, v in ex.arg]
    vertex = () if closed_loop else worst_vertex(np.array(
        [float(np.asarray(c.fn(point))) for c in lg]), *np.reshape(s.input_box, (-1, 2)).T)
    return Extremum(ex.value, ex.arg + tuple(zip(s.input_vars, map(float, vertex))))


class DepthProfile(NamedTuple):
    """The closed-loop drift D of one subsystem at the round-0 grid points
    of its safety set, sorted by h, as its recovery and invariance scans
    evaluate it (see depth_profile)."""

    h: np.ndarray           # ascending
    drift: np.ndarray
    low_drift: np.ndarray   # low_drift[i]: min of drift[:i + 1]
    best_margin: np.ndarray  # best_margin[i]: argmin of drift[i:] + z h[i:], from i
    z: float

    def rules_out(self, d: float) -> bool:
        """Whether a round-0 point of d's region already fails d: its band
        (d > 0) holds no point or one with D <= 0, or its buffer holds no
        point or one with D + z max(h - d, 0) < 0, summed as the scan sums
        it.  A scan's minimum is at most its round-0 value at any point of
        the region, so the scans reject d; a scan that would raise (nan or
        -inf) rules nothing out."""
        cut = d - MARGIN_TOLERANCE  # the Region.contains slack
        if d > 0:
            band = int(np.searchsorted(self.h, cut, side="right"))
            if band == 0 or self.low_drift[band - 1] <= 0:
                return True
        start = int(np.searchsorted(self.h, cut, side="left"))
        if start == self.h.size:
            return True
        p = self.best_margin[start]
        return -math.inf < float(self.drift[p]) + self.z * max(float(self.h[p]) - d, 0.0) < 0


def depth_profile(s: Subsystem, z: float, settings: OracleSettings) -> DepthProfile | None:
    """The profile of every depth's recovery and invariance scan from one
    evaluation of their round-0 grid: the same StateGrid, Terms, left-to-right
    _fold and axis elimination.  None, and the depths are scanned one by
    one, when that grid takes more than one chunk, or when D is nan or -inf
    at a point of the safety set, where a scan raises."""
    grid, terms, _ = _drift_terms(s, None, True, _ZERO)
    h = grid.term(s.compiled.h)  # the region predicate reads h's axes
    k = _kept_axes(terms, h, len(grid.axes))
    n = settings.grid_points_per_dim
    grids = [np.linspace(float(lo), float(hi), n) for lo, hi in grid.axes]
    if _rows_per_chunk(terms, grids, k) < n:
        return None
    bindings, drift = _slab_values(terms, grids, k)
    hv = np.broadcast_to(np.asarray(h.fn(bindings), dtype=float), drift.shape)
    safe = SAFE_SET.contains(hv, MARGIN_TOLERANCE)
    hv, drift = hv[safe], drift[safe]
    if not np.all(drift > -math.inf):
        return None
    order = np.argsort(hv, kind="stable")
    hv, drift = hv[order], drift[order]
    # Suffix argmin of drift + z h: scanning from the end, the latest point
    # that ties the running minimum attains it.
    with np.errstate(over="ignore", invalid="ignore"):
        margin = (drift + z * hv)[::-1]
    last = np.maximum.accumulate(np.where(margin == np.minimum.accumulate(margin),
                                          np.arange(margin.size), 0))
    return DepthProfile(hv, drift, np.minimum.accumulate(drift),
                        (margin.size - 1 - last)[::-1], z)


def _peak_h(s: Subsystem, settings: OracleSettings) -> Extremum:
    """The minimum of -h over the safety set, scanned once per subsystem and
    settings: the load check, compute_index, net propagate and sim run's
    start point all ask for it."""
    peaks = s.compiled.peaks
    if settings not in peaks:
        peaks[settings] = minimum(Negate(s.h), (s,), settings)
    return peaks[settings]


def sup_h(s: Subsystem, settings: OracleSettings) -> float:
    """Largest value of h over the safety set (the depth of the set)."""
    return -_peak_h(s, settings).value


def argmax_h(s: Subsystem, settings: OracleSettings) -> tuple[float, ...]:
    """Grid point of the safety set where h peaks; axes h ignores sit at
    their box midpoints.  Used as the deepest-interior default start."""
    peak = dict(_peak_h(s, settings).arg)
    return tuple(peak.get(n, 0.5 * (lo + hi)) for n, (lo, hi) in zip(s.state_vars, s.state_box))


def min_offline_drift(s: Subsystem, settings: OracleSettings,
                      participants=None, coupling: Expression = _ZERO) -> Extremum:
    """min over the safety set and the input box of grad h . (f + g u)."""
    return drift_minimum(s, SAFE_SET, settings, False, None, participants, coupling)


def min_recovery_drift(s: Subsystem, d: float, settings: OracleSettings,
                       participants=None, coupling: Expression = _ZERO) -> Extremum:
    """min of the closed-loop drift over the band 0 <= h < d."""
    return drift_minimum(s, safe_minus_buffer(d), settings, True, None, participants, coupling)


def min_invariance_margin(s: Subsystem, d: float, z: float, settings: OracleSettings,
                          participants=None, coupling: Expression = _ZERO) -> Extremum:
    """min over h >= d of closed-loop drift + z * max(h - d, 0)."""
    return drift_minimum(s, buffer_region(d), settings, True, z, participants, coupling)
