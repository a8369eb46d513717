"""Dense-grid extremum oracle over box regions.

Every quantity the index computations need (worst-case drifts, band minima,
the peak of the safety function) is a minimum of a continuous function over
a box, possibly restricted by safety-function inequalities; a maximum is
the minimum of the negation.  ``grid_minimize`` is the one scan: it
evaluates an objective on an axis-aligned grid with vectorized numpy
broadcasting, then shrinks the box around the incumbent for a fixed number
of refinement rounds.

An objective is a sum of ``Term``s: callables that each declare the axes
they read, added left to right.  The region is a conjunction of factors,
each a mask over its own axes.  An axis that one term reads, and no factor,
is minimized out of that term before the terms are added.  So are the axes
of a factor other than the first that one term reads, and no other factor:
the term is minimized over them at the grid points where the factor holds
(a coupling source, under its own safety set, minimized out of its own
coupling term).  A scan costs the grid of the axes the terms share, not the
product of all axes.  Rounded addition is monotone in each operand, so this
gives the same values and the same minimizer as the full grid.

A term may also name eliminated axes along which its value is monotone
(``exprs.monotone_variables`` proves it for a compiled tree).  Such an axis
is evaluated at its first and last grid points only, and the minimum along
it lies at one of them: a term over m of them costs 2^m points, not n^m.
Under a factor, the first and last points of each line where the factor
holds are evaluated as well, and the minimum over the line in the factor
lies at one of them.  The rule is exact, not approximate.  Where both ends
are finite, every point between is finite and raises no error, and a
nonzero minimum has one bit pattern.  So the full line is evaluated
instead wherever a value at the ends is not finite (a nan, -inf or error
between them shows as it would) or the minimum at the ends is 0 (the line
may hold both -0.0 and 0.0, and the reduction's choice depends on where
they lie).  The coordinates of the winner on the eliminated axes still come
from full scans of its lines, one axis at a time.

A scan enters numpy's error state once (``exprs.ERRSTATE``) and runs its
terms' raw generated functions inside it (``CompiledExpression.run``), which
name a division by zero by the term's expression.  Its plan, with the rows
of a chunk, is made once.  A round shapes its bindings once, for the
eliminated factors' masks, the terms and the checked factors, and its fold
evaluates each term once and keeps each term's value at the points that
attain the round's best.  A round's point on the eliminated axes is
completed only when the round lowers the incumbent: the completion reads
every term from the round's fold and evaluates only the owner of each
eliminated axis (the one term whose group holds it), once, over the
candidates and its group, and the terms that a round-0 stand-in summed
(``_round0_terms``).  The last round leaves the box as it is.  A network
compiles its coupling drifts once (``Network.coupling_drifts``), and a
subsystem's closed-loop drift on its own is folded on the round-0 grid once
per grid size (``_drift_fold``), which ``depth_profile`` and the recovery
and invariance scans read as their round 0.

``StateGrid`` lays the axes out over the state variables that the terms
and the safety functions read, for one subsystem or several coupled ones,
and is private to this module.  Every compiled function of a subsystem
(``h``, ``mu``, ``lf``, ``lg``) takes exactly the variables it reads, so
``StateGrid.term`` binds one by its names, and a variable that no function
reads has no axis.  ``StateGrid.minimize``, the one caller of
``grid_minimize``, scans where each subsystem lies in its safety set and a
target in a ``Region`` (an interval of its h values), one factor per
subsystem with the target's first, and returns an ``Extremum`` whose
witness ``arg`` is (name, value) pairs in axis order.  It serves two
queries.  ``minimum`` minimizes a sum of expressions over the product of
subsystems' safety sets; ``sup_h`` and ``argmax_h`` are its minimum of -h,
scanned once per subsystem and settings.  ``drift_minimum`` builds the
drift objectives from the drift layer (``lf``, ``lg``, see ``subsystem``)
as terms: one coupling term per source, ``lf``, one per input (worst
input-box vertex, which ends the witness, or closed loop), and an optional
``z max(h - lo, 0)``.  The three index-condition queries call it:
``min_offline_drift``, ``min_recovery_drift`` and
``min_invariance_margin``, which take a network's participants and
coupling drifts; so does the verifier, to learn whether h goes below d
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

from .exprs import ERRSTATE, CompiledExpression, Negate, _is_zero
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


def _kept_axes(terms, factors, ndim: int) -> tuple[int, ...]:
    """The axes a scan keeps, in axis order.  An axis that one term reads,
    and no factor, is minimized out of that term before the terms are added.
    So are the axes of a factor after the first that one term reads, and no
    other factor: that term is minimized over them where the factor holds (a
    coupling source under its own safety set).  The first factor's axes
    stay, and so does one axis at least, because the scan is chunked along
    the first axis it keeps."""
    readers = [{i for i, t in enumerate(terms) if a in t.reads} for a in range(ndim)]
    owned = [sum(a in f.reads for f in factors) for a in range(ndim)]
    kept = set(factors[0].reads) if factors else set()
    for f in factors[1:]:
        users = set().union(*(readers[a] for a in f.reads))
        if len(users) != 1 or any(owned[a] > 1 for a in f.reads):
            kept |= f.reads
    kept |= {a for a in range(ndim) if not owned[a] and len(readers[a]) != 1}
    if not kept:
        kept = {0}.union(*(f.reads for f in factors if 0 in f.reads))
    return tuple(sorted(kept))


class _Plan(NamedTuple):
    """A scan's split of its axes (_kept_axes): per term, the eliminated
    axes it reads and the eliminated factors it is minimized under, and with
    them its group, the eliminated axes it is minimized over; the factors
    checked on the kept grid; and the rows of the first kept axis per chunk
    at n points per axis (_rows_per_chunk), the same in every round."""

    kept: tuple
    elim: tuple
    under: tuple
    groups: tuple
    checked: tuple
    rows: int


def _plan(terms, factors, ndim: int, n: int) -> _Plan:
    kept = _kept_axes(terms, factors, ndim)
    gone = [i for i, f in enumerate(factors) if not f.reads <= set(kept)]
    under = tuple(tuple(i for i in gone if factors[i].reads & t.reads) for t in terms)
    elim = tuple(tuple(sorted(t.reads - set(kept))) for t in terms)
    return _Plan(kept, elim, under,
                 tuple(set(e).union(*(factors[i].reads for i in u)) for e, u in zip(elim, under)),
                 tuple(i for i in range(len(factors)) if i not in gone),
                 _rows_per_chunk(terms, kept, elim, under, n))


def _masks(factors, plan: _Plan, bindings):
    """The eliminated factors' masks on one round's bindings, each over its
    own axes; and per term, the conjunction of those it is minimized under,
    projected (any) onto the eliminated axes it reads, or None."""
    ndim = len(bindings)
    full = {}
    for i in sorted({i for u in plan.under for i in u}):
        m = np.asarray(factors[i].fn(bindings), dtype=bool)
        full[i] = m.reshape((1,) * (ndim - m.ndim) + m.shape)
    per_term = []
    for elim, under in zip(plan.elim, plan.under):
        m = None
        for i in under:
            axes = tuple(a for a in factors[i].reads if a not in elim)
            p = full[i].any(axis=axes, keepdims=True) if axes else full[i]
            m = p if m is None else m & p
        per_term.append(m)
    return full, per_term


def _fold(terms, bindings, elim, masks):
    """The terms' values at the bindings, each term that reads eliminated
    axes minimized over them where its mask holds (_term_minimum), and
    their left-to-right sum.  A term value of nan or -inf anywhere on the
    bindings raises FloatingPointError; +inf is allowed.  With no term at
    -inf, no sum is inf + -inf unless finite values overflow (_scan_chunk
    raises there), so the eliminated sum has the minimum of the full one.
    Under the scan's error state (exprs.ERRSTATE), overflow and invalid
    operations in the terms and the sum are not warned about: they give the
    values that raise."""
    values, total = [], None
    for t, e, m in zip(terms, elim, masks):
        v = _term_minimum(t, bindings, e, m) if e else np.asarray(t.fn(bindings), dtype=float)
        low = v.min()
        if not low > -math.inf:  # the min propagates nan
            raise FloatingPointError(f"objective produced {low} on the grid")
        values.append(v)
        total = v if total is None else total + v
    return values, total


def _term_minimum(t: Term, bindings, elim, mask) -> np.ndarray:
    """t at the bindings, minimized over the axes elim where mask holds
    (None: everywhere), keepdims.  A line through them that holds nan or
    -inf, in the mask or not, has that value instead, so _fold raises as the
    full scan would.  The axes among them that t is monotone in are bound to
    their first and last grid points only, where the minimum along each
    lies; the first of them along which mask varies, to the first and last
    points of each line in the mask as well.  Lines through a point of the
    other axes where a value at those points is not finite, or where the
    minimum is 0, are evaluated in full instead: the full line can hold -0.0
    and 0.0, and which of them the reduction returns depends on where they
    lie.  So the result is the full minimum bit for bit, and an error on the
    full grid is raised as it would be."""
    ndim = len(bindings)

    def values(b):
        v = np.asarray(t.fn(b), dtype=float)
        return v.reshape((1,) * (ndim - v.ndim) + v.shape)

    def least(v, m):
        low = v.min(axis=elim, keepdims=True)
        if m is None:
            return low
        v = np.broadcast_to(v, np.broadcast_shapes(v.shape, m.shape))
        inside = v.min(axis=elim, keepdims=True, where=m, initial=math.inf)
        return np.where(low > -math.inf, inside, low)

    ends = [i for i in elim if i in t.monotone]
    if not ends:
        return least(values(bindings), mask)
    part, m = list(bindings), mask
    for i in ends:
        if m is None or m.shape[i] == 1:
            part[i] = np.take(bindings[i], [0, -1], axis=i)
        elif m is mask:  # grid ends, then the ends of each line in the mask
            first = m.argmax(axis=i, keepdims=True)
            last = m.shape[i] - 1 - np.flip(m, axis=i).argmax(axis=i, keepdims=True)
            at = np.concatenate([np.zeros_like(first), first, last,
                                 np.full_like(first, m.shape[i] - 1)], axis=i)
            part[i], m = bindings[i].reshape(-1)[at], np.take_along_axis(m, at, axis=i)
    raw = values(part)
    v = least(raw, m)
    redo = (v == 0) | ~np.isfinite(raw).all(axis=elim, keepdims=True)
    if redo.any():
        # Full lines in slabs along one kept axis, each slab in _CHUNK_BUDGET.
        kept = [a for a in range(ndim) if a not in elim]
        axis = next((a for a in kept if v.shape[a] > 1), kept[0])
        sel = np.flatnonzero(redo.any(axis=tuple(a for a in range(ndim) if a != axis)))
        line = math.prod(bindings[i].shape[i] for i in elim)
        step = max(1, _CHUNK_BUDGET // (line * v.size // v.shape[axis]))
        for lo in range(0, sel.size, step):
            rows, part = sel[lo:lo + step], list(bindings)
            part[axis] = np.take(bindings[axis], rows, axis=axis)
            v[(slice(None),) * axis + (rows,)] = least(values(part), mask)
    return v


def _slab_values(terms, plan: _Plan, bindings, masks):
    """The terms' values on one slab and their sum over its kept axes, the
    rest minimized out of their terms (see _fold for the non-finite rule)."""
    shape = tuple(b.shape[a] if a in plan.kept else 1 for a, b in enumerate(bindings))
    values, total = _fold(terms, bindings, plan.elim, masks)
    return values, total if total.shape == shape else np.broadcast_to(total, shape)


def _scan_chunk(terms, factors, plan: _Plan, bindings, masks, empty: bool):
    """Evaluate one slab and return its best value over the kept axes, with
    the kept coordinates (index arrays in kept order) of the points of the
    region that attain it and each term's value in the fold at them; None
    when the slab holds no point of the region, as when empty.  The best
    value is +inf when every point of the region has it."""
    values, vals = _slab_values(terms, plan, bindings, masks)
    if empty:
        return None
    mask = None
    for i in plan.checked:
        m = factors[i].fn(bindings)
        mask = m if mask is None else mask & m
    if mask is not None:
        if not np.any(mask):
            return None
        vals = np.where(mask, vals, np.inf)
    flat = int(vals.argmin())  # C order: the value of the lexicographically first point
    best = float(vals.flat[flat])
    if not best > -math.inf:  # finite terms whose sum overflowed
        raise FloatingPointError(f"objective produced {best} on the grid")
    flat = np.flatnonzero(vals == best) if best < math.inf else [flat]
    hits = np.unravel_index(flat, vals.shape)
    return (best, [hits[a] for a in plan.kept],
            [(v if v.shape == vals.shape else np.broadcast_to(v, vals.shape)).flat[flat]
             for v in values])


def grid_minimize(objective, axes, predicate, settings: OracleSettings, first=None):
    """Minimize objective over the box spanned by axes.

    objective is a sequence of Terms whose sum is minimized; predicate is
    None, a Term whose value is the region mask, or a sequence of such
    Terms over disjoint axes, the factors of a region that is their
    conjunction (_kept_axes says which are minimized out of a term).  Each
    term receives a list of broadcast-shaped arrays, one per axis, in axis
    order, and runs under np.errstate(**ERRSTATE), entered once per scan.
    first, a _Fold of the leading terms on the round-0 grid, stands for
    their evaluation in round 0 where it applies (_round0_terms).
    Returns (value, arg) where arg is a tuple of coordinates in axis order.
    A point valued +inf is no candidate.  When the initial grid holds no
    point of the region, raises EmptyRegionError; when it holds some, all
    valued +inf, FloatingPointError.  nan and -inf raise (see _fold).
    """
    terms = list(objective)
    factors = ([] if predicate is None else [predicate] if isinstance(predicate, Term)
               else list(predicate))
    with np.errstate(**ERRSTATE):
        if not axes:
            if not all(f.fn([]) for f in factors):
                raise EmptyRegionError("region contains no grid point")
            _, total = _fold(terms, [], [()] * len(terms), [None] * len(terms))
            return float(np.asarray(total, dtype=float).reshape(())), ()
        n, last = settings.grid_points_per_dim, settings.refinement_rounds
        plan = _plan(terms, factors, len(axes), n)
        bounds = [(float(lo), float(hi)) for lo, hi in axes]
        orig = list(bounds)
        incumbent_val = math.inf
        incumbent_arg = None
        for round_no in range(last + 1):
            grids = [np.linspace(lo, hi, n) for lo, hi in bounds]
            scan_terms, scan_plan = terms, plan
            if round_no == 0 and first is not None:
                scan_terms, scan_plan = _round0_terms(first, terms, plan, n)
            found = _scan_round(scan_terms, factors, scan_plan, grids)
            if round_no == 0 and found is None:
                raise EmptyRegionError("region contains no grid point")
            if round_no == 0 and found.best == math.inf:
                raise FloatingPointError("objective is +inf at every grid point of the region")
            # Only a round that lowers the incumbent needs its witness.
            if found is not None and found.best < incumbent_val:
                incumbent_val = found.best
                if scan_terms is not terms:  # the fold holds the stand-in's sum, not its terms
                    found = found._replace(values=[None] * (len(terms) - len(scan_terms) + 1)
                                           + found.values[1:])
                incumbent_arg = _complete(terms, plan, grids, found)
            if round_no < last:
                bounds = _shrink(orig, bounds, incumbent_arg, n)
    return incumbent_val, incumbent_arg


class _Fold(NamedTuple):
    """The sum of a scan's leading terms on its round-0 grid, as
    _slab_values gives it, with the plan they were folded under and h on
    that grid."""

    plan: _Plan
    total: np.ndarray
    h: np.ndarray


def _round0_terms(first: _Fold, terms, plan: _Plan, n: int):
    """terms and plan for round 0, the leading terms that first folded
    replaced by one Term over the kept axes that returns their sum.  Only
    where that sum is what round 0 would fold: first was folded under this
    plan and in one chunk, as this round is, and holds no -inf (_fold would
    raise at one outside the region, where the scan does not)."""
    k = len(first.plan.elim)
    if (first.plan.kept != plan.kept or first.plan.elim != plan.elim[:k]
            or plan.rows < n or not first.total.min() > -math.inf):
        return terms, plan
    total = first.total
    return ([Term(lambda b: total, frozenset(plan.kept)), *terms[k:]],
            plan._replace(elim=((),) + plan.elim[k:], under=((),) + plan.under[k:],
                          groups=(set(),) + plan.groups[k:]))


class _Round(NamedTuple):
    """One round's best value, with what _complete needs for its point: the
    eliminated factors' masks on the round's grid, the kept coordinates of
    the points that attain best (index arrays in kept order, in C order),
    and each term's value in the round's fold at them (its minimum over its
    group, or its value where it has none)."""

    best: float
    full: dict
    cands: list
    values: list


def _scan_round(terms, factors, plan: _Plan, grids):
    """The best value on one grid as a _Round, scanning the kept axes in
    chunks of plan.rows along the first; None when the grid holds no point
    of the region.  The round shapes its bindings once, and the eliminated
    factors' masks, the terms and the checked factors all read them (a
    chunk replaces its slice of the first kept axis), so the masks are
    built on this grid as the full scan would build the region.  Each term
    is evaluated once, in the fold, and the fold's values at the points
    that attain best are all a completion reads of a term it does not
    evaluate."""
    ndim, axis = len(grids), plan.kept[0]
    bindings = [_shaped(g, i, ndim) for i, g in enumerate(grids)]
    full, masks = _masks(factors, plan, bindings)
    empty = not all(m.any() for m in full.values())
    size, rows = grids[axis].size, plan.rows
    best, hits = None, []
    for lo in range(0, size, rows):
        part = bindings
        if rows < size:
            part = list(bindings)
            part[axis] = _shaped(grids[axis][lo:lo + rows], axis, ndim)
        r = _scan_chunk(terms, factors, plan, part, masks, empty)
        if r is None:
            continue
        value, cands, values = r
        # Strict <, in chunk order: the value of the C-order first point stands.
        if best is None or value < best:
            best, hits = value, []
        if value == best:
            hits.append([cands[0] + lo, *cands[1:], *values])
    if best is None:
        return None
    cols = hits[0] if len(hits) == 1 else [np.concatenate(c) for c in zip(*hits)]
    k = len(plan.kept)
    return _Round(best, full, cols[:k], cols[k:])


def _complete(terms, plan: _Plan, grids, found: _Round):
    """The first point in C order of the region where the sum of the terms
    is found.best, among the points whose kept coordinates are one of
    found.cands.  The axes are taken in order.  At a kept axis, the
    candidates with the smallest index stay.  At an eliminated axis, the
    smallest index at which a candidate still reaches best, the eliminated
    axes after it free, is taken, and the candidates that reach it there
    stay.  Rounded addition is monotone, so a candidate reaches best at an
    index when the sum of the terms, each minimized over its free
    eliminated axes where its factors (found.full) hold, is best there.

    Each term enters at its value in the round's fold (found.values), its
    minimum over its whole group.  Only the term whose group holds an
    eliminated axis depends on it, so that owner is the one term evaluated,
    once, over the candidates and its group, at the first of its axes
    (_first_point); a term the fold does not hold (None: one that a
    round-0 stand-in summed) is evaluated over the candidates first.  More
    than one candidate are split into runs whose arrays fit _CHUNK_BUDGET,
    and the first of the runs' points is taken.  The points evaluated are
    the fold's, or lie on monotone lines between finite ends
    (_term_minimum), so no error is left for this to raise."""
    ndim = len(grids)
    at, values = dict(zip(plan.kept, found.cands)), found.values
    start = next((a for a in range(ndim) if a not in at), ndim)
    for a in range(start):
        if at[a].size > 1:
            keep = at[a] == at[a].min()
            at = {e: v[keep] for e, v in at.items()}
            values = [v if v is None else v[keep] for v in values]
    if start == ndim:
        first = tuple(int(at[a][0]) for a in range(ndim))
    else:
        runs, size = [(at, values)], at[plan.kept[0]].size
        if size > 1:
            step = max(1, _CHUNK_BUDGET // sum(math.prod(grids[e].size for e in g)
                                               for g in plan.groups))
            runs = [({e: v[lo:lo + step] for e, v in at.items()},
                     [v if v is None else v[lo:lo + step] for v in values])
                    for lo in range(0, size, step)]
        first = min(_first_point(terms, plan, grids, found, *run, start) for run in runs)
    return tuple(float(g[i]) for g, i in zip(grids, first))


def _first_point(terms, plan: _Plan, grids, found: _Round, at, values, start):
    """_complete's point as grid indices, for the candidates at (index
    arrays by kept axis) with the terms' fold values at them, from axis
    start, the first eliminated one.  The candidates lie along the first
    kept axis of every array.  Each owner term is evaluated at its first
    eliminated axis, on the candidates left there."""
    ndim, k0 = len(grids), plan.kept[0]
    owner = {e: t for t, group in enumerate(plan.groups) for e in group}
    vals, masks, free = [None] * len(terms), [None] * len(terms), [set(g) for g in plan.groups]

    def evaluate(t):
        """Term t over the candidates and its group, broadcast over the
        masks of the factors it is minimized under."""
        b = [_shaped(grids[e][at[e]], k0, ndim) if e in at else _shaped(grids[e], e, ndim)
             for e in range(ndim)]
        v = np.asarray(terms[t].fn(b), dtype=float)
        v = v.reshape((1,) * (ndim - v.ndim) + v.shape)
        m = None
        for i in plan.under[t]:
            m = found.full[i] if m is None else m & found.full[i]
        if m is not None:
            v = np.broadcast_to(v, np.broadcast_shapes(v.shape, m.shape))
        vals[t], masks[t] = v, m

    def least(t, skip=None):
        """Term t minimized over its free axes but skip, where its factors hold."""
        axes = tuple(e for e in free[t] if e != skip)
        if masks[t] is not None:
            return vals[t].min(axis=axes, keepdims=True, where=masks[t], initial=math.inf)
        return vals[t].min(axis=axes, keepdims=True) if axes else vals[t]

    low = []  # each term minimized over its free axes, per candidate
    for t, v in enumerate(values):
        if v is None:
            evaluate(t)
            v = least(t)
        else:
            v = _shaped(v, k0, ndim)
        low.append(v)
    fixed = {}
    for a in range(start, ndim):
        if a in at:
            keep = None if at[a].size == 1 else at[a] == at[a].min()
        else:
            t = owner[a]
            if vals[t] is None:
                evaluate(t)
            w = least(t, a)
            total = None
            for u in range(len(terms)):
                v = w if u == t else low[u]
                total = v if total is None else total + v
            # Only axes k0 and a are left in total: one row per candidate.
            hit = total <= found.best
            rows, n = hit.shape[k0], hit.shape[a]
            hit = hit.reshape(rows, n) if k0 < a else hit.reshape(n, rows).T
            first = np.where(hit.any(axis=1), hit.argmax(axis=1), grids[a].size)
            fixed[a] = k = int(first.min())
            keep = None if first.size == 1 else np.broadcast_to(first == k, at[k0].shape)
            at_k = (slice(None),) * a + (slice(k, k + 1),)
            vals[t], masks[t], low[t] = (x if x is None or x.shape[a] == 1 else x[at_k]
                                         for x in (vals[t], masks[t], w))
            free[t].discard(a)
        if keep is not None and not keep.all():
            at = {e: v[keep] for e, v in at.items()}
            vals, low = ([v if v is None or v.shape[k0] == 1 else np.compress(keep, v, axis=k0)
                          for v in vs] for vs in (vals, low))
    return tuple(int(at[a][0]) if a in at else fixed[a] for a in range(ndim))


def _rows_per_chunk(terms, kept, elim, under, n: int) -> int:
    """Rows of the first kept axis per chunk that keep a chunk's arrays in
    _CHUNK_BUDGET at n points per axis.  An eliminated axis that a term is
    monotone in counts as its 2 endpoints, or 4 under a factor, whose
    mask's ends are added."""
    axis = kept[0]
    per_row = max([n ** (len(kept) - 1)]
                  + [math.prod((4 if u else 2) if a in e and a in t.monotone else n
                               for a in t.reads if a != axis)
                     for t, e, u in zip(terms, elim, under) if axis in t.reads])
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
        on shaped bindings or a grid point in axis order.  It runs raw, under
        the scan's error state, its errors named by its source."""
        slots, run = [self.slots[n] for n in fn.names], fn.run
        return Term(lambda b: run(*[b[i] for i in slots]), frozenset(slots),
                    frozenset(self.slots[n] for n in fn.monotone))

    def minimize(self, terms, settings: OracleSettings, target: Subsystem | None = None,
                 region: Region = SAFE_SET, first: _Fold | None = None) -> Extremum:
        """Minimize the sum of terms over the grid points where every
        subsystem lies in its safety set and target in region.  Each
        subsystem's set is one factor of the region, target's first (else the
        first subsystem's), so that a subsystem after it whose axes one term
        reads is minimized out of that term under its own set (_kept_axes).
        first is handed to grid_minimize.  The witness names the axes in
        axis order.  A scan too large for memory raises MemoryError naming
        the axes and the grid."""
        factors = []
        for s in sorted(self.subsystems, key=lambda s: s is not target):
            h, r = self.term(s.compiled.h), region if s is target else SAFE_SET
            factors.append(Term(lambda b, h=h.fn, r=r: r.contains(h(b), MARGIN_TOLERANCE),
                                h.reads))
        try:
            value, arg = grid_minimize(terms, self.axes, factors, settings, first)
        except MemoryError:
            raise MemoryError(f"a scan over the axes {', '.join(self.axis_names)} at "
                              f"{settings.grid_points_per_dim} points each does not fit in "
                              "memory; lower --grid") from None
        return Extremum(value, tuple(zip(self.axis_names, arg)))


def minimum(exprs, subsystems, settings: OracleSettings,
            target: Subsystem | None = None) -> Extremum:
    """Minimize the sum of exprs (trees, or their compile_reads), added left
    to right, over the product of the subsystems' safety sets.  A subsystem
    other than target whose axes one of exprs reads is minimized out of it
    under its own set."""
    fns = [_compiled(e) for e in exprs]
    grid = StateGrid(subsystems, {n for fn in fns for n in fn.names})
    return grid.minimize([grid.term(fn) for fn in fns], settings, target)


def _compiled(e):
    """e compiled over the variables it reads, unless it is compiled already
    (a network holds its coupling drifts compiled)."""
    return e if isinstance(e, CompiledExpression) else compile_reads(e)


# -- objectives over the drift layer --------------------------------------------

def _drift_terms(s: Subsystem, participants, closed_loop: bool, couplings):
    """The grid of a drift scan of h_s and its terms: one per coupling
    source (a zero tree adds none), lf, then one per input, reading the
    variables its compiled functions take; with the lg terms, for the
    input-vertex witness."""
    comp = s.compiled
    fns = [_compiled(c) for c in couplings if not _is_zero(c)] + [comp.lf]
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
                  participants=None, couplings=()) -> Extremum:
    """Minimize the drift of h_s, sum_i c_i + lf + sum_k lg_k u_k, over
    region (with every other participant in its safety set), where c_i is
    the coupling drift grad h_s . W_is from source i, a tree or its
    compile_reads (Network.coupling_drifts).  u is the clamped
    feedback law when closed_loop, else the worst input-box vertex at each
    grid point, reconstructed at the minimizer for the witness; z adds
    z max(h - region.lo, 0), which is z (h - lo) on the region save where
    the MARGIN_TOLERANCE slack admits h just below lo.  The sum is handed
    to the grid as Terms in that order."""
    grid, terms, lg = _drift_terms(s, participants, closed_loop, couplings)
    # On its own, the closed-loop drift is lf and the input terms, folded
    # once per grid size (_drift_fold): round 0 reads that fold.
    alone = closed_loop and grid.subsystems == (s,) and len(terms) == 1 + s.n_inputs
    first = _drift_fold(s, settings) if alone else None
    if z is not None:
        h = grid.term(s.compiled.h)
        terms.append(Term(lambda b: z * np.maximum(h.fn(b) - region.lo, 0.0), h.reads))

    ex = grid.minimize(terms, settings, s, region, first)
    point = [v for _, v in ex.arg]
    with np.errstate(**ERRSTATE):
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


def _drift_fold(s: Subsystem, settings: OracleSettings) -> _Fold | None:
    """The round-0 fold of the closed-loop drift of s on its own (lf, then
    the input terms, over its StateGrid), once per subsystem and grid size
    (round 0 does not depend on the refinement rounds): depth_profile, and
    the recovery and invariance scans as their round 0, read it.  None when
    that grid takes more than one chunk."""
    folds, n = s.compiled.folds, settings.grid_points_per_dim
    if n not in folds:
        grid, terms, _ = _drift_terms(s, None, True, ())
        # The region's one factor is h: its axes are kept, and the z term
        # reads no other, so the scans add it last under the same plan.
        h = grid.term(s.compiled.h)
        ndim = len(grid.axes)
        plan = _plan(terms, [h], ndim, n)
        fold = None
        if plan.rows >= n:
            bindings = [_shaped(np.linspace(float(lo), float(hi), n), i, ndim)
                        for i, (lo, hi) in enumerate(grid.axes)]
            with np.errstate(**ERRSTATE):
                _, total = _slab_values(terms, plan, bindings, [None] * len(terms))
                fold = _Fold(plan, total, np.broadcast_to(
                    np.asarray(h.fn(bindings), dtype=float), total.shape))
        folds[n] = fold
    return folds[n]


def depth_profile(s: Subsystem, z: float, settings: OracleSettings) -> DepthProfile | None:
    """The profile of every depth's recovery and invariance scan from their
    round-0 fold (_drift_fold): the same StateGrid, Terms, left-to-right
    _fold and axis elimination.  None, and the depths are scanned one by
    one, when that grid takes more than one chunk, or when D is nan or -inf
    at a point of the safety set, where a scan raises."""
    fold = _drift_fold(s, settings)
    if fold is None:
        return None
    safe = SAFE_SET.contains(fold.h, MARGIN_TOLERANCE)
    hv, drift = fold.h[safe], fold.total[safe]
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
        peaks[settings] = minimum([Negate(s.h)], (s,), settings)
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
                      participants=None, couplings=()) -> Extremum:
    """min over the safety set and the input box of grad h . (f + g u)."""
    return drift_minimum(s, SAFE_SET, settings, False, None, participants, couplings)


def min_recovery_drift(s: Subsystem, d: float, settings: OracleSettings,
                       participants=None, couplings=()) -> Extremum:
    """min of the closed-loop drift over the band 0 <= h < d."""
    return drift_minimum(s, safe_minus_buffer(d), settings, True, None, participants, couplings)


def min_invariance_margin(s: Subsystem, d: float, z: float, settings: OracleSettings,
                          participants=None, couplings=()) -> Extremum:
    """min over h >= d of closed-loop drift + z * max(h - d, 0)."""
    return drift_minimum(s, buffer_region(d), settings, True, z, participants, couplings)
