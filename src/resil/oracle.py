"""Dense-grid extremum oracle over box regions.

Every quantity the index computations need (worst-case drifts, band minima,
the peak of the safety function) is a minimum or maximum of a continuous
function over a box, possibly restricted by safety-function inequalities.
``grid_minimize`` is the one scan: it evaluates an objective on an
axis-aligned grid with vectorized numpy broadcasting, then shrinks the box
around the incumbent for a fixed number of refinement rounds.

An objective is one callable, or a sum of ``Term``s: callables that each
declare the axes they read, added left to right.  A trailing axis that one
term reads, and no region, is minimized out of that term before the terms
are added, so a scan costs the grid of the axes the terms share, not the
product of all axes.  Rounded addition is monotone in each operand, so
this gives the same values and the same minimizer as the full grid.

``StateGrid`` lays the axes out over the state variables an objective
reads, for one subsystem or several coupled ones.  ``StateGrid.minimize``,
the one caller of ``grid_minimize``, scans it where each subsystem lies in
its safety set and a target in a ``Region`` (an interval of its h values).
``drift_minimum`` builds the drift objectives from the drift layer (``lf``,
``lg``, see ``subsystem``) as terms: coupling, ``lf``, one per input (worst
input-box vertex or closed loop), and an optional ``z (h - lo)``.

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

from .exprs import _ZERO, Expression, _is_zero, free_variables
from .subsystem import (
    SAFE_SET,
    Region,
    Subsystem,
    buffer_region,
    compile_reads,
    safe_minus_buffer,
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
    arg: tuple[float, ...]
    rigor: str = "sampled"


class Term(NamedTuple):
    """A callable over the bindings and the positions of the axes it reads.
    The value must not depend on any other axis."""

    fn: Callable
    reads: frozenset


def _as_term(fn, ndim: int) -> Term:
    """fn itself if it is a Term, else a term reading every axis."""
    return fn if isinstance(fn, Term) else Term(fn, frozenset(range(ndim)))


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
    an axis from k on minimized over those axes first."""
    ndim = len(bindings)
    total = None
    for t in terms:
        v = t.fn(bindings)
        if any(i >= k for i in t.reads):
            v = np.asarray(v, dtype=float)
            v = v.reshape((1,) * (ndim - v.ndim) + v.shape)
            v = v.min(axis=tuple(range(k, ndim)), keepdims=True)
        total = v if total is None else total + v
    return total


def _scan_chunk(terms, predicate, grids, k):
    """Evaluate one slab (a slice along axis 0) and return its best point
    over the first k axes.  Values, mask and argmin live on those axes; the
    rest are minimized out of their terms (see _fold).  Where that sum is
    finite, every term is finite at the minimizing points, so the full grid
    holds no nan and has the same minimum.  Elsewhere the slab is scanned
    again with nothing eliminated, so nan and inf behave exactly as on the
    full grid."""
    ndim = len(grids)
    shape = tuple(g.size for g in grids[:k]) + (1,) * (ndim - k)
    bindings = [_shaped(g, i, ndim) for i, g in enumerate(grids)]
    vals = np.broadcast_to(np.asarray(_fold(terms, bindings, k), dtype=float), shape)
    if k < ndim and not np.isfinite(vals).all():
        return _scan_round(terms, predicate, grids, ndim)
    if np.isnan(vals).any():
        raise FloatingPointError("objective produced nan on the grid")
    if predicate is not None:
        mask = np.broadcast_to(predicate.fn(bindings), shape)
        if not mask.any():
            return None
        vals = np.where(mask, vals, np.inf)
    flat = int(np.argmin(vals))  # C order: ties pick the lexicographically first point
    best = float(vals.flat[flat])
    if not np.isfinite(best):
        return None if predicate is not None else _raise_nonfinite(best)
    idx = np.unravel_index(flat, shape)
    return best, tuple(float(g[i]) for g, i in zip(grids[:k], idx))


def _raise_nonfinite(v):
    raise FloatingPointError(f"objective produced {v} on the grid")


def grid_minimize(objective, axes, predicate, settings: OracleSettings):
    """Minimize objective over the box spanned by axes.

    objective is a callable or a sequence of Terms whose sum is minimized;
    predicate is None, a callable or a Term.  Each receives a list of
    broadcast-shaped arrays, one per axis, in axis order; a plain callable
    reads every axis.  Returns (value, arg) where arg is a tuple of
    coordinates in axis order.  Raises EmptyRegionError when the predicate
    rejects the entire initial grid.
    """
    ndim = len(axes)
    terms = [_as_term(objective, ndim)] if callable(objective) else list(objective)
    if predicate is not None:
        predicate = _as_term(predicate, ndim)
    if not axes:
        vals = np.asarray(_fold(terms, [], 0), dtype=float).reshape(())
        return float(vals), ()
    k = _kept_axes(terms, predicate, ndim)
    n = settings.grid_points_per_dim
    bounds = [(float(lo), float(hi)) for lo, hi in axes]
    orig = list(bounds)
    incumbent_val = math.inf
    incumbent_arg = None
    for round_no in range(settings.refinement_rounds + 1):
        grids = [np.linspace(lo, hi, n) for lo, hi in bounds]
        best = _scan_round(terms, predicate, grids, k)
        if best is None:
            if round_no == 0:
                raise EmptyRegionError("region contains no grid point")
        else:
            val, coords = best
            if val < incumbent_val or incumbent_arg is None:
                incumbent_val, incumbent_arg = val, coords
        if incumbent_arg is None:
            raise EmptyRegionError("region contains no grid point")
        bounds = _shrink(orig, bounds, incumbent_arg, n)
    return incumbent_val, incumbent_arg


def _scan_round(terms, predicate, grids, k):
    """Best (value, point) on one grid, scanning the first k axes in chunks
    along axis 0; the coordinates on the eliminated axes are found for the
    winner alone."""
    axis0 = grids[0]
    sizes = [g.size for g in grids]
    per_row = max([math.prod(sizes[1:k])]
                  + [math.prod(sizes[i] for i in t.reads if i) for t in terms if 0 in t.reads])
    rows_per_chunk = max(1, _CHUNK_BUDGET // per_row)
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


def _shrink(orig, bounds, arg, n):
    new = []
    for (olo, ohi), (lo, hi), center in zip(orig, bounds, arg):
        step = (hi - lo) / (n - 1)
        half = max(2.0 * step, 1e-15 * max(1.0, abs(center)))
        nlo = max(olo, center - half)
        nhi = min(ohi, center + half)
        if nlo >= nhi:
            nlo, nhi = lo, hi
        new.append((nlo, nhi))
    return new


# -- grids over the variables an objective reads ------------------------------

class StateGrid:
    """Axes for the needed state variables of one or more subsystems, with
    every other state variable frozen at its box midpoint.  Pruning an axis
    the objective and the regions ignore leaves the grid minimum unchanged."""

    def __init__(self, subsystems, needed):
        needed = set(needed).union(*(free_variables(s.h) for s in subsystems))
        self.subsystems = tuple(subsystems)
        self.axis_names: list[str] = []
        self.axes: list[tuple[float, float]] = []
        self.slots: dict[str, object] = {}
        for s in self.subsystems:
            for name, (lo, hi) in zip(s.state_vars, s.state_box):
                if name in needed:
                    self.slots[name] = len(self.axes)
                    self.axis_names.append(name)
                    self.axes.append((lo, hi))
                else:
                    self.slots[name] = 0.5 * (lo + hi)

    def values(self, names, bindings) -> list:
        """Values of the named variables at shaped bindings or at a grid point
        in axis order; pruned variables give their midpoints."""
        slots = [self.slots[n] for n in names]
        return [bindings[slot] if isinstance(slot, int) else slot for slot in slots]

    def bind(self, fn):
        """Closure of a compiled expression over bindings."""
        return lambda b: fn(*self.values(fn.names, b))

    def term(self, fn, names) -> Term:
        """fn (a function of the bindings) as a Term reading the axes of the
        named variables."""
        slots = (self.slots[n] for n in names)
        return Term(fn, frozenset(slot for slot in slots if isinstance(slot, int)))

    def minimize(self, objective, settings: OracleSettings,
                 target: Subsystem | None = None, region: Region = SAFE_SET):
        """Minimize objective (a function of the bindings, or a sequence of
        Terms to add) over the grid points where every subsystem lies in its
        safety set and target in region.  Returns (value, arg), arg in axis
        order."""
        regions = [(region if s is target else SAFE_SET, self.bind(s.compiled.h))
                   for s in self.subsystems]

        def predicate(bindings):
            out = None
            for r, h in regions:
                cond = r.contains(h(bindings), MARGIN_TOLERANCE)
                out = cond if out is None else (out & cond)
            return out

        h_reads = set().union(*(free_variables(s.h) for s in self.subsystems))
        return grid_minimize(objective, self.axes, self.term(predicate, h_reads),
                             settings)

    def witness(self, arg) -> tuple:
        return tuple(zip(self.axis_names, arg))


# -- objectives over the drift layer --------------------------------------------

def drift_minimum(s: Subsystem, region: Region, settings: OracleSettings,
                  closed_loop: bool, z: float | None = None,
                  participants=None, coupling: Expression = _ZERO):
    """Minimize the drift of h_s, coupling + lf + sum_k lg_k u_k, over region
    (with every other participant in its safety set).  u is the clamped
    feedback law when closed_loop, else the worst input-box vertex at each
    grid point; z adds z (h - region.lo).  The sum is handed to the grid as
    Terms in that order, each reading the free variables of its expressions
    (h and mu are compiled over every state variable, so their compiled
    names would overstate what they read).  Returns (value, arg, grid)."""
    comp = s.compiled
    coupling_fn = None if _is_zero(coupling) else compile_reads(coupling)
    mu_reads = [free_variables(e) for e in s.mu]
    drift = ([coupling_fn] if coupling_fn else []) + [comp.lf]
    needed = {n for fn in (*drift, *comp.lg) for n in fn.names}
    if closed_loop:
        needed.update(*mu_reads)
    grid = StateGrid(participants or (s,), needed)
    h, mu = grid.bind(comp.h), [grid.bind(fn) for fn in comp.mu]

    terms = [grid.term(grid.bind(fn), fn.names) for fn in drift]
    for k, fn in enumerate(comp.lg):
        c_fn = grid.bind(fn)
        if closed_loop:
            def u_term(b, c_fn=c_fn, k=k):
                # clamp_mu is the one saturation rule; it clamps every law.
                return c_fn(b) * s.clamp_mu([m(b) for m in mu])[k]
            terms.append(grid.term(u_term, {*fn.names, *mu_reads[k]}))
        else:
            def u_term(b, c_fn=c_fn, box=s.input_box[k]):
                # Affine in u: the input's worst value is a box endpoint.
                c = np.asarray(c_fn(b))
                return np.minimum(c * box[0], c * box[1])
            terms.append(grid.term(u_term, fn.names))
    if z is not None:
        terms.append(grid.term(lambda b: z * (h(b) - region.lo), free_variables(s.h)))

    value, arg = grid.minimize(terms, settings, s, region)
    return value, arg, grid


def sup_h(s: Subsystem, settings: OracleSettings) -> float:
    """Largest value of h over the safety set (the depth of the set)."""
    return -_h_peak(s, settings)[0]


def argmax_h(s: Subsystem, settings: OracleSettings) -> tuple[float, ...]:
    """Grid point of the safety set where h peaks; axes h ignores sit at
    their box midpoints.  Used as the deepest-interior default start."""
    return _h_peak(s, settings)[1]


def _h_peak(s: Subsystem, settings: OracleSettings):
    """(min of -h over the safety set, full state at the minimizer)."""
    grid = StateGrid((s,), ())
    h = grid.bind(s.compiled.h)
    value, arg = grid.minimize(lambda b: -h(b), settings)
    return value, tuple(grid.values(s.state_vars, arg))


def min_offline_drift(s: Subsystem, settings: OracleSettings) -> Extremum:
    """min over the safety set and the input box of grad h . (f + g u).

    The objective is affine in u, so each input coordinate attains the
    minimum at a box endpoint; only the state grid is scanned and the
    adversarial vertex is reconstructed at the minimizer.
    """
    value, arg, grid = drift_minimum(s, SAFE_SET, settings, closed_loop=False)
    lg = [float(np.asarray(grid.bind(fn)(arg))) for fn in s.compiled.lg]
    vertex = [float(u) for u in s.worst_vertex(lg)]
    return Extremum(value=value, arg=tuple(grid.values(s.state_vars, arg) + vertex))


def min_recovery_drift(s: Subsystem, d: float, settings: OracleSettings) -> Extremum:
    """min of the closed-loop drift over the band 0 <= h < d."""
    value, arg, grid = drift_minimum(s, safe_minus_buffer(d), settings, closed_loop=True)
    return Extremum(value=value, arg=tuple(grid.values(s.state_vars, arg)))


def min_invariance_margin(s: Subsystem, d: float, z: float,
                          settings: OracleSettings) -> Extremum:
    """min over h >= d of closed-loop drift + z * (h - d)."""
    value, arg, grid = drift_minimum(s, buffer_region(d), settings, closed_loop=True, z=z)
    return Extremum(value=value, arg=tuple(grid.values(s.state_vars, arg)))
