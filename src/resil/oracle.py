"""Dense-grid extremum oracle over box regions.

Every quantity the index computations need (worst-case drifts, band minima,
the peak of the safety function) is a minimum or maximum of a continuous
function over a box, possibly restricted by safety-function inequalities.
``grid_minimize`` is the one scan: it evaluates an objective on an
axis-aligned grid with vectorized numpy broadcasting, then shrinks the box
around the incumbent for a fixed number of refinement rounds.

``StateGrid`` lays the axes out over the state variables an objective
reads, for one subsystem or several coupled ones.  ``StateGrid.minimize``,
the one caller of ``grid_minimize``, scans it where each subsystem lies in
its safety set and a target in a ``Region`` (an interval of its h values).
``drift_minimum`` builds the drift objectives from the drift layer (``lf``,
``lg``, see ``subsystem``): worst input-box vertex or closed loop, plus an
optional coupling term.

Determinism: ties on the grid resolve to the lexicographically smallest
point in axis order, regardless of chunking or worker count.  Refinement
never loses the incumbent, so reported values improve monotonically.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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

# Cap on grid points evaluated per chunk; keeps peak memory near ~200 MB.
_CHUNK_BUDGET = 4_000_000

# Absolute slack on region boundaries and on index-condition margins.
MARGIN_TOLERANCE = 1e-9


class EmptyRegionError(Exception):
    """No grid point satisfied the region predicate."""


@dataclass(frozen=True)
class OracleSettings:
    grid_points_per_dim: int = 200
    refinement_rounds: int = 2
    workers: int = 1

    def __post_init__(self):
        if self.grid_points_per_dim < 2:
            raise ValueError("grid_points_per_dim must be at least 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class Extremum:
    value: float
    arg: tuple[float, ...]
    rigor: str = "sampled"


def _shaped(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def _scan_chunk(objective, predicate, grids):
    """Evaluate one slab (a slice along axis 0) and return its best point."""
    ndim = len(grids)
    shape = tuple(g.size for g in grids)
    bindings = [_shaped(g, i, ndim) for i, g in enumerate(grids)]
    vals = np.asarray(objective(bindings), dtype=float)
    vals = np.broadcast_to(vals, shape)
    if np.isnan(vals).any():
        raise FloatingPointError("objective produced nan on the grid")
    if predicate is not None:
        mask = np.broadcast_to(predicate(bindings), shape)
        if not mask.any():
            return None
        vals = np.where(mask, vals, np.inf)
    flat = int(np.argmin(vals))  # C order: ties pick the lexicographically first point
    best = float(vals.flat[flat])
    if not np.isfinite(best):
        return None if predicate is not None else _raise_nonfinite(best)
    idx = np.unravel_index(flat, shape)
    return best, tuple(float(g[i]) for g, i in zip(grids, idx))


def _raise_nonfinite(v):
    raise FloatingPointError(f"objective produced {v} on the grid")


def grid_minimize(objective, axes, predicate, settings: OracleSettings):
    """Minimize objective over the box spanned by axes.

    objective and predicate receive a list of broadcast-shaped arrays, one
    per axis, in axis order.  Returns (value, arg) where arg is a tuple of
    coordinates in axis order.  Raises EmptyRegionError when the predicate
    rejects the entire initial grid.
    """
    if not axes:
        vals = np.asarray(objective([]), dtype=float).reshape(())
        return float(vals), ()
    n = settings.grid_points_per_dim
    bounds = [(float(lo), float(hi)) for lo, hi in axes]
    orig = list(bounds)
    incumbent_val = math.inf
    incumbent_arg = None
    for round_no in range(settings.refinement_rounds + 1):
        grids = [np.linspace(lo, hi, n) for lo, hi in bounds]
        best = _scan_round(objective, predicate, grids, settings)
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


def _scan_round(objective, predicate, grids, settings):
    axis0 = grids[0]
    total = math.prod(g.size for g in grids)
    per_row = max(1, total // axis0.size)
    rows_per_chunk = max(1, _CHUNK_BUDGET // per_row)
    n_chunks = math.ceil(axis0.size / rows_per_chunk)
    if settings.workers > 1:
        n_chunks = max(n_chunks, min(axis0.size, settings.workers))
        rows_per_chunk = math.ceil(axis0.size / n_chunks)
        n_chunks = math.ceil(axis0.size / rows_per_chunk)
    tasks = []
    for c in range(n_chunks):
        lo = c * rows_per_chunk
        hi = min(axis0.size, lo + rows_per_chunk)
        tasks.append([axis0[lo:hi]] + grids[1:])
    if settings.workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=settings.workers) as pool:
            results = list(pool.map(
                lambda g: _scan_chunk(objective, predicate, g), tasks))
    else:
        results = [_scan_chunk(objective, predicate, g) for g in tasks]
    best = None
    for r in results:  # chunk order preserves the C-order tie-break
        if r is None:
            continue
        if best is None or r[0] < best[0]:
            best = r
    return best


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

    def minimize(self, objective, settings: OracleSettings,
                 target: Subsystem | None = None, region: Region = SAFE_SET):
        """Minimize objective (a function of the bindings) over the grid
        points where every subsystem lies in its safety set and target in
        region.  Returns (value, arg), arg in axis order."""
        regions = [(region if s is target else SAFE_SET, self.bind(s.compiled.h))
                   for s in self.subsystems]

        def predicate(bindings):
            out = None
            for r, h in regions:
                cond = r.contains(h(bindings), MARGIN_TOLERANCE)
                out = cond if out is None else (out & cond)
            return out

        return grid_minimize(objective, self.axes, predicate, settings)

    def witness(self, arg) -> tuple:
        return tuple(zip(self.axis_names, arg))


# -- objectives over the drift layer --------------------------------------------

def drift_minimum(s: Subsystem, region: Region, settings: OracleSettings,
                  closed_loop: bool, z: float | None = None,
                  participants=None, coupling: Expression = _ZERO):
    """Minimize the drift of h_s, lf + coupling + sum_k lg_k u_k, over region
    (with every other participant in its safety set).  u is the clamped
    feedback law when closed_loop, else the worst input-box vertex at each
    grid point; z adds z (h - region.lo).  Returns (value, arg, grid)."""
    comp = s.compiled
    coupling_fn = None if _is_zero(coupling) else compile_reads(coupling)
    fns = [comp.lf, *comp.lg] + ([coupling_fn] if coupling_fn else [])
    needed = {n for fn in fns for n in fn.names}
    if closed_loop:
        needed.update(*map(free_variables, s.mu))
    grid = StateGrid(participants or (s,), needed)
    lf, *lg = [grid.bind(fn) for fn in (comp.lf, *comp.lg)]
    extra = None if coupling_fn is None else grid.bind(coupling_fn)
    h, mu = grid.bind(comp.h), [grid.bind(fn) for fn in comp.mu]

    def objective(b):
        total = lf(b) if extra is None else extra(b) + lf(b)
        if closed_loop:
            for c_fn, uk in zip(lg, s.clamp_mu([fn(b) for fn in mu])):
                total = total + c_fn(b) * uk
        else:
            # Affine in u: each input's worst value is a box endpoint.
            for c_fn, (lo, hi) in zip(lg, s.input_box):
                c = np.asarray(c_fn(b))
                total = total + np.minimum(c * lo, c * hi)
        return total if z is None else total + z * (h(b) - region.lo)

    value, arg = grid.minimize(objective, settings, s, region)
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
