"""Control-affine subsystem model with a polynomial-or-exponential safety
function and a box-bounded input.

A subsystem owns its dynamics ``x' = f(x) + g(x) u``, a safety function
``h`` whose zero superlevel set is the region that must stay forward
invariant, a feedback law ``mu`` (optionally saturated), and the state and
input boxes every analysis is restricted to.

Every index condition is a statement about the drift of ``h`` along the
dynamics, ``L_f h + sum_k L_{g_k} h u_k``.  ``Subsystem.compiled`` builds
that drift layer once: the Lie derivatives ``lf = grad h . f`` and
``lg[k] = grad h . g[:, k]`` are folded symbolically by ``grad_dot``.
Every compiled function, h and mu too, takes the state variables it reads,
sorted, and names them in ``names``.  Couplings inside a network
add ``grad_dot(grad h, W)`` on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprs import (
    Expression,
    _ZERO,
    _add,
    _mul,
    compile_expression,
    differentiate,
    free_variables,
    monotone_variables,
)


class ModelError(Exception):
    """Raised for structurally invalid subsystems, networks, or model files."""


@dataclass(frozen=True)
class Region:
    """The states of a subsystem's box with lo <= h(x) <= hi: the safety set
    h >= 0, the recovery band 0 <= h < d or the buffer h >= d."""

    lo: float = 0.0
    hi: float = math.inf

    def contains(self, h, tol: float):
        """Membership mask for values h of the safety function: h >= lo - tol,
        and h <= hi - tol when hi is finite."""
        mask = h >= self.lo - tol
        if math.isfinite(self.hi):
            mask = mask & (h <= self.hi - tol)
        return mask


SAFE_SET = Region()


def safe_minus_buffer(d: float) -> Region:
    return Region(0.0, float(d))


def buffer_region(d: float) -> Region:
    return Region(float(d))


def grad_dot(grad, *fields) -> Expression:
    """Symbolic grad . v summed over the vector fields, folded term by term
    in field order, then state order; zero terms drop out."""
    total = _ZERO
    for v in fields:
        for gi, vi in zip(grad, v):
            total = _add(total, _mul(gi, vi))
    return total


def worst_vertex(c, lo, hi):
    """The endpoint of [lo, hi] minimizing c * u, elementwise and the lower
    one on ties: with c the lg values, the input-box vertex of steepest
    descent of h.  Broadcasts, so a row of c holds one value per input."""
    return np.where(c * lo <= c * hi, lo, hi)


def compile_reads(e: Expression):
    """Compile e over exactly the variables it reads, in sorted order, with
    the ones its value is provably monotone in (exprs.monotone_variables)."""
    fn = compile_expression(e, sorted(free_variables(e)))
    fn.monotone = monotone_variables(e)
    return fn


class _Compiled:
    """The subsystem's callables, built once, each over the variables it
    reads: h, mu and the drift layer lf and lg; with the symbolic gradient
    of h, and lg's trees (lg_trees) for code generation.  peaks keeps the
    oracle's scans of the peak of h, one per OracleSettings (oracle.sup_h),
    and folds its round-0 sums of the closed-loop drift, one per grid size
    (oracle._drift_fold)."""

    __slots__ = ("h", "grad", "lf", "lg", "lg_trees", "mu", "peaks", "folds")

    def __init__(self, s: "Subsystem"):
        self.h = compile_reads(s.h)
        self.grad = tuple(differentiate(s.h, v) for v in s.state_vars)
        self.lf = compile_reads(grad_dot(self.grad, s.f))
        self.lg_trees = tuple(grad_dot(self.grad, [row[k] for row in s.g])
                              for k in range(s.n_inputs))
        self.lg = tuple(map(compile_reads, self.lg_trees))
        self.mu = tuple(map(compile_reads, s.mu))
        self.peaks = {}
        self.folds = {}


@dataclass
class Subsystem:
    name: str
    state_vars: tuple[str, ...]
    input_vars: tuple[str, ...]
    f: tuple[Expression, ...]
    g: tuple[tuple[Expression, ...], ...]  # n rows, p columns
    h: Expression
    mu: tuple[Expression, ...]
    state_box: tuple[tuple[float, float], ...]
    input_box: tuple[tuple[float, float], ...]
    mu_saturation: tuple[tuple[float, float], ...] | None = field(default=None)

    def __post_init__(self):
        n, p = len(self.state_vars), len(self.input_vars)
        if n == 0:
            raise ModelError(f"{self.name}: at least one state variable required")
        if len(set(self.state_vars) | set(self.input_vars)) != n + p:
            raise ModelError(f"{self.name}: state and input names must be distinct")
        if len(self.f) != n:
            raise ModelError(f"{self.name}: f must have {n} components, got {len(self.f)}")
        if len(self.g) != n or any(len(row) != p for row in self.g):
            raise ModelError(f"{self.name}: g must be {n}x{p}")
        if len(self.mu) != p:
            raise ModelError(f"{self.name}: mu must have {p} components, got {len(self.mu)}")
        if len(self.state_box) != n or len(self.input_box) != p:
            raise ModelError(f"{self.name}: box dimensions do not match variable counts")
        for lo, hi in (*self.state_box, *self.input_box):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ModelError(f"{self.name}: box intervals need finite lo < hi")
        if self.mu_saturation is not None:
            if len(self.mu_saturation) != p:
                raise ModelError(f"{self.name}: mu_saturation must have {p} entries")
            for (lo, hi), (blo, bhi) in zip(self.mu_saturation, self.input_box):
                if not (blo <= lo < hi <= bhi):
                    raise ModelError(
                        f"{self.name}: saturation bounds must sit inside the input box"
                    )
        allowed = set(self.state_vars)
        for label, exprs in (("f", self.f), ("g", [e for row in self.g for e in row]),
                             ("h", [self.h]), ("mu", self.mu)):
            for e in exprs:
                extra = free_variables(e) - allowed
                if extra:
                    raise ModelError(
                        f"{self.name}: {label} uses undeclared variables {sorted(extra)}"
                    )

    @cached_property
    def compiled(self) -> _Compiled:
        return _Compiled(self)

    @property
    def n_states(self) -> int:
        return len(self.state_vars)

    @property
    def n_inputs(self) -> int:
        return len(self.input_vars)

    def clamp_mu(self, raw_values):
        """Apply the optional per-law saturation to raw feedback values."""
        if self.mu_saturation is None:
            return list(raw_values)
        return [np.clip(v, lo, hi) for v, (lo, hi) in zip(raw_values, self.mu_saturation)]

    def mu_values(self, state_cols):
        """The clamped feedback laws at state_cols, given in state order."""
        at = dict(zip(self.state_vars, state_cols))
        return self.clamp_mu([fn(*map(at.get, fn.names)) for fn in self.compiled.mu])

