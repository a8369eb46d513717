"""Networks of coupled subsystems.

A coupling (i, j) adds a vector field W_ij(x_i, x_j) to subsystem j's
dynamics.  The worst-case drift contribution of all couplings entering j
is the scalar delta_j, which ``compute_delta`` asks of ``oracle.minimum``:
one query per source, summed, or with exact one query over all of them.
Two systems of linear inequalities (R1 shrinks the buffer, R2 grows it),
each solved in closed form, convert j's index into one that remains valid
inside the network.  Joint verification re-checks the final indices
against the fully coupled dynamics: it runs the single-subsystem verifier
of ``resilience`` over the subsystem and its coupling sources, with one
coupling drift term ``grad h_j . W_ij`` per source added to the
subsystem's own.  The oracle hands each query one term per source, and
minimizes each source's axes out of its own term under the source's safety
set, so an exact or joint query costs the target's grid, as a pairwise one
does, not the product of every participant's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .exprs import Expression, _is_zero, free_variables
from .oracle import OracleSettings, minimum, sup_h
from .resilience import (
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    VerificationReport,
    _tau,
    _verify_one,
)
from .subsystem import ModelError, Subsystem, compile_reads, grad_dot

GUARANTEED = "GuaranteedFeasible"
UNKNOWN = "Unknown"


class DimensionMismatchError(ModelError):
    """Coupling vector length does not match the target's state dimension."""


@dataclass
class Network:
    subsystems: tuple[Subsystem, ...]
    couplings: dict[tuple[int, int], tuple[Expression, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise ModelError("subsystem names must be unique")
        seen_states: set[str] = set()
        for s in self.subsystems:
            overlap = seen_states & set(s.state_vars)
            if overlap:
                raise ModelError(f"state variables {sorted(overlap)} appear in "
                                 f"more than one subsystem")
            seen_states |= set(s.state_vars)
        for s in self.subsystems:
            clash = seen_states & set(s.input_vars)
            if clash:
                raise ModelError(f"{s.name}: input names {sorted(clash)} collide "
                                 f"with state variables")
        n = len(self.subsystems)
        for (i, j), w in self.couplings.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"coupling ({i}, {j}) references unknown subsystems")
            if i == j:
                raise ModelError(f"coupling ({i}, {j}) may not be a self-loop")
            target = self.subsystems[j]
            if len(w) != target.n_states:
                raise DimensionMismatchError(
                    f"coupling ({i}, {j}) has {len(w)} components; "
                    f"{target.name} has {target.n_states} states")
            allowed = set(self.subsystems[i].state_vars) | set(target.state_vars)
            for e in w:
                extra = free_variables(e) - allowed
                if extra:
                    raise ModelError(f"coupling ({i}, {j}) uses variables "
                                     f"{sorted(extra)} outside both endpoints")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    def index_of(self, name: str) -> int:
        for k, s in enumerate(self.subsystems):
            if s.name == name:
                return k
        raise KeyError(f"no subsystem named {name!r}")

    def incoming(self, j: int) -> list[tuple[int, tuple[Expression, ...]]]:
        return sorted((i, w) for (i, t), w in self.couplings.items() if t == j)

    @cached_property
    def coupling_drifts(self) -> dict[int, tuple]:
        """Per target j, the coupling drift grad h_j . W_ij of each source i,
        in incoming(j) order, as (tree, compile_reads of it): built and
        compiled once, as Subsystem.compiled builds lf and lg."""
        drifts = {}
        for j, s in enumerate(self.subsystems):
            trees = [grad_dot(s.compiled.grad, w) for _, w in self.incoming(j)]
            drifts[j] = tuple((e, compile_reads(e)) for e in trees)
        return drifts


@dataclass(frozen=True)
class DeltaEstimate:
    subsystem: int
    value: float
    method: str  # 'exact_joint' or 'pairwise_sum'
    arg: tuple = ()  # the witness, (name, value) pairs


@dataclass(frozen=True)
class Feasibility:
    verdict: str  # GuaranteedFeasible or Unknown
    which: str    # 'R1' or 'R2'
    threshold: float
    delta: float


def compute_delta(net: Network, j: int, settings: OracleSettings | None = None,
                  exact: bool = False) -> DeltaEstimate:
    """Lower bound on grad h_j . sum_i W_ij over the participating safety
    sets; independent of the buffer depth d.  exact minimizes the sum of
    the per-source terms grad h_j . W_ij over the joint product of j's and
    every source's set.  Otherwise it is the sum over sources i of the
    minimum over i's and j's sets of source i's term: each relaxes the
    shared x_j to its own minimizer, so the sum underapproximates the joint
    minimum.  arg joins the witnesses of the minima, so pairwise it names
    j's variables once per source."""
    settings = settings or OracleSettings()
    inc, target = net.incoming(j), net.subsystems[j]
    terms = [fn for _, fn in net.coupling_drifts[j]]
    groups = ([(sorted({j, *(i for i, _ in inc)}), terms)] if exact and inc
              else [([i, j], [c]) for (i, _), c in zip(inc, terms)])
    minima = [minimum(cs, [net.subsystems[p] for p in participants], settings, target)
              for participants, cs in groups]
    # Summed from the first minimum: one source gives exact's value bit for bit.
    values = [m.value for m in minima] or [0.0]
    return DeltaEstimate(j, sum(values[1:], values[0]),
                         "exact_joint" if exact else "pairwise_sum",
                         sum((m.arg for m in minima), ()))


# -- the R1 / R2 inequality systems ------------------------------------------

def _check_rsys_args(idx: ResilienceIndex, z: float, sup: float):
    if z <= 0:
        raise ValueError("z must be positive")
    if sup < idx.d:
        raise ValueError(f"sup_h = {sup:.6g} is below the index depth d = {idx.d:.6g}")


def solve_r1(idx: ResilienceIndex, delta: float, z: float, sup: float,
             tau_max: float = DEFAULT_TAU_MAX) -> ResilienceIndex | Infeasible:
    """Shrink the buffer to the deepest d' in [0, d] with eta' >= 0, which is
    min(d, d + (delta + eta)/z), or the largest float below it where eta'
    does not round below 0 (bisected over the floats).  tau' and eta' sit
    at their upper bounds, phi' at its lower bound; none may underflow to 0.
    The recovery row needs d + phi*delta > 0 only when d > 0."""
    _check_rsys_args(idx, z, sup)
    d, tau, phi, eta = idx.as_tuple()
    denom = d + phi * delta
    if d > 0 and denom <= 0:
        return Infeasible(
            f"d + phi*delta = {denom:.6g} <= 0; no buffer shrink can absorb the coupling",
            {"delta": delta, "denom": denom})

    def eta_at(dp):
        return delta + min(d / phi, eta + z * (d - dp))

    hi = max(0.0, min(d, d + (delta + eta) / z))
    lo = hi if eta_at(hi) >= 0 else 0.0
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (mid, hi) if eta_at(mid) >= 0 else (lo, mid)
    off = delta - d / tau
    taup, phip = _tau(lo, off, tau_max), phi if lo == 0 else phi * lo / denom
    if eta_at(lo) < 0 or taup == 0 or phip == 0:
        return Infeasible("no depth in [0, d] satisfies the shrink inequalities",
                          {"delta": delta, "eta_bound_at_0": eta_at(0.0),
                           "offline_bound": -off})
    return ResilienceIndex(lo, taup, phip, eta_at(lo))


def solve_r2(idx: ResilienceIndex, delta: float, z: float, sup: float,
             tau_max: float = DEFAULT_TAU_MAX) -> ResilienceIndex | Infeasible:
    """Grow the buffer.  The recovery-rate bound rhs is independent of d';
    when it is positive, eta' = delta + eta + z(d' - d) is positive on all of
    [d, sup], so d' = d, with phi' = d'/rhs and tau' as in solve_r1.  At d = 0
    phi' needs d' > 0, so d' is sup, the far end of the range."""
    _check_rsys_args(idx, z, sup)
    d, tau, phi, eta = idx.as_tuple()
    dp, rhs = d or sup, delta + min(d / phi, eta - z * (sup - d))
    taup = _tau(dp, delta - d / tau, tau_max)
    if rhs <= 0 or taup == 0 or not 0 < dp / rhs < math.inf:
        return Infeasible(f"recovery-rate bound {rhs:.6g} at depth {dp:.6g}; no finite "
                          f"positive recovery deadline exists", {"delta": delta, "rhs": rhs})
    return ResilienceIndex(dp, taup, dp / rhs, delta + eta + z * (dp - d))


def feasibility_r1(idx: ResilienceIndex, delta: float, z: float) -> Feasibility:
    """Sufficient threshold for the shrink system: delta >= max{-d/phi, -eta - z d}."""
    if z <= 0:
        raise ValueError("z must be positive")
    threshold = max(-idx.d / idx.phi, -idx.eta - z * idx.d)
    verdict = GUARANTEED if delta >= threshold else UNKNOWN
    return Feasibility(verdict, "R1", threshold, delta)


def feasibility_r2(idx: ResilienceIndex, delta: float, z: float, sup: float) -> Feasibility:
    """Sufficient threshold for the grow system: delta must strictly exceed
    max{-d/phi, -eta + z(sup - d)} so a finite recovery deadline exists, and
    sup must be positive so a positive depth exists."""
    _check_rsys_args(idx, z, sup)
    threshold = max(-idx.d / idx.phi, -idx.eta + z * (sup - idx.d))
    verdict = GUARANTEED if delta > threshold and sup > 0 else UNKNOWN
    return Feasibility(verdict, "R2", threshold, delta)


# -- propagation and joint verification ---------------------------------------

@dataclass(frozen=True)
class PropagationOutcome:
    index: ResilienceIndex | None
    feasibility: Feasibility
    system: str | None  # which inequality system produced the index
    delta: DeltaEstimate
    infeasible: Infeasible | None = None

    @property
    def ok(self) -> bool:
        return self.index is not None


def propagate_indices(net: Network, indices: dict[int, ResilienceIndex], z: float,
                      tau_max: float = DEFAULT_TAU_MAX,
                      settings: OracleSettings | None = None, exact: bool = False,
                      prefer: str = "r1") -> dict[int, PropagationOutcome]:
    """Convert standalone indices into network-valid ones, one subsystem at a
    time, with delta from compute_delta (exact as there).  The preferred
    system is tried first, then the other; a system solves exactly when its
    verdict is GuaranteedFeasible (R1 up to the boundary of its strict
    rows), so the outcome's verdict is the solver's."""
    settings = settings or OracleSettings()
    if not tau_max > 0:
        raise ValueError("tau_max must be positive")
    if prefer not in ("r1", "r2"):
        raise ValueError("prefer must be 'r1' or 'r2'")
    out: dict[int, PropagationOutcome] = {}
    for j in range(len(net.subsystems)):
        if j not in indices:
            raise ValueError(f"missing index for subsystem {net.subsystems[j].name!r}")
        idx = indices[j]
        dest = compute_delta(net, j, settings, exact)
        if not net.incoming(j):
            # No coupling enters j: the standalone certificate stays valid as is.
            feas = feasibility_r1(idx, 0.0, z)
            out[j] = PropagationOutcome(idx, feas, "R1", dest)
            continue
        sup = sup_h(net.subsystems[j], settings)
        if idx.d > sup:
            feas = feasibility_r1(idx, dest.value, z)
            out[j] = PropagationOutcome(None, feas, None, dest,
                                        Infeasible("index depth exceeds the reach of h",
                                                   {"d": idx.d, "sup_h": sup}))
            continue
        systems = {"R1": (solve_r1, feasibility_r1(idx, dest.value, z)),
                   "R2": (solve_r2, feasibility_r2(idx, dest.value, z, sup))}
        order = ["R1", "R2"] if prefer == "r1" else ["R2", "R1"]
        failures = []
        for name in order:
            solver, feas = systems[name]
            res = solver(idx, dest.value, z, sup, tau_max)
            if isinstance(res, ResilienceIndex):
                out[j] = PropagationOutcome(res, feas, name, dest)
                break
            failures.append(f"{name}: {res.reason}")
        else:
            out[j] = PropagationOutcome(
                None, systems[order[0]][1], None, dest,
                Infeasible("; ".join(failures), {"delta": dest.value}))
    return out


def verify_network(net: Network, indices: dict[int, ResilienceIndex], z: float,
                   settings: OracleSettings | None = None
                   ) -> dict[int, VerificationReport]:
    """Ground-truth re-check of every index against the coupled dynamics:
    the three defining conditions are minimized over the joint grid of the
    subsystem and all its coupling sources, one coupling term per source."""
    settings = settings or OracleSettings()
    if z < 0:
        raise ValueError("z must be nonnegative")
    out = {}
    for j in range(len(net.subsystems)):
        if j not in indices or not isinstance(indices[j], ResilienceIndex):
            raise ValueError(f"subsystem {net.subsystems[j].name!r} has no valid index")
        inc, s = net.incoming(j), net.subsystems[j]
        participants = [net.subsystems[p] for p in sorted({j, *(i for i, _ in inc)})]
        couplings = [fn for e, fn in net.coupling_drifts[j] if not _is_zero(e)]
        out[j] = _verify_one(s, participants, couplings, indices[j], z, settings)
    return out
