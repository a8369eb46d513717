"""Networks of coupled subsystems.

A coupling (i, j) adds a vector field W_ij(x_i, x_j) to subsystem j's
dynamics.  The worst-case drift contribution of all couplings entering j
is the scalar delta_j; its sign decides which of the two inequality
systems (R1 shrinks the buffer, R2 grows it) converts j's standalone
index into one that remains valid inside the network.  Joint-grid
verification re-checks the final indices against the fully coupled
dynamics: it runs the single-subsystem verifier of ``resilience`` over the
subsystem and its coupling sources, with the coupling drift
``grad h_j . sum_i W_ij`` built once by ``_coupling_drift_expr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exprs import Expression, free_variables
from .oracle import OracleSettings, StateGrid, grid_minimize, sup_h
from .resilience import (
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    VerificationReport,
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


@dataclass(frozen=True)
class DeltaEstimate:
    subsystem: int
    value: float
    method: str  # 'exact_joint' or 'pairwise_sum'
    arg: tuple = ()


@dataclass(frozen=True)
class Feasibility:
    verdict: str  # GuaranteedFeasible or Unknown
    which: str    # 'R1' or 'R2'
    threshold: float
    delta: float


# Depths tried by the R1 / R2 scans between d and their far end.
_SCAN_POINTS = 1000


def _coupling_drift_expr(net: Network, j: int) -> Expression:
    """Symbolic grad h_j . sum of incoming couplings, with zero terms folded."""
    return grad_dot(net.subsystems[j].compiled.grad, *(w for _, w in net.incoming(j)))


def _min_coupling(net: Network, participants, obj: Expression,
                  settings: OracleSettings):
    """Minimize obj over the product of the participants' safety sets."""
    fn = compile_reads(obj)
    grid = StateGrid([net.subsystems[p] for p in participants], fn.names)
    value, arg = grid_minimize(grid.bind(fn), grid.axes,
                               grid.predicate(settings.margin_tolerance), settings)
    return value, grid.witness(arg)


def compute_delta_exact(net: Network, j: int, settings: OracleSettings | None = None
                        ) -> DeltaEstimate:
    """Minimize grad h_j . sum_i W_ij over the joint product of the
    participating safety sets.  Independent of the buffer depth d."""
    settings = settings or OracleSettings()
    inc = net.incoming(j)
    if not inc:
        return DeltaEstimate(j, 0.0, "exact_joint", ())
    value, witness = _min_coupling(net, sorted({j} | {i for i, _ in inc}),
                                   _coupling_drift_expr(net, j), settings)
    return DeltaEstimate(j, value, "exact_joint", witness)


def compute_delta_pairwise(net: Network, j: int, settings: OracleSettings | None = None
                           ) -> DeltaEstimate:
    """Sum over sources i of the per-pair minimum of grad h_j . W_ij.

    Each term relaxes the shared x_j to its own minimizer, so the sum
    underapproximates the joint minimum."""
    settings = settings or OracleSettings()
    inc = net.incoming(j)
    if not inc:
        return DeltaEstimate(j, 0.0, "pairwise_sum", ())
    grad = net.subsystems[j].compiled.grad
    total = 0.0
    witnesses = []
    for i, w in inc:
        value, witness = _min_coupling(net, [i, j], grad_dot(grad, w), settings)
        total += value
        witnesses.append(witness)
    return DeltaEstimate(j, total, "pairwise_sum", tuple(witnesses))


# -- the R1 / R2 inequality systems ------------------------------------------

def _check_rsys_args(idx: ResilienceIndex, z: float, sup: float):
    if z <= 0:
        raise ValueError("z must be positive")
    if sup < idx.d:
        raise ValueError(f"sup_h = {sup:.6g} is below the index depth d = {idx.d:.6g}")


def solve_r1(idx: ResilienceIndex, delta: float, z: float, sup: float,
             tau_max: float = DEFAULT_TAU_MAX) -> ResilienceIndex | Infeasible:
    """Shrink the buffer: scan d' from d down to 0 and return the first depth
    whose induced bounds are consistent.  tau' and eta' sit at their upper
    bounds, phi' at its lower bound."""
    _check_rsys_args(idx, z, sup)
    d, tau, phi, eta = idx.as_tuple()
    denom = d + phi * delta
    if denom <= 0:
        return Infeasible(
            f"d + phi*delta = {denom:.6g} <= 0; no buffer shrink can absorb the coupling",
            {"delta": delta, "denom": denom})
    a = d / tau - delta
    for dp in np.linspace(d, 0.0, _SCAN_POINTS):
        dp = float(dp)
        if a > 0:
            if dp <= 0:
                continue
            taup = min(tau_max, dp / a)
        else:
            taup = tau_max
        phip = phi if dp == 0 else phi * dp / denom
        etap = delta + min(d / phi, eta + z * (d - dp))
        if etap < 0:
            continue
        return ResilienceIndex(dp, taup, phip, etap)
    return Infeasible("no depth in [0, d] satisfies the shrink inequalities",
                      {"delta": delta, "eta_bound_at_0": delta + min(d / phi, eta + z * d)})


def solve_r2(idx: ResilienceIndex, delta: float, z: float, sup: float,
             tau_max: float = DEFAULT_TAU_MAX) -> ResilienceIndex | Infeasible:
    """Grow the buffer: scan d' from d up to sup and return the first depth
    whose induced bounds are consistent.  The recovery-rate bound is
    independent of d'; when it is not strictly positive no finite phi' exists."""
    _check_rsys_args(idx, z, sup)
    d, tau, phi, eta = idx.as_tuple()
    rhs = delta + min(d / phi, eta - z * (sup - d))
    if rhs <= 0:
        return Infeasible(
            f"recovery-rate bound {rhs:.6g} <= 0; no finite recovery deadline exists",
            {"delta": delta, "rhs": rhs})
    a = d / tau - delta
    grid = np.linspace(d, sup, _SCAN_POINTS) if sup > d else np.array([d])
    for dp in grid:
        dp = float(dp)
        if dp <= 0:
            continue
        taup = tau_max if a <= 0 else min(tau_max, dp / a)
        phip = dp / rhs
        etap = delta + eta + z * (dp - d)
        if etap < 0:
            continue
        return ResilienceIndex(dp, taup, phip, etap)
    return Infeasible("no depth in [d, sup_h] satisfies the grow inequalities",
                      {"delta": delta, "rhs": rhs})


def feasibility_r1(idx: ResilienceIndex, delta: float, z: float) -> Feasibility:
    """Sufficient threshold for the shrink system: delta >= max{-d/phi, -eta - z d}."""
    if z <= 0:
        raise ValueError("z must be positive")
    threshold = max(-idx.d / idx.phi, -idx.eta - z * idx.d)
    verdict = GUARANTEED if delta >= threshold else UNKNOWN
    return Feasibility(verdict, "R1", threshold, delta)


def feasibility_r2(idx: ResilienceIndex, delta: float, z: float, sup: float) -> Feasibility:
    """Sufficient threshold for the grow system: delta must strictly exceed
    max{-d/phi, -eta + z(sup - d)} so a finite recovery deadline exists."""
    _check_rsys_args(idx, z, sup)
    threshold = max(-idx.d / idx.phi, -idx.eta + z * (sup - idx.d))
    verdict = GUARANTEED if delta > threshold else UNKNOWN
    return Feasibility(verdict, "R2", threshold, delta)


def improve_by_interconnection(idx: ResilienceIndex, delta: float, z: float
                               ) -> ResilienceIndex:
    """Canonical shrink-system solution for a helpful coupling (delta >= 0):
    same depth and offline budget, tighter recovery deadline, larger margin."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if z <= 0:
        raise ValueError("z must be positive")
    d, tau, phi, eta = idx.as_tuple()
    if d == 0:
        out = ResilienceIndex(d, tau, phi, delta + min(0.0, eta))
    else:
        out = ResilienceIndex(d, tau, phi * d / (d + phi * delta),
                              delta + min(d / phi, eta))
    _assert_r1_rows(idx, out, delta, z)
    if out.phi > phi:
        raise AssertionError("construction must not relax the recovery deadline")
    return out


def _assert_r1_rows(old: ResilienceIndex, new: ResilienceIndex, delta: float,
                    z: float, tol: float = 1e-12):
    d, tau, phi, eta = old.as_tuple()
    if not (-tol <= new.d <= d + tol):
        raise AssertionError("depth row violated")
    if -new.d / new.tau > -d / tau + delta + tol:
        raise AssertionError("offline-budget row violated")
    denom = d + phi * delta
    if denom > 0 and new.phi < phi * new.d / denom - tol:
        raise AssertionError("recovery row violated")
    if new.eta > delta + min(d / phi, eta + z * (d - new.d)) + tol:
        raise AssertionError("margin row violated")


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
                      settings: OracleSettings | None = None,
                      delta_method: str = "pairwise",
                      prefer: str = "r1") -> dict[int, PropagationOutcome]:
    """Convert standalone indices into network-valid ones, one subsystem at a
    time.  The preferred system is tried first unless only the other one is
    guaranteed feasible; each is solved at most once, and a success by a
    system that is not guaranteed keeps the verdict Unknown."""
    settings = settings or OracleSettings()
    if delta_method not in ("pairwise", "exact"):
        raise ValueError("delta_method must be 'pairwise' or 'exact'")
    if prefer not in ("r1", "r2"):
        raise ValueError("prefer must be 'r1' or 'r2'")
    out: dict[int, PropagationOutcome] = {}
    for j in range(len(net.subsystems)):
        if j not in indices:
            raise ValueError(f"missing index for subsystem {net.subsystems[j].name!r}")
        idx = indices[j]
        if delta_method == "exact":
            dest = compute_delta_exact(net, j, settings)
        else:
            dest = compute_delta_pairwise(net, j, settings)
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
        failures = {}
        for name in sorted(order, key=lambda n: systems[n][1].verdict != GUARANTEED):
            solver, feas = systems[name]
            res = solver(idx, dest.value, z, sup, tau_max)
            if isinstance(res, ResilienceIndex):
                out[j] = PropagationOutcome(res, feas, name, dest)
                break
            failures[name] = f"{name}: {res.reason}"
        else:
            out[j] = PropagationOutcome(
                None, systems[order[0]][1], None, dest,
                Infeasible("; ".join(failures[n] for n in order), {"delta": dest.value}))
    return out


def verify_network(net: Network, indices: dict[int, ResilienceIndex], z: float,
                   settings: OracleSettings | None = None
                   ) -> dict[int, VerificationReport]:
    """Ground-truth re-check of every index against the coupled dynamics:
    the three defining conditions are minimized over the joint grid of the
    subsystem and all its coupling sources."""
    settings = settings or OracleSettings()
    if z < 0:
        raise ValueError("z must be nonnegative")
    out = {}
    for j in range(len(net.subsystems)):
        if j not in indices or not isinstance(indices[j], ResilienceIndex):
            raise ValueError(f"subsystem {net.subsystems[j].name!r} has no valid index")
        participants = [net.subsystems[p]
                        for p in sorted({j} | {i for i, _ in net.incoming(j)})]
        out[j] = _verify_one(net.subsystems[j], participants,
                             _coupling_drift_expr(net, j), indices[j], z, settings)
    return out
