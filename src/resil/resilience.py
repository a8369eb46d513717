"""Resilience indices for a single subsystem.

An index (d, tau, phi, eta) certifies that the subsystem tolerates any
fault or attack that keeps the input inside its box for at most tau time
units at a stretch, provided consecutive faults are separated by at least
phi: the state cannot leave the buffered region h >= d by more than the
drift budget allows while offline, the feedback law restores h >= d within
phi once back online, and the closed loop keeps the buffer invariant with
linear-rate margin eta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .exprs import _ZERO, Expression
from .oracle import (
    MARGIN_TOLERANCE,
    EmptyRegionError,
    OracleSettings,
    drift_minimum,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
    sup_h,
)
from .subsystem import SAFE_SET, Subsystem, buffer_region, safe_minus_buffer

DEFAULT_TAU_MAX = 1e9
DEFAULT_PHI_MIN = 1e-9


@dataclass(frozen=True)
class ResilienceIndex:
    """d: buffer depth; tau: survivable offline time; phi: recovery deadline;
    eta: invariance margin rate."""

    d: float
    tau: float
    phi: float
    eta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d, self.phi, self.eta))):
            raise ValueError("d, phi, eta must be finite")
        if math.isnan(self.tau):
            raise ValueError("tau must not be nan")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.phi <= 0:
            raise ValueError(f"phi must be positive, got {self.phi}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d, self.tau, self.phi, self.eta)


@dataclass(frozen=True)
class Infeasible:
    """Returned when no index exists under the given parameters."""

    reason: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __bool__(self):
        return False


@dataclass(frozen=True)
class VerificationReport:
    """Margins are slack amounts: nonnegative (up to the oracle tolerance)
    means the corresponding index condition holds on the sampled grid.
    worst_points maps each condition to its minimizer as (name, value)
    pairs over the grid axes, or to None when the condition was skipped."""

    passed: bool
    margin_offline: float
    margin_recovery: float
    margin_invariance: float
    worst_points: dict
    notes: tuple[str, ...] = ()


def verify_index(s: Subsystem, index: ResilienceIndex, z: float,
                 settings: OracleSettings | None = None) -> VerificationReport:
    """Check the three index conditions by direct grid minimization: the
    network check of s on its own, with no incoming coupling."""
    settings = settings or OracleSettings()
    if z < 0:
        raise ValueError("z must be nonnegative")
    return _verify_one(s, (s,), _ZERO, index, z, settings)


def _verify_one(target: Subsystem, participants, coupling: Expression,
                index: ResilienceIndex, z: float,
                settings: OracleSettings) -> VerificationReport:
    """The three index conditions for target, minimized over the joint grid
    of the participants (target included, each in its safety set) with the
    coupling drift added to target's own.  Worst points are (name, value)
    pairs over the grid axes."""
    notes: list[str] = []
    worst: dict = {}

    def scan(label, region, closed_loop, rate=None):
        value, arg, grid = drift_minimum(target, region, settings, closed_loop, rate,
                                         participants, coupling)
        worst[label] = grid.witness(arg)
        return value

    offline = scan("offline", SAFE_SET, False)

    recovery = None
    worst["recovery"] = None
    if index.d == 0:
        notes.append("recovery vacuous: zero buffer depth")
    else:
        try:
            recovery = scan("recovery", safe_minus_buffer(index.d), True)
        except EmptyRegionError:
            notes.append("recovery band is empty at this grid resolution")

    try:
        invariance = scan("invariance", buffer_region(index.d), True, z)
    except EmptyRegionError:
        invariance = -math.inf
        worst["invariance"] = None
        notes.append("buffer region is empty: d exceeds the reach of h")

    passed, margins = _margin_rule(index, offline, recovery, invariance)
    return VerificationReport(passed, *margins, worst_points=worst, notes=tuple(notes))


def _margin_rule(index: ResilienceIndex, offline: float, recovery: float | None,
                 invariance: float):
    """Slack of the offline, recovery and invariance conditions from the
    minima of their drift scans (recovery None: not scanned, vacuous), and
    whether all three hold up to the margin tolerance."""
    margins = (offline + index.d / index.tau,
               math.inf if recovery is None else recovery - index.d / index.phi,
               invariance - index.eta)
    return all(m >= -MARGIN_TOLERANCE for m in margins), margins


def compute_index(s: Subsystem, z: float, eps: float = 0.1,
                  tau_max: float = DEFAULT_TAU_MAX,
                  phi_min: float = DEFAULT_PHI_MIN,
                  settings: OracleSettings | None = None,
                  maximize_tau: bool = False) -> ResilienceIndex | Infeasible:
    """Search buffer depths d = 0, eps, 2 eps, ... up to the depth of the
    safety set and return the first whose induced (tau, phi, eta) passes
    verification: the margins of the three conditions, taken from the same
    drift minima the candidate was built from.  Depths are tried in ascending
    order, or with maximize_tau by decreasing tau (known from d and the
    offline minimum before any scan; ties stay ascending), so the first that
    passes is the answer.  phi steps up by ulps, as tau steps down in _tau,
    until its margin is nonnegative in floating point.
    """
    settings = settings or OracleSettings()
    if z < 0:
        raise ValueError("z must be nonnegative")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not tau_max > 0:
        raise ValueError("tau_max must be positive")
    if not 0 < phi_min < math.inf:
        raise ValueError("phi_min must be positive and finite")

    depth = sup_h(s, settings)
    off = min_offline_drift(s, settings).value  # independent of d
    last_fail: dict = {"sup_h": depth, "min_offline_drift": off}
    depths = itertools.takewhile(lambda d: d <= depth * (1 + 1e-12),
                                 (k * eps for k in itertools.count()))
    if off < 0 and next(depths, None) is not None:  # drops d = 0: it admits no tau
        last_fail.update(d=0.0, stage="offline", detail="zero depth with negative drift")
    order = ((d, _tau(d, off, tau_max)) for d in depths)
    if maximize_tau:
        order = sorted(order, key=lambda d_tau: -d_tau[1])

    for d, tau in order:
        rec, phi = None, phi_min
        if d > 0:
            try:
                rec = min_recovery_drift(s, d, settings).value
            except EmptyRegionError:
                last_fail.update(d=d, stage="recovery", detail="empty band")
                continue
            if rec <= 0:
                last_fail.update(d=d, stage="recovery", detail=rec)
                continue
            phi = max(phi_min, d / rec)
            while rec - d / phi < 0:
                phi = math.nextafter(phi, math.inf)
            if phi == math.inf:  # rec is too small for a finite phi
                last_fail.update(d=d, stage="recovery", detail=rec)
                continue
        try:
            inv = min_invariance_margin(s, d, z, settings).value
        except EmptyRegionError:
            last_fail.update(d=d, stage="invariance", detail="empty buffer")
            continue
        if inv < 0:
            last_fail.update(d=d, stage="invariance", detail=inv)
            continue
        candidate = ResilienceIndex(d=d, tau=tau, phi=phi, eta=inv)
        passed, margins = _margin_rule(candidate, off, rec, inv)
        if passed:
            return candidate
        last_fail = {"d": d, "margins": margins}
    return Infeasible("no buffer depth in the sweep admits a valid index", last_fail)


def _tau(d: float, off: float, tau_max: float) -> float:
    """The offline time at depth d for the offline drift minimum off:
    tau_max when off >= 0, else min(tau_max, d / -off) stepped down by ulps
    until off + d / tau, as _margin_rule recomputes it, is nonnegative in
    floating point.  Not called at d = 0 with off < 0, which admits none."""
    if off >= 0:
        return tau_max
    tau = min(tau_max, d / -off)
    while off + d / tau < 0:
        tau = math.nextafter(tau, 0.0)
    return tau
