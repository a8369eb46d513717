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

import math
from dataclasses import dataclass, field

from .exprs import _ZERO, Expression
from .oracle import (
    EmptyRegionError,
    Extremum,
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

    passed, margins = _margin_rule(index, offline, recovery, invariance, settings)
    return VerificationReport(passed, *margins, worst_points=worst, notes=tuple(notes))


def _margin_rule(index: ResilienceIndex, offline: float, recovery: float | None,
                 invariance: float, settings: OracleSettings):
    """Slack of the offline, recovery and invariance conditions from the
    minima of their drift scans (recovery None: not scanned, vacuous), and
    whether all three hold up to the margin tolerance."""
    margins = (offline + index.d / index.tau,
               math.inf if recovery is None else recovery - index.d / index.phi,
               invariance - index.eta)
    return all(m >= -settings.margin_tolerance for m in margins), margins


def compute_index(s: Subsystem, z: float, eps: float = 0.1,
                  tau_max: float = DEFAULT_TAU_MAX,
                  phi_min: float = DEFAULT_PHI_MIN,
                  settings: OracleSettings | None = None,
                  maximize_tau: bool = False) -> ResilienceIndex | Infeasible:
    """Sweep buffer depths d = 0, eps, 2 eps, ... up to the depth of the
    safety set and return the first depth whose induced (tau, phi, eta)
    passes verification: the margins of the three conditions, taken from the
    same drift minima the candidate was built from.  With maximize_tau the
    sweep continues and the feasible candidate with the largest tau wins.
    """
    settings = settings or OracleSettings()
    if z < 0:
        raise ValueError("z must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")

    depth = sup_h(s, settings)
    off = min_offline_drift(s, settings)  # independent of d
    last_fail: dict = {"sup_h": depth, "min_offline_drift": off.value}
    best: ResilienceIndex | None = None

    k = 0
    while True:
        d = k * eps
        k += 1
        if d > depth * (1 + 1e-12):
            break
        found = _candidate_at(s, d, z, off, tau_max, phi_min, settings, last_fail)
        if found is None:
            continue
        candidate, rec, inv = found
        passed, margins = _margin_rule(candidate, off.value, rec, inv, settings)
        if not passed:
            last_fail = {"d": d, "margins": margins}
            continue
        if not maximize_tau:
            return candidate
        if best is None or candidate.tau > best.tau:
            best = candidate
    if best is not None:
        return best
    return Infeasible("no buffer depth in the sweep admits a valid index",
                      dict(last_fail))


def _candidate_at(s, d, z, off: Extremum, tau_max, phi_min, settings, last_fail):
    """The index induced at depth d, with the recovery minimum (None at d = 0)
    and the invariance minimum it was built from; None when d admits none."""
    if off.value >= 0:
        tau = tau_max
    elif d == 0:
        last_fail.update(d=d, stage="offline", detail="zero depth with negative drift")
        return None
    else:
        tau = min(tau_max, d / (-off.value))

    rec = None
    if d == 0:
        phi = phi_min
    else:
        try:
            rec = min_recovery_drift(s, d, settings).value
        except EmptyRegionError:
            last_fail.update(d=d, stage="recovery", detail="empty band")
            return None
        if rec <= 0:
            last_fail.update(d=d, stage="recovery", detail=rec)
            return None
        phi = max(phi_min, d / rec)

    try:
        inv = min_invariance_margin(s, d, z, settings).value
    except EmptyRegionError:
        last_fail.update(d=d, stage="invariance", detail="empty buffer")
        return None
    if inv < 0:
        last_fail.update(d=d, stage="invariance", detail=inv)
        return None
    return ResilienceIndex(d=d, tau=tau, phi=phi, eta=inv), rec, inv
