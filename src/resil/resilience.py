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
from dataclasses import dataclass, field, replace

from .oracle import (
    MARGIN_TOLERANCE,
    EmptyRegionError,
    OracleSettings,
    depth_profile,
    drift_minimum,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
    sup_h,
)
from .subsystem import Region, Subsystem

DEFAULT_TAU_MAX = 1e9
DEFAULT_PHI_MIN = 1e-9
_MAX_DEPTHS = 100_000  # the longest depth sweep compute_index runs


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
    worst_points maps each condition to its witness, (name, value) pairs
    (see oracle.Extremum), or to None when the condition was skipped."""

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
    return _verify_one(s, (s,), (), index, z, settings)


def _verify_one(target: Subsystem, participants, couplings,
                index: ResilienceIndex, z: float,
                settings: OracleSettings) -> VerificationReport:
    """The three index conditions for target, as compute_index reads them:
    the three condition queries of oracle, minimized over the joint grid of
    the participants (target included, each in its safety set) with the
    coupling drifts, one per source, added to target's own.  Worst points
    are the queries' witnesses."""
    notes: list[str] = []
    worst: dict = {}

    def scan(label, query, *args):
        ex = query(target, *args, settings, participants, couplings)
        worst[label] = ex.arg
        return ex.value

    offline = scan("offline", min_offline_drift)

    recovery = None
    worst["recovery"] = None
    if index.d == 0:
        notes.append("recovery vacuous: zero buffer depth")
    else:
        try:
            recovery = scan("recovery", min_recovery_drift, index.d)
        except EmptyRegionError:
            notes.append("recovery band is empty at this grid resolution")
            try:  # h is continuous, so a grid point below d and a safe one span the band
                # Only round 0 can find the region empty: refinement adds nothing.
                drift_minimum(target, Region(-math.inf, index.d),
                              replace(settings, refinement_rounds=0), True, None,
                              participants, couplings)
                recovery = -math.inf  # the grid misses the band: not verified
            except EmptyRegionError:
                pass  # h >= d at every grid point: the band is empty

    try:
        invariance = scan("invariance", min_invariance_margin, index.d, z)
    except EmptyRegionError:
        invariance = -math.inf
        worst["invariance"] = None
        notes.append("buffer region is empty: d exceeds the reach of h")

    margins = (offline + index.d / index.tau,
               math.inf if recovery is None else recovery - index.d / index.phi,
               invariance - index.eta)
    passed = all(m >= -MARGIN_TOLERANCE for m in margins)
    return VerificationReport(passed, *margins, worst_points=worst, notes=tuple(notes))


def compute_index(s: Subsystem, z: float, eps: float = 0.1,
                  tau_max: float = DEFAULT_TAU_MAX,
                  phi_min: float = DEFAULT_PHI_MIN,
                  settings: OracleSettings | None = None,
                  maximize_tau: bool = False) -> ResilienceIndex | Infeasible:
    """Search buffer depths d = 0, eps, 2 eps, ... up to the depth of the
    safety set (at most 100,000 of them, else ValueError naming eps) and
    return the first that admits an index: a positive recovery minimum
    (when d > 0) and a nonnegative invariance minimum.
    Depths are tried in ascending order, or with maximize_tau by decreasing
    tau (known from d and the offline minimum before any scan; ties stay
    ascending), so the first that admits one is the answer.  A depth that a
    point of the round-0 grid already fails (oracle.depth_profile) is
    skipped unscanned: its scans would reject it.  The last depth is always
    scanned, so an Infeasible reports its scans' values.  The candidate
    meets the three conditions on the drift minima it is built from: phi
    steps up by ulps, as tau steps down in _tau, until its margin is
    nonnegative in floating point, and eta is the invariance minimum.
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
    if not depth / eps <= _MAX_DEPTHS:  # also an infinite sup h
        raise ValueError(f"eps = {eps:g} sweeps more than {_MAX_DEPTHS} depths up to "
                         f"sup h = {depth:.6g}")
    off = min_offline_drift(s, settings).value  # independent of d
    last_fail: dict = {"sup_h": depth, "min_offline_drift": off}
    depths = itertools.takewhile(lambda d: d <= depth * (1 + 1e-12),
                                 (k * eps for k in itertools.count()))
    if off < 0 and next(depths, None) is not None:  # drops d = 0: it admits no tau
        last_fail.update(d=0.0, stage="offline", detail="zero depth with negative drift")
    order = ((d, _tau(d, off, tau_max)) for d in depths)
    if maximize_tau:
        order = sorted(order, key=lambda d_tau: -d_tau[1])

    profile = None
    for i, ((d, tau), last) in enumerate(_marking_last(order)):
        if i == 0 and not last:
            profile = depth_profile(s, z, settings)
        if not last and profile is not None and profile.rules_out(d):
            continue  # its scans would reject it; the last depth is scanned for last_fail
        phi = phi_min
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
        return ResilienceIndex(d=d, tau=tau, phi=phi, eta=inv)
    return Infeasible("no buffer depth in the sweep admits a valid index", last_fail)


def _marking_last(items):
    """(item, whether it is the last one) for each item, reading one ahead."""
    items = iter(items)
    for item in items:
        for following in items:
            yield item, False
            item = following
        yield item, True


def _tau(d: float, off: float, tau_max: float) -> float:
    """The offline time at depth d for the offline drift minimum off:
    tau_max when off >= 0, else min(tau_max, d / -off) stepped down by ulps
    until off + d / tau, as _verify_one computes it, is nonnegative in
    floating point; 0 where no positive float is (d = 0 with off < 0)."""
    if off >= 0:
        return tau_max
    tau = min(tau_max, d / -off)
    while tau > 0 and off + d / tau < 0:
        tau = math.nextafter(tau, 0.0)
    return tau
