"""Index type, verification, and depth-sweep computation tests."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from resil import oracle, resilience
from resil.exprs import parse_expression
from resil.interconnect import Network, verify_network
from resil.model_io import load_model
from resil.oracle import (
    EmptyRegionError,
    OracleSettings,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
    sup_h,
)
from resil.resilience import (
    DEFAULT_PHI_MIN,
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    _margin_rule,
    compute_index,
    verify_index,
)
from resil.subsystem import SAFE_SET, Subsystem, buffer_region, safe_minus_buffer

from test_oracle import make_toy_variant
from test_subsystem import make_cstr, make_toy

TOY_SETTINGS = OracleSettings(grid_points_per_dim=2001, refinement_rounds=2)
CSTR_SETTINGS = OracleSettings(grid_points_per_dim=401, refinement_rounds=2)

# Golden index for the series-reactor stage under the bundled saturating
# law, recorded from the first oracle run at the settings above and pinned
# so later refactors cannot silently shift the numerics.
CSTR_GOLDEN = ResilienceIndex(d=1000.0, tau=0.0008231973119569519,
                              phi=0.0011214851309336183,
                              eta=2928.5302884350476)


def test_index_type_validation():
    ResilienceIndex(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ResilienceIndex(-0.1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ResilienceIndex(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ResilienceIndex(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ResilienceIndex(0.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        ResilienceIndex(math.inf, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ResilienceIndex(0.0, math.nan, 1.0, 0.0)
    # An unbounded offline tolerance is representable.
    idx = ResilienceIndex(0.0, math.inf, 1.0, 0.0)
    assert idx.as_tuple() == (0.0, math.inf, 1.0, 0.0)


def test_infeasible_is_falsy():
    bad = Infeasible("because")
    assert not bad
    assert bad.reason == "because"


def test_verify_balanced_index_passes():
    rep = verify_index(make_toy(), ResilienceIndex(0.5, 0.5, 0.5, 1.0), 1.0,
                       TOY_SETTINGS)
    assert rep.passed
    assert rep.margin_offline == pytest.approx(0.0, abs=1e-9)
    assert rep.margin_recovery == pytest.approx(0.0, abs=1e-6)
    assert rep.margin_invariance == pytest.approx(0.0, abs=1e-9)
    assert set(rep.worst_points) == {"offline", "recovery", "invariance"}


def test_verify_overlong_tau_fails_offline():
    rep = verify_index(make_toy(), ResilienceIndex(0.5, 0.6, 0.5, 1.0), 1.0,
                       TOY_SETTINGS)
    assert not rep.passed
    assert rep.margin_offline == pytest.approx(0.5 / 0.6 - 1.0, abs=1e-9)


def test_verify_zero_depth_recovery_vacuous():
    rep = verify_index(make_toy(), ResilienceIndex(0.0, 1e9, 1.0, 0.0), 1.0,
                       TOY_SETTINGS)
    assert rep.margin_recovery == math.inf
    assert any("vacuous" in n for n in rep.notes)
    assert not rep.passed  # offline drift -1 with huge tau still fails


def test_verify_depth_beyond_reach_fails():
    rep = verify_index(make_toy(), ResilienceIndex(3.0, 0.1, 1.0, 0.0), 1.0,
                       TOY_SETTINGS)
    assert not rep.passed
    assert rep.margin_invariance == -math.inf
    assert any("empty" in n for n in rep.notes)


def test_compute_toy_first_feasible_depth():
    idx = compute_index(make_toy(), 1.0, eps=0.1, tau_max=10.0, phi_min=1e-6,
                        settings=TOY_SETTINGS)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == pytest.approx(0.1)
    assert idx.tau == pytest.approx(0.1)
    assert idx.phi == pytest.approx(0.1)
    assert idx.eta == pytest.approx(1.0, abs=1e-9)


def test_compute_zero_law_infeasible():
    out = compute_index(make_toy(mu="0"), 1.0, eps=0.25, settings=TOY_SETTINGS)
    assert isinstance(out, Infeasible)
    assert not out
    assert out.diagnostics


def test_compute_recovery_too_slow_for_a_finite_phi_is_infeasible():
    # The band drift is the smallest subnormal, so d / rec overflows: no
    # finite phi exists and the depth fails instead of raising.
    s = make_toy_variant("0", ((0.0, 1.0),), f="-5e-324")
    out = compute_index(s, 0.0, eps=1.0, settings=OracleSettings(grid_points_per_dim=5))
    assert isinstance(out, Infeasible)
    assert out.diagnostics == {"sup_h": 2.0, "min_offline_drift": -1.0,
                               "d": 2.0, "stage": "recovery", "detail": 5e-324}


def test_compute_nonnegative_offline_drift_returns_depth_zero():
    # Heating is impossible when the input box sits at or above the drift
    # balance, so tau is unbounded and the sweep accepts d = 0 immediately.
    s = make_toy_variant("-1", input_box=((-1.0, -0.5),))
    idx = compute_index(s, 1.0, eps=0.1, settings=TOY_SETTINGS)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == 0.0
    assert idx.tau == DEFAULT_TAU_MAX
    assert idx.phi == DEFAULT_PHI_MIN
    # Closed-loop h-dot is +1 and the z-term vanishes at the boundary.
    assert idx.eta == pytest.approx(1.0, abs=1e-9)


def test_compute_maximize_tau_prefers_deepest_buffer():
    idx = compute_index(make_toy(), 1.0, eps=0.5, settings=TOY_SETTINGS,
                        maximize_tau=True)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == pytest.approx(2.0)
    assert idx.tau == pytest.approx(2.0)


def record_scans(monkeypatch):
    """The (region, closed_loop, z) of every drift scan made from now on."""
    scans = []
    drift_minimum = oracle.drift_minimum

    def counted(s, region, settings, closed_loop, z=None, *args):
        scans.append((region, closed_loop, z))
        return drift_minimum(s, region, settings, closed_loop, z, *args)

    monkeypatch.setattr(oracle, "drift_minimum", counted)
    monkeypatch.setattr(resilience, "drift_minimum", counted)
    return scans


OFFLINE_SCAN = (SAFE_SET, False, None)


def depth_scans(d, z=1.0):
    """The recovery and the invariance scan of a candidate at depth d."""
    return [(safe_minus_buffer(d), True, None), (buffer_region(d), True, z)]


def test_compute_scans_each_region_and_depth_once(monkeypatch):
    # Candidates are checked against the minima they were built from, and
    # tau is known from d before any scan, so the search for the largest tau
    # starts at d = 2 (tau = 2) and stops there: the one offline scan plus
    # one recovery and one invariance scan, and no verification rescans.
    scans = record_scans(monkeypatch)
    idx = compute_index(make_toy(), 1.0, eps=0.5, settings=TOY_SETTINGS,
                        maximize_tau=True)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == 2.0
    assert scans == [OFFLINE_SCAN] + depth_scans(2.0)


def test_compute_scans_ascending_to_first_pass(monkeypatch):
    # On a 5-point grid no node has 0 <= h < 0.25, so d = 0.25 is dropped
    # when its recovery scan finds the band empty and d = 0.5 passes.  d = 0
    # makes no scan: the offline drift is -1.
    scans = record_scans(monkeypatch)
    idx = compute_index(make_toy_variant("-1", h="0.75 - x1"), 1.0, eps=0.25,
                        settings=OracleSettings(grid_points_per_dim=5, refinement_rounds=0))
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == 0.5
    assert scans == [OFFLINE_SCAN, (safe_minus_buffer(0.25), True, None)] + depth_scans(0.5)


def test_compute_depths_are_generated_lazily(monkeypatch):
    # A tiny step returns at the first passing depth without visiting the
    # billion depths behind it.
    scans = record_scans(monkeypatch)
    idx = compute_index(make_toy(), 1.0, eps=1e-9, settings=TOY_SETTINGS)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == 1e-9
    assert scans == [OFFLINE_SCAN] + depth_scans(1e-9)


def test_compute_rejects_bad_parameters():
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            compute_index(make_toy(), 1.0, eps=eps)
    with pytest.raises(ValueError):
        compute_index(make_toy(), -1.0)


def test_weakening_monotonicity():
    # Shrinking tau, growing phi, or shrinking eta never breaks a passing
    # index: each move only adds slack to its inequality.
    s = make_toy()
    base = ResilienceIndex(0.5, 0.5, 0.5, 1.0)
    assert verify_index(s, base, 1.0, TOY_SETTINGS).passed
    rng = np.random.default_rng(17)
    for _ in range(20):
        weak = ResilienceIndex(
            base.d,
            base.tau * rng.uniform(0.2, 1.0),
            base.phi / rng.uniform(0.2, 1.0),
            base.eta * rng.uniform(0.0, 1.0),
        )
        assert verify_index(s, weak, 1.0, TOY_SETTINGS).passed


def test_inner_solve_consistency_on_variants():
    for mu, box in (("-1", ((-1.0, 1.0),)), ("-x1", ((-1.0, 1.0),)),
                    ("-1", ((-1.0, -0.5),))):
        s = make_toy_variant(mu, box)
        idx = compute_index(s, 1.0, eps=0.25, settings=TOY_SETTINGS)
        assert isinstance(idx, ResilienceIndex)
        rep = verify_index(s, idx, 1.0, TOY_SETTINGS)
        assert rep.passed, (mu, box, rep)


def test_cstr_golden_index():
    got = compute_index(make_cstr(), 2.0, eps=1000.0, settings=CSTR_SETTINGS)
    assert isinstance(got, ResilienceIndex)
    assert got.d == CSTR_GOLDEN.d
    assert got.tau == pytest.approx(CSTR_GOLDEN.tau, rel=1e-9)
    assert got.phi == pytest.approx(CSTR_GOLDEN.phi, rel=1e-9)
    assert got.eta == pytest.approx(CSTR_GOLDEN.eta, rel=1e-9)
    assert verify_index(make_cstr(), got, 2.0, CSTR_SETTINGS).passed


def test_cstr_reference_scale_index_recorded_failing():
    # Reference quadruple at the published scale; under the bundled law it
    # fails the offline condition (golden margins from the first run).
    rep = verify_index(make_cstr(), ResilienceIndex(2100, 0.0146, 0.308, 0.0),
                       2.0, CSTR_SETTINGS)
    assert not rep.passed
    assert rep.margin_offline == pytest.approx(-1070939.97, rel=1e-6)
    assert rep.margin_recovery == pytest.approx(333505.43, rel=1e-6)
    assert rep.margin_invariance == pytest.approx(728.53029, rel=1e-6)


def test_verify_index_is_one_node_network_verify():
    # verify_index runs the network verifier on a coupling-free one-node
    # network, so the two agree exactly on the indices compute_index returns
    # (they once summed the closed-loop drift in different orders).
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    settings = OracleSettings(grid_points_per_dim=201)
    for s in model.network.subsystems:
        idx = compute_index(s, model.alpha_z, eps=25, settings=settings,
                            maximize_tau=True)
        assert isinstance(idx, ResilienceIndex)
        alone = verify_index(s, idx, model.alpha_z, settings)
        (joint,) = verify_network(Network(subsystems=(s,)), {0: idx}, model.alpha_z,
                                  settings).values()
        margins = [(r.margin_offline, r.margin_recovery, r.margin_invariance)
                   for r in (alone, joint)]
        assert margins[0] == margins[1], s.name
        assert alone.worst_points == joint.worst_points


def make_scaled(f: float, mu: float, u_max: float) -> Subsystem:
    """x' = f + u on [-100, 100] with h = 100 - x, the constant law mu and the
    input box [-u_max, u_max]: drifts of size f, u_max and mu."""
    sv = ("x1",)
    return Subsystem(
        name="S1", state_vars=sv, input_vars=("u1",),
        f=(parse_expression(repr(f), sv),), g=((parse_expression("1", sv),),),
        h=parse_expression("100 - x1", sv), mu=(parse_expression(repr(mu), sv),),
        state_box=((-100.0, 100.0),), input_box=((-u_max, u_max),))


COARSE = OracleSettings(grid_points_per_dim=21, refinement_rounds=0)


def test_large_drift_candidate_survives_its_own_rounding():
    # d / (d / -off) need not give back -off: with tau = d / -off taken as
    # is, the offline margin recomputed from tau is -1.49e-8 at d = 1 and 2,
    # below the absolute tolerance, and the sweep would go on to d = 3.
    s = make_scaled(42249000.0, -84498000.0, 84498000.0)
    idx = compute_index(s, 1.0, eps=1.0, settings=COARSE)
    assert isinstance(idx, ResilienceIndex)
    assert idx.d == 1.0
    rep = verify_index(s, idx, 1.0, COARSE)
    assert min(rep.margin_offline, rep.margin_recovery, rep.margin_invariance) >= 0


@hsettings(max_examples=60, deadline=None)
@given(exponent=st.floats(0.0, 9.0), f=st.floats(0.1, 1.0), pull=st.floats(0.1, 1.0),
       room=st.floats(0.0, 1.0))
def test_returned_index_margins_are_nonnegative(exponent, f, pull, room):
    scale = 10.0 ** exponent
    mu = -(f + pull) * scale  # closed loop x' = -pull * scale: recovers
    s = make_scaled(f * scale, mu, -mu * (1.0 + room))
    idx = compute_index(s, 1.0, eps=1.0, settings=COARSE)
    assert isinstance(idx, ResilienceIndex)
    rep = verify_index(s, idx, 1.0, COARSE)
    assert rep.margin_offline >= 0
    assert rep.margin_recovery >= 0
    assert rep.margin_invariance >= 0


def test_cstr_series_maximize_tau_golden():
    # The indices the certify pipeline starts from (index compute --eps 25
    # --grid 201 --maximize-tau), pinned to the bit.
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    got = [compute_index(s, model.alpha_z, eps=25,
                         settings=OracleSettings(grid_points_per_dim=201),
                         maximize_tau=True).as_tuple()
           for s in model.network.subsystems]
    assert got == [
        (2450.0, 0.0020168334142945323, 0.060858535413394164, 28.53028843504775),
        (2075.0, 0.005135625, 0.018771411200458894, 34.60611655896071)]


def reference_compute_index(s, z, eps, tau_max, phi_min, settings, maximize_tau):
    """The depth sweep that builds and checks a candidate at every depth and,
    with maximize_tau, keeps the first one with the largest tau: the
    reference the ordered search must agree with."""
    depth = sup_h(s, settings)
    off = min_offline_drift(s, settings)
    last_fail: dict = {"sup_h": depth, "min_offline_drift": off.value}
    best = None
    k = 0
    while True:
        d = k * eps
        k += 1
        if d > depth * (1 + 1e-12):
            break
        found = reference_candidate_at(s, d, z, off, tau_max, phi_min, settings,
                                       last_fail)
        if found is None:
            continue
        candidate, rec, inv = found
        passed, margins = _margin_rule(candidate, off.value, rec, inv)
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


def reference_candidate_at(s, d, z, off, tau_max, phi_min, settings, last_fail):
    if off.value >= 0:
        tau = tau_max
    elif d == 0:
        last_fail.update(d=d, stage="offline", detail="zero depth with negative drift")
        return None
    else:
        tau = min(tau_max, d / (-off.value))
    while off.value + d / tau < 0:
        tau = math.nextafter(tau, 0.0)

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
        while rec - d / phi < 0:
            phi = math.nextafter(phi, math.inf)
        if phi == math.inf:
            last_fail.update(d=d, stage="recovery", detail=rec)
            return None

    try:
        inv = min_invariance_margin(s, d, z, settings).value
    except EmptyRegionError:
        last_fail.update(d=d, stage="invariance", detail="empty buffer")
        return None
    if inv < 0:
        last_fail.update(d=d, stage="invariance", detail=inv)
        return None
    return ResilienceIndex(d=d, tau=tau, phi=phi, eta=inv), rec, inv


@hsettings(max_examples=150, deadline=None)
@given(scale=st.sampled_from((1.0, 1e3, 1e7)), f=st.floats(-1.0, 1.0),
       lo=st.floats(-2.0, 1.0), width=st.floats(0.1, 2.0),
       law=st.sampled_from(("-1", "-x1", "0", "x1", "-0.5 - x1")),
       h=st.sampled_from(("1 - x1", "0.75 - x1", "1 - x1^2")),
       eps=st.floats(0.05, 1.0), cap=st.one_of(st.none(), st.floats(0.01, 2.0)),
       z=st.floats(0.0, 2.0), grid=st.integers(5, 41), maximize_tau=st.booleans())
def test_search_returns_what_the_full_sweep_returned(scale, f, lo, width, law, h, eps,
                                                     cap, z, grid, maximize_tau):
    # x' = scale * (f + u) with u in scale * [lo, lo + width] under the law
    # scale * law;
    # h = 0.75 - x1 leaves the shallow bands empty on most grids, and a tau
    # cap of order 1 / scale makes many depths tie at tau_max.
    s = make_toy_variant(f"{scale!r}*({law})", ((lo * scale, (lo + width) * scale),),
                         f=repr(f * scale), h=h)
    tau_max = DEFAULT_TAU_MAX if cap is None else cap / scale
    settings = OracleSettings(grid_points_per_dim=grid)
    got = compute_index(s, z, eps, tau_max, DEFAULT_PHI_MIN, settings, maximize_tau)
    want = reference_compute_index(s, z, eps, tau_max, DEFAULT_PHI_MIN, settings,
                                   maximize_tau)
    assert type(got) is type(want)
    assert got == want
