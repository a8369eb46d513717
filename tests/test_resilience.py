"""Index type, verification, and depth-sweep computation tests."""

import math
from importlib import resources

import numpy as np
import pytest

from resil import oracle, resilience
from resil.interconnect import Network, verify_network
from resil.model_io import load_model
from resil.oracle import OracleSettings
from resil.resilience import (
    DEFAULT_PHI_MIN,
    DEFAULT_TAU_MAX,
    Infeasible,
    ResilienceIndex,
    compute_index,
    verify_index,
)

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


def test_compute_scans_each_region_and_depth_once(monkeypatch):
    # Candidates are checked against the minima they were built from, so
    # the sweep makes the one offline scan plus one recovery and one
    # invariance scan per depth, and no verification rescans.
    scans = []
    drift_minimum = oracle.drift_minimum

    def counted(s, region, settings, closed_loop, z=None, *args):
        scans.append((region.kind, region.d, closed_loop, z))
        return drift_minimum(s, region, settings, closed_loop, z, *args)

    monkeypatch.setattr(oracle, "drift_minimum", counted)
    monkeypatch.setattr(resilience, "drift_minimum", counted)
    idx = compute_index(make_toy(), 1.0, eps=0.5, settings=TOY_SETTINGS,
                        maximize_tau=True)
    assert isinstance(idx, ResilienceIndex)
    # d = 0 fails the offline stage before any scan (the offline drift is -1).
    depths = (0.5, 1.0, 1.5, 2.0)
    assert scans == [("safe_set", 0.0, False, None)] + [
        scan for d in depths
        for scan in (("safe_minus_buffer", d, True, None), ("buffer", d, True, 1.0))]


def test_compute_rejects_bad_parameters():
    with pytest.raises(ValueError):
        compute_index(make_toy(), 1.0, eps=0.0)
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
