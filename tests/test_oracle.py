"""Grid oracle tests: extremum search, regions, and the drift quantities."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import resil.oracle as oracle_mod
import resil.resilience as resilience_mod
from resil.interconnect import verify_network
from resil.model_io import load_model
from resil.oracle import (
    EmptyRegionError,
    OracleSettings,
    StateGrid,
    Term,
    argmax_h,
    grid_minimize,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
    sup_h,
)
from resil.subsystem import SAFE_SET, buffer_region, safe_minus_buffer

from test_subsystem import cstr_hand_drift, make_cstr, make_toy


def settings(n=201, rounds=2):
    return OracleSettings(grid_points_per_dim=n, refinement_rounds=rounds)


def quadratic(b):
    return (b[0] - 0.3) ** 2 + (b[1] + 0.2) ** 2


def test_grid_minimize_quadratic_converges():
    val, arg = grid_minimize(quadratic, [(-1, 1), (-1, 1)], None, settings(101, 3))
    assert val == pytest.approx(0.0, abs=1e-8)
    assert arg[0] == pytest.approx(0.3, abs=1e-4)
    assert arg[1] == pytest.approx(-0.2, abs=1e-4)


def test_grid_minimize_no_axes():
    val, arg = grid_minimize(lambda b: 7.5, [], None, settings())
    assert val == 7.5
    assert arg == ()


def test_tie_break_is_lexicographic_first():
    val, arg = grid_minimize(lambda b: 0.0 * b[0] + 0.0 * b[1],
                             [(-1, 1), (2, 4)], None, settings(11, 0))
    assert val == 0.0
    assert arg == (-1.0, 2.0)


def test_empty_region_raises():
    with pytest.raises(EmptyRegionError):
        grid_minimize(lambda b: b[0], [(-1, 1)], lambda b: b[0] > 5, settings(11, 1))


def test_predicate_restricts_feasible_set():
    val, arg = grid_minimize(lambda b: b[0], [(-1, 1)],
                             lambda b: b[0] >= 0.5, settings(201, 0))
    assert val == pytest.approx(0.5)


def test_nan_objective_raises():
    def bad(b):
        return np.where(b[0] > 0, np.nan, b[0])
    with pytest.raises(FloatingPointError):
        grid_minimize(bad, [(-1, 1)], None, settings(11, 0))


def test_chunked_scan_matches_single_chunk(monkeypatch):
    ref = grid_minimize(quadratic, [(-1, 1), (-1, 1)], None, settings(101, 1))
    monkeypatch.setattr(oracle_mod, "_CHUNK_BUDGET", 500)
    chunked = grid_minimize(quadratic, [(-1, 1), (-1, 1)], None, settings(101, 1))
    assert ref == chunked


def test_refinement_improves_monotonically():
    coarse, _ = grid_minimize(quadratic, [(-1, 1), (-1, 1)], None, settings(51, 0))
    fine, _ = grid_minimize(quadratic, [(-1, 1), (-1, 1)], None, settings(51, 3))
    assert fine <= coarse


def test_minimize_region_membership():
    s = make_cstr()
    st = settings(101, 1)
    grid = StateGrid((s,), s.state_vars)
    for region in (SAFE_SET, safe_minus_buffer(1000.0), buffer_region(1000.0)):
        _, (T, c) = grid.minimize(lambda b: (b[0] - 377.0) ** 2 + b[1], st, s, region)
        hval = (T - 300) * (400 - T)
        assert 300 <= T <= 400 and 0 <= c <= 5
        assert region.lo - 1e-9 <= hval <= region.hi


def test_maximize_toy_h():
    s = make_toy()
    st = settings()
    grid = StateGrid((s,), ())
    neg, arg = grid.minimize(lambda b: -(1 - b[0]), st)
    assert -neg == pytest.approx(2.0)
    assert arg == (-1.0,)


def test_sup_h_toy_and_cstr():
    assert sup_h(make_toy(), settings(2001)) == pytest.approx(2.0)
    # 401 points place a node exactly on the vertex at T=350.
    assert sup_h(make_cstr(), settings(401)) == pytest.approx(2500.0)
    # Even grids straddle the vertex; refinement has to close the gap.
    assert sup_h(make_cstr(), settings(200, rounds=2)) == pytest.approx(2500.0, abs=1e-6)


def test_argmax_h_fills_pruned_axes_with_midpoints():
    s = make_cstr()
    x0 = argmax_h(s, settings(401))
    assert x0[0] == pytest.approx(350.0)
    assert x0[1] == 2.5  # c does not enter h; midpoint fill
    assert argmax_h(make_toy(), settings(2001)) == (-1.0,)


def test_min_offline_drift_toy():
    ex = min_offline_drift(make_toy(), settings(2001))
    assert ex.value == pytest.approx(-1.0)
    # Constant in x, so the tie-break lands on the first grid point; the
    # reconstructed adversarial input is the +1 vertex.
    assert ex.arg == (-1.0, 1.0)


def test_min_offline_drift_cstr_corner():
    # The reaction heat grows with T and c while the box edge caps heating,
    # so the worst offline point is the hot corner under full heating.
    ex = min_offline_drift(make_cstr(), settings(401))
    expected = cstr_hand_drift(400.0, 5.0, 2.7e6)
    assert ex.value == pytest.approx(expected, rel=1e-9)
    T, c, u = ex.arg
    assert (T, c, u) == (400.0, 5.0, 2.7e6)


def test_min_recovery_drift_toy():
    ex = min_recovery_drift(make_toy(), 0.1, settings(2001))
    assert ex.value == pytest.approx(1.0)
    x = ex.arg[0]
    assert 0 <= 1 - x <= 0.1


def test_min_invariance_margin_toy():
    ex = min_invariance_margin(make_toy(), 0.1, 1.0, settings(2001))
    assert ex.value == pytest.approx(1.0, abs=1e-9)


def test_invariance_margin_grows_with_z():
    s = make_cstr()
    st = settings(201, 1)
    lo = min_invariance_margin(s, 1000.0, 1.0, st).value
    hi = min_invariance_margin(s, 1000.0, 4.0, st).value
    assert hi >= lo


def test_settings_validation():
    with pytest.raises(ValueError):
        OracleSettings(grid_points_per_dim=1)
    with pytest.raises(ValueError):
        OracleSettings(refinement_rounds=-1)


def make_toy_variant(mu, input_box=((-1.0, 1.0),), f="0", h="1 - x1"):
    from resil.exprs import parse_expression
    from resil.subsystem import Subsystem
    sv = ("x1",)
    return Subsystem(
        name="S1", state_vars=sv, input_vars=("u1",),
        f=(parse_expression(f, sv),),
        g=((parse_expression("1", sv),),),
        h=parse_expression(h, sv),
        mu=(parse_expression(mu, sv),),
        state_box=((-1.0, 1.0),), input_box=input_box,
    )


def test_min_offline_drift_one_sided_input_box():
    ex = min_offline_drift(make_toy_variant("0", ((0.0, 0.5),)), settings(2001))
    assert ex.value == pytest.approx(-0.5)


def test_min_recovery_drift_proportional_law():
    # mu(x) = -x gives h-dot = x, so the band minimum sits at x = 1 - d.
    s = make_toy_variant("-x1")
    for d in (0.25, 0.5):
        ex = min_recovery_drift(s, d, settings(2001))
        assert ex.value == pytest.approx(1 - d, abs=1e-6)
        assert ex.value >= 1 - d  # sampled minima upper-bound the true one


def test_min_recovery_drift_zero_law():
    ex = min_recovery_drift(make_toy_variant("0"), 0.5, settings(2001))
    assert ex.value == pytest.approx(0.0, abs=1e-12)


def test_min_invariance_margin_zero_law_full_set():
    ex = min_invariance_margin(make_toy_variant("0"), 0.0, 1.0, settings(2001))
    assert ex.value == pytest.approx(0.0, abs=1e-12)


def test_min_invariance_margin_proportional_law():
    # mu(x) = -x, z=2, d=0: objective x + 2(1-x) = 2 - x, minimum 1 at x=1.
    ex = min_invariance_margin(make_toy_variant("-x1"), 0.0, 2.0, settings(2001))
    assert ex.value == pytest.approx(1.0, abs=1e-9)


def test_offline_vertex_trick_matches_product_grid():
    # Affine-in-u exactness: scanning only state axes with per-point vertex
    # selection must equal brute force over a dense (x, u) product grid.
    from resil.exprs import parse_expression
    from resil.subsystem import Subsystem
    rng = np.random.default_rng(21)
    for trial in range(3):
        a, b, c = rng.uniform(-2, 2, size=3).round(3)
        sv = ("x1",)
        s = Subsystem(
            name=f"R{trial}", state_vars=sv, input_vars=("u1", "u2"),
            f=(parse_expression(f"{a}*x1", sv),),
            g=((parse_expression(f"{b}", sv), parse_expression(f"{c}*x1", sv)),),
            h=parse_expression("1 - x1*x1", sv),
            mu=(parse_expression("0", sv), parse_expression("0", sv)),
            state_box=((-1.0, 1.0),), input_box=((-1.0, 2.0), (-0.5, 0.5)),
        )
        ex = min_offline_drift(s, settings(301, rounds=0))
        xs = np.linspace(-1, 1, 301)
        u1s = np.linspace(-1, 2, 61)[:, None]
        u2s = np.linspace(-0.5, 0.5, 61)[None, :]
        brute = np.inf
        for x in xs:
            grad = -2 * x
            vals = grad * (a * x + b * u1s + c * x * u2s)
            brute = min(brute, float(vals.min()))
        assert ex.value == pytest.approx(brute, abs=1e-12)


def test_grid_doubling_never_increases_minimum():
    s = make_cstr()
    for n in (101, 201):
        coarse = min_offline_drift(s, settings(n, rounds=0)).value
        fine = min_offline_drift(s, settings(2 * n - 1, rounds=0)).value
        assert fine <= coarse + 1e-9


# -- eliminated axes: a sum of terms scans the axes the terms share ----------

def scan_outcome(objective, axes, predicate, st_):
    try:
        return grid_minimize(objective, axes, predicate, st_)
    except (EmptyRegionError, FloatingPointError) as err:
        return type(err), str(err)


def record_kept_axes(monkeypatch):
    kept = []
    inner = oracle_mod._kept_axes

    def recorded(terms, predicate, ndim):
        kept.append(inner(terms, predicate, ndim))
        return kept[-1]

    monkeypatch.setattr(oracle_mod, "_kept_axes", recorded)
    return kept


def poly_term(reads, coefs, levels, special):
    """sum_i c_i b_i + q_i b_i^2 over the read axes, optionally floored to a
    step of 1/levels (plateaus that tie), and set to the value v where axis
    i exceeds 0.5 when special is (i, v)."""
    order = sorted(reads)

    def fn(b):
        v = 0.25
        for i, (c, q) in zip(order, coefs):
            v = v + c * b[i] + q * b[i] ** 2
        if levels is not None:
            v = np.floor(np.asarray(v) * levels) / levels
        if special is not None:
            v = np.where(b[special[0]] > 0.5, special[1], v)
        return v

    return Term(fn, frozenset(reads))


@st.composite
def separable_problems(draw):
    ndim = draw(st.integers(2, 4))
    axis = st.integers(0, ndim - 1)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        reads = draw(st.sets(axis, max_size=ndim))
        # Zero coefficients make terms constant along the axes they read.
        coefs = [(draw(st.sampled_from([0.0, -1.0, 0.5, 2.0])),
                  draw(st.sampled_from([0.0, 1.0, -1.0]))) for _ in reads]
        levels = draw(st.sampled_from([None, 1.0, 4.0]))
        special = None
        if reads and draw(st.booleans()):
            special = (draw(st.sampled_from(sorted(reads))),
                       draw(st.sampled_from([math.inf, -math.inf, math.nan])))
        terms.append(poly_term(reads, coefs, levels, special))
    mask_reads = sorted(draw(st.sets(axis, max_size=2)))
    bound = draw(st.sampled_from([-0.5, 0.0, 0.8, 5.0]))
    predicate = None
    if mask_reads:
        predicate = Term(lambda b: sum(b[i] for i in mask_reads) <= bound,
                         frozenset(mask_reads))
    axes = [draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5)]))
            for _ in range(ndim)]
    st_ = settings(draw(st.integers(2, 7)), draw(st.integers(0, 2)))
    return terms, predicate, axes, st_, draw(st.sampled_from([1, 7, 50, 4_000_000]))


# inf + (-inf) is part of what is tested.  The scan adds the terms' values
# without np.errstate, so numpy warns on that sum, and the suite turns
# warnings into errors.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@hsettings(max_examples=300, deadline=None)
@given(separable_problems())
def test_eliminated_axes_give_the_full_scan_result(problem):
    # Exact equality with the scan that eliminates nothing: the same value,
    # the same minimizer, the same error.
    terms, predicate, axes, st_, budget = problem
    saved = oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes
    oracle_mod._CHUNK_BUDGET = budget
    try:
        split = scan_outcome(terms, axes, predicate, st_)
        oracle_mod._kept_axes = lambda terms, predicate, ndim: ndim
        full = scan_outcome(terms, axes, predicate, st_)
    finally:
        oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes = saved
    assert split == full


def test_nan_in_eliminated_term_raises(monkeypatch):
    kept = record_kept_axes(monkeypatch)
    terms = [Term(lambda b: b[0], frozenset({0})),
             Term(lambda b: np.where(b[1] > 0.5, np.nan, b[1]), frozenset({1}))]
    with pytest.raises(FloatingPointError):
        grid_minimize(terms, [(-1, 1), (-1, 1)], None, settings(11, 0))
    assert kept == [1]


def test_axis_read_by_h_is_never_eliminated(monkeypatch):
    # x2 is read by one term only, but h reads it too: the region mask
    # depends on x2, so x2 stays a scanned axis.
    from resil.exprs import parse_expression
    from resil.subsystem import Subsystem
    sv = ("x1", "x2")
    s = Subsystem(
        name="S1", state_vars=sv, input_vars=("u1",),
        f=tuple(parse_expression("0", sv) for _ in sv),
        g=tuple((parse_expression("1", sv),) for _ in sv),
        h=parse_expression("x2 - 0.5", sv), mu=(parse_expression("0", sv),),
        state_box=((-1.0, 1.0), (-1.0, 1.0)), input_box=((-1.0, 1.0),),
    )
    kept = record_kept_axes(monkeypatch)
    grid = StateGrid((s,), sv)
    value, arg = grid.minimize([Term(lambda b: b[0], frozenset({0})),
                                Term(lambda b: b[1], frozenset({1}))], settings(21, 0))
    assert kept == [2]
    assert (value, arg) == (-0.5, (-1.0, 0.5))


def test_cstr_series_net_verify_eliminates_c2(monkeypatch):
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    net = model.network
    kept = record_kept_axes(monkeypatch)
    eliminated = []
    inner = resilience_mod.drift_minimum

    def recorded(s, *args):
        value, arg, grid = inner(s, *args)
        eliminated.append((s.name, grid.axis_names[kept[-1]:]))
        return value, arg, grid

    monkeypatch.setattr(resilience_mod, "drift_minimum", recorded)
    idx = resilience_mod.ResilienceIndex(d=25, tau=1e-5, phi=1e-4, eta=1.0)
    verify_network(net, {0: idx, 1: idx}, model.alpha_z, settings(21, 0))
    assert [names for name, names in eliminated if name == "S2"] == [["c2"]] * 3
    assert [names for name, names in eliminated if name == "S1"] == [["c1"]] * 3
