"""Grid oracle tests: extremum search, regions, and the drift quantities."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import resil.oracle as oracle_mod
import resil.resilience as resilience_mod
from resil.exprs import (
    ERRSTATE,
    BinaryOp,
    CompiledExpression,
    ExpCall,
    Literal,
    Negate,
    Variable,
    compile_expression,
    eval_expression,
    format_expression,
    free_variables,
    monotone_variables,
    parse_expression,
)
from resil.interconnect import Network, compute_delta, verify_network
from resil.model_io import load_model
from resil.oracle import (
    MARGIN_TOLERANCE,
    EmptyRegionError,
    OracleSettings,
    StateGrid,
    Term,
    argmax_h,
    depth_profile,
    grid_minimize,
    min_invariance_margin,
    min_offline_drift,
    min_recovery_drift,
    minimum,
    sup_h,
)
from resil.subsystem import (
    SAFE_SET,
    Subsystem,
    buffer_region,
    compile_reads,
    grad_dot,
    safe_minus_buffer,
)

from test_exit_codes import draw_tree
from test_subsystem import cstr_hand_drift, make_cstr, make_toy


def settings(n=201, rounds=2):
    return OracleSettings(grid_points_per_dim=n, refinement_rounds=rounds)


def whole(fn, ndim):
    """fn as a Term reading every one of ndim axes."""
    return Term(fn, frozenset(range(ndim)))


def quadratic(b):
    return (b[0] - 0.3) ** 2 + (b[1] + 0.2) ** 2


QUADRATIC = [whole(quadratic, 2)]


def test_grid_minimize_quadratic_converges():
    val, arg = grid_minimize(QUADRATIC, [(-1, 1), (-1, 1)], None, settings(101, 3))
    assert val == pytest.approx(0.0, abs=1e-8)
    assert arg[0] == pytest.approx(0.3, abs=1e-4)
    assert arg[1] == pytest.approx(-0.2, abs=1e-4)


def test_grid_minimize_no_axes():
    val, arg = grid_minimize([whole(lambda b: 7.5, 0)], [], None, settings())
    assert val == 7.5
    assert arg == ()
    # The one point is outside a region that excludes it.
    with pytest.raises(EmptyRegionError):
        grid_minimize([whole(lambda b: 7.5, 0)], [], whole(lambda b: False, 0), settings())


def test_tie_break_is_lexicographic_first():
    val, arg = grid_minimize([whole(lambda b: 0.0 * b[0] + 0.0 * b[1], 2)],
                             [(-1, 1), (2, 4)], None, settings(11, 0))
    assert val == 0.0
    assert arg == (-1.0, 2.0)


def test_empty_region_raises():
    with pytest.raises(EmptyRegionError):
        grid_minimize([whole(lambda b: b[0], 1)], [(-1, 1)],
                      whole(lambda b: b[0] > 5, 1), settings(11, 1))


def test_predicate_restricts_feasible_set():
    val, arg = grid_minimize([whole(lambda b: b[0], 1)], [(-1, 1)],
                             whole(lambda b: b[0] >= 0.5, 1), settings(201, 0))
    assert val == pytest.approx(0.5)


def test_nan_objective_raises():
    def bad(b):
        return np.where(b[0] > 0, np.nan, b[0])
    with pytest.raises(FloatingPointError):
        grid_minimize([whole(bad, 1)], [(-1, 1)], None, settings(11, 0))


def test_chunked_scan_matches_single_chunk(monkeypatch):
    ref = grid_minimize(QUADRATIC, [(-1, 1), (-1, 1)], None, settings(101, 1))
    monkeypatch.setattr(oracle_mod, "_CHUNK_BUDGET", 500)
    chunked = grid_minimize(QUADRATIC, [(-1, 1), (-1, 1)], None, settings(101, 1))
    assert ref == chunked


def test_refinement_improves_monotonically():
    coarse, _ = grid_minimize(QUADRATIC, [(-1, 1), (-1, 1)], None, settings(51, 0))
    fine, _ = grid_minimize(QUADRATIC, [(-1, 1), (-1, 1)], None, settings(51, 3))
    assert fine <= coarse


def test_minimize_region_membership():
    s = make_cstr()
    st = settings(101, 1)
    grid = StateGrid((s,), s.state_vars)
    for region in (SAFE_SET, safe_minus_buffer(1000.0), buffer_region(1000.0)):
        ex = grid.minimize([whole(lambda b: (b[0] - 377.0) ** 2 + b[1], 2)], st, s, region)
        (_, T), (_, c) = ex.arg
        hval = (T - 300) * (400 - T)
        assert 300 <= T <= 400 and 0 <= c <= 5
        assert region.lo - 1e-9 <= hval <= region.hi


def test_maximize_toy_h():
    s = make_toy()
    st = settings()
    grid = StateGrid((s,), ())
    ex = grid.minimize([whole(lambda b: -(1 - b[0]), 1)], st)
    assert -ex.value == pytest.approx(2.0)
    assert ex.arg == (("x1", -1.0),)


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
    # witness ends with the reconstructed adversarial input, the +1 vertex.
    assert ex.arg == (("x1", -1.0), ("u1", 1.0))


def test_min_offline_drift_cstr_corner():
    # The reaction heat grows with T and c while the box edge caps heating,
    # so the worst offline point is the hot corner under full heating.
    ex = min_offline_drift(make_cstr(), settings(401))
    expected = cstr_hand_drift(400.0, 5.0, 2.7e6)
    assert ex.value == pytest.approx(expected, rel=1e-9)
    assert ex.arg == (("T1", 400.0), ("c1", 5.0), ("u1", 2.7e6))


def test_min_recovery_drift_toy():
    ex = min_recovery_drift(make_toy(), 0.1, settings(2001))
    assert ex.value == pytest.approx(1.0)
    (name, x), = ex.arg
    assert name == "x1" and 0 <= 1 - x <= 0.1


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
    """The scan's (value, minimizer), or its error.  A FloatingPointError
    is its type alone: the message names the first bad value found, and
    which one that is depends on the chunks."""
    try:
        return grid_minimize(objective, axes, predicate, st_)
    except FloatingPointError:
        return FloatingPointError
    except EmptyRegionError as err:
        return EmptyRegionError, str(err)


def record_kept_axes(monkeypatch):
    kept = []
    inner = oracle_mod._kept_axes

    def recorded(terms, factors, ndim):
        kept.append(inner(terms, factors, ndim))
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
    # Up to three factors over disjoint axes: a factor after the first is
    # minimized out of the term that reads its axes when one term does.
    owner = [draw(st.sampled_from([None, 0, 0, 1, 2])) for _ in range(ndim)]
    factors = []
    for k in range(3):
        mask_reads = [i for i, o in enumerate(owner) if o == k]
        bound = draw(st.sampled_from([-0.5, 0.0, 0.8, 5.0]))
        if mask_reads:
            factors.append(Term(lambda b, r=mask_reads, c=bound: sum(b[i] for i in r) <= c,
                                frozenset(mask_reads)))
    predicate = factors or None
    if len(factors) == 1 and draw(st.booleans()):
        predicate = factors[0]
    axes = [draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5)]))
            for _ in range(ndim)]
    st_ = settings(draw(st.integers(2, 7)), draw(st.integers(0, 2)))
    return terms, predicate, axes, st_, draw(st.sampled_from([1, 7, 50, 4_000_000]))


@hsettings(max_examples=300, deadline=None)
@given(separable_problems())
def test_eliminated_axes_give_the_full_scan_result(problem):
    # Exact equality with the scan that eliminates nothing and with the scan
    # in one chunk: the same value, the same minimizer, the same error, with
    # the region given as one mask or as factors.
    terms, predicate, axes, st_, budget = problem
    one_chunk = scan_outcome(terms, axes, predicate, st_)
    saved = oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes
    oracle_mod._CHUNK_BUDGET = budget
    try:
        split = scan_outcome(terms, axes, predicate, st_)
        oracle_mod._kept_axes = lambda terms, factors, ndim: tuple(range(ndim))
        full = scan_outcome(terms, axes, predicate, st_)
    finally:
        oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes = saved
    assert split == full == one_chunk


def test_nan_in_eliminated_term_raises(monkeypatch):
    kept = record_kept_axes(monkeypatch)
    terms = [Term(lambda b: b[0], frozenset({0})),
             Term(lambda b: np.where(b[1] > 0.5, np.nan, b[1]), frozenset({1}))]
    with pytest.raises(FloatingPointError):
        grid_minimize(terms, [(-1, 1), (-1, 1)], None, settings(11, 0))
    assert kept == [(0,)]


def test_minus_inf_in_region_raises():
    # -inf is a numeric error wherever it lies, not a point the region
    # drops: the drift that overflows there has no minimum to report.
    def bad(b):
        return np.where(b[0] > 0.5, -np.inf, b[0])
    with pytest.raises(FloatingPointError, match="objective produced -inf"):
        grid_minimize([whole(bad, 1)], [(-1, 1)], whole(lambda b: b[0] >= 0, 1),
                      settings(11, 0))


def test_sum_overflowing_to_minus_inf_raises():
    # Each term is finite; their sum overflows to -inf, and to nan once a
    # +inf term is added.  Both are numeric errors, inside a region too.
    # Neither prints a numpy warning: the suite turns warnings into errors.
    big = Term(lambda b: np.full(b[0].shape, -1e308), frozenset({0}))
    wall = Term(lambda b: np.where(b[0] > 0.5, np.inf, 0.0), frozenset({0}))
    with pytest.raises(FloatingPointError, match="objective produced -inf"):
        grid_minimize([big, big], [(-1, 1)], whole(lambda b: b[0] >= 0, 1), settings(11, 0))
    with pytest.raises(FloatingPointError, match="objective produced nan"):
        grid_minimize([big, big, wall], [(-1, 1)], whole(lambda b: b[0] > 0.6, 1),
                      settings(11, 0))


def test_depth_profile_skips_nothing_where_the_drift_overflows():
    # lf = -1e308 and the law's term -1e308 are finite, their sum is -inf:
    # the scans of those points raise, so the profile declines to stand in
    # for them and the sweep's first scan raises as before.
    s = make_toy_variant("1e308", f="1e308")
    assert depth_profile(s, 1.0, settings(11, 0)) is None
    with pytest.raises(FloatingPointError, match="objective produced -inf"):
        resilience_mod.compute_index(s, 1.0, eps=0.5, settings=settings(11, 0))


def test_depth_profile_is_the_round_0_grid_of_the_certify_sweep():
    # cstr_series at grid 201: the c axis is eliminated, so the profile has
    # 201 points.  Each band minimum is the round-0 recovery scan's to the
    # bit, and every depth the profile rules out fails the refined scans.
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    z = model.alpha_z
    for s in model.network.subsystems:
        prof = depth_profile(s, z, settings(201))
        assert prof.h.size == 201
        for d in np.arange(1, int(sup_h(s, settings(201)) // 25) + 1) * 25.0:
            band = np.searchsorted(prof.h, d - MARGIN_TOLERANCE, side="right")
            try:
                rec0 = min_recovery_drift(s, d, settings(201, 0)).value
            except EmptyRegionError:
                rec0 = None
            assert rec0 == (None if band == 0 else prof.low_drift[band - 1])
            if prof.rules_out(d):
                try:
                    fails = (min_recovery_drift(s, d, settings(201)).value <= 0
                             or min_invariance_margin(s, d, z, settings(201)).value < 0)
                except EmptyRegionError:
                    fails = True
                assert fails, (s.name, d)


def test_inf_everywhere_in_region_raises():
    # +inf makes a point no candidate, but a region whose every grid point
    # is +inf has points: that is a numeric error, not an empty region.
    def never(b):
        return np.full(b[0].shape, np.inf)
    for region in (whole(lambda b: b[0] >= 0, 1), None):
        with pytest.raises(FloatingPointError, match="objective is \\+inf at every grid point"):
            grid_minimize([whole(never, 1)], [(-1, 1)], region, settings(11, 0))
    with pytest.raises(EmptyRegionError):
        grid_minimize([whole(never, 1)], [(-1, 1)], whole(lambda b: b[0] > 5, 1),
                      settings(11, 0))


def test_drift_of_inf_on_the_whole_safe_set_raises():
    # exp(800 x1) overflows on the safe set x1 >= 0.95, whose grid-41 nodes
    # are 0.95 and 1.0: the drift there is +inf, and the set is not empty.
    sv = ("x1",)
    s = Subsystem(name="S1", state_vars=sv, input_vars=("u1",),
                  f=(parse_expression("exp(800*x1)", sv),), g=((parse_expression("1", sv),),),
                  h=parse_expression("x1 - 0.95", sv), mu=(parse_expression("0", sv),),
                  state_box=((-1.0, 1.0),), input_box=((-1.0, 1.0),))
    with pytest.raises(FloatingPointError, match="objective is \\+inf at every grid point"):
        min_offline_drift(s, settings(41))


def test_axis_read_by_h_is_never_eliminated(monkeypatch):
    # x2 is read by one term only, but h reads it too, and h is the
    # region's first factor: the region mask depends on x2, so x2 stays a
    # scanned axis.  x1, which h does not read, is eliminated.
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
    ex = grid.minimize([Term(lambda b: b[0], frozenset({0})),
                        Term(lambda b: b[1], frozenset({1}))], settings(21, 0))
    assert kept == [(1,)]
    assert (ex.value, ex.arg) == (-0.5, (("x1", -1.0), ("x2", 0.5)))


def test_cstr_series_net_verify_eliminates_c2(monkeypatch):
    # S2's scans keep T2 alone: c2 is read by lf only, and T1 by the
    # coupling and S1's safety factor only.
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    net = model.network
    kept = record_kept_axes(monkeypatch)
    eliminated = []
    inner = oracle_mod.drift_minimum

    def recorded(s, *args):
        ex = inner(s, *args)
        axis_names = [name for name, _ in ex.arg if name not in s.input_vars]
        eliminated.append((s.name, [n for a, n in enumerate(axis_names) if a not in kept[-1]]))
        return ex

    monkeypatch.setattr(oracle_mod, "drift_minimum", recorded)
    idx = resilience_mod.ResilienceIndex(d=25, tau=1e-5, phi=1e-4, eta=1.0)
    verify_network(net, {0: idx, 1: idx}, model.alpha_z, settings(21, 0))
    assert [names for name, names in eliminated if name == "S2"] == [["T1", "c2"]] * 3
    assert [names for name, names in eliminated if name == "S1"] == [["c1"]] * 3


def test_scans_complete_kept_rounds_once_from_raw_terms(monkeypatch):
    # verify_network on cstr_series at grid 401.  Inside a scan no
    # CompiledExpression is called: the terms run the raw generated code
    # under the scan's one error state.  A round's point is completed only
    # when the round lowers the incumbent.  A completion of an S2 scan (T1
    # and c2 eliminated) evaluates the owner of each eliminated axis once,
    # and reads every other term from the round's fold: the input and z
    # terms are not evaluated.
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    inside, calls, rounds, completions, evaluations = [False], [], [], [], []
    scan, call = oracle_mod.grid_minimize, CompiledExpression.__call__
    scan_round, complete = oracle_mod._scan_round, oracle_mod._complete

    def recorded_scan(*args):
        inside[0] = True
        rounds.append([])
        completions.append(0)
        try:
            return scan(*args)
        finally:
            inside[0] = False

    def recorded_call(self, *args):
        calls.append(inside[0])
        return call(self, *args)

    def recorded_round(terms, factors, plan, grids):
        found = scan_round(terms, factors, plan, grids)
        rounds[-1].append(math.inf if found is None else found[0])
        return found

    def recorded_complete(terms, plan, grids, *rest):
        counts = [0] * len(terms)

        def counted(k, t):
            def fn(b):
                counts[k] += 1
                return t.fn(b)
            return t._replace(fn=fn)

        completions[-1] += 1
        out = complete([counted(k, t) for k, t in enumerate(terms)], plan, grids, *rest)
        evaluations.append((len(grids), counts, [int(bool(e)) for e in plan.elim]))
        return out

    monkeypatch.setattr(oracle_mod, "grid_minimize", recorded_scan)
    monkeypatch.setattr(CompiledExpression, "__call__", recorded_call)
    monkeypatch.setattr(oracle_mod, "_scan_round", recorded_round)
    monkeypatch.setattr(oracle_mod, "_complete", recorded_complete)
    idx = resilience_mod.ResilienceIndex(d=25, tau=1e-5, phi=1e-4, eta=1.0)
    verify_network(model.network, {0: idx, 1: idx}, model.alpha_z, settings(401))
    assert not any(calls)
    lowering = [sum(v < min(values[:k], default=math.inf) for k, v in enumerate(values))
                for values in rounds]
    assert completions == lowering
    assert sum(lowering) < sum(map(len, rounds))  # some round does not lower
    s2 = [(counts, owners) for ndim, counts, owners in evaluations if ndim == 3]
    assert s2 and all(counts == owners == [1, 1] + [0] * (len(counts) - 2)
                      for counts, owners in s2)


# -- monotone axes: an eliminated axis evaluated at its endpoints --------------

def test_monotone_variables_follow_the_rules():
    names = ("T", "c", "p")

    def monotone(text):
        return monotone_variables(parse_expression(text, names))

    for text in ("c*c", "exp(c)", "c^2", "(T-300)*c + (300-T)*c", "1/c", "c/(T + c)",
                 "(c + 1)*(c - 1)", "2*c - 3*c"):
        assert "c" not in monotone(text), text
    assert monotone("(T-300)*c + T") == {"c"}  # a direction that depends on T
    assert monotone("exp(-T)*c + 2*c - p/4") == {"c", "p"}
    assert monotone("-(c*T)/2") == {"c", "T"}
    assert monotone("(T-300)*(400-T)*c") == {"c"}
    assert monotone("T - c*exp(T)^2 + (-3)*p") == {"c", "p"}  # T also enters exp
    assert monotone("T*c + c") == {"T"}  # in c: T*c's direction is T's sign, c's is up


LEAF_LITERALS = (0.0, 0.5, 2.0, 3.0, 1e308, 1.7e308, 1e-308, 5e-324)


def draw_kept_tree(draw, depth):
    """A tree over x and literals, any operator."""
    kind = draw(st.sampled_from(["x", "lit", "lit", "+", "-", "*", "/", "neg", "exp", "^"]
                                if depth else ["x", "lit"]))
    if kind == "x":
        return Variable("x")
    if kind == "lit":
        return Literal(draw(st.sampled_from(LEAF_LITERALS)))
    if kind in ("neg", "exp"):
        return (Negate if kind == "neg" else ExpCall)(draw_kept_tree(draw, depth - 1))
    if kind == "^":
        return BinaryOp("^", draw_kept_tree(draw, depth - 1), Literal(2.0))
    return BinaryOp(kind, draw_kept_tree(draw, depth - 1), draw_kept_tree(draw, depth - 1))


def draw_scan_tree(draw, depth):
    """A tree over x, c and p, mostly of the forms the analysis admits in c
    and p (sums, differences, negation, products and quotients by trees over
    x), sometimes not (products of two such trees, exp, ^2)."""
    kind = draw(st.sampled_from(
        ["c", "p", "kept", "neg", "+", "-", "*k", "k*", "/k", "*", "exp", "^"]
        if depth else ["c", "c", "p", "kept"]))
    if kind in ("c", "p"):
        return Variable(kind)
    if kind == "kept":
        return draw_kept_tree(draw, 2)
    inner = draw_scan_tree(draw, depth - 1)
    if kind == "neg":
        return Negate(inner)
    if kind == "exp":
        return ExpCall(inner)
    if kind == "^":
        return BinaryOp("^", inner, Literal(2.0))
    if kind in ("*k", "/k"):
        return BinaryOp(kind[0], inner, draw_kept_tree(draw, 2))
    if kind == "k*":
        return BinaryOp("*", draw_kept_tree(draw, 2), inner)
    return BinaryOp(kind, inner, draw_scan_tree(draw, depth - 1))


def bitwise_outcome(terms, axes, predicate, st_):
    """The bytes of the scan's value and witness, or its error and message."""
    try:
        value, arg = grid_minimize(terms, axes, predicate, st_)
    except (ArithmeticError, EmptyRegionError) as err:
        return type(err), str(err)
    return np.array([value, *arg], dtype=float).tobytes()


@hsettings(max_examples=400, deadline=None)
@given(data=st.data())
def test_monotone_axes_give_the_scan_without_them(data):
    # A term over a kept axis x and eliminated axes c (and p), with the axes
    # that the analysis finds monotone declared or not: the same value and
    # witness bit for bit, signed zeros included, or the same error.  Both
    # scans run in one chunk, or one row per chunk, so they evaluate the
    # same points in the same order.
    draw = data.draw
    tree = draw_scan_tree(draw, draw(st.integers(1, 4), label="depth"))
    names = ("x", "c", "p") if "p" in free_variables(tree) else ("x", "c")
    fn = compile_reads(tree)
    slots = [names.index(n) for n in fn.names]

    def call(b):
        return fn(*[b[i] for i in slots])

    reads = frozenset(slots)
    monotone = frozenset(names.index(n) for n in fn.monotone)
    others = []
    if draw(st.booleans(), label="second term"):
        others = [Term(lambda b: 0.25 * b[0] - 1.0, frozenset({0}))]
    predicate = None
    bound = draw(st.sampled_from([None, -0.5, 0.0, 0.9]), label="x >= bound")
    if bound is not None:
        predicate = Term(lambda b: b[0] >= bound, frozenset({0}))
    axes = [draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5), (1.0, 4.0)]))
            for _ in names]
    st_ = settings(draw(st.integers(2, 7), label="grid"), draw(st.integers(0, 2), label="rounds"))
    budget = draw(st.sampled_from([1, 4_000_000]), label="chunk budget")
    saved = oracle_mod._CHUNK_BUDGET
    oracle_mod._CHUNK_BUDGET = budget
    try:
        with_axes = bitwise_outcome([Term(call, reads, monotone), *others], axes, predicate, st_)
        without = bitwise_outcome([Term(call, reads), *others], axes, predicate, st_)
    finally:
        oracle_mod._CHUNK_BUDGET = saved
    assert with_axes == without


@pytest.mark.parametrize("text, expected", [
    # inf * c: -inf at c = -1 and inf at c = 1, nan at c = 0 between them.
    ("1e308*10*c", (FloatingPointError, "objective produced nan on the grid")),
    # nan at c = -1 and inf at c = 1, a finite numerator over 0 inside.
    ("(c + 1)*1e307*10/(x - x)",
     (ZeroDivisionError, "division by zero evaluating '(c + 1.0) * 1e+307 * 10.0 / (x - x)'")),
])
def test_non_finite_endpoints_scan_the_full_line(text, expected):
    fn = compile_reads(parse_expression(text, ("x", "c")))
    assert "c" in fn.monotone
    slots = [("x", "c").index(n) for n in fn.names]

    def call(b):
        return fn(*[b[i] for i in slots])

    reads = frozenset(slots)
    for monotone in (frozenset({1}), frozenset()):
        assert bitwise_outcome([Term(call, reads, monotone)], [(1.0, 2.0), (-1.0, 1.0)],
                               None, settings(5, 0)) == expected


def test_monotone_axis_is_scanned_at_its_endpoints(monkeypatch):
    # lf of cstr_series S1 reads T1 and c1, and only T1 is kept: lf is
    # evaluated at c1's two endpoints, save for two rows where their minimum
    # is 0, T1 = 300 (f = 0 at c1 = 0) and T1 = 350 (grad h = 0, so lf is
    # -0.0 at c1 = 0 and 0.0 at c1 = 5).  Those rows are evaluated in full.
    model = load_model(str(resources.files("resil") / "models" / "cstr_series.json"))
    s = model.network.subsystems[0]
    assert s.compiled.lf.monotone == {"c1"}
    sizes = []
    inner = s.compiled.lf.fn

    def recorded(*args):
        sizes.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
        return inner(*args)

    monkeypatch.setattr(s.compiled.lf, "fn", recorded)
    ex = min_offline_drift(s, settings(201, 0))
    assert sizes[:2] == [(201, 2), (2, 201)]
    assert ex.value == pytest.approx(cstr_hand_drift(400.0, 5.0, 2.7e6), rel=1e-9)


# -- coupling sources: minimized out under their own safety factor ----------

def test_source_is_eliminated_under_its_factor(monkeypatch):
    # Axis 0 is a source's: read by one term and by the second factor only.
    # The term is monotone in it, so each line is evaluated at the grid ends
    # and at the first and last points in the factor, 4 points instead of 11.
    kept = record_kept_axes(monkeypatch)
    shapes = []

    def coupling(b):
        shapes.append(np.broadcast_shapes(b[0].shape, b[1].shape))
        return (b[1] + 2.0) * (b[0] - b[1])

    terms = [Term(coupling, frozenset({0, 1}), frozenset({0})),
             Term(lambda b: 0.5 * b[1], frozenset({1}))]
    factors = [Term(lambda b: b[1] >= -0.5, frozenset({1})),
               Term(lambda b: np.abs(b[0]) <= 0.6, frozenset({0}))]
    value, arg = grid_minimize(terms, [(-1, 1), (-1, 1)], factors, settings(11, 0))
    assert kept == [(1,)]
    assert shapes[0] == (4, 11)
    assert (value, arg) == (-4.300000000000001, (-0.6, 1.0))
    oracle_mod._kept_axes, inner = (lambda terms, factors, ndim: (0, 1)), oracle_mod._kept_axes
    try:
        assert grid_minimize(terms, [(-1, 1), (-1, 1)], factors, settings(11, 0)) == (value, arg)
    finally:
        oracle_mod._kept_axes = inner


def test_nan_outside_the_source_factor_raises(monkeypatch):
    # The source term is nan where the source's factor fails.  The source's
    # axis is minimized out where the factor holds, but a nan anywhere on the
    # scanned box raises, as the scan that keeps the axis raises.
    kept = record_kept_axes(monkeypatch)
    terms = [Term(lambda b: np.where(b[0] > 0.5, np.nan, b[0] * b[1]), frozenset({0, 1})),
             Term(lambda b: b[1], frozenset({1}))]
    factors = [Term(lambda b: b[1] >= 0, frozenset({1})),
               Term(lambda b: b[0] <= 0.5, frozenset({0}))]
    for budget in (1, 4_000_000):
        monkeypatch.setattr(oracle_mod, "_CHUNK_BUDGET", budget)
        with pytest.raises(FloatingPointError, match="objective produced nan on the grid"):
            grid_minimize(terms, [(-1, 1), (-1, 1)], factors, settings(11, 0))
    assert kept == [(1,), (1,)]


def test_source_tables_are_rebuilt_on_each_round(monkeypatch):
    # The source's minimum lies between nodes of the first grid.  Refinement
    # shrinks every axis around the incumbent, the source's too, and each
    # round minimizes over the source axis of its own grid, as the scan that
    # keeps the axis does: the same values and the same witness, round by
    # round.
    terms = [Term(lambda b: (b[0] - 0.123) ** 2 + b[1] ** 2, frozenset({0, 1}))]
    factors = [Term(lambda b: b[1] >= -1, frozenset({1})),
               Term(lambda b: b[0] >= -1, frozenset({0}))]
    seen = []
    inner = oracle_mod._scan_round

    def recorded(terms, factors, plan, grids):
        seen.append((grids[0][0], grids[0][-1]))
        return inner(terms, factors, plan, grids)

    monkeypatch.setattr(oracle_mod, "_scan_round", recorded)
    results = [grid_minimize(terms, [(-1, 1), (-1, 1)], factors, settings(11, r))
               for r in (0, 2)]
    monkeypatch.setattr(oracle_mod, "_kept_axes", lambda terms, factors, ndim: (0, 1))
    assert [grid_minimize(terms, [(-1, 1), (-1, 1)], factors, settings(11, r))
            for r in (0, 2)] == results
    assert results[1][0] < results[0][0] / 100
    # The rounds of the 2-round scan: the source axis shrinks around the witness.
    widths = [hi - lo for lo, hi in seen[1:4]]
    assert widths[0] > widths[1] > widths[2]
    assert seen[3][0] <= results[1][1][0] <= seen[3][1]


NETWORK_BOXES = [(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5)]


@st.composite
def coupled_networks(draw):
    """Networks of 2-3 subsystems with 1-2 states each, with polynomial
    dynamics, safety functions and couplings, any of them a cycle or a fan-in.
    A coupling component may add exp(-K h_i) - exp(-K h_i) for its source i:
    0 where h_i >= 0, and nan where h_i is below -709.78/K."""
    subs = []
    for k in range(draw(st.integers(2, 3), label="subsystems")):
        sv = tuple(f"x{k}{i}" for i in range(draw(st.integers(1, 2))))
        texts = [draw(polynomials(sv)) for _ in range(2 * len(sv) + 2)]
        subs.append(Subsystem(
            name=f"S{k}", state_vars=sv, input_vars=(f"u{k}",),
            f=tuple(parse_expression(t, sv) for t in texts[:len(sv)]),
            g=tuple((parse_expression(t, sv),) for t in texts[len(sv):-2]),
            h=parse_expression(texts[-2], sv), mu=(parse_expression(texts[-1], sv),),
            state_box=tuple(draw(st.sampled_from(NETWORK_BOXES)) for _ in sv),
            input_box=((-1.0, 1.0),), mu_saturation=draw(st.sampled_from([None, ((-0.5, 0.5),)]))))
    pairs = [(i, j) for i in range(len(subs)) for j in range(len(subs)) if i != j]
    couplings = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True), label="couplings"):
        names = subs[i].state_vars + subs[j].state_vars
        w = [draw(polynomials(names)) for _ in subs[j].state_vars]
        if draw(st.booleans(), label="nan outside the source's set"):
            h = format_expression(subs[i].h)
            w[0] += f" + (exp(-10000*({h})) - exp(-10000*({h})))"
        couplings[(i, j)] = tuple(parse_expression(c, names) for c in w)
    return Network(tuple(subs), couplings)


def witness_outcome(f):
    """The scan's value, its witness's names and bytes, or its error and
    message."""
    try:
        ex = f()
    except (ArithmeticError, EmptyRegionError) as err:
        return type(err), str(err)
    names, point = zip(*ex.arg)
    return ex.value, names, np.array(point, dtype=float).tobytes()


@hsettings(max_examples=120, deadline=None)
@given(net=coupled_networks(), data=st.data())
def test_sources_minimized_under_their_factors_give_the_joint_scan(net, data):
    # Each target's exact delta and its three drift scans with one coupling
    # term per source: the same value, and the same witness bit for bit
    # (signed zeros included) or the same error and message, as the scan
    # that keeps every axis, in one chunk and at one row per chunk.
    draw = data.draw
    states = sum(s.n_states for s in net.subsystems)
    st_ = settings(draw(st.integers(2, 15 if states <= 4 else 7), label="grid"),
                   draw(st.integers(0, 2), label="rounds"))
    d, z = draw(st.sampled_from([0.1, 0.5])), draw(st.sampled_from([0.5, 2.0]))
    for j, s in enumerate(net.subsystems):
        inc = net.incoming(j)
        if not inc:
            continue
        participants = [net.subsystems[p] for p in sorted({j, *(i for i, _ in inc)})]
        couplings = [grad_dot(s.compiled.grad, w) for _, w in inc]
        queries = [lambda: compute_delta(net, j, st_, exact=True)]
        scans = [(SAFE_SET, False, None), (safe_minus_buffer(d), True, None),
                 (buffer_region(d), True, z)]
        queries += [lambda r=r, loop=loop, zz=zz: oracle_mod.drift_minimum(
                        s, r, st_, loop, zz, participants, couplings)
                    for r, loop, zz in scans]
        for budget in (4_000_000, 1):
            saved = oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes
            oracle_mod._CHUNK_BUDGET = budget
            try:
                eliminated = [witness_outcome(q) for q in queries]
                oracle_mod._kept_axes = lambda terms, factors, ndim: tuple(range(ndim))
                joint = [witness_outcome(q) for q in queries]
            finally:
                oracle_mod._CHUNK_BUDGET, oracle_mod._kept_axes = saved
            assert eliminated == joint


# -- the expression query -------------------------------------------------------

def polynomials(names):
    """Strings c + sum of c x and c x y over the names; products only, so a
    value is rounded the same on a broadcast grid and on a mesh."""
    monomials = [n for n in names] + [f"{a}*{b}" for a in names for b in names if a <= b]
    coef = st.sampled_from(["0.5", "-1", "2", "-0.25", "3"])
    picked = st.lists(st.tuples(coef, st.sampled_from(monomials)), min_size=1, max_size=4)
    return st.builds(lambda c, ts: " + ".join([c, *(f"{k}*{m}" for k, m in ts)]), coef, picked)


@st.composite
def minimum_problems(draw):
    subsystems = []
    for k in range(draw(st.integers(1, 2))):
        sv = tuple(f"x{k}{i}" for i in range(draw(st.integers(1, 2))))
        zero = parse_expression("0", sv)
        subsystems.append(Subsystem(
            name=f"S{k}", state_vars=sv, input_vars=(f"u{k}",), f=(zero,) * len(sv),
            g=((zero,),) * len(sv), h=parse_expression(draw(polynomials(sv)), sv), mu=(zero,),
            state_box=tuple(draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5)]))
                            for _ in sv),
            input_box=((-1.0, 1.0),)))
    names = [n for s in subsystems for n in s.state_vars]
    reads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    return subsystems, parse_expression(draw(polynomials(sorted(reads))), names)


@hsettings(max_examples=150, deadline=None)
@given(minimum_problems(), st.integers(2, 9))
def test_minimum_is_the_brute_force_grid_minimum(problem, n):
    # At 0 rounds the query is np.min over the linspace product of every
    # state variable, restricted to h >= -MARGIN_TOLERANCE in each subsystem,
    # and its witness is a point of that product where e takes the minimum.
    subsystems, e = problem
    names = [v for s in subsystems for v in s.state_vars]
    boxes = [b for s in subsystems for b in s.state_box]
    mesh = np.meshgrid(*(np.linspace(lo, hi, n) for lo, hi in boxes), indexing="ij")
    at = dict(zip(names, mesh))
    mask = np.logical_and.reduce(
        [compile_expression(s.h, s.state_vars)(*(at[v] for v in s.state_vars))
         >= -MARGIN_TOLERANCE for s in subsystems])
    values = np.broadcast_to(compile_expression(e, names)(*mesh), mask.shape)
    st_ = settings(n, rounds=0)
    if not mask.any():
        with pytest.raises(EmptyRegionError):
            minimum([e], subsystems, st_)
        return
    ex = minimum([e], subsystems, st_)
    assert ex.value == float(values[mask].min())
    witness = dict(ex.arg)
    assert [v for v, _ in ex.arg] == [v for v in names if v in witness]  # axis order
    assert free_variables(e) <= witness.keys()
    point = {v: 0.5 * (lo + hi) for v, (lo, hi) in zip(names, boxes)} | witness
    assert eval_expression(e, point) == ex.value
    assert all(eval_expression(s.h, point) >= -MARGIN_TOLERANCE for s in subsystems)


def outcome(f):
    """The bytes of f()'s float value, or the type of the error it raises."""
    try:
        return np.float64(f()).tobytes()
    except ArithmeticError as err:
        return type(err)


@hsettings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_functions_read_their_trees_and_grid_terms_bind_them(data):
    # Every compiled function of a subsystem takes the sorted free variables
    # of its tree, and the grid's term binds it by name: at a grid point it
    # is the tree's value there, and it reads exactly the axes of its names.
    n = data.draw(st.integers(1, 3), label="states")
    sv = tuple(data.draw(st.permutations(["q", "p", "r"]), label="state order")[:n])

    def tree():
        return parse_expression(draw_tree(data.draw, sv), sv)

    s = Subsystem(name="S", state_vars=sv, input_vars=("u",), f=tuple(tree() for _ in sv),
                  g=tuple((tree(),) for _ in sv), h=tree(), mu=(tree(),),
                  state_box=((-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5))[:n], input_box=((-1.0, 1.0),))
    comp = s.compiled
    pairs = [(comp.h, s.h), (comp.mu[0], s.mu[0]), (comp.lf, grad_dot(comp.grad, s.f)),
             (comp.lg[0], comp.lg_trees[0])]
    for fn, e in pairs:
        assert fn.names == tuple(sorted(free_variables(e)))

    grid_n = data.draw(st.integers(2, 9), label="grid")
    grid = StateGrid((s,), {v for fn, _ in pairs for v in fn.names})
    point = [float(np.linspace(lo, hi, grid_n)[data.draw(st.integers(0, grid_n - 1))])
             for lo, hi in grid.axes]
    at = dict(zip(grid.axis_names, point))
    for fn, e in pairs:
        term = grid.term(fn)
        assert term.reads == {grid.axis_names.index(v) for v in fn.names}
        with np.errstate(**ERRSTATE):  # a Term runs raw, under the scan's error state
            got = outcome(lambda: term.fn(point))
        assert got == outcome(lambda: eval_expression(e, at))
