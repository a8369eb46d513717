"""Subsystem construction, validation, and drift-layer evaluation tests."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resil.exprs import compile_expression, parse_expression
from resil.model_io import load_model
from resil.subsystem import (
    ModelError,
    Region,
    SAFE_SET,
    Subsystem,
    buffer_region,
    safe_minus_buffer,
)


def make_toy(mu="-1"):
    sv = ("x1",)
    return Subsystem(
        name="S1",
        state_vars=sv,
        input_vars=("u1",),
        f=(parse_expression("0", sv),),
        g=((parse_expression("1", sv),),),
        h=parse_expression("1 - x1", sv),
        mu=(parse_expression(mu, sv),),
        state_box=((-1.0, 1.0),),
        input_box=((-1.0, 1.0),),
    )


CSTR_F_T = (
    "4.998*(300 - T1) + (50000/231)*3000000*exp(-50000/(8.314*T1))*c1"
    " + (52000/231)*300000*exp(-75300/(8.314*T1))*c1"
    " + (54000/231)*300000*exp(-75300/(8.314*T1))*c1"
)
CSTR_F_C = (
    "4.998*(4 - c1) - 3000000*exp(-50000/(8.314*T1))*c1"
    " - 300000*exp(-75300/(8.314*T1))*c1 - 300000*exp(-75300/(8.314*T1))*c1"
)


def make_cstr():
    sv = ("T1", "c1")
    return Subsystem(
        name="S1",
        state_vars=sv,
        input_vars=("u1",),
        f=(parse_expression(CSTR_F_T, sv), parse_expression(CSTR_F_C, sv)),
        g=((parse_expression("1/231", sv),), (parse_expression("0", sv),)),
        h=parse_expression("(T1 - 300)*(400 - T1)", sv),
        mu=(parse_expression("100000*(350 - T1)", sv),),
        state_box=((300.0, 400.0), (0.0, 5.0)),
        input_box=((-2.7e6, 2.7e6),),
        mu_saturation=((-2.7e6, 2.7e6),),
    )


def cstr_hand_drift(T, c, u):
    # Independent arithmetic for grad h . (f + g u) on the reactor model.
    k1 = 3e6 * np.exp(-50000 / (8.314 * T))
    k23 = 3e5 * np.exp(-75300 / (8.314 * T))
    f_T = (4.998 * (300 - T) + (50000 / 231) * k1 * c
           + (52000 / 231) * k23 * c + (54000 / 231) * k23 * c)
    return (700 - 2 * T) * (f_T + u / 231)


def drift(s, x, u):
    """lf + sum_k lg_k u_k at one state and input, read off the drift layer."""
    comp = s.compiled
    env = dict(zip(s.state_vars, x))

    def at(fn):
        return float(fn(*(env[n] for n in fn.names)))

    return at(comp.lf) + sum(at(fn) * uk for fn, uk in zip(comp.lg, u))


def closed_loop(s, x):
    """Drift under the subsystem's own (saturated) feedback law."""
    return drift(s, x, [float(v) for v in s.mu_values(tuple(x))])


def shifted(s, d, x):
    """h(x) - d, the safety margin relative to the buffered boundary."""
    return float(s.compiled.h(*x)) - d


def test_shifted_h_toy():
    s = make_toy()
    assert shifted(s, 0.0, (0.0,)) == 1.0


def test_shifted_h_cstr_values():
    s = make_cstr()
    assert shifted(s, 2100.0, (350.0, 2.0)) == pytest.approx(400.0)
    assert shifted(s, 500.0, (300.0, 2.0)) == pytest.approx(-500.0)


def test_shifted_h_zero_is_h_exactly():
    s = make_cstr()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = (rng.uniform(300, 400), rng.uniform(0, 5))
        assert shifted(s, 0.0, x) == (x[0] - 300) * (400 - x[0])


def test_drift_rate_toy():
    s = make_toy()
    assert drift(s, (0.0,), (1.0,)) == pytest.approx(-1.0)
    assert drift(s, (0.5,), (-1.0,)) == pytest.approx(1.0)


def test_drift_rate_cstr_lower_boundary():
    s = make_cstr()
    got = drift(s, (300.0, 4.0), (-2.7e6,))
    assert got < 0
    assert got == pytest.approx(cstr_hand_drift(300.0, 4.0, -2.7e6), rel=1e-12)


def test_drift_rate_matches_hand_formula_on_grid():
    s = make_cstr()
    rng = np.random.default_rng(11)
    for _ in range(100):
        T = rng.uniform(300, 400)
        c = rng.uniform(0, 5)
        u = rng.uniform(-2.7e6, 2.7e6)
        assert drift(s, (T, c), (u,)) == pytest.approx(
            cstr_hand_drift(T, c, u), rel=1e-10)


def test_drift_rate_affine_in_u():
    s = make_cstr()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = (rng.uniform(300, 400), rng.uniform(0, 5))
        u = rng.uniform(-2.7e6, 2.7e6)
        v = rng.uniform(-2.7e6, 2.7e6)
        lam = rng.uniform(0, 1)
        mixed = drift(s, x, (lam * u + (1 - lam) * v,))
        combo = lam * drift(s, x, (u,)) + (1 - lam) * drift(s, x, (v,))
        assert mixed == pytest.approx(combo, rel=1e-9, abs=1e-9)


def test_closed_loop_drift_toy():
    s = make_toy(mu="-1")
    for x in (-1.0, 0.0, 0.99):
        assert closed_loop(s, (x,)) == pytest.approx(1.0)
    zero = make_toy(mu="0")
    assert closed_loop(zero, (0.3,)) == pytest.approx(0.0)


def test_closed_loop_drift_cstr_saturates():
    # At T=390 the raw law asks for -4e6; saturation clips it to the box
    # edge, and the chilled feed still pulls h upward there.
    s = make_cstr()
    got = closed_loop(s, (390.0, 1.0))
    assert got == pytest.approx(cstr_hand_drift(390.0, 1.0, -2.7e6), rel=1e-12)
    assert got > 0


def test_clamp_mu_without_saturation_is_identity():
    s = make_toy()
    assert s.clamp_mu([5.0]) == [5.0]


def test_mu_values_clamped():
    s = make_cstr()
    (u,) = s.mu_values((np.array([390.0]), np.array([1.0])))
    assert float(u[0]) == -2.7e6


def test_worst_vertex_picks_descent_endpoint_lo_on_ties():
    s = make_cstr()  # input box [-2.7e6, 2.7e6]
    c = np.array([2.0, -3.0, 0.0])
    (u,) = s.worst_vertex([c])
    np.testing.assert_array_equal(u, [-2.7e6, 2.7e6, -2.7e6])
    (u,) = s.worst_vertex([-1.0])
    assert float(u) == 2.7e6


def test_region_constructors():
    assert SAFE_SET == Region("safe_set")
    assert safe_minus_buffer(0.5) == Region("safe_minus_buffer", 0.5)
    assert buffer_region(2.0) == Region("buffer", 2.0)


def test_validation_rejects_bad_shapes():
    sv = ("x1",)
    ok = dict(
        name="S",
        state_vars=sv,
        input_vars=("u1",),
        f=(parse_expression("0", sv),),
        g=((parse_expression("1", sv),),),
        h=parse_expression("1 - x1", sv),
        mu=(parse_expression("0", sv),),
        state_box=((-1.0, 1.0),),
        input_box=((-1.0, 1.0),),
    )
    Subsystem(**ok)

    with pytest.raises(ModelError):
        Subsystem(**{**ok, "f": ()})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "g": ((parse_expression("1", sv), parse_expression("0", sv)),)})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "mu": ()})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "state_box": ()})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "state_box": ((1.0, -1.0),)})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "input_box": ((0.0, np.inf),)})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "input_vars": ("x1",)})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "mu_saturation": ((-2.0, 2.0),)})
    with pytest.raises(ModelError):
        Subsystem(**{**ok, "h": parse_expression("x1 + u1", ("x1", "u1"))})


BUNDLED = [s for stem in ("toy_linear", "toy_pair", "cstr_series")
           for s in load_model(str(resources.files("resil") / "models" / f"{stem}.json")
                               ).network.subsystems]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_drift_layer_matches_finite_difference_gradient(data):
    # lf + sum_k lg_k u_k against grad h . (f + g u), with grad h from central
    # differences of the compiled h and f, g compiled on their own.
    s = data.draw(st.sampled_from(BUNDLED), label="subsystem")
    x = [data.draw(st.floats(lo, hi), label=v)
         for v, (lo, hi) in zip(s.state_vars, s.state_box)]
    u = [data.draw(st.floats(lo, hi), label=v)
         for v, (lo, hi) in zip(s.input_vars, s.input_box)]
    expected = scale = 0.0
    for i, (lo, hi) in enumerate(s.state_box):
        step = 1e-6 * (hi - lo)
        up, down = list(x), list(x)
        up[i] += step
        down[i] -= step
        grad_i = float(s.compiled.h(*up) - s.compiled.h(*down)) / (2 * step)
        terms = [float(compile_expression(s.f[i], s.state_vars)(*x))]
        terms += [float(compile_expression(g, s.state_vars)(*x)) * uk
                  for g, uk in zip(s.g[i], u)]
        expected += grad_i * sum(terms)
        scale += abs(grad_i) * sum(map(abs, terms))
    assert abs(drift(s, x, u) - expected) <= 1e-6 * scale + 1e-12
