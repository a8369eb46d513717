"""Expression parser, evaluator, and symbolic derivative tests."""

import numpy as np
import pytest

from resil.exprs import (
    BinaryOp,
    EvaluationError,
    ExpressionSyntaxError,
    Literal,
    Negate,
    UndeclaredVariableError,
    Variable,
    compile_expression,
    compile_lines,
    differentiate,
    eval_expression,
    format_expression,
    free_variables,
    parse_expression,
    straight_line,
)

VARS = ("x1", "x2", "T1", "c1", "u1")


def ev(text, **bindings):
    return eval_expression(parse_expression(text, VARS), bindings)


def test_literal_and_identity():
    assert ev("x1+1", x1=0.0) == 1.0


def test_parabola_vertex():
    assert ev("(T1-300)*(400-T1)", T1=350.0) == 2500.0


def test_parabola_boundary_zero():
    assert ev("(T1-300)*(400-T1)", T1=300.0) == 0.0


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("-3^2") == -9.0
    assert ev("10-4-3") == 3.0
    assert ev("16/4/2") == 2.0
    assert ev("2^3^2") == 64.0


def test_exp_and_scientific_literals():
    assert ev("exp(0)") == 1.0
    assert ev("exp(2*x1)", x1=0.5) == pytest.approx(np.e)
    assert ev("1.5e3 + 2E-1") == pytest.approx(1500.2)


def test_unary_minus_nesting():
    assert ev("--x1", x1=3.0) == 3.0
    assert ev("2--3") == 5.0


def test_syntax_errors_carry_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + $", VARS)
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 +", VARS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1", VARS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 2", VARS)


def test_exponent_must_be_plain_integer():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^2.5", VARS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^x2", VARS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^-2", VARS)
    assert ev("x1^0", x1=7.0) == 1.0


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariableError) as err:
        parse_expression("x1 + bogus", VARS)
    assert err.value.name == "bogus"


def test_exp_is_reserved():
    with pytest.raises(ValueError):
        parse_expression("x1", ("exp",))
    with pytest.raises(ValueError):
        parse_expression("x1", ("x1", "x1"))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ev("1/x1", x1=0.0)


def test_overflow_returns_inf():
    assert ev("exp(x1)", x1=1e6) == np.inf


def test_eval_missing_binding():
    e = parse_expression("x1 + x2", VARS)
    with pytest.raises(EvaluationError):
        eval_expression(e, {"x1": 1.0})


def test_free_variables():
    e = parse_expression("x1*exp(T1) - 4", VARS)
    assert free_variables(e) == frozenset({"x1", "T1"})


def test_compile_rejects_unbound_names():
    e = parse_expression("x1 + x2", VARS)
    with pytest.raises(EvaluationError):
        compile_expression(e, ("x1",))


def test_compiled_broadcasts_arrays():
    e = parse_expression("x1*x2", VARS)
    fn = compile_expression(e, ("x1", "x2"))
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(fn(a, 10.0), [10.0, 20.0, 30.0])


def _random_tree(rng, names, depth):
    # Division is restricted to nonzero-literal denominators so random
    # points cannot hit a pole.
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Literal(float(rng.uniform(-3, 3)))
        return Variable(names[rng.integers(len(names))])
    roll = rng.random()
    if roll < 0.15:
        return Negate(_random_tree(rng, names, depth - 1))
    if roll < 0.3:
        return BinaryOp("^", _random_tree(rng, names, depth - 1),
                        Literal(float(rng.integers(0, 4))))
    if roll < 0.4:
        inner = BinaryOp("*", Literal(0.3), _random_tree(rng, names, depth - 1))
        from resil.exprs import ExpCall
        return ExpCall(inner)
    if roll < 0.55:
        denom = Literal(float(rng.choice([-2.0, -1.5, 1.5, 2.0, 3.0])))
        return BinaryOp("/", _random_tree(rng, names, depth - 1), denom)
    op = "+-*"[rng.integers(3)]
    return BinaryOp(op, _random_tree(rng, names, depth - 1),
                    _random_tree(rng, names, depth - 1))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(1234)
    names = ("x1", "x2")
    checked = 0
    while checked < 1000:
        e = _random_tree(rng, names, 4)
        var = names[rng.integers(2)]
        de = differentiate(e, var)
        point = {n: float(rng.uniform(-2, 2)) for n in names}
        step = 1e-6
        hi = dict(point, **{var: point[var] + step})
        lo = dict(point, **{var: point[var] - step})
        vals = []
        for p in (hi, lo, point):
            v = eval_expression(e, p) if free_variables(e) else eval_expression(e, {})
            vals.append(v)
        if not all(np.isfinite(v) and abs(v) < 1e8 for v in vals):
            continue
        fd = (vals[0] - vals[1]) / (2 * step)
        exact = eval_expression(de, point) if free_variables(de) else eval_expression(de, {})
        assert abs(exact - fd) <= 1e-4 * (1 + abs(vals[2])), str(e)
        checked += 1


def test_print_parse_round_trip():
    # Idempotence of parse(print(parse(text))): hand-built trees may hold
    # negative literals the parser renders as Negate, so normalize through
    # one print/parse before asserting tree identity.
    rng = np.random.default_rng(99)
    names = ("x1", "x2")
    for _ in range(500):
        raw = _random_tree(rng, names, 4)
        e = parse_expression(format_expression(raw), names)
        text = format_expression(e)
        again = parse_expression(text, names)
        assert again == e, text
        assert format_expression(again) == text


def test_format_value_equivalence_for_negative_literals():
    e = BinaryOp("^", Literal(-1.5), Literal(2.0))
    text = format_expression(e)
    reparsed = parse_expression(text, ())
    assert eval_expression(reparsed, {}) == pytest.approx(2.25)


def test_derivative_examples():
    e = parse_expression("(T1-300)*(400-T1)", VARS)
    de = differentiate(e, "T1")
    for t in (300.0, 333.0, 350.0, 400.0):
        assert eval_expression(de, {"T1": t}) == pytest.approx(700 - 2 * t)
    const = parse_expression("c1", VARS)
    assert differentiate(const, "x1") == Literal(0.0)
    chain = parse_expression("exp(2*x1)", VARS)
    dchain = differentiate(chain, "x1")
    assert eval_expression(dchain, {"x1": 0.0}) == pytest.approx(2.0)


def test_quotient_rule():
    e = parse_expression("x1/(x2+2)", VARS)
    de = differentiate(e, "x2")
    assert eval_expression(de, {"x1": 6.0, "x2": 1.0}) == pytest.approx(-6.0 / 9.0)


def test_straight_line_shares_subexpressions():
    names = ("a", "b", "x")
    trees = [parse_expression("(50000/231)*3000000*exp(-a/(b*x)) + x", names),
             parse_expression("exp(-a/(b*x))*x - 2^2", names),
             # equal as nodes, since 0.0 == -0.0, but not as values
             BinaryOp("*", Variable("x"), Literal(-0.0)),
             BinaryOp("*", Variable("x"), Literal(0.0))]
    lines = []
    values = straight_line(trees, {n: n for n in names}, lines, {})
    assert sum(line.count("exp(") for line in lines) == 1
    assert len(set(values)) == len(trees)
    fn = compile_lines(lines + [f"return ({', '.join(values)},)"], names, "shared")
    rng = np.random.default_rng(3)
    args = (rng.uniform(1.0, 8e4, 50), rng.uniform(1.0, 10.0, 50), rng.uniform(300.0, 400.0, 50))
    for got, tree in zip(fn(*args), trees):
        assert got.tobytes() == compile_expression(tree, names)(*args).tobytes()


def test_straight_line_division_by_zero_names_label():
    lines = []
    (value,) = straight_line([parse_expression("1/(x1 - x1)", VARS)], {"x1": "x"}, lines, {})
    fn = compile_lines(lines + [f"return {value}"], ("x",), "drift of S9")
    with pytest.raises(ZeroDivisionError, match="division by zero evaluating 'drift of S9'"):
        fn(np.ones(3))
