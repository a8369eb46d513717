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
    compile_kernels,
    differentiate,
    eval_expression,
    format_expression,
    free_variables,
    lane_tree,
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


def test_number_out_of_range_is_a_syntax_error():
    # Past the float range a number token reads as inf, which no generated
    # code can name; the parser rejects it where it stands.
    for text, offset in (("1 - 1e999*x1", 4), ("x1^" + "9" * 400, 3)):
        with pytest.raises(ExpressionSyntaxError, match="number out of range") as err:
            parse_expression(text, VARS)
        assert err.value.offset == offset
    assert ev("1e308*x1", x1=1.0) == 1e308


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


def straight_line_fn(trees, names, label, rows):
    """straight_line's code for trees as a kernel of the variables names,
    returning every tree's value, with buffers of rows rows."""
    lines, temps, consts = [], {}, {}
    trees = [lane_tree([t], {n: n for n in names},
                       lambda src: consts.setdefault(f"full(rows, {src})", f"c{len(consts)}"))
             for t in trees]
    values = straight_line(trees, lines, temps)
    kernel = (lines + [f"return ({''.join(v + ', ' for v in values)})"], names, label)
    arrays = {**{t: "empty(rows)" for t in temps.values()},
              **{c: src for src, c in consts.items()}}
    (fn,) = compile_kernels([kernel], arrays)(rows)
    return fn, lines, values


def test_straight_line_shares_subexpressions():
    names = ("a", "b", "x")
    trees = [parse_expression("(50000/231)*3000000*exp(-a/(b*x)) + x", names),
             parse_expression("exp(-a/(b*x))*x - 2^2", names),
             # equal as nodes, since 0.0 == -0.0, but not as values
             BinaryOp("*", Variable("x"), Literal(-0.0)),
             BinaryOp("*", Variable("x"), Literal(0.0)),
             parse_expression("-(x - a)^3 / 2", names)]
    fn, lines, values = straight_line_fn(trees, names, "shared", 50)
    assert sum(line.count("exp(") for line in lines) == 1
    assert len(set(values)) == len(trees)
    rng = np.random.default_rng(3)
    args = (rng.uniform(1.0, 8e4, 50), rng.uniform(1.0, 10.0, 50), rng.uniform(300.0, 400.0, 50))
    for got, tree in zip(fn(*args), trees):
        assert got.tobytes() == compile_expression(tree, names)(*args).tobytes()


def test_straight_line_writes_every_call_into_a_buffer():
    names = ("x",)
    fn, lines, _ = straight_line_fn([parse_expression("2*exp(x) - 3^2", names)], names, "x", 4)
    assert lines == ["exp(x, t0)", "multiply(c0, t0, t1)", "subtract(t1, c1, t2)"]
    x = np.linspace(0.0, 1.0, 4)
    (first,) = fn(x)
    (second,) = fn(x + 1.0)
    assert second is first  # the buffer t2, overwritten
    assert second.tobytes() == (2 * np.exp(x + 1.0) - 9.0).tobytes()


def test_fold_is_the_value_compiled_code_computes():
    for text in ("(50000/231)*3000000", "exp(-1.5)", "2^3", "-(4 - 0.5)/3"):
        tree, consts = parse_expression(text, ()), {}
        const = lane_tree([tree], {}, lambda src: consts.setdefault(f"full(3, {src})", "c0"))
        assert straight_line([const], [], {}) == ["c0"]
        (fn,) = compile_kernels([(["return c0"], (), text)], {"c0": next(iter(consts))})(3)
        assert fn().tobytes() == np.full(3, eval_expression(tree, {})).tobytes()


def test_straight_line_division_by_zero_names_label():
    fn, _, _ = straight_line_fn([parse_expression("1/(x1 - x1)", VARS)], ("x1",), "drift of S9", 3)
    with pytest.raises(ZeroDivisionError, match="division by zero evaluating 'drift of S9'"):
        fn(np.ones(3))


def test_scalar_errors_name_the_expression():
    # Python floats raise their own errors: a division by zero without the
    # expression's name, and an OverflowError from ** where numpy gives inf.
    # Each used to escape as is, the overflow as a traceback from the CLI.
    names = ("x1",)
    with pytest.raises(ZeroDivisionError, match="division by zero evaluating 'x1 / 0.0'"):
        compile_expression(parse_expression("x1/0", names), names)(1.0)
    with pytest.raises(FloatingPointError, match="overflow evaluating 'x1 \\* 1e\\+200\\^2'"):
        compile_expression(parse_expression("x1*1e200^2", names), names)(1.0)


def test_quotient_rule_does_not_square_the_denominator():
    # (u' - (u/v) v') / v: the derivative of x1 / 1e308 is representable,
    # and (u'v - uv') / v^2 overflowed on 1e308^2.
    names = ("x1",)
    grad = differentiate(parse_expression("x1/1e308", names), "x1")
    assert compile_expression(grad, names)(1.0) == 1e-308
    # a denominator that reads the variable, against (1 - x^2) / (1 + x^2)^2
    grad = differentiate(parse_expression("x1/(1 + x1^2)", names), "x1")
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(compile_expression(grad, names)(x), (1 - x**2) / (1 + x**2) ** 2,
                               rtol=1e-14, atol=1e-15)
