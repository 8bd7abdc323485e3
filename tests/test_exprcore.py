import glob
import os
import weakref

import numpy as np
import pytest

from ccopkit import (
    ExprDomainError,
    ExprSyntaxError,
    Problem,
    eval2,
    eval2_many,
    evaluate,
    parse,
    polynomial_degree,
    to_source,
)
from ccopkit.cli import load_problem_file
from ccopkit.exprcore import BinOp, Call, Neg, Node, Num, Pow, Var, _Quadratic, _children, _compile

from helpers import fd_gradient, fd_hessian, random_polynomial_source, random_quadratic_source


def test_parse_two_summands():
    e = parse("(x1-1)^2 + x2^2", 2)
    assert isinstance(e.root, BinOp) and e.root.op == "+"
    assert isinstance(e.root.left, Pow) and isinstance(e.root.right, Pow)


def test_parse_single_variable():
    e = parse("x1", 1)
    assert e.root == Var(1)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse("x3", 2)
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse("x0", 2)


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'tan'"):
        parse("tan(x1)", 1)
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("y1 + x1", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", 1)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse("(x1", 1)
    with pytest.raises(ExprSyntaxError, match="trailing"):
        parse("x1 x2", 2)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError, match="integer"):
        parse("x1^2.5", 1)
    with pytest.raises(ExprSyntaxError, match="integer"):
        parse("x1^(2)", 1)


def test_parse_rejects_deep_nesting():
    from ccopkit.exprcore import _MAX_DEPTH, _MAX_PARSE_FRAMES

    calls = _MAX_PARSE_FRAMES // 5
    parens = _MAX_PARSE_FRAMES // 4
    for deep in (
        "-" * 3000 + "x1",
        "(" * 3000 + "x1" + ")" * 3000,
        "sin(" * 3000 + "x1" + ")" * 3000,
        "-" * (_MAX_PARSE_FRAMES + 1) + "x1",
        "(" * (parens + 1) + "x1" + ")" * (parens + 1),
        "sin(" * (calls + 1) + "x1" + ")" * (calls + 1),
    ):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse(deep, 1)
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse(" + ".join(["x1"] * (_MAX_DEPTH + 1)), 1)
    # the deepest accepted trees are in reach of every recursive tree walk
    logs, minus = _MAX_PARSE_FRAMES // 10, _MAX_PARSE_FRAMES // 2
    widest = " + ".join(["x1"] * (_MAX_DEPTH - logs - minus))
    for src, value in (
        (" + ".join(["x1"] * _MAX_DEPTH), 2.0 * _MAX_DEPTH),
        ("-" * (_MAX_DEPTH - 1) + "x1", -2.0 if _MAX_DEPTH % 2 == 0 else 2.0),
        ("(" * parens + "x1" + ")" * parens, 2.0),
        ("sin(" * calls + "x1" + ")" * calls, None),
        (" + ".join(["sin(x1)"] * (_MAX_DEPTH - 1)), None),  # a deep sum that does not fold
        ("log(" * logs + "-" * minus + widest + ")" * logs, ExprDomainError),
    ):
        e = parse(src, 1)
        if value is ExprDomainError:
            with pytest.raises(ExprDomainError):
                eval2(e, [2.0])  # nested logs turn negative; the message prints a subterm
        else:
            jet = eval2(e, [2.0])
            assert value is None or jet.value == value
        _compile(e.root, 1)
        for run in (lambda x: _jet(e.root, x, 1), e._tape.run):
            try:
                run(np.array([2.0]))
            except ExprDomainError:
                assert value is ExprDomainError
        to_source(e)
        to_source(e._folded)
        polynomial_degree(e)


def test_printed_long_sum_parses_back():
    from ccopkit.exprcore import _MAX_PARSE_FRAMES

    e = parse(" - ".join(f"x{i % 3 + 1}" for i in range(_MAX_PARSE_FRAMES // 4)), 3)
    assert parse(to_source(e), 3) == e


def test_negative_exponent_and_unary_minus_binding():
    # base := '-' base, so the exponent applies to the negated base
    e = parse("-x1^2", 1)
    assert eval2(e, [3.0]).value == 9.0
    e = parse("x1^-2", 1)
    assert eval2(e, [2.0]).value == 0.25


def test_numbers_with_fraction_and_exponent():
    e = parse("1.5e2 + .25 + 2E-1", 1)
    assert eval2(e, [0.0]).value == 150.0 + 0.25 + 0.2


def test_eval2_shifted_well_at_origin():
    e = parse("(x1-1)^2 + x2^2", 2)
    jet = eval2(e, [0.0, 0.0])
    assert jet.value == 1.0
    assert np.array_equal(jet.gradient, [-2.0, 0.0])
    assert np.array_equal(jet.hessian, [[2.0, 0.0], [0.0, 2.0]])
    # cross-check against the independent value-only oracle
    assert np.allclose(fd_gradient(e, [0.0, 0.0]), [-2.0, 0.0], atol=1e-9)
    assert np.allclose(fd_hessian(e, [0.0, 0.0]), [[2, 0], [0, 2]], atol=1e-6)


def test_eval2_identity_case():
    jet = eval2(parse("x1", 1), [7.0])
    assert jet.value == 7.0
    assert np.array_equal(jet.gradient, [1.0])
    assert np.array_equal(jet.hessian, [[0.0]])


def test_eval2_two_well_gradient():
    jet = eval2(parse("(x1-1)^2 + (x2-1)^2", 2), [0.0, 0.0])
    assert np.array_equal(jet.gradient, [-2.0, -2.0])


def test_eval2_transcendental_against_finite_differences():
    e = parse("sin(x1)*cos(x2) + exp(x1*x2) + log(x1 + 3)", 2)
    x = np.array([0.4, -0.7])
    jet = eval2(e, x)
    assert np.allclose(jet.gradient, fd_gradient(e, x), rtol=0, atol=1e-7)
    assert np.allclose(jet.hessian, fd_hessian(e, x), rtol=0, atol=1e-5)


def test_eval2_division_quotient_rule():
    e = parse("x1 / (x2 + 2)", 2)
    x = np.array([1.5, 0.5])
    jet = eval2(e, x)
    assert np.allclose(jet.gradient, fd_gradient(e, x), atol=1e-8)
    assert np.allclose(jet.hessian, fd_hessian(e, x), atol=1e-6)


def test_domain_errors_name_the_subterm():
    with pytest.raises(ExprDomainError, match="log"):
        eval2(parse("log(x1)", 1), [-1.0])
    with pytest.raises(ExprDomainError, match="division by zero"):
        eval2(parse("x1 / x2", 2), [1.0, 0.0])
    with pytest.raises(ExprDomainError, match="negative power"):
        eval2(parse("x1^-1", 1), [0.0])
    try:
        eval2(parse("1 + log(x2 - 1)", 2), [0.0, 0.5])
    except ExprDomainError as err:
        assert "log" in err.subterm and "x2" in err.subterm


def test_hessian_exactly_symmetric_on_random_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        e = parse(random_polynomial_source(rng, n), n)
        jet = eval2(e, rng.uniform(-1, 1, size=n))
        assert np.array_equal(jet.hessian, jet.hessian.T)


def test_derivatives_match_finite_differences_on_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        e = parse(random_polynomial_source(rng, n), n)
        x = rng.uniform(-1, 1, size=n)
        jet = eval2(e, x)
        fg = fd_gradient(e, x)
        fh = fd_hessian(e, x)
        assert np.max(np.abs(jet.gradient - fg) / np.maximum(1.0, np.abs(jet.gradient))) <= 1e-6
        assert np.max(np.abs(jet.hessian - fh) / np.maximum(1.0, np.abs(jet.hessian))) <= 1e-6


def test_print_parse_round_trip_is_fixed_point():
    rng = np.random.default_rng(13)
    sources = [
        "(x1-1)^2 + x2^2",
        "sin(x1)*exp(x2) - log(x1 + 2)/x2",
        "-x1^3 + 2*x2 - 0.5",
        "x1^-2 + 1e-3*x2",
    ]
    sources += [random_polynomial_source(rng, 3) for _ in range(20)]
    for src in sources:
        first = parse(src, 3)
        second = parse(to_source(first), 3)
        assert second == first
        assert to_source(second) == to_source(first)


def test_jet_arrays_are_read_only():
    jet = eval2(parse("x1^2", 1), [2.0])
    with pytest.raises(ValueError):
        jet.gradient[0] = 0.0


def test_polynomial_degree():
    assert polynomial_degree(parse("(x1-1)^2 + x2^2", 2)) == 2
    assert polynomial_degree(parse("x1*x2*x1", 2)) == 3
    assert polynomial_degree(parse("x1/2 + 3", 2)) == 1
    assert polynomial_degree(parse("2^-2 * x1", 2)) == 1
    assert polynomial_degree(parse("sin(x1)", 1)) is None
    assert polynomial_degree(parse("x1/x2", 2)) is None
    assert polynomial_degree(parse("x1^-1", 1)) is None


def test_degree_of_an_expression_is_walked_once(monkeypatch, capsys):
    from ccopkit import cli, exprcore

    walked = []
    degree = exprcore._degree
    def counted(node, degrees):
        walked.append(node)
        return degree(node, degrees)

    monkeypatch.setattr(exprcore, "_degree", counted)
    e = parse("(x1-1)^2 + x2^2 + sin(x1)*0", 2)
    assert polynomial_degree(e) is None and walked
    walks = len(walked)
    assert polynomial_degree(e) is None and len(walked) == walks
    assert e == parse("(x1-1)^2 + x2^2 + sin(x1)*0", 2)  # kept outside the fields
    # verify reads the degree of f for its method and for both quadratic
    # censuses; compiling f, which walks it too, is done before counting
    pf = load_problem_file(os.path.join(os.path.dirname(__file__), "data", "well_ones.prob"))
    pf.problem.f._folded
    walked.clear()
    monkeypatch.setattr(cli, "load_problem_file", lambda path: pf)
    assert cli.main(["verify", "well_ones.prob", "--format", "machine"]) == 0
    assert sum(node is pf.problem.f.root for node in walked) == 1
    capsys.readouterr()


def test_parse_requires_positive_dimension():
    with pytest.raises(ValueError):
        parse("x1", 0)


# ---------------------------------------------------------------------------
# The folded evaluator against the node-by-node walk of the unfolded tree


def _jet(node: Node, x: np.ndarray, n: int):
    """Value, gradient and Hessian of an unfolded tree, node by node: the
    reference the tape is tested against, independent of its rules."""
    if isinstance(node, Num):
        return node.value, np.zeros(n), np.zeros((n, n))
    if isinstance(node, Var):
        g = np.zeros(n)
        g[node.index - 1] = 1.0
        return x[node.index - 1], g, np.zeros((n, n))
    if isinstance(node, Neg):
        v, g, h = _jet(node.operand, x, n)
        return -v, -g, -h
    if isinstance(node, BinOp):
        va, ga, ha = _jet(node.left, x, n)
        vb, gb, hb = _jet(node.right, x, n)
        if node.op == "+":
            return va + vb, ga + gb, ha + hb
        if node.op == "-":
            return va - vb, ga - gb, ha - hb
        if node.op == "*":
            return (
                va * vb,
                va * gb + vb * ga,
                va * hb + vb * ha + np.outer(ga, gb) + np.outer(gb, ga),
            )
        # division: q = a/b, grad q = (ga - q gb)/b,
        # hess q = (ha - q hb - grad q gb' - gb grad q')/b
        if vb == 0.0:
            raise ExprDomainError("division by zero", to_source(node))
        v = va / vb
        g = (ga - v * gb) / vb
        h = (ha - v * hb - np.outer(g, gb) - np.outer(gb, g)) / vb
        return v, g, h
    if isinstance(node, Pow):
        vu, gu, hu = _jet(node.base, x, n)
        k = node.exponent
        if k == 0:
            return 1.0, np.zeros(n), np.zeros((n, n))
        if k < 0 and vu == 0.0:
            raise ExprDomainError("zero raised to a negative power", to_source(node))
        v = vu**k
        d1 = k * vu ** (k - 1)
        # k == 1 would hit u^(-1) at u = 0 despite the zero prefactor
        d2 = 0.0 if k == 1 else k * (k - 1) * vu ** (k - 2)
        return v, d1 * gu, d1 * hu + d2 * np.outer(gu, gu)
    if isinstance(node, Call):
        vu, gu, hu = _jet(node.arg, x, n)
        if node.func == "sin":
            d0, d1, d2 = np.sin(vu), np.cos(vu), -np.sin(vu)
        elif node.func == "cos":
            d0, d1, d2 = np.cos(vu), -np.sin(vu), -np.cos(vu)
        elif node.func == "exp":
            d0 = d1 = d2 = np.exp(vu)
        else:  # log
            if vu <= 0.0:
                raise ExprDomainError("log of a nonpositive value", to_source(node))
            d0, d1, d2 = np.log(vu), 1.0 / vu, -1.0 / (vu * vu)
        return d0, d1 * gu, d1 * hu + d2 * np.outer(gu, gu)
    raise TypeError(f"not an AST node: {node!r}")


_SMOOTH_TERMS = (
    "sin(x{i})", "cos(x{j})", "exp(x{i} - x{j})", "log(1 + x{j}^2)", "x{i}*sin(x{j})",
    # one-variable subtrees, which the tape runs on floats
    "({a})*exp(0.3*x{i})", "({a})*log(1+x{i}^2)", "1/(2+x{i}^2)", "sin(cos(x{i}))",
    "x{i}^3*exp(x{i})",
    # products and quotients of such subtrees over two variables (one when i == j)
    "exp(x{i})*exp(x{j})", "sin(x{i})/(2+x{j}^2)",
)


def _leaves(node) -> list:
    if isinstance(node, _Quadratic):
        return [node]
    return [leaf for child in _children(node) for leaf in _leaves(child)]


def _agreement_cases():
    """(expression, points): criterion 7's random polynomials of degree 0-4,
    dense quadratics, quadratics plus smooth terms, and the fixtures'
    expressions at their points and at random points."""
    rng = np.random.default_rng(17)
    cases = []
    for k in range(150):
        n = int(rng.integers(1, 6))
        if k % 3 == 0:
            src = random_polynomial_source(rng, n)
        elif k % 3 == 1:
            src = random_quadratic_source(rng, n)
        else:
            picks = rng.choice(len(_SMOOTH_TERMS), size=int(rng.integers(1, 4)), replace=False)
            i, j = rng.integers(1, n + 1, size=2)
            a = repr(float(rng.uniform(0.1, 0.3)))
            src = " + ".join(
                [random_quadratic_source(rng, n)]
                + [_SMOOTH_TERMS[p].format(i=i, j=j, a=a) for p in picks]
            )
        cases.append((parse(src, n), rng.uniform(-1.5, 1.5, size=(4, n))))
    data = os.path.join(os.path.dirname(__file__), "data")
    for file in sorted(glob.glob(os.path.join(data, "*.prob"))):
        pf = load_problem_file(file)
        n = pf.problem.n
        points = [p[:n] for p in pf.points.values()] + list(rng.uniform(-2, 2, size=(4, n)))
        for e in (pf.problem.f, *pf.problem.h, *pf.problem.g):
            cases.append((e, np.array(points)))
    return cases


def test_folded_jets_agree_with_the_unfolded_walk():
    cases = _agreement_cases()
    quadratics = folded = 0
    for e, points in cases:
        degree = polynomial_degree(e)
        quadratic = degree is not None and degree <= 2
        if quadratic and not isinstance(e.root, (Num, Var)):
            assert isinstance(e._folded, _Quadratic)
        quadratics += quadratic
        folded += bool(_leaves(e._folded))
        for x in points:
            jet = eval2(e, x)
            v, g, h = _jet(e.root, x, e.n)
            assert abs(jet.value - v) <= 1e-12 * (1 + abs(v))
            assert np.all(np.abs(jet.gradient - g) <= 1e-12 * (1 + np.abs(g)))
            assert np.array_equal(jet.hessian, jet.hessian.T)
            if quadratic:
                assert np.array_equal(jet.hessian, h)
            else:
                assert np.allclose(jet.hessian, h, rtol=1e-12, atol=1e-12)
    assert quadratics >= 55 and folded >= len(cases) - 10


def test_folded_leaves_hold_the_unfolded_walk_at_the_origin():
    # by value: where the walk's products give -0.0 the tape may hold 0.0
    leaves = 0
    for e, _ in _agreement_cases():
        for leaf in _leaves(e._folded):
            c0, b, A = _jet(leaf.source, np.zeros(e.n), e.n)
            assert leaf.c0 == c0 and np.array_equal(leaf.b, b) and np.array_equal(leaf.A, A)
            leaves += 1
    assert leaves >= 250


def test_a_subtree_without_a_finite_jet_at_the_origin_stays_unfolded():
    e = parse("1e999*x1 + sin(x1)", 1)
    assert isinstance(e._folded, BinOp) and isinstance(e._folded.left, BinOp)
    assert not _leaves(e._folded)
    with pytest.raises(ExprDomainError, match="not finite"):
        evaluate(Problem(1, 0, e), [0.5])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a product of factors over several variables adds its "
    "two outer products one at a time, (S+p)+q against (S+q)+p",
)
def test_multivariable_product_hessians_are_exactly_symmetric():
    e = parse("exp(x1*x2)*sin(x1*x3+x2)", 3)
    for x in np.random.default_rng(23).uniform(-1.5, 1.5, size=(1000, 3)):
        h = eval2(e, x).hessian
        assert np.array_equal(h, h.T)


def test_one_variable_subtrees_run_on_floats():
    def rules(src, n):
        return {op.func.__name__ for op in parse(src, n)._tape.ops}

    # every slot over one variable: floats throughout, one n-vector at the end
    assert rules("(0.3)*sin(x4) + log(1 + x4^2) - 1/(2+x4^2)", 5) == {
        "_load_var", "_load_quadratic1", "_scalar_chain", "_scalar_mul", "_scalar_div",
        "_scalar_pm", "_promote",
    }
    # two variables meet in a product, then one-variable terms are added in
    assert rules("x1*sin(x2) + (0.3)*exp(0.3*x3)", 3) == {
        "_load_var", "_load_quadratic1", "_scalar_chain", "_scalar_mul", "_cross_mul",
        "_scatter",
    }
    # a quadratic over several variables is one dense leaf
    assert rules("x1*x2 + x3^2", 3) == {"_load_quadratic"}


def test_folded_domain_errors_match_the_unfolded_walk():
    for src, x in (
        ("log(x1^2 - 1)", [0.0]),
        ("x1/(2-2)", [1.0]),
        ("(1-1)^-1*x1", [1.0]),
        ("sin(x1) + x1/(2-2)", [1.0]),
        ("x2*log(x1^2 - 1) + x1^2", [0.5, 2.0]),
        # raised inside a slot over one variable
        ("log(x1^2-1)+x2^2", [0.0, 1.0]),
        ("x2^2 + 1/(x1-x1)", [1.0, 2.0]),
    ):
        e = parse(src, len(x))
        with pytest.raises(ExprDomainError) as ref:
            _jet(e.root, np.array(x), e.n)
        with pytest.raises(ExprDomainError) as got:
            eval2(e, x)
        assert type(got.value) is type(ref.value)
        assert got.value.subterm == ref.value.subterm and str(got.value) == str(ref.value)


def test_float_slots_overflow_and_underflow_as_the_unfolded_walk():
    # Python's float power raises on overflow, and 1/x^2 underflows to 1/0.
    # Where the walk multiplies an infinite derivative by the zero entries of
    # a one-variable gradient it gets nan, which a float slot never stores;
    # every other entry agrees, and both jets are non-finite.
    for src, x in (("x1^5*sin(x1)", [1e70]), ("x1^-3*cos(x1)", [1e-120]), ("log(x1)*x2", [1e-170, 2.0])):
        e = parse(src, len(x))
        with np.errstate(all="ignore"):
            jet = eval2(e, x)
            ref = _jet(e.root, np.array(x), e.n)
        for got, want in zip((jet.value, jet.gradient, jet.hessian), ref):
            number = ~np.isnan(want)
            assert np.array_equal(np.asarray(got)[number], np.asarray(want)[number])
        assert not np.isfinite(jet.hessian).all() and not np.isfinite(ref[2]).all()


def test_compiled_form_lives_and_dies_with_its_expression():
    src = random_quadratic_source(np.random.default_rng(5), 4) + " + sin(x1)"
    e = parse(src, 4)
    assert "_folded" not in vars(e) and "_tape" not in vars(e)
    eval2(e, np.ones(4))
    assert "_folded" in vars(e) and "_tape" in vars(e)
    fresh = parse(src, 4)
    assert "_folded" not in vars(fresh) and "_tape" not in vars(fresh)
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    alive = weakref.ref(e)
    del e
    assert alive() is None  # no cache outside the expression holds it


def _random_smooth_source(rng, n, depth=3) -> str:
    """A random smooth expression: dense quadratic leaves, sums, products
    over several variables, quotients, negations, integer powers (negative
    ones and powers of 3 and more among them), sin, cos, exp and log on a
    positive argument, and one-variable terms that run on float slots."""
    if depth == 0 or rng.uniform() < 0.2:
        leaf = rng.uniform()
        if leaf < 0.6:
            return f"x{int(rng.integers(1, n + 1))}"
        if leaf < 0.8:  # a dense quadratic leaf: a sum in every product A x
            return random_quadratic_source(rng, n)
        return repr(float(rng.uniform(-2.0, 2.0)))
    a, b = _random_smooth_source(rng, n, depth - 1), _random_smooth_source(rng, n, depth - 1)
    i = int(rng.integers(1, n + 1))
    k = int(rng.choice([-3, -2, -1, 2, 3, 4, 5]))
    return [
        f"({a}) + ({b})",
        f"({a}) - ({b})",
        f"({a})*({b})",
        f"({a})/(2 + cos({b}))",
        f"({a})/({b})",
        f"({a})^{k}",
        f"sin({a})",
        f"cos({a})*({b})",
        f"exp(0.3*({a}))",
        f"log(1 + ({a})^2)",
        f"({float(rng.uniform(0.1, 0.3))!r})*sin(x{i}) + ({a})",
        f"x{i}*x{int(rng.integers(1, n + 1))}*({a})",
        f"-({a})",
        f"sin(x{i}) - ({a})*({b})",
    ][int(rng.integers(0, 14))]


def _same_bits(a, b) -> bool:
    """Equal bits, with every NaN read as one value: a NaN made by a scalar
    and by a vector instruction can differ in its sign bit."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (np.asarray(a, float), np.asarray(b, float)))
    return a.tobytes() == b.tobytes()


def test_eval2_many_rows_equal_eval2_bit_for_bit():
    rng = np.random.default_rng(97)
    exprs = [parse(_random_smooth_source(rng, n), n) for n in rng.integers(1, 6, size=120)]
    exprs += [parse(src, 3) for src in ("2.5", "x2", "x1 + 1", "x1*x2 + x3^2", "x1^3*x2^-2*sin(x3)")]
    rules, rows, overflowed, raised = set(), 0, 0, 0
    for e in exprs:
        X = rng.uniform(-2.0, 2.0, size=(7, e.n))
        X[1] *= 1e3  # exp, powers and products overflow here
        X[2] = 1e155
        for K in (7, 1):
            with np.errstate(all="ignore"):
                try:
                    values, grads, hessians = eval2_many(e, X[:K])
                except ExprDomainError:
                    raised += 1
                    continue
                jets = [eval2(e, x) for x in X[:K]]
            assert values.shape == (K,) and grads.shape == (K, e.n) and hessians.shape == (K, e.n, e.n)
            for jet, v, g, h in zip(jets, values, grads, hessians):
                assert _same_bits(jet.value, v) and _same_bits(jet.gradient, g)
                assert _same_bits(jet.hessian, h)
                overflowed += not np.isfinite(h).all()
            rows += K
        rules |= {op.func.__name__ for op in e._tape.ops}
        rules |= {op.args[2].__name__ for op in e._tape.ops if "chain" in op.func.__name__}
    assert rows >= 700 and overflowed >= 50 and raised <= 20
    assert rules >= {
        "_load_var", "_load_quadratic1", "_load_quadratic", "_promote", "_scalar_pm", "_scalar_mul",
        "_scalar_div", "_scalar_neg", "_scalar_chain", "_scatter", "_cross_mul", "_dense_pm",
        "_dense_mul", "_dense_div", "_dense_neg", "_dense_chain",
        "_power", "_sin", "_cos", "_exp", "_log",
    }


def test_eval2_many_raises_the_error_of_its_failing_row():
    rng = np.random.default_rng(101)
    for src, bad in (
        ("log(x1) + x2^2", [0.0, 1.0]),
        ("sin(x2) + x1/(x2 - 1)", [3.0, 1.0]),
        ("x1*x2 + (x1 - 2)^-3", [2.0, 0.5]),
        ("exp(x1)*x2 + x1^2/(x1*x2 - 4)", [2.0, 2.0]),
        ("x1*x2*log(x1*x2 + 1)", [-1.0, 1.0]),
    ):
        e = parse(src, 2)
        with pytest.raises(ExprDomainError) as want:
            eval2(e, bad)
        X = rng.uniform(0.2, 0.4, size=(5, 2))
        X[3] = bad
        with pytest.raises(ExprDomainError) as got:
            eval2_many(e, X)
        assert str(got.value) == str(want.value) and got.value.subterm == want.value.subterm


def test_eval2_many_refuses_a_point_of_the_wrong_shape():
    e = parse("x1 + x2", 2)
    for X in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match="expected"):
            eval2_many(e, X)
    for x in ([1.0, 2.0, 3.0], np.zeros((1, 2)), 1.0):  # and eval2 one of the wrong shape
        with pytest.raises(ValueError, match=r"point has shape \(.*\), expected \(2,\)"):
            eval2(e, x)


def test_a_zeroth_power_is_one_after_its_base_is_evaluated():
    # x1^0 folds into a constant; a zeroth power of a non-polynomial base is
    # the constant slot of the tape, taken after the base, which may raise
    for source in ("x1^0 + x2", "log(x1)^0 + x2", "exp(x1*x2)^0 + x2"):
        jet = eval2(parse(source, 2), [2.0, 3.0])
        assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == (4.0, [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
    assert eval2(parse("x1^0 + x2", 2), [-1.0, 3.0]).value == 4.0
    with pytest.raises(ExprDomainError, match="log of a nonpositive value in subterm 'log\\(x1\\)'"):
        eval2(parse("log(x1)^0 + x2", 2), [-1.0, 3.0])


def test_printing_or_grading_what_is_not_a_node_raises_type_error():
    for walk in (to_source, polynomial_degree):
        with pytest.raises(TypeError, match="not an AST node: 'x1'"):
            walk("x1")
