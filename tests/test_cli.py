import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from curvecount import bott, cli, counts, expr as ex, gwdt
from curvecount.bundles import (
    BundleExpr, Dual, Grassmannian, ProjBundle, RelO, Space, Sym, TautQuot, TautSub,
    TensorLine, Trivial, WhitneyQuotient,
)
from curvecount.cli import ExprSyntaxError, parse_expression, parse_space


def bundle_nodes(depth):
    leaf = st.one_of(
        st.just(TautSub()),
        st.just(TautQuot()),
        st.builds(Trivial, st.integers(min_value=1, max_value=4)),
        st.builds(RelO, st.integers(min_value=-3, max_value=3)),
    )
    if depth == 0:
        return leaf
    inner = bundle_nodes(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Dual, inner),
        # the parser reads sym(1,B) as B, so trees come in that normal form
        st.builds(lambda d, b: b if d == 1 else Sym(d, b),
                  st.integers(min_value=0, max_value=4), inner),
        st.builds(TensorLine, inner, st.builds(RelO, st.integers(-2, 2))),
        st.builds(WhitneyQuotient, inner, inner),
    )


def expr_nodes(depth):
    leaf = st.one_of(
        st.builds(ex.Rational, st.fractions(min_value=-5, max_value=5)),
        st.builds(ex.Schubert, st.lists(st.integers(1, 3), max_size=2).map(
            lambda xs: tuple(sorted(xs, reverse=True)))),
        st.just(ex.Zeta()),
        st.builds(ex.ChernClass, st.integers(0, 4), bundle_nodes(1)),
        st.builds(ex.EulerClass, bundle_nodes(1)),
    )
    if depth == 0:
        return leaf
    inner = expr_nodes(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, n: ex.Power(a, n), leaf, st.integers(0, 5)),
        st.builds(lambda a, b: ex.Sum((a, b)), inner, inner),
        st.builds(lambda a, b: ex.Product((a, b)), inner, inner),
    )


def _tower(bundle, base):
    try:
        return ProjBundle(base, bundle)
    except ValueError:  # the bundle has no positive rank on this base
        return None


def space_nodes(depth):
    leaf = st.builds(lambda k, cols: Grassmannian(k, k + cols),
                     st.integers(1, 4), st.integers(1, 4))
    if depth == 0:
        return leaf
    tower = st.builds(_tower, bundle_nodes(1), space_nodes(depth - 1))
    return st.one_of(leaf, tower.filter(lambda space: space is not None))


@given(expr_nodes(2))
@settings(max_examples=80, deadline=None)
def test_format_parse_roundtrip(node):
    assert parse_expression(ex.format_expr(node)) == node


@given(space_nodes(2))
@settings(max_examples=80, deadline=None)
def test_space_format_parse_roundtrip(space):
    assert parse_space(ex.format_expr(space)) == space


def test_every_constructor_is_read_and_written():
    # every atom, bundle and space class has exactly one entry
    nodes = [c.node for c in ex.CONSTRUCTORS.values()]
    assert sorted(nodes, key=str) == sorted(
        {ex.Zeta, ex.ChernClass, ex.EulerClass, *get_args(BundleExpr), *get_args(Space)},
        key=str,
    )
    samples = {"bundle": TautQuot(), "space": Grassmannian(2, 4)}
    for name, entry in ex.CONSTRUCTORS.items():
        ints = iter((2, 4))  # gr(2,4), and sym(2,Q) stays a Sym
        node = entry.node(**{
            field: next(ints) if sort == "int" else samples[sort]
            for field, sort in entry.fields
        })
        text = ex.format_expr(node)
        assert text == name or text.startswith(name + "("), text
        assert ex.parse(text, entry.sort) == node, text


def test_empty_products_and_sums_are_refused():
    # the text form cannot write them, so no node holds one
    with pytest.raises(ValueError, match="at least one factor"):
        ex.Product(())
    with pytest.raises(ValueError, match="at least one term"):
        ex.Sum(())


def test_parse_whitespace_and_precedence():
    node = parse_expression(" s[2,1] + 2 * zeta ^ 3 ")
    assert node == ex.Sum(
        (
            ex.Schubert((2, 1)),
            ex.Product((ex.Rational(Fraction(2)), ex.Power(ex.Zeta(), 3))),
        )
    )


def test_parse_rationals_and_parens():
    assert parse_expression("-3/4") == ex.Rational(Fraction(-3, 4))
    assert parse_expression("(zeta + zeta) ^ 2") == ex.Power(
        ex.Sum((ex.Zeta(), ex.Zeta())), 2
    )


def test_parse_bundle_atoms():
    node = parse_expression("e(quot(sym(6,dual(S)),tensor(sym(4,dual(S)),o(-1))))")
    assert node == ex.EulerClass(
        WhitneyQuotient(
            Sym(6, Dual(TautSub())),
            TensorLine(Sym(4, Dual(TautSub())), RelO(-1)),
        )
    )
    assert parse_expression("c(2,Q)") == ex.ChernClass(2, TautQuot())


def test_parse_reads_sym_one_as_its_argument():
    assert parse_expression("c(3,sym(1,sym(2,dual(S))))") == ex.ChernClass(
        3, Sym(2, Dual(TautSub()))
    )
    # the rank-zero argument is no longer refused: Sym^1 of it is the zero bundle
    assert parse_expression("e(sym(1,triv(0)))") == ex.EulerClass(Trivial(0))
    assert parse_space("pbundle(sym(1,Q),gr(2,4))") == parse_space("pbundle(Q,gr(2,4))")


def test_parse_space():
    assert parse_space("gr(3,6)") == Grassmannian(3, 6)
    tower = parse_space("pbundle(sym(2,dual(S)), gr(3,6))")
    assert tower.base == Grassmannian(3, 6)
    assert tower.rank == 6


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("s[1] + @")
    assert err.value.position == 7
    with pytest.raises(ExprSyntaxError):
        parse_expression("s[1")
    with pytest.raises(ExprSyntaxError):
        parse_expression("zeta zeta")
    with pytest.raises(ExprSyntaxError):
        parse_space("gr(2 6)")
    for parse, text, position, message in (
        (parse_expression, "s[x]", 2, "expected an integer, found 'x'"),
        (parse_expression, "s[1]^x", 5, "exponent must be an integer"),
        (parse_expression, "1/x", 2, "denominator must be an integer"),
        (parse_expression, "foo", 0, "unexpected token 'foo'"),
        (parse_space, "S", 0, "unexpected space 'S'"),
        (parse_expression, "c(1,gr(2,4))", 4, "unexpected bundle 'gr'"),
    ):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == position
        assert str(err.value) == f"syntax error at position {position}: {message}"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integrate_command(capsys):
    code, out, _ = _run(
        capsys, "integrate", "--space", "gr(2,4)", "--expr", "s[1]^4", "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == {"num": "2", "den": "1"}
    assert rep["backend"] == "symbolic"


@pytest.mark.parametrize(
    "space,expr,value",
    [
        pytest.param("pbundle(sym(2,dual(S)),gr(3,6))", "zeta^8 * c(3,S)^2",
                     {"num": "-4", "den": "1"}, id="conic-tower"),
        pytest.param("gr(2,4)", "1/3*s[1]^4",
                     {"num": "2", "den": "3"}, id="rational-scalar"),
        pytest.param("pbundle(sym(2,dual(S)),gr(3,6))", "1/2*zeta^8*c(3,S)^2",
                     {"num": "-2", "den": "1"}, id="conic-tower-rational-scalar"),
        # a general Schubert class, lifted by Giambelli on the bott side
        pytest.param("pbundle(sym(2,dual(S)),gr(3,6))", "zeta^6 * s[3,3,2]",
                     {"num": "-4", "den": "1"}, id="general-schubert-conic-tower"),
        # Sym of every argument kind: duals of S and Q, S and Q themselves,
        # a composite Sym, and twisted bundles on a tower
        pytest.param("gr(2,5)", "c(3,sym(2,dual(Q)))*s[1]^3",
                     {"num": "-50", "den": "1"}, id="sym-dual-Q"),
        pytest.param("gr(2,5)", "c(3,sym(3,S))*s[1]^3",
                     {"num": "-90", "den": "1"}, id="sym-S"),
        pytest.param("gr(2,5)", "c(4,sym(3,Q))*s[1]^2",
                     {"num": "1715", "den": "1"}, id="sym-Q"),
        pytest.param("gr(2,5)", "c(3,sym(2,sym(2,dual(S))))*s[1]^3",
                     {"num": "920", "den": "1"}, id="sym-of-sym"),
        # Sym of S and of Q* on a box with three rows and three columns
        pytest.param("gr(3,6)", "c(4,sym(3,S))*s[1]^5",
                     {"num": "12075", "den": "1"}, id="sym-S-gr36"),
        pytest.param("gr(3,6)", "c(6,sym(2,dual(Q)))*s[1]^3",
                     {"num": "16", "den": "1"}, id="sym-dual-Q-gr36"),
        pytest.param("pbundle(sym(2,dual(S)),gr(3,5))",
                     "c(3,sym(2,tensor(dual(S),o(1))))*zeta^5*s[1]^3",
                     {"num": "-2830", "den": "1"}, id="sym-tower-twist"),
        pytest.param("pbundle(sym(2,dual(S)),gr(3,5))",
                     "c(4,sym(3,tensor(Q,o(-1))))*zeta^7",
                     {"num": "16740", "den": "1"}, id="sym-tower-twist-Q"),
        # sym(1,B) is read as B on both engines
        pytest.param("gr(3,7)", "c(3,sym(1,sym(2,dual(S))))*s[1]^9",
                     {"num": "3528", "den": "1"}, id="sym-one"),
        pytest.param("gr(2,4)", "c(1,sym(1,triv(0)))*s[1]^3",
                     {"num": "0", "den": "1"}, id="sym-one-of-zero-bundle"),
        # with the ladder weights 0..4, Sym^2 Q repeats a weight (2+4 = 3+3),
        # so the localization quotient must remove weights with multiplicity
        pytest.param("pbundle(Q,gr(2,5))",
                     "c(3,quot(sym(2,Q),tensor(Q,o(-1))))*zeta^2*s[1]^3",
                     {"num": "-4", "den": "1"}, id="quot-tower-repeated-weights"),
        # the conic bundle over Gr(3,5) has dimension 11, below the ranks of
        # the twist (15) and the quotient (13): the top-degree classes
        # come out of sums cut at the dimension
        pytest.param("pbundle(sym(2,dual(S)),gr(3,5))",
                     "c(11,tensor(sym(4,dual(S)),o(-1)))",
                     {"num": "-233252250", "den": "1"}, id="twist-rank-above-dim"),
        pytest.param("pbundle(sym(2,dual(S)),gr(3,5))",
                     "c(11,quot(sym(6,dual(S)),tensor(sym(4,dual(S)),o(-1))))",
                     {"num": "188068995", "den": "1"}, id="quot-rank-above-dim"),
        # a nested Sym of rank 20 and 15 on a space of dimension 4: the
        # Schur expansion runs in 4 roots of the argument
        pytest.param("gr(1,5)", "c(4,sym(2,sym(3,Q)))",
                     {"num": "412806030", "den": "1"}, id="sym-sym-rank-above-dim"),
        pytest.param("gr(1,5)", "c(4,sym(3,sym(2,Q)))",
                     {"num": "496548465", "den": "1"}, id="sym-sym-cube-rank-above-dim"),
        # a nested Sym whose Pieri step runs on a large class, and the
        # largest packed Sym expansion answered so far (3628800 bytes)
        pytest.param("gr(3,7)", "c(12,sym(2,sym(2,dual(S))))",
                     {"num": "10241034384", "den": "1"}, id="sym-sym-gr37"),
        pytest.param("gr(2,9)", "c(8,sym(2,Q))*s[1]^6",
                     {"num": "394416", "den": "1"}, id="sym-Q-gr29"),
        # Chern indices above the rank: e_4 of three weights is 0
        pytest.param("gr(2,4)", "c(3,Q)*s[1]",
                     {"num": "0", "den": "1"}, id="chern-index-above-rank"),
        pytest.param("pbundle(sym(2,dual(S)),gr(3,6))", "c(4,tensor(Q,o(-1)))*zeta^10",
                     {"num": "0", "den": "1"}, id="chern-index-above-rank-twisted"),
        # S is not in Q, so bott has no lift of the quotient, but c_2 of a
        # rank-1 bundle is 0 without one
        pytest.param("gr(2,5)", "c(2,quot(Q,S))*s[1]^4",
                     {"num": "0", "den": "1"}, id="chern-index-above-rank-of-unliftable-quot"),
    ],
)
def test_integrate_both_backends_agree(capsys, space, expr, value):
    code, out, _ = _run(
        capsys, "integrate", "--space", space, "--expr", expr,
        "--backend", "both", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == value
    assert rep["checks"][0]["pass"] is True


def test_json_reports_have_no_floats(capsys):
    code, out, _ = _run(
        capsys, "integrate", "--space", "gr(2,4)", "--expr", "1/3 * s[2,2]", "--json"
    )
    assert code == 0
    assert "e-" not in out and "0.3" not in out
    rep = json.loads(out)
    assert rep["value"] == {"num": "1", "den": "3"}


def test_syntax_error_exit_code(capsys):
    code, _, err = _run(capsys, "integrate", "--space", "gr(2,4)", "--expr", "s[1] +")
    assert code == 2
    assert "syntax error" in err


def _dual_chain(k):
    # c_1 of k nested duals of S, times s[1]^3: -2 on Gr(2,4) for even k, 2
    # for odd; the chain opens k + 1 parentheses
    return "c(1," + "dual(" * k + "S" + ")" * k + ")*s[1]^3"


def test_nesting_past_the_limit_is_a_syntax_error(capsys):
    for k, value in ((98, -2), (ex.MAX_NESTING - 1, 2)):
        code, out, _ = _run(capsys, "integrate", "--space", "gr(2,4)",
                            "--backend", "both", "--expr", _dual_chain(k))
        assert code == 0 and out.startswith(f"integrate: {value}\n")
    # refused at the first parenthesis past the limit, before any engine or
    # the parser's own recursion runs
    too_deep = (
        (_dual_chain(ex.MAX_NESTING), 4 + 5 * ex.MAX_NESTING - 1),
        ("(" * 1200 + "s[1]" + ")" * 1200 + "^4", ex.MAX_NESTING),
    )
    for text, position in too_deep:
        code, out, err = _run(capsys, "integrate", "--space", "gr(2,4)",
                              "--backend", "both", "--expr", text)
        assert (code, out) == (2, "")
        assert err == (f"error: syntax error at position {position}: "
                       f"more than {ex.MAX_NESTING} parentheses open\n")


def test_semantic_error_exit_code(capsys):
    code, _, err = _run(capsys, "integrate", "--space", "gr(2,4)", "--expr", "zeta")
    assert code == 3
    code, _, err = _run(capsys, "integrate", "--space", "gr(9,6)", "--expr", "s[1]")
    assert code == 3
    # a fiber with repeated weights admits no weight vector at all
    code, _, err = _run(
        capsys, "integrate", "--space", "pbundle(triv(2),gr(2,4))",
        "--expr", "zeta^5", "--backend", "both",
    )
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    # Q/S has rank 1 on Gr(2,5), but the weights of S are not among those of Q
    code, _, err = _run(
        capsys, "integrate", "--space", "gr(2,5)", "--expr", "c(1,quot(Q,S))*s[1]^5",
        "--backend", "bott",
    )
    assert code == 3
    assert err == "error: quotient weights are not contained in the ambient bundle\n"


@pytest.mark.parametrize("backend", ["symbolic", "bott", "both"])
def test_out_of_memory_exit_code(capsys, monkeypatch, backend):
    # gr(40,80) by localization and Sym^2 of a rank-10 bundle on gr(4,8)
    # once ended in a MemoryError traceback with exit 1, which reads as a
    # failed check; a failed allocation carries no message
    def out_of_memory(space, integrand, backend):
        raise MemoryError

    monkeypatch.setattr(counts, "integral", out_of_memory)
    code, out, err = _run(capsys, "integrate", "--space", "gr(40,80)", "--expr", "s[1]",
                          "--backend", backend)
    assert (code, out, err) == (4, "", "error: out of memory\n")


def test_a_packed_sym_expansion_beyond_memory_is_refused_at_once(capsys):
    # the bound is a constant, so each is refused alike on every host
    refused = (
        # Sym^2 of the rank-15 sym(2,dual(S)) on gr(5,10): some 55 PB
        ("gr(5,10)", "c(1,sym(2,sym(2,dual(S))))*s[1]^24", 120, 15, 25, 54984671501760000),
        # localization answers these two, 1321320 and 199680624
        ("gr(4,8)", "c(1,sym(2,sym(2,dual(S))))*s[1]^15", 55, 10, 16, 17557585920),
        ("gr(2,12)", "c(8,sym(2,Q))*s[1]^12", 55, 10, 20, 9340531200),
    )
    for space, expr, forms, roots, top, size in refused:
        start = time.perf_counter()
        code, out, err = _run(capsys, "integrate", "--space", space, "--expr", expr)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (4, "")
        assert err == (f"error: out of memory: expanding {forms} forms in {roots} roots "
                       f"up to degree {top} needs {size} bytes per packed integer\n")


def test_above_top_degree_is_refused_alike_by_every_backend(capsys):
    # without the refusal the symbolic engine read 0 and localization
    # reported a weight-dependent sum
    results = {
        backend: _run(capsys, "integrate", "--space", "gr(2,4)", "--expr", "s[1]^5",
                      "--backend", backend)
        for backend in ("symbolic", "bott", "both")
    }
    assert set(results.values()) == {
        (3, "", "error: integrand degree 5 exceeds dim 4 of gr(2,4)\n")
    }
    start = time.perf_counter()
    code, _, err = _run(capsys, "integrate", "--space", "gr(2,4)",
                        "--expr", "s[1]^1000000", "--backend", "bott")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (3, "error: integrand degree 1000000 exceeds dim 4 of gr(2,4)\n")


def test_below_top_degree_ends_at_once_by_localization(capsys):
    # `s[1]` on gr(40,80) is far below the top degree, so its integral is 0;
    # localization once built the fixed points anyway and ran out of memory.
    # The child runs under a 1 GiB address-space cap and a timeout, so a
    # regression fails the test instead of taking the machine's memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    capped = (
        "import resource, sys; _, hard = resource.getrlimit(resource.RLIMIT_AS); "
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard); "
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard)); "
        "sys.argv[0] = 'curvecount'; from curvecount.cli import entrypoint; entrypoint()"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", capped, "integrate", "--space", "gr(40,80)",
         "--expr", "s[1]", "--backend", "bott"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "integrate: 0\n", "")
    # the zero answer comes after the checks both engines share
    for backend in ("symbolic", "bott"):
        assert _run(capsys, "integrate", "--space", "gr(2,4)", "--expr", "zeta",
                    "--backend", backend) == (
            3, "", "error: zeta only lives on a projective bundle\n")
    assert _run(capsys, "integrate", "--space", "gr(2,5)", "--expr", "c(1,quot(Q,S))",
                "--backend", "bott") == (
        3, "", "error: quotient weights are not contained in the ambient bundle\n")


@pytest.mark.parametrize(
    "space,expr,build",
    [
        ("gr(2,4)", "e(triv(-1))", lambda: ex.EulerClass(Trivial(-1))),
        ("gr(2,4)", "c(1,sym(-1,S))", lambda: ex.ChernClass(1, Sym(-1, TautSub()))),
        ("gr(2,4)", "c(-1,S)", lambda: ex.ChernClass(-1, TautSub())),
        ("gr(2,4)", "s[1]^-1", lambda: ex.Power(ex.Schubert((1,)), -1)),
        ("gr(2,4)", "1/0", lambda: ex.rational(1, 0)),
        ("gr(2,4)", "s[1,2]", lambda: ex.Schubert((1, 2))),
        ("gr(9,6)", "s[1]", lambda: Grassmannian(9, 6)),
    ],
    ids=["triv-rank", "sym-degree", "chern-index", "exponent", "denominator",
         "increasing-schubert", "grassmannian"],
)
def test_refusals_read_the_same_from_text_and_code(capsys, space, expr, build):
    with pytest.raises(ValueError) as refused:
        build()
    for backend in ("symbolic", "bott", "both"):
        code, _, err = _run(
            capsys, "integrate", "--space", space, "--expr", expr, "--backend", backend,
        )
        assert code == 3
        assert err == f"error: {refused.value}\n"


@pytest.mark.parametrize(
    "expr",
    ["c(1,tensor(S,Q))", "c(1,sym(2,triv(0)))*s[1]^3", "c(1,quot(S,Q))*s[1]^3"],
)
def test_localization_validates_bundles_like_symbolic(capsys, expr):
    errors = []
    for backend in ("symbolic", "bott"):
        code, _, err = _run(
            capsys, "integrate", "--space", "gr(2,4)", "--expr", expr,
            "--backend", backend,
        )
        assert code == 3
        errors.append(err)
    assert errors[0] == errors[1]


def _integral_or_refusal(space, node, backend):
    try:
        return counts.integral(space, node, backend)
    except (ValueError, bott.WeightCollisionError) as err:
        return err


def _refused_by_localization_alone(space, err):
    # the symbolic engine integrates these; localization cannot read them
    if isinstance(err, bott.UnsupportedExpressionError):
        return str(err).startswith("quotient weights are not contained")
    # a tower over a bundle with repeated weights, such as triv(3), has
    # colliding fibre weights at every seed
    return isinstance(err, bott.WeightCollisionError) and isinstance(space, ProjBundle)


def _agree_or_refuse_alike(space, node):
    # pad to the top degree with s[1], so that most integrands are not 0
    try:
        pad = space.dim - ex.degree(node, space)
    except ValueError:
        pad = 0  # refused by the degree read, which both engines share
    if pad > 0:
        node = ex.Product((node, ex.Power(ex.Schubert((1,)), pad)))
    symbolic, localized = (_integral_or_refusal(space, node, b) for b in counts.BACKENDS)
    if isinstance(symbolic, Fraction) and isinstance(localized, Exception):
        assert _refused_by_localization_alone(space, localized), localized
    elif isinstance(symbolic, Exception) or isinstance(localized, Exception):
        assert str(symbolic) == str(localized)
        assert isinstance(symbolic, Exception) and isinstance(localized, Exception)
    else:
        assert type(symbolic) is type(localized) is Fraction
        assert symbolic == localized


@given(space_nodes(1).filter(lambda space: space.dim <= 8), expr_nodes(2))
@settings(max_examples=200, deadline=None)
def test_engines_agree_or_refuse_alike(space, node):
    _agree_or_refuse_alike(space, node)


# a tower over a tower: quotients, twists and zeta read two eigenlines
_TWO_LEVEL = st.builds(_tower, bundle_nodes(1), space_nodes(1).filter(
    lambda space: isinstance(space, ProjBundle)
))


@given(_TWO_LEVEL.filter(lambda space: space is not None and space.dim <= 8), expr_nodes(2))
@settings(max_examples=60, deadline=None)
def test_engines_agree_or_refuse_alike_on_two_level_towers(space, node):
    _agree_or_refuse_alike(space, node)


def test_count_command(capsys):
    code, out, _ = _run(
        capsys,
        "count",
        "conics",
        "--ambient",
        "4",
        "--degree",
        "5",
        "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"]["num"] == "609250"
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize(
    "argv,space,expr",
    [
        ("lines --ambient 4 --degree 5", "gr(2,5)", "e(sym(5,dual(S)))"),
        ("conics --ambient 4 --degree 5", "pbundle(sym(2,dual(S)),gr(3,5))",
         "e(quot(sym(5,dual(S)),tensor(sym(3,dual(S)),o(-1))))"),
        ("lines --ambient 5 --degree 6 --incidence 2", "gr(2,6)",
         "e(sym(6,dual(S)))*s[1]"),
        ("conics --ambient 5 --degree 6 --incidence 2", "pbundle(sym(2,dual(S)),gr(3,6))",
         "e(quot(sym(6,dual(S)),tensor(sym(4,dual(S)),o(-1))))*(zeta + 2*s[1])"),
        ("cubics --ambient 5 --degree 6", "pbundle(sym(3,dual(S)),gr(3,6))",
         "e(quot(sym(6,dual(S)),tensor(sym(3,dual(S)),o(-1))))"),
    ],
)
def test_count_json_names_the_space_and_integrand(capsys, argv, space, expr):
    code, out, _ = _run(capsys, "count", *argv.split(), "--json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["space"], rep["expr"]) == (space, expr)


def test_count_refusals_name_the_problem(capsys):
    # plane curves are parametrized over Gr(3, n+1), so P^2 is refused by the problem
    code, _, err = _run(capsys, "count", "conics", "--ambient", "2", "--degree", "2")
    assert code == 3
    assert err == "error: plane curve problems need ambient dimension >= 3\n"
    code, _, err = _run(capsys, "count", "conics", "--ambient", "3", "--degree", "2")
    assert code == 3
    assert err == (
        "error: integrand degree 5 does not match dim 8 of "
        "pbundle(sym(2,dual(S)),gr(3,4)); deficit 3\n"
    )
    # a condition too many leaves no deficit: the degree exceeds the dimension
    code, _, err = _run(capsys, "count", "lines", "--ambient", "3", "--degree", "3",
                        "--incidence", "3")
    assert (code, err) == (3, "error: integrand degree 6 exceeds dim 4 of gr(2,4)\n")
    # the insertion is a linear subspace of P^n
    code, _, err = _run(capsys, "count", "lines", "--ambient", "5", "--degree", "6",
                        "--incidence", "6")
    assert (code, err) == (3, "error: insertion codimension must be between 0 and 5\n")
    code, _, err = _run(capsys, "count", "lines", "--ambient", "3", "--degree", "0")
    assert (code, err) == (3, "error: hypersurface degree must be positive\n")


def test_count_lines_with_incidence(capsys):
    # a hyperplane meets every line, so an insertion of codimension 1 gives
    # the plain count; its incidence class is the scalar 1
    for ambient, degree, incidence, value in (
        ("5", "6", "2", "60480"), ("3", "3", "1", "27"), ("4", "5", "1", "2875"),
    ):
        code, out, _ = _run(
            capsys, "count", "lines", "--ambient", ambient, "--degree", degree,
            "--incidence", incidence, "--json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == {"num": value, "den": "1"}
        assert all(c["pass"] for c in rep["checks"])


def test_gwdt_command(capsys):
    code, out, _ = _run(
        capsys, "gwdt", "--dt", "1=60480,2=440884080", "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["table"]["2"] == {"num": "440899200", "den": "1"}
    assert all(c["pass"] for c in rep["checks"])


def test_gwdt_invert(capsys):
    code, out, _ = _run(
        capsys, "gwdt", "--gw", "1=60480,2=440899200", "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["table"]["2"] == {"num": "440884080", "den": "1"}


@pytest.mark.parametrize("argv", [
    (),
    ("--dt", "1=60480,2=440884080", "--gw", "1=1"),
    ("--gw", "1=60480", "--invert"),
])
def test_gwdt_needs_exactly_one_table(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gwdt", *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_gwdt_missing_divisor_is_semantic(capsys):
    code, _, err = _run(capsys, "gwdt", "--dt", "2=8")
    assert code == 3
    assert err == "error: DT table has no degree 1\n"
    # the divisors come in pairs (k, m / k), so degree 1 is missed at once
    for m in ("100000000", "1000000000000"):
        start = time.perf_counter()
        code, _, err = _run(capsys, "gwdt", "--dt", f"{m}=1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (3, "error: DT table has no degree 1\n")
    code, _, err = _run(capsys, "gwdt", "--dt", "1=5,1=6")
    assert code == 3
    assert err == "error: degree 1 appears twice in the DT table\n"
    code, _, err = _run(capsys, "gwdt", "--gw", "")
    assert code == 3
    assert err == "error: the GW table is empty\n"
    # a malformed entry is a syntax error at the 0-based offset where it starts
    code, _, err = _run(capsys, "gwdt", "--dt", "1=60480, 2=x")
    assert code == 2
    assert err.startswith("error: syntax error at position 9: bad table entry '2=x'")
    code, _, err = _run(capsys, "gwdt", "--gw", "1=5,,  2/3")
    assert code == 2
    assert err.startswith("error: syntax error at position 7: expected degree=value")


def test_gwdt_refuses_a_value_that_is_not_an_integer_or_p_over_q(capsys):
    # Fraction would expand the exponent to a hundred million digits
    start = time.perf_counter()
    code, out, err = _run(capsys, "gwdt", "--dt", "1=1e100000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: syntax error at position 0: bad table entry "
                   "'1=1e100000000': the value must be an integer or p/q\n")
    for value in ("0.5", "1_000", "2/-3", "x"):
        assert _run(capsys, "gwdt", "--dt", f"1={value}")[0] == 2
    code, out, _ = _run(capsys, "gwdt", "--dt", "1=-3/4, 2= +5")
    assert code == 0
    assert "GW[1] = -3/4" in out


def test_gwdt_reads_a_degree_as_the_grammar_reads_an_integer(capsys):
    # int() alone would read 1_0 as 10
    code, out, err = _run(capsys, "gwdt", "--dt", "1_0=5,1=1,2=1,5=1")
    assert (code, out) == (2, "")
    assert err == ("error: syntax error at position 0: bad table entry "
                   "'1_0=5': the degree must be an integer\n")
    # a sign is read, and the range check refuses what it reads
    code, out, _ = _run(capsys, "gwdt", "--dt", "+1=1, +2=3")
    assert code == 0 and "GW[2] = 13/4" in out
    code, out, err = _run(capsys, "gwdt", "--dt=-1=1")
    assert (code, out) == (3, "")
    assert err == (f"error: curve degrees must be integers from 1 to "
                   f"{gwdt.MAX_TABLE_DEGREE}\n")


def test_gwdt_refuses_a_degree_past_the_bound(capsys):
    # the cover sums trial-divide up to the square root of a degree
    start = time.perf_counter()
    code, out, err = _run(capsys, "gwdt", "--dt", "1=1,10000000000000061=1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (f"error: curve degrees must be integers from 1 to "
                   f"{gwdt.MAX_TABLE_DEGREE}\n")
    # the largest prime up to the bound still answers
    code, out, _ = _run(capsys, "gwdt", "--dt", "1=1,999999999989=1")
    assert code == 0
    assert "GW[999999999989] = 999999999978000000000122/999999999978000000000121" in out


def test_am_verify_command(capsys):
    code, out, _ = _run(capsys, "am-verify", "--degree", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == {"num": "1", "den": "8"}
    assert all(c["pass"] for c in rep["checks"])
    code, out, _ = _run(capsys, "am-verify", "--degree", str(gwdt.MAX_COVER_DEGREE), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == {"num": "1", "den": str(gwdt.MAX_COVER_DEGREE**3)}
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("degree", [0, gwdt.MAX_COVER_DEGREE + 1])
def test_am_verify_degree_out_of_range_is_usage_error(capsys, degree):
    with pytest.raises(SystemExit) as exc:
        cli.main(["am-verify", "--degree", str(degree)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_ledger_command(capsys):
    code, out, _ = _run(capsys, "ledger", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["checks"]) >= 10
    assert all(c["pass"] for c in rep["checks"])
    assert any("excess" in note for note in rep["notes"])


def test_selftest_command(capsys):
    code, out, _ = _run(capsys, "selftest", "--json")
    assert code == 0
    rep = json.loads(out)
    assert all(c["pass"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert any("conics on the sextic" in n for n in names)


def test_selftest_reports_failing_checks(capsys, monkeypatch):
    monkeypatch.setattr(counts, "acceptance_checks", lambda: [
        # equal exact values of different types pass
        counts.Check("typed table", [(1, 60480)], [(1, Fraction(60480))]),
        counts.Check("deliberately wrong", 1, 2),
    ])
    code, out, _ = _run(capsys, "selftest")
    assert code == 1
    assert "[pass] typed table" in out
    assert "[FAIL] deliberately wrong: expected 1, got 2" in out
    code, out, _ = _run(capsys, "selftest", "--json")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "typed table", "expected": "[(1, 60480)]",
         "got": "[(1, Fraction(60480, 1))]", "pass": True},
        {"name": "deliberately wrong", "expected": "1", "got": "2", "pass": False},
    ]


def test_the_package_runs_as_a_module():
    # `PYTHONPATH=src python -m curvecount ...` runs the CLI from a checkout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "curvecount", "count", "lines", "--ambient", "3",
         "--degree", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "count: 27" in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv",
    [["ledger"], ["count", "conics", "--ambient", "4", "--degree", "5"]],
    ids=["ledger", "count-conics"],
)
def test_closed_stdout_exits_quietly(argv):
    # `curvecount ledger | true`: the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 141
