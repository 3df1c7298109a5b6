import ast
import time
from fractions import Fraction

import pytest
from test_readme import library_example

import curvecount
from curvecount import bott, bundles, chern, chow, counts, symfunc
from curvecount import expr as ex
from curvecount.bundles import Grassmannian
from curvecount.counts import (
    DEGENERATE_CONIC_ASSUMPTION,
    DegreeMismatchError,
    HypersurfaceProblem,
    conic_obstruction,
    conic_space,
    count_conics,
    count_curves,
    count_lines,
    dimension_ledger,
    incidence_from_universal_curve,
    line_obstruction,
    line_space,
    universal_curve_class,
    universal_curve_space,
)


def test_problem_validation():
    with pytest.raises(ValueError):
        HypersurfaceProblem(4, 5, 0)
    # the insertion is a linear subspace of P^n: codimension 0 to n
    with pytest.raises(ValueError):
        HypersurfaceProblem(4, 5, 1, 5)
    with pytest.raises(ValueError):
        HypersurfaceProblem(4, 5, 1, -1)
    # a hyperplane holds no conic on its own: the curve's ideal has no
    # linear form, so the obstruction is all of S* and the degree falls short
    with pytest.raises(DegreeMismatchError):
        count_curves(HypersurfaceProblem(4, 1, 2))
    with pytest.raises(ValueError):
        HypersurfaceProblem(1, 5, 1)


def test_spaces():
    assert line_space(4) == Grassmannian(2, 5)
    hilb = conic_space(4)
    assert hilb.base == Grassmannian(3, 5)
    assert hilb.dim == 11
    assert conic_space(5).dim == 14


def test_obstruction_ranks_balance_dimensions():
    # finite counts need rank(obstruction) + insertion degree = dim(moduli)
    assert bundles.rank(line_obstruction(5), line_space(4)) == line_space(4).dim
    sextic = conic_obstruction(6)
    assert bundles.rank(sextic, conic_space(5)) == conic_space(5).dim - 1


@pytest.mark.parametrize("curve_degree", [1, 2, 3])
def test_incidence_matches_universal_curve_pushforward(curve_degree):
    # the derived tree, the Chow-ring pushforward and the literal class agree
    literal = ex.parse("s[1]" if curve_degree == 1 else f"zeta + {curve_degree}*s[1]")
    for n in range(3, 9):
        problem = HypersurfaceProblem(n, 6, curve_degree, 2)
        assert problem.incidence == literal
        assert incidence_from_universal_curve(problem) == ex.evaluate(literal, problem.space)


@pytest.mark.parametrize("backend", ["symbolic", "bott"])
@pytest.mark.parametrize(
    "problem, value",
    [
        # the septic CY5 with H^3 and the octic CY6 with H^4
        (HypersurfaceProblem(6, 7, 1, 3), 1009792),
        (HypersurfaceProblem(6, 7, 2, 3), 122239786088),
        (HypersurfaceProblem(7, 8, 1, 4), 15984640),
        (HypersurfaceProblem(7, 8, 2, 4), 33397159706624),
    ],
    ids=["septic-lines", "septic-conics", "octic-lines", "octic-conics"],
)
def test_insertion_codimension_above_two(problem, value, backend):
    assert count_curves(problem, backend) == value


def test_incidence_is_built_without_ring_arithmetic(monkeypatch):
    # neither engine builds the tree both of them integrate
    def refuse(*args, **kwargs):
        raise AssertionError("the incidence called into chow or chern")

    for module in (chow, chern):
        for name, value in list(vars(module).items()):
            if callable(value) and not isinstance(value, type) and (
                getattr(value, "__module__", None) == module.__name__
            ):
                monkeypatch.setattr(module, name, refuse)
    for curve_degree in counts.FAMILIES:
        assert HypersurfaceProblem(5, 6, curve_degree, 2).incidence


@pytest.mark.parametrize("curve_degree,expected", [(1, 1), (2, 2), (3, 3)])
def test_universal_curve_has_the_right_fiber_degree(curve_degree, expected):
    # [C] * h pushes down to the degree of the curve times the unit
    for p in (HypersurfaceProblem(5, 6, curve_degree), HypersurfaceProblem(4, 6, curve_degree)):
        h = chow.zeta(universal_curve_space(p))
        assert chow.pushforward(universal_curve_class(p) * h) == expected * chow.unit(p.space)


@pytest.mark.parametrize("backend", ["symbolic", "bott"])
def test_classical_counts(backend):
    assert count_curves(HypersurfaceProblem(3, 3, 1), backend) == 27
    assert count_curves(HypersurfaceProblem(4, 5, 1), backend) == 2875
    assert count_curves(HypersurfaceProblem(4, 5, 2), backend) == 609250
    # every line meets a hyperplane: the incidence class is the scalar 1
    assert count_curves(HypersurfaceProblem(3, 3, 1, 1), backend) == 27
    assert count_curves(HypersurfaceProblem(4, 5, 1, 1), backend) == 2875


def test_every_count_integrand_is_read_back_from_its_text():
    # the text of a count is the node both engines integrate: a one-factor
    # product or a Sym^1, which the parser reads as its factor or argument,
    # would fail here
    for n in range(3, 6):
        for curve_degree in range(1, 5):
            for degree in range(1, 8):
                for k in range(n + 1):
                    problem = HypersurfaceProblem(n, degree, curve_degree, k)
                    node = problem.integrand
                    assert ex.parse(ex.format_expr(node)) == node, problem


@pytest.mark.parametrize("backend", ["symbolic", "bott"])
@pytest.mark.parametrize(
    "ambient,degree,curve_degree,value",
    [
        # conics and plane cubics on the quintic, n_{1,3} = 609250
        (4, 5, 2, 609250),
        # plane cubics and quartics on the septic fivefold
        (6, 7, 3, 26123172457235),
        # plane cubics on the sextic fourfold, each its own residual
        (5, 6, 3, 2734099200),
    ],
    ids=["quintic", "septic", "sextic"],
)
def test_residual_plane_curves_count_alike(ambient, degree, curve_degree, value, backend):
    # a plane meets X in a plane curve of degree m, so a plane curve of
    # degree e on X leaves a residual of degree m - e in the same plane
    for e in (curve_degree, degree - curve_degree):
        assert count_curves(HypersurfaceProblem(ambient, degree, e), backend) == value


@pytest.mark.parametrize("backend", ["symbolic", "bott"])
def test_sextic_fourfold_counts(backend):
    lines = HypersurfaceProblem(5, 6, 1, 2)
    conics = HypersurfaceProblem(5, 6, 2, 2)
    assert count_lines(lines, backend) == 60480
    assert count_conics(conics, backend) == 440884080


@pytest.mark.parametrize(
    "ambient,degree,expected,backend",
    [
        (*rung, backend)
        for rung in [
            (6, 8, 21553784182784),
            (8, 11, 6879170927773883986896),
            (10, 14, 10747520834813687952698384377664),
        ]
        for backend in ("symbolic", "bott")
    ] + [
        # the symbolic engine takes seconds here, so localization alone
        (12, 17, 59021903191837569868255555729696380344336, "bott"),
        (14, 20, 920032265690180037500975652055655958465040384000000, "bott"),
    ],
)
def test_conic_ladder(ambient, degree, expected, backend):
    # the benchmark's pinned values, on which both engines agreed up to P^10
    assert count_conics(HypersurfaceProblem(ambient, degree, 2), backend) == expected


def test_counts_are_integers():
    for problem in (
        HypersurfaceProblem(3, 3, 1),
        HypersurfaceProblem(4, 5, 2),
        HypersurfaceProblem(5, 6, 2, 2),
    ):
        assert count_curves(problem).denominator == 1


def test_count_integrand_has_integer_coefficients():
    # no step of the symbolic engine divides, so without a p/q scalar every
    # coefficient stays an int
    problem = HypersurfaceProblem(5, 6, 2, 2)
    elt = ex.evaluate(problem.integrand, problem.space)
    coeffs = [c for slot in elt.data for c in slot.data.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_public_results_are_fractions():
    # pinned by type: a float would pass every value test, as 2875.0 == 2875
    gr = Grassmannian(2, 4)
    s1 = chow.sigma(gr, (1,))
    sigma1 = ex.Schubert((1,))
    results = [
        chow.integrate(s1**4),
        chow.integrate(s1),
        (s1**2).coefficient((2,)),
        (s1**2).coefficient((2, 2)),
        bott.bott_integrate(gr, ex.Power(sigma1, 4)),
        bott.bott_integrate(gr, sigma1),
        count_curves(HypersurfaceProblem(3, 3, 1), "symbolic"),
        count_curves(HypersurfaceProblem(3, 3, 1), "bott"),
    ]
    assert results == [2, 0, 1, 0, 2, 0, 27, 27]
    assert all(type(v) is Fraction for v in results)


def test_count_helpers_check_curve_degree():
    with pytest.raises(ValueError):
        count_lines(HypersurfaceProblem(4, 5, 2))
    with pytest.raises(ValueError):
        count_conics(HypersurfaceProblem(4, 5, 1))


def test_dimension_deficit_is_reported():
    # quintic threefold lines need no incidence condition; demanding one
    # takes the integrand one past top degree, which has no deficit and is
    # refused as `integral` refuses it
    with pytest.raises(DegreeMismatchError) as err:
        count_curves(HypersurfaceProblem(4, 5, 1, 2))
    # the space is named in the input grammar, not by its dataclass repr
    assert str(err.value) == "integrand degree 7 exceeds dim 6 of gr(2,5)"
    with pytest.raises(DegreeMismatchError) as err:
        count_curves(HypersurfaceProblem(3, 2, 2))
    assert str(err.value) == (
        "integrand degree 5 does not match dim 8 of "
        "pbundle(sym(2,dual(S)),gr(3,4)); deficit 3"
    )


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        count_curves(HypersurfaceProblem(3, 3, 1), "numeric")


def test_huge_powers_end_at_once_on_the_library_path():
    # a power stops multiplying at its first zero power, so the symbolic
    # path reads these at once, and integral reads the degree before either
    # engine runs and refuses as the command line does
    gr24 = Grassmannian(2, 4)
    for space, text in ((gr24, "s[1]^1000000"), (conic_space(5), "zeta^1000000")):
        start = time.perf_counter()
        assert ex.evaluate(ex.parse(text), space) == chow.zero(space)
        assert time.perf_counter() - start < 1.0
    for backend in counts.BACKENDS:
        start = time.perf_counter()
        with pytest.raises(DegreeMismatchError) as err:
            counts.integral(gr24, ex.parse("s[1]^1000000"), backend)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "integrand degree 1000000 exceeds dim 4 of gr(2,4)"


def test_ledger_entries_all_pass():
    entries = dimension_ledger()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert len(entries) >= 10
    for entry in entries:
        assert entry.passed, entry.name
        assert entry.got == entry.expected


def test_degenerate_locus_codimensions():
    by_name = {e.name: e for e in dimension_ledger()}
    moduli_with_incidence = by_name["conic_incidence_dim"].got
    assert by_name["double_line_incidence_dim"].got < moduli_with_incidence
    assert by_name["line_pair_incidence_dim"].got < moduli_with_incidence
    assert by_name["generic_conic_family_dim"].got == 1


def test_degenerate_conic_assumption_is_stated():
    assert "excess" in DEGENERATE_CONIC_ASSUMPTION
    assert "double lines" in DEGENERATE_CONIC_ASSUMPTION


def test_package_all_names_each_attribute_once():
    names = curvecount.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(curvecount, n)] == []
    star = {}
    exec("from curvecount import *", star)
    assert set(names) <= set(star)
    # the package exports exactly the names README's library example imports
    imported = [alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "curvecount"
                for alias in node.names]
    assert names == imported


def test_symbolic_counts_never_apply_the_tower_relation(monkeypatch):
    # the integrand is built unreduced and integrated by Segre pushforward,
    # so no normal form is ever computed
    def refuse(space, slots):
        raise AssertionError(f"a normal form on {space!r} was computed")

    monkeypatch.setattr(chow, "reduce_tower", refuse)
    assert count_conics(HypersurfaceProblem(4, 5, 2)) == 609250
    assert count_conics(HypersurfaceProblem(8, 11, 2)) == 6879170927773883986896
    assert count_conics(HypersurfaceProblem(5, 6, 2, 2)) == 440884080


def test_symbolic_conic_count_misses_the_schubert_cache_at_most_400_times():
    # the obstruction's Euler class is integrated by pairing and never
    # built, so only low-degree Schubert products remain: 392 on a cold
    # count, where building the class up to the top degree took 1911
    symfunc.schubert_product.cache_clear()
    assert count_conics(HypersurfaceProblem(8, 11, 2)) == 6879170927773883986896
    assert symfunc.schubert_product.cache_info().misses <= 400


def test_evaluated_conic_euler_class_misses_the_schubert_cache_at_most_400_times():
    # ex.evaluate reads the top-degree Euler class off its integral, so the
    # library's route looks up as few Schubert products as `count` does
    symfunc.schubert_product.cache_clear()
    problem = HypersurfaceProblem(8, 11, 2)
    value = chow.integrate(ex.evaluate(problem.integrand, problem.space))
    assert value == 6879170927773883986896
    assert symfunc.schubert_product.cache_info().misses <= 400


def test_symbolic_counts_equal_the_integral_of_the_built_class():
    # the reference is the Euler class built here in full, sum_i
    # c_(r-i)(top) s_i(sub), times the incidence when there is one: on every
    # conic problem on P^3..P^6 whose integrand has the top degree, and on
    # the plane cubics of the quintic (609250) and the sextic (2734099200)
    problems = [HypersurfaceProblem(4, 5, 3), HypersurfaceProblem(5, 6, 3)]
    for n in range(3, 7):
        for degree in range(1, 3 * n):
            for k in range(n + 1):
                problem = HypersurfaceProblem(n, degree, 2, k)
                if ex.degree(problem.integrand, problem.space) == problem.space.dim:
                    problems.append(problem)
    assert len(problems) == 12
    for problem in problems:
        space, q = problem.space, problem.obstruction
        r = bundles.rank(q, space)
        cs, ss = chern.chern_classes(q.top, space), chern.segre_classes(q.sub, space, r)
        built = chow.sum_of_products(space, ((1, cs[r - i], ss[i]) for i in range(r + 1)))
        if problem.insertion_codim:
            built = built * ex.evaluate(problem.incidence, space)
        assert count_curves(problem, "symbolic") == chow.integrate(built), problem
