"""Acceptance checks, one test per criterion.

Every value is exact (Fraction equality, zero tolerance).  Each test prints
a single PASS/FAIL line so the suite doubles as a report under `pytest -s`.
"""

import json
import random
import time
from fractions import Fraction

from curvecount import chow, cli, counts, gwdt
from curvecount.bundles import Dual, Grassmannian, ProjBundle, Sym, TautQuot, TautSub
from curvecount.chern import segre_classes, total_chern
from curvecount.chow import integrate, sigma, unit, zeta
from curvecount.counts import HypersurfaceProblem
from curvecount.symfunc import (
    _partitions,
    box_complement,
    partition,
    schubert_product,
    weight,
)


def _criterion(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _cli_count_json(capsys, *argv) -> dict:
    code = cli.main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_sextic_lines(capsys):
    start = time.perf_counter()
    rep = _cli_count_json(
        capsys, "count", "lines", "--ambient", "5", "--degree", "6",
        "--incidence", "2",
    )
    elapsed = time.perf_counter() - start
    ok = rep["value"] == {"num": "60480", "den": "1"} and elapsed < 1.0
    _criterion(
        f"criterion 1: sextic-fourfold lines through a codim-2 plane "
        f"= 60480 in {elapsed:.2f}s (< 1s)",
        ok,
    )


def test_criterion_2_sextic_conics():
    start = time.perf_counter()
    problem = HypersurfaceProblem(5, 6, 2, 2)
    symbolic = counts.count_conics(problem, "symbolic")
    localized = counts.count_conics(problem, "bott")
    elapsed = time.perf_counter() - start
    ok = symbolic == 440884080 and localized == 440884080 and elapsed < 30.0
    _criterion(
        f"criterion 2: sextic-fourfold conic integral = 440884080 "
        f"on both backends in {elapsed:.2f}s (< 30s)",
        ok,
    )


def test_criterion_3_gw_dt_identity():
    dt = gwdt.InvariantTable(
        "DT", {1: Fraction(60480), 2: Fraction(440884080)}
    )
    gw = gwdt.gw_from_dt(dt)
    identity = gw[2] == 440899200 == 440884080 + Fraction(60480, 4)
    back = gwdt.dt_from_gw(gw)
    inverts = back[1] == dt[1] and back[2] == dt[2]
    _criterion(
        "criterion 3: GW[2] = DT[2] + DT[1]/4 = 440899200 and inversion "
        "recovers the DT table",
        identity and inverts,
    )


def test_criterion_4_classical_cross_checks():
    cases = (
        (HypersurfaceProblem(3, 3, 1), 27),
        (HypersurfaceProblem(4, 5, 1), 2875),
        (HypersurfaceProblem(4, 5, 2), 609250),
    )
    ok = True
    for problem, expected in cases:
        symbolic = counts.count_curves(problem, "symbolic")
        localized = counts.count_curves(problem, "bott")
        ok = ok and symbolic == localized == expected
    _criterion(
        "criterion 4: classical counts 27 / 2875 / 609250 agree across "
        "both backends",
        ok,
    )


def test_criterion_5_multiple_cover_factor():
    ok = True
    for d, expected in ((1, Fraction(1)), (2, Fraction(1, 8)), (3, Fraction(1, 27))):
        for seed in (0, 1, 2):
            ok = ok and gwdt.am_localization_verify(d, seed) == expected
    _criterion(
        "criterion 5: cover localization gives 1, 1/8, 1/27, "
        "independent of weights across 3 seeds",
        ok,
    )


def test_acceptance_checks_pin_criteria_1_to_5():
    # `curvecount selftest` reports counts.acceptance_checks(); every value
    # criteria 1-5 pin must be the expected value of one of its passing checks
    pinned = [
        (f"{name} ({backend})", value)
        for name, value in (
            ("lines on the sextic fourfold meeting a plane", 60480),
            ("conics on the sextic fourfold meeting a plane", 440884080),
            ("lines on a cubic surface", 27),
            ("lines on a quintic threefold", 2875),
            ("conics on a quintic threefold", 609250),
        )
        for backend in ("symbolic", "bott")
    ]
    pinned += [
        ("degree-2 GW from DT", 440899200),
        ("GW[2] = DT[2] + DT[1]/4", 440884080 + Fraction(60480, 4)),
        ("Moebius inversion returns DT", [(1, 60480), (2, 440884080)]),
    ]
    pinned += [
        (f"multiple-cover factor, degree {d}, seed {seed}", Fraction(1, d**3))
        for d in (1, 2, 3)
        for seed in (0, 1, 2)
    ]
    by_name = {c.name: c for c in counts.acceptance_checks()}
    missing = [
        name for name, value in pinned
        if name not in by_name or not by_name[name].passed
        or by_name[name].expected != value
    ]
    _criterion(
        f"selftest checks every value criteria 1-5 pin (missing: {missing})",
        not missing,
    )


def test_criterion_6_dimension_ledger():
    entries = counts.dimension_ledger()
    expected = {
        "sextic_sections": 462,
        "sextic_moduli_dim": 461,
        "conic_restriction": 13,
        "sextics_through_conic": 448,
        "conic_moduli_dim": 14,
        "conic_incidence_dim": 462,
        "double_line_locus_dim": 11,
        "double_line_incidence_dim": 459,
        "line_pair_locus_dim": 13,
        "line_pair_incidence_dim": 461,
        "conic_obstruction_rank": 13,
        "generic_conic_family_dim": 1,
    }
    by_name = {e.name: e for e in entries}
    ok = set(by_name) == set(expected)
    for name, value in expected.items():
        entry = by_name.get(name)
        ok = ok and entry is not None and entry.passed and entry.got == value
    _criterion("criterion 6: all dimension-ledger entries pass", ok)


def test_criterion_7_property_suites():
    ok = True

    # Poincare duality orthonormality
    for gr in (Grassmannian(2, 4), Grassmannian(2, 5), Grassmannian(3, 6)):
        top = gr.rows * gr.cols
        box = tuple(_partitions(gr.rows, gr.cols, top))
        for lam in box:
            mu = box_complement(lam, gr.rows, gr.cols)
            ok = ok and integrate(sigma(gr, lam) * sigma(gr, mu)) == 1
            for nu in box:
                if weight(lam) + weight(nu) == top and nu != mu:
                    ok = ok and integrate(sigma(gr, lam) * sigma(gr, nu)) == 0

    # Whitney sum and Chern/Segre inversion
    gr = Grassmannian(2, 5)
    ok = ok and total_chern(TautSub(), gr) * total_chern(TautQuot(), gr) == unit(gr)
    cs = total_chern(Sym(2, Dual(TautSub())), gr)
    ss = segre_classes(Sym(2, Dual(TautSub())), gr, gr.dim)
    prod = cs * sum(ss[1:], ss[0])
    ok = ok and prod.degree_part(0) == unit(gr)
    ok = ok and all(prod.degree_part(d).is_zero() for d in range(1, gr.dim + 1))

    # tower reduction idempotence
    tower = ProjBundle(Grassmannian(2, 4), TautSub())
    for k in range(6):
        elt = zeta(tower) ** k
        ok = ok and chow.reduce_tower(tower, list(elt.data)) == elt

    # Pieri against the interlacing rule: sigma_lam * sigma_i is the sum of
    # the nu with |nu| = |lam| + i and nu_1 >= lam_1 >= nu_2 >= lam_2 >= ...
    box = tuple(_partitions(3, 3, 9))
    for lam in box:
        for i in range(4):
            want = {}
            for nu in box:
                n, m = nu + (0,) * 4, lam + (0,) * 3
                if weight(nu) == weight(lam) + i and all(
                        n[j + 1] <= m[j] <= n[j] for j in range(3)):
                    want[nu] = 1
            ok = ok and dict(schubert_product(lam, partition([i]), 3, 3)) == want

    # GW/DT inversion round-trip on random tables
    rng = random.Random(11)
    for _ in range(8):
        degrees = rng.sample(range(1, 13), rng.randint(1, 6))
        full = set()
        for m in degrees:
            full.update(k for k in range(1, m + 1) if m % k == 0)
        table = gwdt.InvariantTable(
            "DT",
            {m: Fraction(rng.randint(-999, 999), rng.randint(1, 60)) for m in full},
        )
        back = gwdt.dt_from_gw(gwdt.gw_from_dt(table))
        ok = ok and all(back[m] == table[m] for m in full)

    _criterion(
        "criterion 7: duality, Whitney, Segre inversion, reduction, "
        "Pieri, and inversion round-trip property suites all exact",
        ok,
    )
