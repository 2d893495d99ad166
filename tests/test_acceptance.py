"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All algebraic checks are exact (integer / cyclotomic equality); only the
analytic block (criterion 9) and the runtime gate (criterion 10) carry
numeric tolerances, which are stated inline.
"""

import cmath
import resource
import time

import numpy as np
import pytest

from grouplie.bessel import deviation, exp_cyclic, exp_matrix_oracle
from grouplie.chartable import _find_prime, character_table
from grouplie.groups import (
    catalog,
    conjugacy_data,
    find_character,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    parse_group_spec,
)
from grouplie.indicators import (
    indicator_report,
    involution_counts,
    pairing,
    render_factors,
    weighted_fs_indicator,
)
from grouplie.liealg import center_basis, kernel_space, lie_basis, make_context
from grouplie.verify import (
    default_catalog,
    run_suite,
    verify_clifford,
    verify_kawanaka,
    verify_theorem,
)


def _line(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _theorem(group, alpha, tau=None, table=None):
    """verify_theorem of one context, its basis and report built as
    `grouplie analyze` builds them."""
    ctx = make_context(group, alpha, tau)
    report = indicator_report(table or character_table(group), alpha, ctx.tau)
    return verify_theorem(lie_basis(ctx), report, center_basis(ctx))


@pytest.fixture(scope="module")
def catalog24():
    return [g for g in default_catalog() if g.order <= 24]


@pytest.fixture(scope="module")
def theorem_contexts(catalog24):
    """Criterion-1 contexts: every group <= 24, every alpha, tau = id."""
    out = []
    for group in catalog24:
        table = character_table(group)
        for alpha in linear_characters(group):
            report = _theorem(group, alpha, table=table)
            out.append((group, table, alpha, report))
    return out


def test_criterion_1_theorem_suite(theorem_contexts):
    failures = [
        (g.name, a.label, r.first_failure())
        for g, _, a, r in theorem_contexts
        if not (r.dims_ok and r.closure_ok)
    ]
    enough = len(theorem_contexts) >= 60
    _line(
        1,
        enough and not failures,
        f"{len(theorem_contexts)} contexts, dim by rank = census = predicted"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_2_twisted_suite(catalog24):
    targets = [g for g in catalog24 if g.is_abelian() and g.order <= 16]
    checked = 0
    ok = True
    for group in targets + [catalog("cyclic", 3), catalog("cyclic", 5)]:
        inv = inversion_automorphism(group)
        table = character_table(group)
        for alpha in linear_characters(group):
            if any(2 * e % group.exponent for e in alpha.exponents):
                continue  # alpha does not absorb the inversion
            r = _theorem(group, alpha, inv, table=table)
            ok = ok and r.dims_ok and r.all_ok
            checked += 1
    _line(2, ok and checked >= 20,
          f"{checked} twisted contexts, dim L = dim M exactly")


def test_criterion_3_spot_values():
    s3 = catalog("symmetric", 3)
    r1 = _theorem(s3, find_character(s3, "trivial"))
    r2 = _theorem(s3, find_character(s3, "sign"))
    q8 = catalog("quaternion8")
    r3 = _theorem(q8, find_character(q8, "trivial"))
    ok = r1.dim_l_rank == 1
    ok = ok and r2.dim_l_rank == 4 and render_factors(r2.factors) == "gl(1) ⊕ sp(2)"
    nonzero_q8 = [f for f in r3.factors if f.dim > 0]
    ok = ok and r3.dim_l_rank == 3 and len(nonzero_q8) == 1
    ok = ok and nonzero_q8[0].kind == "sp" and nonzero_q8[0].n == 2
    dims_2r = []
    for r in (1, 2, 3):
        g = catalog("cyclic", 2)
        for _ in range(r - 1):
            g = catalog("direct_product", g, catalog("cyclic", 2))
        triv = next(c for c in linear_characters(g) if c.is_trivial())
        dims_2r.append(len(lie_basis(make_context(g, triv)).vectors))
    ok = ok and dims_2r == [0, 0, 0]
    _line(3, ok,
          "dim L(S3)=1, L_sign(S3)=gl(1)+sp(2) dim 4, L(Q8)=sp(2) dim 3, "
          "L((Z/2)^r)=0 for r<=3")


def test_criterion_4_indicator_identities(theorem_contexts):
    ok = True
    detail = ""
    for group, table, alpha, _ in theorem_contexts:
        tid = identity_automorphism(group)
        f = weighted_fs_indicator(table, alpha)  # raises if outside {-1,0,1}
        plus, minus = involution_counts(group, alpha, tid)
        if sum(fi * d for fi, d in zip(f, table.degrees)) != plus - minus:
            ok, detail = False, f"sum rule fails on ({group.name}, {alpha.label})"
            break
        partner, _ = pairing(table, alpha, tid)
        if any((fi == 0) != (partner[i] != i) for i, fi in enumerate(f)):
            ok, detail = False, f"vanishing rule fails on ({group.name}, {alpha.label})"
            break
    _line(4, ok, detail or
          "F in {-1,0,1}, sum F*dim = I - J, F = 0 iff gl-paired, all contexts")


def test_criterion_5_center(theorem_contexts):
    ok = True
    detail = ""
    for group, table, alpha, report in theorem_contexts:
        if not (report.centrality_ok and report.class_count_ok):
            ok = False
            detail = f"center checks fail on ({group.name}, {alpha.label})"
            break
        partner, _ = pairing(table, alpha, identity_automorphism(group))
        swapped = sum(1 for i, p in enumerate(partner) if p != i)
        if report.center_dim_exact != swapped // 2:
            ok = False
            detail = f"center count mismatch on ({group.name}, {alpha.label})"
            break
    _line(5, ok, detail or
          "center generator count = half the swapped irreps, all central, "
          "fixed-class count identity exact")


def test_criterion_6_clifford(catalog24):
    checked = 0
    ok = True
    for group in catalog24:
        trivial = lie_basis(make_context(group, find_character(group, "trivial")))
        for alpha in linear_characters(group):
            if alpha.is_trivial():
                continue
            res = verify_clifford(trivial, lie_basis(make_context(group, alpha)),
                                  kernel_space(group, alpha))
            ok = ok and res.ok
            checked += 1
    _line(6, ok and checked >= 50,
          f"L(Ker alpha) = L(G) & L_alpha(G) exactly, {checked} characters")


def test_criterion_7_kawanaka():
    specs = ["cyclic:3", "cyclic:5", "cyclic:7", "product:cyclic:3,cyclic:3"]
    ok = True
    rows = 0
    for spec in specs:
        group = parse_group_spec(spec)
        inv, table = inversion_automorphism(group), character_table(group)
        res = verify_kawanaka(table, indicator_report(table, find_character(group, "trivial"), inv),
                              seed=0)
        ok = ok and res.ok and all(row["identity_ok"] for row in res.rows)
        rows += len(res.rows)
    _line(7, ok, f"2F_eps = F_1(Res) - c_tau(Res) exactly on {rows} irreps "
                 f"over {len(specs)} extensions")


def test_criterion_8_character_table_gates():
    groups = [g for g in default_catalog() if g.order <= 120]
    assert any(g.name == "S5" for g in groups)
    ok = True
    detail = ""
    for group in groups:
        # construction already certifies both orthogonality relations and
        # sum d^2 = #G exactly; a second valid prime must reproduce the table
        t1 = character_table(group)
        p2 = _find_prime(group.exponent, group.order, skip=1)
        t2 = character_table(group, prime=p2)
        if not (t1.degrees == t2.degrees and np.array_equal(t1.values, t2.values)):
            ok, detail = False, f"prime instability on {group.name}"
            break
        if sum(d * d for d in t1.degrees) != group.order:
            ok, detail = False, f"degree sum fails on {group.name}"
            break
    _line(8, ok, detail or
          f"orthogonality + degree sums exact, reproducible over two primes, "
          f"{len(groups)} groups incl. S5")


def test_criterion_9_bessel():
    worst_dev = 0.0
    worst_phi = 0.0
    ok_z0 = True
    for n in range(2, 13):
        for k in range(n):
            omega = cmath.exp(2j * cmath.pi * k / n)
            phi = cmath.sqrt(omega)
            for z in (0.0, 1.0, 0.7 + 0.3j, 2j):
                e = exp_cyclic(n, omega, z, phi=phi)
                worst_dev = max(worst_dev, deviation(e, exp_matrix_oracle(n, omega, z)))
                e2 = exp_cyclic(n, omega, z, phi=-phi)
                worst_phi = max(
                    worst_phi,
                    max(abs(a - b) for a, b in zip(e.coefficients, e2.coefficients)),
                )
                if z == 0.0:
                    ok_z0 = ok_z0 and e.coefficients[0] == 1.0 and \
                        all(c == 0.0 for c in e.coefficients[1:])
    ok = worst_dev < 1e-9 and worst_phi < 1e-12 and ok_z0
    _line(9, ok,
          f"fold vs matrix exponential: max dev {worst_dev:.2e} (< 1e-9), "
          f"phi-sign invariance {worst_phi:.2e} (< 1e-12), z=0 exact")


def test_criterion_10_scale():
    t0 = time.perf_counter()
    result = run_suite(max_order=24)  # fresh groups, fresh tables
    suite_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    character_table(catalog("symmetric", 5))
    s5_seconds = time.perf_counter() - t0
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    ok = (result.all_ok and suite_seconds < 60.0 and s5_seconds < 30.0
          and peak_gib < 1.0)
    _line(10, ok,
          f"full suite ({result.contexts} contexts) {suite_seconds:.1f}s < 60s, "
          f"S5 table {s5_seconds:.2f}s < 30s, peak rss {peak_gib:.2f} GiB < 1")
