import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import cyclo
from grouplie.chartable import character_table
from grouplie.errors import (
    AlphaNotReal,
    BadParameters,
    GroupMismatch,
    IncompatiblePair,
    IndicatorOutOfRange,
    NotHomomorphism,
    PartnerNotFound,
)
from grouplie.groups import (
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    find_character,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    parse_group_spec,
    trivial_character,
    validate_automorphism,
    conjugation_map,
)
from grouplie.indicators import (
    PairingClass,
    indicator_report,
    indicator_reports,
    involution_counts,
    joint_indicator,
    kawanaka_indicator,
    pairing,
    render_factors,
    stacked_weights,
    weighted_fs_indicator,
)
from grouplie.liealg import make_context
from grouplie.verify import curated_taus, default_catalog


def elementwise_weighted_fs(group, table, alpha, irrep):
    """Oracle: direct summation over group elements."""
    cd = table.class_data
    row = table.scalar_rows()[irrep]
    acc = table.context().zero
    for g in group.elements():
        sq = cd.class_of[group.mult[g][g]]
        acc = acc + row[sq] * alpha.value(g).conj()
    acc = acc.as_fraction() if acc.is_rational() else None
    assert acc is not None and acc.denominator == 1 or acc == 0
    from fractions import Fraction

    return Fraction(acc, group.order) if acc else Fraction(0)


def test_weighted_fs_s3():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    triv = find_character(s3, "trivial")
    sign = find_character(s3, "sign")
    assert weighted_fs_indicator(t, triv) == (1, 1, 1)
    assert weighted_fs_indicator(t, sign) == (0, 0, -1)
    # element-wise oracle agrees
    for i in range(3):
        assert elementwise_weighted_fs(s3, t, triv, i) == 1
    assert elementwise_weighted_fs(s3, t, sign, 2) == -1
    assert elementwise_weighted_fs(s3, t, sign, 0) == 0


def test_weighted_fs_q8():
    q8 = catalog("quaternion8")
    t = character_table(q8)
    triv = find_character(q8, "trivial")
    assert weighted_fs_indicator(t, triv) == (1, 1, 1, 1, -1)
    assert elementwise_weighted_fs(q8, t, triv, 4) == -1


def test_kawanaka_equals_fs_at_identity():
    for spec in ("symmetric:3", "quaternion8", "cyclic:6"):
        g = parse_group_spec(spec)
        t = character_table(g)
        triv = next(c for c in linear_characters(g) if c.is_trivial())
        assert kawanaka_indicator(t, identity_automorphism(g)) == \
            weighted_fs_indicator(t, triv)


def test_kawanaka_inversion_on_z3():
    z3 = catalog("cyclic", 3)
    t = character_table(z3)
    # g * tau(g) = e for every g, so every indicator is chi(e) = 1
    assert kawanaka_indicator(t, inversion_automorphism(z3)) == (1, 1, 1)


def test_kawanaka_inner_twist_matches_identity():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    transposition = next(g for g in s3.elements() if s3.element_order(g) == 2)
    tau = validate_automorphism(s3, conjugation_map(s3, transposition), "conj")
    assert kawanaka_indicator(t, tau) == kawanaka_indicator(t, identity_automorphism(s3))


def test_joint_specializes():
    g = catalog("dihedral", 4)
    t = character_table(g)
    tid = identity_automorphism(g)
    for alpha in linear_characters(g):
        assert joint_indicator(t, alpha, tid) == weighted_fs_indicator(t, alpha)
    triv = next(c for c in linear_characters(g) if c.is_trivial())
    assert joint_indicator(t, triv, tid) == kawanaka_indicator(t, tid)


def test_joint_on_twisted_abelian():
    # with tau = inversion, g * tau(g) = e: nu = 1 iff alpha trivial, else 0
    for n in (4, 8):
        g = catalog("cyclic", n)
        t = character_table(g)
        inv = inversion_automorphism(g)
        for alpha in linear_characters(g):
            if any(2 * e % g.exponent for e in alpha.exponents):
                continue  # incompatible with inversion
            expected = 1 if alpha.is_trivial() else 0
            assert joint_indicator(t, alpha, inv) == (expected,) * n


def test_pairing_z3():
    z3 = catalog("cyclic", 3)
    t = character_table(z3)
    triv = find_character(z3, "trivial")
    partner, classes = pairing(t, triv, identity_automorphism(z3))
    kinds = sorted(pc.kind for pc in classes)
    assert kinds == ["gl", "osp"]
    osp = next(pc for pc in classes if pc.kind == "osp")
    # the self-paired irrep is the trivial one (all values 1)
    i = osp.members[0]
    assert all(v == 1 for v in t.scalar_rows()[i])


def test_pairing_s3_sign():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    sign = find_character(s3, "sign")
    partner, classes = pairing(t, sign, identity_automorphism(s3))
    # degree-1 rows pair together; the standard representation stays alone
    assert partner[2] == 2
    assert partner[0] == 1 and partner[1] == 0
    assert {pc.kind for pc in classes} == {"gl", "osp"}


def test_pairing_q8_all_self():
    q8 = catalog("quaternion8")
    t = character_table(q8)
    triv = find_character(q8, "trivial")
    partner, classes = pairing(t, triv, identity_automorphism(q8))
    assert partner == (0, 1, 2, 3, 4)
    assert all(pc.kind == "osp" for pc in classes)


def test_involution_counts():
    s3 = catalog("symmetric", 3)
    tid = identity_automorphism(s3)
    assert involution_counts(s3, find_character(s3, "trivial"), tid) == (4, 0)
    assert involution_counts(s3, find_character(s3, "sign"), tid) == (1, 3)

    z4 = catalog("cyclic", 4)
    order4 = next(c for c in linear_characters(z4)
                  if sorted(c.exponents) == [0, 1, 2, 3])
    assert involution_counts(z4, order4, identity_automorphism(z4)) == (1, 1)


def test_alpha_not_real_guard():
    # contrived: alpha of order 4 with tau = id on Z/4 never trips the guard
    # because alpha(g) = +-1 on involutions; build a failing case artificially
    z4 = catalog("cyclic", 4)
    order4 = next(c for c in linear_characters(z4)
                  if sorted(c.exponents) == [0, 1, 2, 3])
    from grouplie.groups import LinearCharacter

    broken = LinearCharacter(4, (0, 1, 1, 3), "broken")  # not a character
    with pytest.raises(AlphaNotReal):
        involution_counts(z4, broken, identity_automorphism(z4))


def test_predictions_s3():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    r = indicator_report(t, find_character(s3, "trivial"))
    assert r.dim_m == 1 and r.center_dim == 0 and r.dim_l_formula == 1
    assert render_factors(r.factors) == "so(1)² ⊕ so(2)".replace("²", "^2")

    r2 = indicator_report(t, find_character(s3, "sign"))
    assert r2.dim_m == 4 and r2.center_dim == 1
    assert render_factors(r2.factors) == "gl(1) ⊕ sp(2)"


def test_predictions_q8():
    q8 = catalog("quaternion8")
    t = character_table(q8)
    r = indicator_report(t, find_character(q8, "trivial"))
    assert r.dim_m == 3 and r.center_dim == 0
    assert render_factors(r.factors) == "so(1)^4 ⊕ sp(2)"


@pytest.mark.parametrize("spec", ["cyclic:5", "cyclic:8", "cyclic:12",
                                  "dihedral:4", "dihedral:5", "symmetric:3",
                                  "symmetric:4", "alternating:4",
                                  "quaternion8", "frobenius21",
                                  "product:cyclic:2,cyclic:4"])
def test_prop_identities_all_characters(spec):
    group = parse_group_spec(spec)
    t = character_table(group)
    tid = identity_automorphism(group)
    involutions = sum(1 for g in group.elements()
                      if group.mult[g][g] == group.identity)
    for alpha in linear_characters(group):
        f = weighted_fs_indicator(t, alpha)
        plus, minus = involution_counts(group, alpha, tid)
        # signed dimension sum equals the involution count difference
        assert sum(fi * d for fi, d in zip(f, t.degrees)) == plus - minus
        partner, classes = pairing(t, alpha, tid)
        # vanishing indicator exactly on swapped pairs
        for i, fi in enumerate(f):
            assert (fi == 0) == (partner[i] != i)
        r = indicator_report(t, alpha, tid)
        assert r.nu == f
        # block bookkeeping: #G - 2 dim_M = signed dimension sum
        assert group.order - 2 * r.dim_m == sum(fi * d for fi, d in zip(f, t.degrees))
        if alpha.is_trivial():
            assert plus - minus == involutions
        # corrected fixed-class count identity (both sides of the star map)
        cd = conjugacy_data(group)
        a_count = b_count = 0
        for c in range(cd.num_classes):
            rep = cd.representatives[c]
            if cd.inverse_class[c] == c:
                if alpha.exponents[rep] == 0:
                    a_count += 1
                else:
                    b_count += 1
        self_paired = sum(1 for i, p in enumerate(partner) if p == i)
        assert a_count - b_count == self_paired


def test_report_json_round_trip():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    r = indicator_report(t, find_character(s3, "sign"))
    d = r.to_json_dict()
    assert d["dim_M"] == 4 and d["I"] == 1 and d["J"] == 3
    assert d["irreps"][2]["factor"] == "sp(2)"
    assert d["irreps"][2]["parity"] == "even"


def test_report_keeps_the_pairing_classes():
    for spec, label, tau_of in [("symmetric:3", "sign", identity_automorphism),
                                ("cyclic:5", "trivial", identity_automorphism),
                                ("cyclic:4", "trivial", inversion_automorphism)]:
        g = parse_group_spec(spec)
        t = character_table(g)
        alpha, tau = find_character(g, label), tau_of(g)
        r = indicator_report(t, alpha, tau)
        partner, classes = pairing(t, alpha, tau)
        assert r.partner == partner and r.classes == classes
        assert len(r.factors) == len(classes)


def test_report_rejects_incompatible_pair_before_pairing():
    z4 = catalog("cyclic", 4)
    lin1 = find_character(z4, "lin1")
    with pytest.raises(IncompatiblePair):
        indicator_report(character_table(z4), lin1, inversion_automorphism(z4))


@pytest.mark.parametrize("spec, alpha_label, tau_name, keys", [
    ("symmetric:3", "trivial", "id", 1),   # nu is f_alpha and c_tau
    ("symmetric:3", "sign", "id", 2),      # nu is f_alpha
    ("cyclic:4", "trivial", "inv", 2),     # nu is c_tau
    ("cyclic:4", "sign", "inv", 3),
])
def test_indicator_report_reuses_nu(monkeypatch, spec, alpha_label, tau_name, keys):
    g = parse_group_spec(spec)
    t = character_table(g)
    alpha = find_character(g, alpha_label)
    tau = identity_automorphism(g) if tau_name == "id" else inversion_automorphism(g)
    expected = (weighted_fs_indicator(t, alpha), kawanaka_indicator(t, tau),
                joint_indicator(t, alpha, tau))
    original = cyclo.class_sums
    stacks = []

    def counted(a, b, w, ctx):
        stacks.append(len(b))
        return original(a, b, w, ctx)

    monkeypatch.setattr(cyclo, "class_sums", counted)
    r = indicator_report(t, alpha, tau)
    # one class_sums call, over the distinct (alpha, tau) keys of nu, f_alpha, c_tau
    assert stacks == [keys]
    assert (r.f_alpha, r.c_tau, r.nu) == expected


@pytest.mark.parametrize("alpha_label, corrupt, error, message", [
    ("lin1", False, IncompatiblePair, "alpha(lin1) o tau(inv) != alpha"),
    # f_alpha and c_tau both leave {-1, 0, 1}; f_alpha is reported, as nu would be first
    ("sign", True, IndicatorOutOfRange, "4 * nu_(sign,id)(irrep 0) = -2 + 2*z4 is outside"),
])
def test_report_and_batch_raise_the_same_error(alpha_label, corrupt, error, message):
    z4 = catalog("cyclic", 4)
    table = character_table(z4)
    if corrupt:  # entry (irrep 0, class 0) times zeta
        values = table.values.copy()
        values[0, 0] = (table.scalar_rows()[0][0] * table.context().zeta(1)).coeffs
        table = dataclasses.replace(table, values=values)
    alpha, inv = find_character(z4, alpha_label), inversion_automorphism(z4)
    with pytest.raises(error) as one:
        indicator_report(table, alpha, inv)
    with pytest.raises(error) as batch:
        indicator_reports(table, [make_context(z4, alpha, inv)])
    assert str(one.value) == str(batch.value)
    assert str(one.value).startswith(message)


def test_a_table_with_swapped_columns_has_no_partner():
    # classes 1 and 5 of Z/8 swapped in every row: lin1 times the conjugate
    # of a row is then no row of the table
    z8 = catalog("cyclic", 8)
    table = character_table(z8)
    values = table.values[:, [0, 5, 2, 3, 4, 1, 6, 7]]
    table = dataclasses.replace(table, values=values)
    with pytest.raises(PartnerNotFound, match=r"no irrep matches alpha \* conj\(chi_\d+\) o tau"):
        indicator_report(table, find_character(z8, "lin1"), identity_automorphism(z8))


def test_pairing_reads_conjugates_without_conj(monkeypatch):
    from grouplie.cyclo import CycloScalar

    g = parse_group_spec("product:cyclic:3,cyclic:4")
    t = character_table(g)
    contexts = [(a, tau) for tau in (identity_automorphism(g), inversion_automorphism(g))
                for a in linear_characters(g) if alpha_tau_compatible(a, tau)]
    assert len(contexts) == 14
    expected = [pairing(t, a, tau) for a, tau in contexts]

    def no_conj(self):
        raise AssertionError("pairing called conj()")

    monkeypatch.setattr(CycloScalar, "conj", no_conj)
    assert [pairing(t, a, tau) for a, tau in contexts] == expected
    monkeypatch.undo()
    # the partner of chi is the irrep with character alpha * conj(chi) o tau
    cd, rows = t.class_data, t.scalar_rows()
    for (alpha, tau), (partner, _) in zip(contexts, expected):
        for i, j in enumerate(partner):
            for c, r in enumerate(cd.representatives):
                conj_value = rows[i][cd.class_of[tau.mapping[r]]].conj()
                assert rows[j][c] == alpha.value(r) * conj_value


def test_twist_weights_equal_the_elementwise_sums():
    # oracle: conj(alpha(g)) added at the class of g * tau(g), one g at a time
    for spec in ("symmetric:3", "quaternion8", "cyclic:8", "product:cyclic:2,cyclic:4"):
        group = parse_group_spec(spec)
        cd = conjugacy_data(group)
        ctx = character_table(group).context()
        taus = [identity_automorphism(group)]
        if group.is_abelian():
            taus.append(inversion_automorphism(group))
        for tau in taus:
            for alpha in linear_characters(group):
                if not alpha_tau_compatible(alpha, tau):
                    continue
                expected = [ctx.zero] * cd.num_classes
                for g in group.elements():
                    c = cd.class_of[group.mult[g][tau.mapping[g]]]
                    expected[c] = expected[c] + alpha.value(g).conj()
                got = stacked_weights(group, [(alpha, tau)], ctx)[0]
                assert [tuple(row) for row in got.tolist()] == [v.coeffs for v in expected]


# ---------------------------------------------------------------------------
# indicator_reports against the per-context sums it batches


def oracle_joint(table, alpha, tau):
    """Reference: one context's joint indicator from its own weights and one
    class_sums call, read off one irrep at a time."""
    group = table.group
    n = group.order
    ctx = table.context()
    cd = conjugacy_data(group)
    classes = np.array(cd.class_of)[group.mult[group.elements(), tau.mapping]]
    counts = np.zeros((cd.num_classes, ctx.m), dtype=np.int64)
    np.add.at(counts, (classes, -np.array(alpha.exponents) % ctx.m), 1)
    weights = counts @ ctx.power_array[:ctx.m]
    unit = np.ones(cd.num_classes, dtype=np.int64)
    out = []
    for s in cyclo.class_sums(table.values, weights[None], unit, ctx)[:, 0]:
        assert not s[1:].any() and s[0] in (-n, 0, n)
        out.append(int(s[0]) // n)
    return tuple(out)


def oracle_pairing(table, alpha, tau):
    """Reference: one context's partner map from its own einsum, and its
    pairing classes."""
    cd = table.class_data
    ctx = table.context()
    x = table.values
    conj_tau = x[:, [cd.inverse_class[cd.class_of[tau.mapping[r]]] for r in cd.representatives]]
    powers = (np.array([alpha.exponents[r] for r in cd.representatives])[:, None]
              + np.arange(ctx.degree)) % ctx.m
    targets = np.einsum("icj,cjl->icl", conj_tau, ctx.power_array[powers])
    rows = {row.tobytes(): i for i, row in enumerate(x)}
    partner = tuple(rows[t.tobytes()] for t in targets)
    classes = []
    for i, j in enumerate(partner):
        if i <= j:
            classes.append(PairingClass((i,), "osp") if i == j else PairingClass((i, j), "gl"))
    return partner, tuple(classes)


# the groups of the benchmark's suite-large workload
SUITE_LARGE = ("symmetric:5", "alternating:5", "product:alternating:5,cyclic:2",
               "product:symmetric:3,alternating:4", "product:symmetric:4,cyclic:2",
               "product:symmetric:4,cyclic:3", "product:symmetric:3,symmetric:3", "dihedral:30")


def contexts_of(group, pairs):
    return [make_context(group, alpha, tau) for alpha, tau in pairs]


def suite_pairs(group):
    return [(alpha, tau) for tau in curated_taus(group) for alpha in linear_characters(group)
            if alpha_tau_compatible(alpha, tau)]


def test_indicator_reports_equal_the_per_context_oracle():
    groups = [g for g in default_catalog() if g.order <= 24] + \
        [parse_group_spec(spec) for spec in SUITE_LARGE]
    assert any(g.name == catalog("symmetric", 4).name for g in groups)
    contexts = {True: 0, False: 0}  # order <= 24 or not
    for group in groups:
        table = character_table(group)
        pairs = suite_pairs(group)
        reports = indicator_reports(table, contexts_of(group, pairs))
        assert len(reports) == len(pairs)
        trivial, identity = trivial_character(group), identity_automorphism(group)
        for (alpha, tau), r in zip(pairs, reports):
            contexts[group.order <= 24] += 1
            assert (r.context.alpha.label, r.context.tau.label) == (alpha.label, tau.label)
            assert r.nu == oracle_joint(table, alpha, tau)
            assert r.f_alpha == oracle_joint(table, alpha, identity)
            assert r.c_tau == oracle_joint(table, trivial, tau)
            assert (r.partner, r.classes) == oracle_pairing(table, alpha, tau)
            assert r == indicator_report(table, alpha, tau)
    assert contexts == {True: 406, False: 29}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=3).filter(lambda ns: math.prod(ns) <= 48),
       st.data())
def test_composed_partner_maps_equal_the_einsum_oracle_on_cyclic_products(orders, data):
    group = catalog("direct_product", *[catalog("cyclic", n) for n in orders])
    table = character_table(group)
    for tau in (identity_automorphism(group), inversion_automorphism(group)):
        # the alphas in a drawn order, so the generators the batch picks vary
        pairs = data.draw(st.permutations([(alpha, tau) for alpha in linear_characters(group)
                                           if alpha_tau_compatible(alpha, tau)]))
        reports = indicator_reports(table, contexts_of(group, pairs))
        assert [(r.partner, r.classes) for r in reports] == \
            [oracle_pairing(table, alpha, tau) for alpha, tau in pairs]


def count_times_roots(monkeypatch):
    calls = []
    original = cyclo.times_roots

    def counted(x, exponents, ctx):
        calls.append(len(exponents))
        return original(x, exponents, ctx)

    monkeypatch.setattr(cyclo, "times_roots", counted)
    return calls


@pytest.mark.parametrize("spec, expected", [
    ("cyclic:24", 1),                          # lin1 generates every alpha
    ("product:cyclic:2,cyclic:2,cyclic:2", 3),  # each generator doubles the closure
    ("symmetric:4", 1),                        # trivial needs none, sign one
    ("quaternion8", 2),
])
def test_a_batch_forms_one_times_roots_per_generator(monkeypatch, spec, expected):
    group = parse_group_spec(spec)
    table = character_table(group)
    pairs = suite_pairs(group)
    calls = count_times_roots(monkeypatch)
    reports = indicator_reports(table, contexts_of(group, pairs))
    assert calls == [1] * expected
    assert [r.partner for r in reports] == [oracle_pairing(table, a, t)[0] for a, t in pairs]


def test_times_roots_calls_stay_within_log2_of_the_linear_characters(monkeypatch):
    calls = count_times_roots(monkeypatch)
    for group in [g for g in default_catalog() if g.order <= 24]:
        calls.clear()
        indicator_reports(character_table(group), contexts_of(group, suite_pairs(group)))
        # each generator at least doubles the group of alphas it closes
        assert 2 ** len(calls) <= len(linear_characters(group)), group.name


def test_indicator_reports_validate_every_context_first():
    z4 = catalog("cyclic", 4)
    table = character_table(z4)
    inv = inversion_automorphism(z4)
    pairs = [(find_character(z4, "trivial"), inv), (find_character(z4, "lin1"), inv)]
    with pytest.raises(IncompatiblePair):
        indicator_reports(table, contexts_of(z4, pairs))
    assert indicator_reports(table, []) == []


def test_the_batch_checks_no_character_its_contexts_checked(monkeypatch):
    # each LieContext validated its alpha and tau once; the batch and its
    # kernels take them as they are, and the one-context calls check theirs
    from grouplie import indicators

    calls = []
    real = indicators.check_character
    monkeypatch.setattr(indicators, "check_character",
                        lambda group, alpha: calls.append(alpha.label) or real(group, alpha))
    group = catalog("cyclic", 12)
    table = character_table(group)
    contexts = contexts_of(group, suite_pairs(group))
    assert len({ctx.tau.mapping for ctx in contexts}) > 1
    indicator_reports(table, contexts)
    assert calls == []
    alpha, tau = contexts[-1].alpha, contexts[-1].tau
    joint_indicator(table, alpha, tau)
    pairing(table, alpha, tau)
    weighted_fs_indicator(table, alpha)
    kawanaka_indicator(table, tau)
    assert calls == [alpha.label] * 3 + ["trivial"]


def test_indicator_reports_refuse_a_context_over_another_group():
    z6, s3 = catalog("cyclic", 6), catalog("symmetric", 3)
    table = character_table(s3)
    contexts = [make_context(s3, find_character(s3, "sign")),
                make_context(z6, trivial_character(z6))]
    with pytest.raises(BadParameters, match=r"context \(Z/6, trivial, id\) handed with the "
                                            r"character table of S3"):
        indicator_reports(table, contexts)
    report = indicator_reports(table, contexts[:1])[0]
    assert report.context is contexts[0]
    # the context's group is read off the table
    assert indicator_report(table, trivial_character(s3)).context.group is s3


def test_one_context_calls_refuse_a_character_or_tau_of_another_order():
    v4 = catalog("direct_product", catalog("cyclic", 2), catalog("cyclic", 2))
    v8 = catalog("direct_product", v4, catalog("cyclic", 2))
    z2 = catalog("cyclic", 2)
    table = character_table(v4)
    identity = identity_automorphism(v4)
    small, large = find_character(z2, "sign"), linear_characters(v8)[1]
    assert small.conductor == large.conductor == v4.exponent
    for alpha, n in ((small, 2), (large, 8)):
        message = f"defined on a group of order {n}, not on Z/2xZ/2 of order 4"
        for call in (lambda: joint_indicator(table, alpha, identity),
                     lambda: pairing(table, alpha, identity),
                     lambda: weighted_fs_indicator(table, alpha),
                     lambda: indicator_report(table, alpha)):
            with pytest.raises(GroupMismatch, match=message):
                call()
    tau = identity_automorphism(v8)
    with pytest.raises(GroupMismatch, match="id is defined on a group of order 8"):
        kawanaka_indicator(table, tau)
    with pytest.raises(GroupMismatch, match="id is defined on a group of order 8"):
        joint_indicator(table, trivial_character(v4), tau)


def test_a_character_of_another_group_of_the_same_order_and_conductor_is_refused():
    # lin1 of Z/6 has the order and conductor of a character of S3, and is none
    s3, z6 = catalog("symmetric", 3), catalog("cyclic", 6)
    alpha = find_character(z6, "lin1")
    assert (len(alpha.exponents), alpha.conductor) == (s3.order, s3.exponent)
    table = character_table(s3)
    identity = identity_automorphism(s3)
    for call in (lambda: make_context(s3, alpha),
                 lambda: indicator_report(table, alpha),
                 lambda: joint_indicator(table, alpha, identity),
                 lambda: weighted_fs_indicator(table, alpha),
                 lambda: pairing(table, alpha, identity)):
        with pytest.raises(NotHomomorphism, match=r"lin1 is not a homomorphism") as err:
            call()
        # the pair (x, s) is a witness: f(x s) != f(x) + f(s) (mod m)
        x, s = err.value.pair
        f = alpha.exponents
        assert (f[s3.mult[x][s]] - f[x] - f[s]) % alpha.conductor
