import dataclasses
import json

import pytest

from grouplie import liealg, verify
from grouplie.chartable import character_table
from grouplie.errors import BadParameters, GroupMismatch, LiftInconsistent, NotHomomorphism
from grouplie.groups import (
    catalog,
    find_character,
    from_mult_table,
    identity_automorphism,
    inversion_automorphism,
    kernel_subgroup,
    linear_characters,
    parse_group_spec,
    subgroup_table,
    validate_automorphism,
)
from grouplie.indicators import indicator_report
from grouplie.liealg import (
    GroupAlgebraElement,
    as_elements,
    bracket,
    center_basis,
    lie_basis,
    make_context,
)
from grouplie.linalg import RowSpace
from grouplie.verify import (
    default_catalog,
    run_suite,
    verify_clifford,
    verify_kawanaka,
    verify_theorem,
)
from grouplie.cyclo import context
from monomial_rows import decode, encode


def _theorem(group, alpha, tau=None):
    """verify_theorem of one context, its basis and report built as
    `grouplie analyze` builds them; the basis goes through verify.lie_basis,
    so a patch of that name reaches it."""
    ctx = make_context(group, alpha, tau)
    report = indicator_report(character_table(group), alpha, ctx.tau)
    return _check(verify.lie_basis(ctx), report)


def _check(basis, report):
    """verify_theorem of `basis` and `report` with the center data of the
    basis's context, built through verify.center_basis, so a patch of that
    name reaches it."""
    return verify_theorem(basis, report, verify.center_basis(basis.context))


def _clifford(group, alpha, alpha_basis=None):
    """verify_clifford of (group, alpha) with its tau = id bases and kernel
    space built here; `alpha_basis` replaces B."""
    trivial = lie_basis(make_context(group, find_character(group, "trivial")))
    if alpha_basis is None:
        alpha_basis = lie_basis(make_context(group, alpha))
    return verify_clifford(trivial, alpha_basis, verify.kernel_space(group, alpha))


def _row_space(basis):
    """The RowSpace oracle of a basis's vectors."""
    return RowSpace(context(basis.context.group.exponent), basis.context.group.order,
                    [v.terms for v in basis.vectors])


def _with_rows(group, kernel, rows):
    """`kernel` with its rows replaced by the dict rows `rows`, and its rank
    recomputed."""
    field = context(group.exponent)
    return kernel._replace(rows=encode(rows, field),
                           rank=RowSpace(field, group.order, rows).rank)


def _kernel_rows(group, kernel):
    """The rows of `kernel` as dicts."""
    return decode(kernel.rows, group)


def _kawanaka(group, tau, table=None):
    """verify_kawanaka with G's table and (trivial, tau) report built here."""
    table = table or character_table(group)
    report = indicator_report(table, find_character(group, "trivial"), tau)
    return verify_kawanaka(table, report, seed=0)


def test_theorem_s3_sign():
    s3 = catalog("symmetric", 3)
    r = _theorem(s3, find_character(s3, "sign"))
    assert (r.dim_l_rank, r.dim_l_formula, r.dim_m_predicted) == (4, 4, 4)
    assert r.center_dim_exact == r.center_dim_predicted == 1
    assert r.all_ok


def test_theorem_q8():
    q8 = catalog("quaternion8")
    r = _theorem(q8, find_character(q8, "trivial"))
    assert r.dim_l_rank == 3 and r.center_dim_exact == 0
    assert r.all_ok


def test_theorem_klein_four():
    v4 = catalog("direct_product", catalog("cyclic", 2), catalog("cyclic", 2))
    r = _theorem(v4, find_character(v4, "trivial"))
    assert r.dim_l_rank == 0
    assert [f for f in r.factors if f.dim > 0] == []
    assert r.all_ok


def test_theorem_twisted_abelian():
    z5 = catalog("cyclic", 5)
    inv = inversion_automorphism(z5)
    triv = find_character(z5, "trivial")
    r = _theorem(z5, triv, inv)
    assert r.dim_l_rank == 0 and r.all_ok

    z8 = catalog("cyclic", 8)
    inv8 = inversion_automorphism(z8)
    for alpha in linear_characters(z8):
        if all(2 * e % 8 == 0 for e in alpha.exponents):
            r = _theorem(z8, alpha, inv8)
            assert r.all_ok


def _s3_report(label):
    s3 = catalog("symmetric", 3)
    return _theorem(s3, find_character(s3, label))


def test_orthogonality_check_can_fail(monkeypatch):
    # the skew vector u = t - t^2 (t a 3-cycle) in place of the +1 basis:
    # t(u*u) = -2 != 0
    monkeypatch.setattr(verify, "plus_fixed_basis", lambda ctx: lie_basis(ctx).rows)
    r = _s3_report("trivial")
    assert not r.orthogonality_ok
    assert r.first_failure() == "orthogonality_ok"


def test_closure_check_can_fail(monkeypatch):
    # S3 sign: dim L = 4, so closure has pairs to test (for S3 trivial,
    # dim L = 1 and closure tests no pair).  The kernel is handed L with its
    # one two-term vector c - c^-1 (c a 3-cycle) replaced by delta_c: the
    # rank stays 4, but the bracket of two transposition vectors,
    # +-4 (c - c^-1), lies outside that span
    s3 = catalog("symmetric", 3)
    original = verify.skew_checks

    def outside_l(basis, center, plus):
        vectors = [GroupAlgebraElement.delta(s3, min(v.terms)) if len(v.terms) == 2 else v
                   for v in basis.vectors]
        return original(dataclasses.replace(basis, rows=encode(vectors, context(6))),
                        center, plus)

    monkeypatch.setattr(verify, "skew_checks", outside_l)
    r = _s3_report("sign")
    assert r.dim_l_rank == 4 and r.dims_ok
    assert not r.closure_ok
    assert r.first_failure() == "closure_ok"


def _times_zeta(vectors, index):
    """`vectors` with the coefficient at the largest group element of
    vectors[index] multiplied by zeta."""
    v = vectors[index]
    g = max(v.terms)
    terms = dict(v.terms)
    terms[g] = terms[g] * context(v.group.exponent).zeta(1)
    return [*vectors[:index], GroupAlgebraElement(v.group, terms), *vectors[index + 1:]]


# nonabelian contexts with a two-term basis vector, a center generator and a
# two-term +1 eigenvector
CORRUPTED_CONTEXTS = (("symmetric:3", "sign"), ("symmetric:4", "sign"),
                      ("quaternion8", "lin1"), ("dihedral:4", "lin1"))


@pytest.mark.parametrize("spec, label", CORRUPTED_CONTEXTS)
def test_closure_fails_on_one_corrupted_basis_monomial(monkeypatch, spec, label):
    group = parse_group_spec(spec)
    original = verify.lie_basis

    def corrupted(ctx):
        basis = original(ctx)
        index = max(i for i, v in enumerate(basis.vectors) if len(v.terms) == 2)
        field = context(group.exponent)
        return dataclasses.replace(basis, rows=encode(_times_zeta(basis.vectors, index), field))

    monkeypatch.setattr(verify, "lie_basis", corrupted)
    r = _theorem(group, find_character(group, label))
    assert r.dims_ok and not r.closure_ok
    assert r.first_failure() == "closure_ok"


@pytest.mark.parametrize("spec, label", CORRUPTED_CONTEXTS)
def test_centrality_fails_on_one_corrupted_generator_monomial(monkeypatch, spec, label):
    group = parse_group_spec(spec)
    original = verify.center_basis

    def corrupted(ctx):
        center = original(ctx)
        generators = _times_zeta(as_elements(group, center.generators), 0)
        return center._replace(generators=encode(generators, context(group.exponent)))

    monkeypatch.setattr(verify, "center_basis", corrupted)
    r = _theorem(group, find_character(group, label))
    assert r.center_dim_exact == r.center_dim_predicted
    assert not r.centrality_ok
    assert r.first_failure() == "centrality_ok"


@pytest.mark.parametrize("spec, label", CORRUPTED_CONTEXTS)
def test_orthogonality_fails_on_one_corrupted_plus_monomial(monkeypatch, spec, label):
    group = parse_group_spec(spec)
    original = verify.plus_fixed_basis

    def corrupted(ctx):
        plus = as_elements(group, original(ctx))
        return encode(_times_zeta(plus, next(i for i, v in enumerate(plus) if len(v.terms) == 2)),
                      context(group.exponent))

    monkeypatch.setattr(verify, "plus_fixed_basis", corrupted)
    r = _theorem(group, find_character(group, label))
    assert not r.orthogonality_ok
    assert r.first_failure() == "orthogonality_ok"


def test_centrality_check_can_fail(monkeypatch):
    # S3 sign has one center generator, 2 T_(transpositions); replace it by a
    # single transposition, so the generator count still matches the rank
    # and only the brackets can find it non-central (S3 trivial has no
    # center generator, so there the count alone would fail)
    s3 = catalog("symmetric", 3)
    original = verify.center_basis
    monkeypatch.setattr(verify, "center_basis", lambda ctx: original(ctx)._replace(
        generators=encode([GroupAlgebraElement.delta(s3, 2)], context(6))))
    r = _s3_report("sign")
    assert r.center_dim_exact == r.center_dim_predicted == 1
    assert not r.centrality_ok
    assert r.first_failure() == "centrality_ok"


def test_clifford_s3():
    s3 = catalog("symmetric", 3)
    c = _clifford(s3, find_character(s3, "sign"))
    assert c.ok and c.dim_kernel == 1 and c.dim_intersection == 1
    assert c.kernel_order == 3


def test_clifford_z4():
    z4 = catalog("cyclic", 4)
    sign = find_character(z4, "sign")
    c = _clifford(z4, sign)
    assert c.ok and c.dim_kernel == 0 and c.dim_intersection == 0


def test_clifford_z2xz4_all_nontrivial():
    g = parse_group_spec("product:cyclic:2,cyclic:4")
    for alpha in linear_characters(g):
        if not alpha.is_trivial():
            assert _clifford(g, alpha).ok


def test_clifford_requires_nontrivial():
    s3 = catalog("symmetric", 3)
    with pytest.raises(BadParameters):
        _clifford(s3, find_character(s3, "trivial"))


def _signed_pair(group, g):
    """The row delta_g - delta_(g^-1) of the group algebra of `group`."""
    ctx = context(group.exponent)
    return {g: ctx.one, group.inverse[g]: -ctx.one}


def _outside_pair(group, alpha):
    """delta_g - delta_(g^-1) for some g outside Ker alpha with g != g^-1:
    a vector of L(G, trivial) that is not in L(G, alpha)."""
    kernel = set(alpha.kernel_elements())
    g = next(g for g in group.elements() if g not in kernel and group.inverse[g] != g)
    row = _signed_pair(group, g)
    assert _row_space(lie_basis(make_context(group, find_character(group, "trivial")))).contains(row)
    assert not _row_space(lie_basis(make_context(group, alpha))).contains(row)
    return row


def test_clifford_fails_when_the_kernel_basis_loses_its_last_vector(monkeypatch):
    for spec, label in (("symmetric:3", "sign"), ("cyclic:6", "sign"), ("dihedral:4", "lin1")):
        group = parse_group_spec(spec)
        original = verify.kernel_space

        def truncated(group, alpha, original=original):
            kernel = original(group, alpha)
            return _with_rows(group, kernel, _kernel_rows(group, kernel)[:-1])

        alpha = find_character(group, label)
        assert _clifford(group, alpha).dim_kernel == 1
        monkeypatch.setattr(verify, "kernel_space", truncated)
        res = _clifford(group, alpha)
        assert not res.ok and (res.dim_kernel, res.dim_intersection) == (0, 1)
        monkeypatch.undo()


def test_clifford_fails_when_b_is_built_from_another_character():
    # alpha has the rotations of D4 as kernel, so L(Ker alpha) is nonzero;
    # the other two nontrivial characters have Klein four-groups as kernels,
    # which H = L(Ker alpha) does not fit, so B of either is refused
    d4 = catalog("dihedral", 4)
    alpha = next(c for c in linear_characters(d4)
                 if not c.is_trivial() and any(d4.inverse[g] != g for g in c.kernel_elements()))
    others = [c for c in linear_characters(d4) if not c.is_trivial() and c != alpha]
    assert len(others) == 2
    for beta in others:
        wrong_b = lie_basis(make_context(d4, beta))
        with pytest.raises(BadParameters, match=r"does not fit Ker\(lin\d\) of order 4"):
            _clifford(d4, alpha, alpha_basis=wrong_b)
    assert _clifford(d4, alpha, alpha_basis=lie_basis(make_context(d4, alpha))).ok


def test_clifford_fails_when_h_gains_a_vector_of_a_outside_b(monkeypatch):
    # a vector of A outside B has support outside Ker alpha, so H is refused
    z6 = catalog("cyclic", 6)
    sign = find_character(z6, "sign")
    extra = _outside_pair(z6, sign)
    original = verify.kernel_space
    monkeypatch.setattr(verify, "kernel_space",
                        lambda g, a: _with_rows(g, original(g, a),
                                                _kernel_rows(g, original(g, a)) + [extra]))
    with pytest.raises(BadParameters, match=r"does not fit Ker\(sign\) of order 3 in Z/6"):
        _clifford(z6, sign)


def _symmetric_pair(group, alpha):
    """delta_g + delta_(g^-1) for some g in Ker alpha with g != g^-1: a row
    that fits Ker alpha and lies in neither L(G, trivial) nor L(G, alpha)."""
    g = next(g for g in alpha.kernel_elements() if group.inverse[g] != g)
    ctx = context(group.exponent)
    row = {g: ctx.one, group.inverse[g]: ctx.one}
    assert not _row_space(lie_basis(make_context(group, find_character(group, "trivial")))).contains(row)
    return row


def test_clifford_fails_when_h_gains_a_vector_outside_a(monkeypatch):
    z6 = catalog("cyclic", 6)
    sign = find_character(z6, "sign")
    extra = _symmetric_pair(z6, sign)
    original = verify.kernel_space
    monkeypatch.setattr(verify, "kernel_space",
                        lambda g, a: _with_rows(g, original(g, a),
                                                _kernel_rows(g, original(g, a)) + [extra]))
    res = _clifford(z6, sign)
    assert not res.ok and (res.dim_kernel, res.dim_intersection) == (2, 1)


def test_clifford_checks_membership_as_well_as_dimension(monkeypatch):
    # H's one vector swapped for a vector of Ker alpha outside A: the ranks
    # still agree, so only the membership test can catch it
    z6 = catalog("cyclic", 6)
    sign = find_character(z6, "sign")
    extra = _symmetric_pair(z6, sign)
    original = verify.kernel_space
    monkeypatch.setattr(verify, "kernel_space",
                        lambda g, a: _with_rows(g, original(g, a),
                                                _kernel_rows(g, original(g, a))[:-1] + [extra]))
    res = _clifford(z6, sign)
    assert (res.dim_kernel, res.dim_intersection) == (1, 1)
    assert not res.ok


def test_clifford_refuses_inputs_of_another_context():
    z6 = catalog("cyclic", 6)
    sign, trivial = find_character(z6, "sign"), find_character(z6, "trivial")
    a = lie_basis(make_context(z6, trivial))
    b = lie_basis(make_context(z6, sign))
    h = verify.kernel_space(z6, sign)
    # B of (sign, inv)
    with pytest.raises(BadParameters, match=r"\(Z/6, sign, inv\) handed to the clifford check"):
        verify_clifford(a, lie_basis(make_context(z6, sign, inversion_automorphism(z6))), h)
    # A of (trivial, inv), and A of a nontrivial character
    with pytest.raises(BadParameters, match=r"\(Z/6, trivial, inv\)"):
        verify_clifford(lie_basis(make_context(z6, trivial, inversion_automorphism(z6))), b, h)
    with pytest.raises(BadParameters, match=r"\(Z/6, sign, id\) and \(Z/6, sign, id\)"):
        verify_clifford(b, b, h)
    # A over another group
    z4 = catalog("cyclic", 4)
    with pytest.raises(BadParameters, match=r"\(Z/4, trivial, id\) and \(Z/6, sign, id\)"):
        verify_clifford(lie_basis(make_context(z4, find_character(z4, "trivial"))), b, h)
    # H of Z/4's sign, of order 2; Ker(sign) of Z/6 has order 3
    with pytest.raises(BadParameters, match=r"order 2 does not fit Ker\(sign\) of order 3"):
        verify_clifford(a, b, verify.kernel_space(z4, find_character(z4, "sign")))
    assert verify_clifford(a, b, h).ok


def test_suite_clifford_with_shared_bases_equals_standalone_checks():
    groups = [g for g in default_catalog() if g.order <= 24]
    result = run_suite(groups, tau_policy="id")
    assert len(result.clifford) == 327 and all(c.ok for c in result.clifford)
    by_name = {g.name: g for g in groups}
    assert len(by_name) == len(groups)
    for shared in result.clifford:
        group = by_name[shared.group_name]
        alpha = find_character(group, shared.alpha_label)
        assert _clifford(group, alpha) == shared


def test_run_suite_builds_each_tau_id_basis_once_per_group(monkeypatch):
    # D4: 4 linear characters, tau = id only, 3 Clifford checks, whose
    # kernel spaces are written without a Lie basis of the kernel
    built = []
    original = verify.lie_basis
    monkeypatch.setattr(verify, "lie_basis", lambda ctx: built.append(ctx) or original(ctx))
    result = run_suite([catalog("dihedral", 4)])
    assert result.all_ok and result.contexts == 4 and len(result.clifford) == 3
    assert len(built) == 4
    assert sum(ctx.group.order == 8 for ctx in built) == 4


def test_run_suite_builds_each_kernel_space_once(monkeypatch):
    # Z/12 has 11 nontrivial characters, whose kernels are the 5 proper
    # subgroups of Z/12 (one per character order 2, 3, 4, 6, 12)
    built = []
    original = verify.kernel_space
    monkeypatch.setattr(verify, "kernel_space",
                        lambda group, alpha: built.append(alpha) or original(group, alpha))
    result = run_suite([parse_group_spec("cyclic:12")])
    assert result.all_ok and len(result.clifford) == 11
    assert len(built) == 5


def test_the_center_class_rows_are_written_once_per_context(monkeypatch):
    # center_basis writes the candidates once: their rank is taken from
    # them, and the generators are those of the classes c <= sigma(c),
    # expanded from the same array; the Lie basis and the +1 rows are the
    # other two writes of a context, and each of the 103 distinct kernels
    # is written once more
    writes = {"_orbit_rows": 0, "center_basis": 0, "kernel_space": 0}
    originals = {name: getattr(liealg, name) for name in writes}

    def counted(name):
        def call(*args):
            writes[name] += 1
            return originals[name](*args)
        return call

    monkeypatch.setattr(liealg, "_orbit_rows", counted("_orbit_rows"))
    for name in ("center_basis", "kernel_space"):
        monkeypatch.setattr(verify, name, counted(name))
    result = run_suite([g for g in default_catalog() if g.order <= 24])
    assert result.all_ok and result.contexts == 406
    assert writes == {"_orbit_rows": 3 * 406 + 103, "center_basis": 406, "kernel_space": 103}


def test_run_suite_builds_only_the_selected_tau_id_bases(monkeypatch):
    # the tau = id bases of Z/24 are those of trivial (for Clifford) and sign;
    # the other lie_basis call is (sign, inv), and the kernel space needs none
    z24 = parse_group_spec("cyclic:24")
    built = []
    original = verify.lie_basis
    monkeypatch.setattr(verify, "lie_basis", lambda ctx: built.append(ctx) or original(ctx))
    result = run_suite([z24], alpha_labels=["sign"])
    assert result.all_ok and result.contexts == 2 and len(result.clifford) == 1
    id_bases = [ctx.alpha.label for ctx in built if ctx.group is z24 and ctx.tau.is_identity()]
    assert sorted(id_bases) == ["sign", "trivial"]
    assert len(built) == 3


@pytest.mark.parametrize("options", [{"alpha_labels": "lin12"}, {"tau_policy": "bogus"}])
def test_run_suite_refuses_a_malformed_selection(options):
    # a bare label string would select every label it contains ("lin1" in
    # "lin12"), and an unknown policy would run tau = id
    with pytest.raises(BadParameters):
        run_suite([parse_group_spec("cyclic:24")], **options)


def test_kawanaka_cyclic_inversions():
    for n in (3, 5):
        g = catalog("cyclic", n)
        res = _kawanaka(g, inversion_automorphism(g))
        assert res.ok
        assert res.extension_name.startswith(f"Z/{n}")
        assert all(row["identity_ok"] for row in res.rows)


def test_kawanaka_identity_twist():
    z4 = catalog("cyclic", 4)
    res = _kawanaka(z4, identity_automorphism(z4))
    assert res.ok  # extension is Z/4 x Z/2; the relation degenerates to 0 = 0


def test_kawanaka_z3xz3():
    g = parse_group_spec("product:cyclic:3,cyclic:3")
    res = _kawanaka(g, inversion_automorphism(g))
    assert res.ok


def test_run_suite_empty():
    res = run_suite([], max_order=10)
    assert res.contexts == 0 and res.all_ok


def test_run_suite_small():
    res = run_suite(max_order=8)
    assert res.contexts >= 30
    assert res.all_ok
    labels = [(r.group_name, r.alpha_label, r.tau_label) for r in res.reports]
    assert labels == sorted(labels)


def test_functoriality_embedded_subalgebras():
    # A3 inside S3 through the sign kernel, Z/4 inside Q8
    s3 = catalog("symmetric", 3)
    sub, embed = kernel_subgroup(s3, find_character(s3, "sign"))
    _assert_lie_subalgebra(s3, sub, embed)

    q8 = catalog("quaternion8")
    sub2, embed2 = subgroup_table(q8, (0, 1, 2, 3))  # <i> = {1, -1, i, -i}
    _assert_lie_subalgebra(q8, sub2, embed2)


def _assert_lie_subalgebra(group, sub, embed):
    field = context(group.exponent)
    triv_g = next(c for c in linear_characters(group) if c.is_trivial())
    triv_h = next(c for c in linear_characters(sub) if c.is_trivial())
    big_basis = lie_basis(make_context(group, triv_g))
    rs = _row_space(big_basis)
    small = lie_basis(make_context(sub, triv_h))
    embedded = []
    for v in small.vectors:
        vec = {embed[h]: coeff.embed(field) for h, coeff in v.terms.items()}
        embedded.append(vec)
        assert rs.contains(vec)
    # the embedded space is closed under the bracket of the big algebra
    sub_rs = RowSpace(field, group.order, embedded)
    for x in embedded:
        for y in embedded:
            ex = GroupAlgebraElement(group, x)
            ey = GroupAlgebraElement(group, y)
            assert sub_rs.contains(bracket(ex, ey).terms)


def test_abelian_lie_algebras_are_abelian():
    for n in (3, 5, 8, 12):
        g = catalog("cyclic", n)
        triv = next(c for c in linear_characters(g) if c.is_trivial())
        basis = lie_basis(make_context(g, triv))
        moved = sum(1 for x in g.elements() if g.mult[x][x] != 0)
        assert len(basis.vectors) == moved // 2
        for u in basis.vectors:
            for v in basis.vectors:
                assert bracket(u, v).is_zero()


def test_report_json_round_trip():
    s3 = catalog("symmetric", 3)
    data = _theorem(s3, find_character(s3, "sign")).to_json_dict()
    # plain JSON values only (no tuples, no non-string keys), so the text
    # form decodes to the same dict
    assert json.loads(json.dumps(data)) == data


def test_default_catalog_contents():
    names = {g.name for g in default_catalog()}
    assert {"Z/2", "Z/24", "D3", "D12", "S3", "S4", "A4", "Q8",
            "Z/2xZ/4", "Z/2xZ/2xZ/2", "Z/3xZ/3", "Z/7:Z/3", "A5", "S5"} <= names
    orders = [g.order for g in default_catalog()]
    assert max(orders) == 120


def test_kawanaka_irrational_inner_product_is_typed():
    # a G table whose entry is multiplied by zeta makes <Res chi, chi_j>
    # non-rational; the error names the extension irrep, not a bare ValueError
    g = catalog("cyclic", 4)
    t = character_table(g)
    x = t.values.copy()
    x[1, 1] = (t.scalar_rows()[1][1] * t.context().zeta(1)).coeffs
    bad = dataclasses.replace(t, values=x)
    with pytest.raises(LiftInconsistent, match=r"restriction of irrep \d+ of .* non-rational"):
        _kawanaka(g, inversion_automorphism(g), table=bad)


def test_run_suite_builds_one_indicator_batch_per_group(monkeypatch):
    # the theorem and Kawanaka checks read the batch; no per-context report
    # and no G-side joint indicator is computed again
    from grouplie import indicators

    batches, joints = [], []
    original_reports, original_joint = verify.indicator_reports, indicators.joint_indicator

    def counted_reports(table, contexts):
        batches.append(len(contexts))
        return original_reports(table, contexts)

    def counted_joint(table, alpha, tau):
        joints.append(table.group.name)
        return original_joint(table, alpha, tau)

    def refused(*args, **kwargs):
        raise AssertionError("indicator_report called inside run_suite")

    monkeypatch.setattr(verify, "indicator_reports", counted_reports)
    monkeypatch.setattr(indicators, "joint_indicator", counted_joint)
    monkeypatch.setattr(indicators, "indicator_report", refused)
    groups = [catalog("cyclic", 6), catalog("symmetric", 3)]
    res = run_suite(groups)
    assert res.all_ok and res.contexts == 10 and len(res.kawanaka) == 1
    # Z/6: 8 theorem contexts, (trivial, inv) among them, which its Kawanaka
    # check reads too
    assert batches == [8, 2]
    # the one joint indicator left is F_eps on the extension of Z/6 by inv
    assert len(joints) == 1 and joints[0] != groups[0].name
    # with sign alone no theorem context is (trivial, inv), so the Kawanaka
    # check's report joins the batch
    batches.clear()
    res = run_suite(groups[:1], alpha_labels=["sign"])
    assert res.all_ok and res.contexts == 2 and len(res.kawanaka) == 1
    assert batches == [3]


def test_kawanaka_reads_the_trivial_tau_report():
    g = catalog("cyclic", 5)
    t = character_table(g)
    inv = inversion_automorphism(g)
    report = indicator_report(t, find_character(g, "trivial"), inv)
    res = verify_kawanaka(t, report, seed=0)
    # the report of run_suite's batch gives the same verdict as one built alone
    assert res.ok and res == run_suite([g], tau_policy="inv").kawanaka[0]
    # the 2-dimensional irreps of D5 restrict to chi + conj(chi); c_tau of
    # one of the two components changed in the report fails its split check
    row = next(r for r in res.rows if len(r["split_components"]) == 2)
    c_tau = list(report.c_tau)
    c_tau[row["split_components"][0]] = 0
    broken = dataclasses.replace(report, c_tau=tuple(c_tau))
    bad = verify_kawanaka(t, broken, seed=0)
    assert not bad.ok and not bad.rows[row["irrep"]]["split_ok"]


@pytest.mark.parametrize("which", ["alpha", "tau", "group", "report_tau"])
def test_a_report_of_another_context_is_refused(which):
    z4 = catalog("cyclic", 4)
    t = character_table(z4)
    triv, sign = find_character(z4, "trivial"), find_character(z4, "sign")
    tid, inv = identity_automorphism(z4), inversion_automorphism(z4)
    report = indicator_report(t, triv, tid)
    if which == "alpha":
        call = lambda: _check(lie_basis(make_context(z4, sign, tid)), report)  # noqa: E731
    elif which == "tau":
        call = lambda: _check(lie_basis(make_context(z4, triv, inv)), report)  # noqa: E731
    elif which == "report_tau":
        # a basis of (sign, id) with the report of (sign, inv)
        call = lambda: _check(lie_basis(make_context(z4, sign, tid)),  # noqa: E731
                              indicator_report(t, sign, inv))
    else:
        z5 = catalog("cyclic", 5)
        call = lambda: verify_kawanaka(character_table(z5), report, seed=0)  # noqa: E731
    with pytest.raises(BadParameters, match="indicator report of"):
        call()


def _z4_and_v4():
    """Z/4 and the Klein four-group as multiplication tables, both named G."""
    z4 = from_mult_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    v4 = from_mult_table([[i ^ j for j in range(4)] for i in range(4)])
    assert z4.name == v4.name == "G"
    return z4, v4


def test_theorem_refuses_a_report_of_another_group_with_the_same_names():
    z4, v4 = _z4_and_v4()
    basis = lie_basis(make_context(z4, find_character(z4, "lin1")))
    report = indicator_report(character_table(v4), find_character(v4, "lin1"))
    assert str(report.context) == str(basis.context) == "(G, lin1, id)"
    with pytest.raises(BadParameters, match="indicator report of"):
        _check(basis, report)


def test_theorem_refuses_a_report_whose_tau_has_the_same_label_and_another_mapping():
    z4 = catalog("cyclic", 4)
    trivial = find_character(z4, "trivial")
    basis = lie_basis(make_context(z4, trivial, inversion_automorphism(z4)))
    also_inv = validate_automorphism(z4, list(range(4)), "inv")
    report = indicator_report(character_table(z4), trivial, also_inv)
    assert report.context.tau.label == basis.context.tau.label == "inv"
    with pytest.raises(BadParameters, match="indicator report of"):
        _check(basis, report)


def test_kawanaka_refuses_a_report_of_another_group_or_character():
    z4, v4 = _z4_and_v4()
    table = character_table(z4)
    v4_report = indicator_report(character_table(v4), find_character(v4, "trivial"),
                                 inversion_automorphism(v4))
    with pytest.raises(BadParameters, match=r"indicator report of \(G, trivial, inv\)"):
        verify_kawanaka(table, v4_report, seed=0)
    sign_report = indicator_report(table, find_character(z4, "sign"), inversion_automorphism(z4))
    with pytest.raises(BadParameters, match="needs \\(G, trivial, tau\\)"):
        verify_kawanaka(table, sign_report, seed=0)
    trivial_report = indicator_report(table, find_character(z4, "trivial"),
                                      inversion_automorphism(z4))
    assert verify_kawanaka(table, trivial_report, seed=0).ok


def test_run_suite_validates_an_explicit_tau_against_every_group():
    z6, s3 = catalog("cyclic", 6), catalog("symmetric", 3)
    inv = inversion_automorphism(z6)
    assert run_suite([z6], tau_policy=[inv]).all_ok
    with pytest.raises(NotHomomorphism):
        run_suite([z6, s3], tau_policy=[inv])
    with pytest.raises(BadParameters, match="inv has 6 entries, expected 4"):
        run_suite([z6, catalog("cyclic", 4)], tau_policy=[inv], alpha_labels=["trivial"])


def test_theorem_refuses_center_data_of_another_context():
    z4 = catalog("cyclic", 4)
    triv, sign = find_character(z4, "trivial"), find_character(z4, "sign")
    ctx = make_context(z4, sign)
    report = indicator_report(character_table(z4), sign)
    for other in (make_context(z4, triv), make_context(z4, sign, inversion_automorphism(z4))):
        with pytest.raises(BadParameters, match=r"center data of \(Z/4, .*\) handed to the basis"):
            verify_theorem(lie_basis(ctx), report, center_basis(other))
    assert verify_theorem(lie_basis(ctx), report, center_basis(ctx)).all_ok


def test_clifford_refuses_unmatched_bases_and_kernel_spaces():
    # Z/3 x Z/3 has four kernels of order 3: the kernel space of lin3 fits
    # the order of Ker(lin4) but not its elements
    group = catalog("direct_product", catalog("cyclic", 3), catalog("cyclic", 3))
    a = lie_basis(make_context(group, find_character(group, "trivial")))
    lin3, lin4 = find_character(group, "lin3"), find_character(group, "lin4")
    with pytest.raises(BadParameters, match=r"order 3 does not fit Ker\(lin4\) of order 3"):
        verify_clifford(a, lie_basis(make_context(group, lin4)), verify.kernel_space(group, lin3))
    assert verify_clifford(a, lie_basis(make_context(group, lin4)),
                           verify.kernel_space(group, lin4)).ok


def test_kernel_space_refuses_a_character_of_another_order():
    # Ker alpha would be read off exponents that do not belong to G's
    # elements: a shorter alpha left out elements, a longer one added some
    z6 = catalog("cyclic", 6)
    for n in (4, 8):
        alpha = find_character(catalog("cyclic", n), "lin1")
        with pytest.raises(GroupMismatch, match=rf"lin1 is defined on a group of order {n}, "
                                                r"not on Z/6 of order 6"):
            verify.kernel_space(z6, alpha)
