"""Theorem-checking pipeline.

For each (group, alpha, tau) context the exact construction of the skew
subalgebra is compared against the character-theoretic prediction:

  1. dimension by exact rank = dimension by element census = predicted sum
     of factor dimensions;
  2. Lie closure of the constructed basis: every bracket of two basis
     vectors lies in the span of the basis;
  3. the skew class-sum generators are central (their bracket with every
     basis vector is 0), independent, and count exactly the predicted
     center dimension;
  4. #G - 2 dim = I - J (the signed count of twisted involutions);
  5. the class-side and irrep-side fixed-point counts of the star map agree:
     |{c : alpha(c) = 1, c* = c}| - |{c : alpha(c) = -1, c* = c}|
       = |{V : V = partner(V)}|.

The brackets of checks 2 and 3, and the trace-form orthogonality of the basis
to the +1 eigenspace, are one call of liealg.skew_checks per context: an exact
int64 kernel on the monomials c*zeta^k of the coefficients, every sum bounded
below 2^63 before it is formed.

For each nontrivial linear character alpha of a group (tau = id) the
Clifford identity L(Ker alpha) = L(G) & L_alpha(G) is checked as well.  With
H = L(Ker alpha), A = L(G, trivial) and B = L(G, alpha), H = A & B exactly
when every row of H lies in A and in B and rank H = dim A + dim B - dim(A + B)
(Grassmann's formula).

Every rank and membership (the dimension of L, the center count, dim(A + B),
H in A and in B, rank H) is decided by liealg.block_spans per sigma-orbit
block, with no field arithmetic; center_data and verify_clifford each ask a
whole group's questions in one block_spans pass.

The checks take their inputs and return their verdicts; run_suite builds
the inputs of a suite and shares per-group work between the checks.  It
builds the tau = id basis of trivial and of each selected character once and
hands it to the theorem and Clifford checks, builds H = L(Ker alpha) once per
distinct kernel, builds the center data of all the group's contexts as one
center_data batch, runs its Clifford checks as one verify_clifford batch,
and builds the indicator reports of all the group's contexts, and the
(trivial, tau) report of each Kawanaka check that is not one of them, as
one indicator_reports batch.

A failing check is reported as an implementation bug: the underlying
identities are theorems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import cyclo
from .chartable import CharacterTable, character_table
from .errors import BadParameters, LiftInconsistent
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    identity_automorphism,
    inversion_automorphism,
    kernel_subgroup,
    linear_characters,
    semidirect_product,
    trivial_character,
    validate_automorphism,
)
from .indicators import (
    Factor,
    IndicatorReport,
    indicator_reports,
    stacked_weights,
    weighted_fs_indicator,
)
from .liealg import (
    Blocks,
    GroupAlgebraElement,
    LieBasis,
    LieContext,
    block_spans,
    center_basis,
    center_candidates,
    lie_basis,
    make_context,
    plus_fixed_basis,
    sigma_class_map,
    skew_checks,
)


# check names in reporting order; each is stored in the LieReport field <name>_ok
CHECKS = ("dims", "closure", "centrality", "orthogonality", "bookkeeping",
          "class_count")


@dataclass(frozen=True)
class LieReport:
    group_name: str
    order: int
    alpha_label: str
    tau_label: str
    dim_l_rank: int
    dim_l_formula: int
    dim_m_predicted: int
    center_dim_exact: int
    center_dim_predicted: int
    closure_ok: bool
    centrality_ok: bool
    orthogonality_ok: bool
    dims_ok: bool
    bookkeeping_ok: bool
    class_count_ok: bool
    factors: tuple[Factor, ...]
    seconds: float

    @property
    def all_ok(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> str | None:
        """The first check that did not pass."""
        return next((f"{c}_ok" for c in CHECKS if not getattr(self, f"{c}_ok")), None)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "group": self.group_name,
            "order": self.order,
            "alpha": self.alpha_label,
            "tau": self.tau_label,
            "dim_L_rank": self.dim_l_rank,
            "dim_L_formula": self.dim_l_formula,
            "dim_M_predicted": self.dim_m_predicted,
            "center_dim_exact": self.center_dim_exact,
            "center_dim_predicted": self.center_dim_predicted,
            # the Clifford and Kawanaka verdicts live in SuiteResult
            "checks": {**{c: getattr(self, f"{c}_ok") for c in CHECKS},
                       "clifford": None, "kawanaka": None},
            "factors": [[f.kind, f.n, f.dim] for f in self.factors],
            "all_ok": self.all_ok,
        }
        if include_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


class CenterData(NamedTuple):
    """The skew class-sum generators of a context's center, and the exact
    rank of all its center candidates."""

    context: LieContext
    generators: list[GroupAlgebraElement]
    rank: int


def center_data(contexts: list[LieContext]) -> list[CenterData]:
    """The CenterData of each context, all the ranks in one block_spans pass;
    contexts over groups of different exponents raise BadParameters.

    A candidate T_c - alpha(c) T_(sigma c) is constant on each class, so its
    rank is taken in class coordinates, where the candidate lies in the
    sigma-orbit block {c, sigma(c)}.  Every eligible candidate counts, in
    both orbit orders.
    """
    if len({ctx.group.exponent for ctx in contexts}) > 1:
        raise BadParameters("center data of groups of different exponents in one batch")
    spaces, gens = [], []
    for ctx in contexts:
        reps = conjugacy_data(ctx.group).representatives
        candidates = list(center_candidates(ctx))
        gens.append(center_basis(candidates))
        rows = [{x: v.terms[reps[x]] for x in (c, sc)} for c, sc, v in candidates]
        spaces.append(Blocks(rows, sigma_class_map(ctx)))
    if not contexts:
        return []
    ranks = block_spans(spaces, cyclo.context(contexts[0].group.exponent)).ranks
    return [CenterData(*data) for data in zip(contexts, gens, ranks)]


def _class_count_ok(ctx: LieContext, report: IndicatorReport) -> bool:
    """The signed count of sigma-fixed classes equals the count of
    self-paired irreps."""
    cd = conjugacy_data(ctx.group)
    sig = sigma_class_map(ctx)
    fixed = sum(ctx.alpha.real_sign(r) for c, r in enumerate(cd.representatives) if sig[c] == c)
    self_paired = sum(1 for i, p in enumerate(report.partner) if p == i)
    return fixed == self_paired


def verify_theorem(basis: LieBasis, report: IndicatorReport, center: CenterData) -> LieReport:
    """Check the context of `basis`, its lie_basis, against `report`, its
    indicator report, and `center`, its center_data; a report or center
    data of another context raises BadParameters."""
    t0 = time.perf_counter()
    ctx = basis.context
    if report.context != ctx:
        raise BadParameters(f"indicator report of {report.context} handed to the basis of "
                            f"another context, {ctx}")
    if center.context != ctx:
        raise BadParameters(f"center data of {center.context} handed to the basis of "
                            f"another context, {ctx}")
    group, alpha, tau = ctx.group, ctx.alpha, ctx.tau

    dim_rank = basis.rank
    dims_ok = dim_rank == report.dim_l_formula == report.dim_m
    gens = center.generators
    checks = skew_checks(basis, gens, plus_fixed_basis(ctx))
    center_ok = checks.centrality and center.rank == len(gens) == report.center_dim
    bookkeeping = (group.order - 2 * dim_rank) == (
        report.involutions_plus - report.involutions_minus
    )

    return LieReport(
        group_name=group.name,
        order=group.order,
        alpha_label=alpha.label,
        tau_label=tau.label,
        dim_l_rank=dim_rank,
        dim_l_formula=report.dim_l_formula,
        dim_m_predicted=report.dim_m,
        center_dim_exact=center.rank,
        center_dim_predicted=report.center_dim,
        closure_ok=checks.closure,
        centrality_ok=center_ok,
        orthogonality_ok=checks.orthogonality,
        dims_ok=dims_ok,
        bookkeeping_ok=bookkeeping,
        class_count_ok=_class_count_ok(ctx, report),
        factors=report.factors,
        seconds=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class CliffordResult:
    group_name: str
    alpha_label: str
    kernel_order: int
    dim_kernel: int
    dim_intersection: int
    ok: bool


class KernelSpace(NamedTuple):
    """H = L(Ker alpha, trivial), embedded in the group algebra of G."""

    order: int  # |Ker alpha|
    rows: list[dict]  # the Lie basis of H as sparse rows over the elements of G
    rank: int


def kernel_space(group: GroupTable, alpha: LinearCharacter) -> KernelSpace:
    """The KernelSpace of Ker alpha; it depends on alpha only through its kernel."""
    sub, embed = kernel_subgroup(group, alpha)
    ctx_f = cyclo.context(group.exponent)
    rows = [{embed[h]: c.embed(ctx_f) for h, c in v.terms.items()}
            for v in lie_basis(make_context(sub, trivial_character(sub))).vectors]
    return KernelSpace(sub.order, rows,
                       block_spans([Blocks(rows, group.inverse)], ctx_f).ranks[0])


def verify_clifford(trivial_basis: LieBasis, alpha_bases: list[LieBasis],
                    kernels: list[KernelSpace]) -> list[CliffordResult]:
    """For each alpha_bases[i] = B and kernels[i] = H, exact subspace
    equality of H = L(Ker alpha) and A & B, where A = L(G, trivial) and
    B = L(G, alpha), both with tau = id.

    H = A & B exactly when every row of H lies in A and in B and
    rank H = dim A + dim B - dim(A + B), by Grassmann's formula.
    `trivial_basis` is the lie_basis of A, each of `alpha_bases` that of a
    B, and each of `kernels` the kernel_space of its alpha.  Every rank and
    membership of the batch is one block_spans pass: the rows of A, B and H
    lie in the orbits {g, g^-1}, and A + B adds the blocks of A and B.
    Inputs of another context raise BadParameters.
    """
    if len(alpha_bases) != len(kernels):
        raise BadParameters(f"{len(alpha_bases)} bases and {len(kernels)} kernel spaces "
                            f"handed to the clifford check")
    a = trivial_basis.context
    spaces, queries = [trivial_basis.blocks], []
    for alpha_basis, kernel in zip(alpha_bases, kernels):
        b = alpha_basis.context
        group, alpha = b.group, b.alpha
        if alpha.is_trivial():
            raise BadParameters("clifford check needs a nontrivial character")
        if a.group != group or not (a.alpha.is_trivial() and a.tau.is_identity()
                                    and b.tau.is_identity()):
            raise BadParameters(f"bases of {a} and {b} handed to the clifford check, "
                                f"which needs (G, trivial, id) and (G, alpha, id)")
        in_kernel = set(alpha.kernel_elements())
        if kernel.order != len(in_kernel) or any(row.keys() - in_kernel for row in kernel.rows):
            raise BadParameters(f"kernel space of order {kernel.order} does not fit "
                                f"Ker({alpha.label}) of order {len(in_kernel)} in {group.name}")
        queries += [(space, row) for row in kernel.rows for space in (0, len(spaces))]
        spaces += [alpha_basis.blocks, trivial_basis.blocks + alpha_basis.blocks]
    if not kernels:
        return []
    spans = block_spans(spaces, cyclo.context(a.group.exponent), queries)
    dim_a = spans.ranks[0]
    results, done = [], 0
    for i, (alpha_basis, kernel) in enumerate(zip(alpha_bases, kernels)):
        dim_b, dim_sum = spans.ranks[2 * i + 1:2 * i + 3]
        dim_intersection = dim_a + dim_b - dim_sum
        contained = spans.contains[done:done + 2 * len(kernel.rows)]
        done += len(contained)
        results.append(CliffordResult(
            group_name=a.group.name,
            alpha_label=alpha_basis.context.alpha.label,
            kernel_order=kernel.order,
            dim_kernel=kernel.rank,
            dim_intersection=dim_intersection,
            ok=kernel.rank == dim_intersection and all(contained),
        ))
    return results


@dataclass(frozen=True)
class KawanakaResult:
    group_name: str
    tau_label: str
    extension_name: str
    rows: tuple[dict, ...]
    ok: bool


def verify_kawanaka(table: CharacterTable, report: IndicatorReport, *,
                    seed: int) -> KawanakaResult:
    """Check 2 F_eps(chi) = F_1(Res chi) - c_tau(Res chi) on the tau-extension.

    G = table.group is extended by the order-2 group acting through tau;
    eps is its order-2 character with kernel the embedded copy of G.  Split
    restrictions additionally satisfy c_tau(chi+) = c_tau(chi-) and
    F(chi+) = F(chi-), with c_tau and F = F_1 of G read from `report`, the
    indicator report of (G, trivial, tau); any other raises BadParameters.
    `seed` drives the eigenspace split of the extension's table.
    """
    group, tau = table.group, report.context.tau
    if report.context.group != group or not report.context.alpha.is_trivial():
        raise BadParameters(f"indicator report of {report.context} handed to the kawanaka "
                            f"check of {group.name}, which needs (G, trivial, tau)")
    ext = semidirect_product(group, tau)
    table_ext = character_table(ext, seed=seed)
    cd_ext = conjugacy_data(ext)
    n = group.order

    # element g + i*n of the extension is (g, tau^i), so eps(g + i*n) = (-1)^i
    half = ext.exponent // 2
    eps = LinearCharacter(ext.exponent, (0,) * n + (half,) * n, "eps")
    f_eps = weighted_fs_indicator(table_ext, eps)

    cd = conjugacy_data(group)
    ctx_ext = table_ext.context()

    # restrictions to G of the extension's irreps, as class functions of G
    res = table_ext.values[:, [cd_ext.class_of[r] for r in cd.representatives]]
    # n * F_1 and n * c_tau of each restriction, kept integral; restrictions
    # are reducible, so these are not read off as indicators
    weights = stacked_weights(group, [(None, identity_automorphism(group)), (None, tau)], ctx_ext)
    sums = cyclo.class_sums(res, weights, [1] * cd.num_classes, ctx_ext)
    nf1, nctau = sums[:, 0], sums[:, 1]

    # decompose every restriction into irreducibles of G: n * <Res chi_i, chi_j>
    gconj_emb = cyclo.galois_array(table.values, -1, table.context(), ctx_ext)
    inner = cyclo.class_sums(res, gconj_emb, cd.sizes, ctx_ext)
    for i in range(len(res)):
        irrational = np.flatnonzero(inner[i, :, 1:].any(axis=1))
        if irrational.size:
            j = int(irrational[0])
            raise LiftInconsistent(
                f"restriction of irrep {i} of {ext.name} has a non-rational inner product "
                f"{cyclo.scalar_of(inner[i, j], ctx_ext)!r} with irrep {j} of {group.name}"
            )
        if (inner[i, :, 0] % n).any() or (inner[i, :, 0] < 0).any():
            mults = [Fraction(int(v), n) for v in inner[i, :, 0]]
            raise LiftInconsistent(
                f"restriction of irrep {i} of {ext.name} has multiplicities {mults}"
            )
    multiplicities = (inner[:, :, 0] // n).tolist()

    ctau_g, f1_g = report.c_tau, report.f_alpha
    rows = []
    ok = True
    identity_gap = nf1 - nctau
    for i, mults in enumerate(multiplicities):
        identity_ok = bool(identity_gap[i, 0] == 2 * f_eps[i] * n
                           and not identity_gap[i, 1:].any())
        components = [j for j, mu in enumerate(mults) if mu]
        split_ok = True
        if len(components) == 2 and all(mults[j] == 1 for j in components):
            jp, jm = components
            split_ok = ctau_g[jp] == ctau_g[jm] and f1_g[jp] == f1_g[jm]
        row_ok = identity_ok and split_ok
        ok = ok and row_ok
        rows.append({
            "irrep": i,
            "degree": table_ext.degrees[i],
            "F_eps": f_eps[i],
            "identity_ok": identity_ok,
            "split_components": components,
            "split_ok": split_ok,
        })

    return KawanakaResult(group.name, tau.label, ext.name, tuple(rows), ok)


# ---------------------------------------------------------------------------
# catalog and suite


def default_catalog() -> list[GroupTable]:
    """The stock verification targets (orders 2..120)."""
    groups: list[GroupTable] = []
    for k in range(2, 25):
        groups.append(catalog("cyclic", k))
    for k in range(3, 13):
        groups.append(catalog("dihedral", k))
    groups.append(catalog("symmetric", 3))
    groups.append(catalog("symmetric", 4))
    groups.append(catalog("alternating", 4))
    groups.append(catalog("quaternion8"))
    groups.append(catalog("direct_product", catalog("cyclic", 2), catalog("cyclic", 4)))
    groups.append(catalog("direct_product", catalog("cyclic", 2),
                          catalog("cyclic", 2), catalog("cyclic", 2)))
    groups.append(catalog("direct_product", catalog("cyclic", 3), catalog("cyclic", 3)))
    groups.append(catalog("frobenius21"))
    groups.append(catalog("alternating", 5))
    groups.append(catalog("symmetric", 5))
    return groups


def curated_taus(group: GroupTable) -> list[InvolutiveAutomorphism]:
    """Identity everywhere; inversion wherever it is an automorphism."""
    taus = [identity_automorphism(group)]
    if group.is_abelian() and group.exponent > 2:
        taus.append(inversion_automorphism(group))
    return taus


# the named tau policies of run_suite
TAU_POLICIES = {
    "all": curated_taus,
    "id": lambda group: [identity_automorphism(group)],
    "inv": lambda group: [inversion_automorphism(group)],
}


@dataclass
class SuiteResult:
    reports: list[LieReport] = field(default_factory=list)
    clifford: list[CliffordResult] = field(default_factory=list)
    kawanaka: list[KawanakaResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            all(r.all_ok for r in self.reports)
            and all(r.ok for r in self.clifford)
            and all(r.ok for r in self.kawanaka)
        )

    @property
    def contexts(self) -> int:
        return len(self.reports)


def run_suite(groups: list[GroupTable] | None = None, *,
              max_order: int | None = None,
              alpha_labels: str | list[str] = "all",
              tau_policy: str | list[InvolutiveAutomorphism] = "all",
              seed: int = 0) -> SuiteResult:
    """Verify every selected context; failures are collected, not raised.

    alpha_labels: "all" or a list of character labels.  tau_policy: "all"
    (identity plus inversion where valid), "id", "inv", or an explicit list
    of automorphisms; each of them is validated against every group, so a
    map that is no involutive automorphism of one raises NotHomomorphism or
    NotInvolutive, and one of another order BadParameters.
    """
    if isinstance(alpha_labels, str) and alpha_labels != "all":
        raise BadParameters(f"alpha_labels must be 'all' or a list, got {alpha_labels!r}")
    if not isinstance(tau_policy, list) and tau_policy not in TAU_POLICIES:
        raise BadParameters(f"tau_policy must be one of {sorted(TAU_POLICIES)} or a list of "
                            f"automorphisms, got {tau_policy!r}")
    if groups is None:
        groups = default_catalog()
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    result = SuiteResult()
    for group in groups:
        table = character_table(group, seed=seed)
        if isinstance(tau_policy, list):
            taus = [validate_automorphism(group, tau.mapping, tau.label) for tau in tau_policy]
        else:
            taus = TAU_POLICIES[tau_policy](group)
        trivial = trivial_character(group)
        chars = [c for c in linear_characters(group)
                 if alpha_labels == "all" or c.label in alpha_labels]
        # the tau = id basis of trivial and of every selected character,
        # shared by the theorem checks with tau = id and the Clifford checks
        bases = {c.exponents: lie_basis(make_context(group, c))
                 for c in linear_characters(group) if c.is_trivial() or c in chars}
        contexts = [bases[alpha.exponents].context if tau.is_identity()
                    else make_context(group, alpha, tau)
                    for tau in taus for alpha in chars if alpha_tau_compatible(alpha, tau)]
        kawanaka_taus = [tau for tau in taus
                         if not tau.is_identity() and 2 * group.order <= 256]
        # the indicator reports of all the group's contexts and the
        # (trivial, tau) report of each Kawanaka check, one of those contexts
        # when trivial is selected, as one batch
        extra = [] if trivial in chars else [make_context(group, trivial, t) for t in kawanaka_taus]
        reports = indicator_reports(table, contexts + extra)
        for report, center in zip(reports[:len(contexts)], center_data(contexts)):
            ctx = report.context
            basis = bases[ctx.alpha.exponents] if ctx.tau.is_identity() else lie_basis(ctx)
            result.reports.append(verify_theorem(basis, report, center))
        for report in reports:
            if report.context.alpha.is_trivial() and report.context.tau in kawanaka_taus:
                result.kawanaka.append(verify_kawanaka(table, report, seed=seed))
        # H = L(Ker alpha) depends on alpha only through its kernel
        nontrivial = [alpha for alpha in chars if not alpha.is_trivial()]
        kernels = {}
        for alpha in nontrivial:
            key = alpha.kernel_elements()
            if key not in kernels:
                kernels[key] = kernel_space(group, alpha)
        result.clifford += verify_clifford(bases[trivial.exponents],
                                           [bases[alpha.exponents] for alpha in nontrivial],
                                           [kernels[alpha.kernel_elements()] for alpha in nontrivial])
    result.reports.sort(key=lambda r: (r.group_name, r.alpha_label, r.tau_label))
    result.clifford.sort(key=lambda r: (r.group_name, r.alpha_label))
    result.kawanaka.sort(key=lambda r: (r.group_name, r.tau_label))
    return result
