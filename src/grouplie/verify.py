"""Theorem-checking pipeline.

For each (group, alpha, tau) context the exact construction of the skew
subalgebra is compared against the character-theoretic prediction:

  1. dimension by exact rank = dimension by element census = predicted sum
     of factor dimensions;
  2. Lie closure of the constructed basis: every bracket of two basis
     vectors lies in the basis's reduced row space;
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
(Grassmann's formula).  A + B starts from a copy of A's reduced row space.

run_suite shares per-group work between its checks: it builds each tau = id
basis once and hands it to the theorem and Clifford checks, and it builds
the indicator reports of all the group's contexts as one indicator_reports
batch, handing each to verify_theorem and the (trivial, tau) report to
verify_kawanaka, which reads c_tau and F_1 of G from it.

A failing check is reported as an implementation bug: the underlying
identities are theorems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cyclo
from .chartable import CharacterTable, character_table
from .errors import BadParameters, LiftInconsistent, VerificationFailed
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
)
from .indicators import (
    Factor,
    IndicatorReport,
    indicator_report,
    indicator_reports,
    scaled_sums,
    stacked_weights,
    weighted_fs_indicator,
)
from .liealg import (
    LieBasis,
    LieContext,
    center_basis,
    center_candidates,
    lie_basis,
    make_context,
    plus_fixed_basis,
    sigma_class_map,
    skew_checks,
)
from .linalg import RowSpace


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
    # the prediction the checks were made against; not part of the JSON record
    indicators: IndicatorReport | None = field(default=None, compare=False, repr=False)

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



def _center_data(ctx: LieContext, report: IndicatorReport):
    """(exact count, center generators, class-count identity flag)."""
    group = ctx.group
    cd = conjugacy_data(group)
    sig = sigma_class_map(ctx)
    candidates = list(center_candidates(ctx))
    gens = center_basis(ctx, candidates=candidates)
    # independence of the full eligible candidate set, both orbit orders
    exact = RowSpace(cyclo.context(group.exponent), group.order,
                     [v.terms for _, _, v in candidates]).rank
    # signed count of sigma-fixed classes vs self-paired irreps
    fixed = sum(ctx.alpha.real_sign(r) for c, r in enumerate(cd.representatives) if sig[c] == c)
    self_paired = sum(1 for i, p in enumerate(report.partner) if p == i)
    class_count_ok = fixed == self_paired
    return exact, gens, class_count_ok


def _check_report(report: IndicatorReport, group: GroupTable, alpha: LinearCharacter,
                  tau: InvolutiveAutomorphism) -> None:
    """Raise BadParameters unless a caller's `report` names this context."""
    named = (report.group_name, report.alpha_label, report.tau_label)
    if named != (group.name, alpha.label, tau.label):
        raise BadParameters(
            f"indicator report of {named} handed to context "
            f"({group.name}, {alpha.label}, {tau.label})"
        )


def verify_theorem(group: GroupTable, alpha: LinearCharacter,
                   tau: InvolutiveAutomorphism | None = None, *,
                   basis: LieBasis | None = None,
                   report: IndicatorReport | None = None,
                   seed: int = 0,
                   raise_on_failure: bool = True) -> LieReport:
    """Check one (group, alpha, tau) context; `basis` (the context's
    lie_basis) and `report` (its indicator_report) are built here unless the
    caller already has them."""
    t0 = time.perf_counter()
    ctx = make_context(group, alpha, tau)
    tau = ctx.tau
    if report is None:
        report = indicator_report(group, character_table(group, seed=seed), alpha, tau)
    else:
        _check_report(report, group, alpha, tau)

    if basis is None:
        basis = lie_basis(ctx)
    dim_rank = basis.row_space().rank
    dims_ok = dim_rank == report.dim_l_formula == report.dim_m
    center_exact, gens, class_count_ok = _center_data(ctx, report)
    checks = skew_checks(basis, gens, plus_fixed_basis(ctx))
    center_ok = checks.centrality and center_exact == len(gens) == report.center_dim
    bookkeeping = (group.order - 2 * dim_rank) == (
        report.involutions_plus - report.involutions_minus
    )

    out = LieReport(
        group_name=group.name,
        order=group.order,
        alpha_label=alpha.label,
        tau_label=tau.label,
        dim_l_rank=dim_rank,
        dim_l_formula=report.dim_l_formula,
        dim_m_predicted=report.dim_m,
        center_dim_exact=center_exact,
        center_dim_predicted=report.center_dim,
        closure_ok=checks.closure,
        centrality_ok=center_ok,
        orthogonality_ok=checks.orthogonality,
        dims_ok=dims_ok,
        bookkeeping_ok=bookkeeping,
        class_count_ok=class_count_ok,
        factors=report.factors,
        seconds=time.perf_counter() - t0,
        indicators=report,
    )
    if raise_on_failure and not out.all_ok:
        raise VerificationFailed(
            out.first_failure() or "unknown",
            f"context ({group.name}, {alpha.label}, {tau.label})",
        )
    return out


@dataclass(frozen=True)
class CliffordResult:
    group_name: str
    alpha_label: str
    kernel_order: int
    dim_kernel: int
    dim_intersection: int
    ok: bool


def _kernel_rows(group: GroupTable, alpha: LinearCharacter):
    """(|Ker alpha|, the Lie basis of (Ker alpha, trivial) as sparse rows
    over the elements of G)."""
    sub, embed = kernel_subgroup(group, alpha)
    ctx_f = cyclo.context(group.exponent)
    rows = [{embed[h]: c.embed(ctx_f) for h, c in v.terms.items()}
            for v in lie_basis(make_context(sub, trivial_character(sub))).vectors]
    return sub.order, rows


def verify_clifford(group: GroupTable, alpha: LinearCharacter, *,
                    trivial_basis: LieBasis | None = None,
                    alpha_basis: LieBasis | None = None,
                    raise_on_failure: bool = True) -> CliffordResult:
    """Exact subspace equality of H = L(Ker alpha) and A & B, where
    A = L(G, trivial) and B = L(G, alpha), both with tau = id.

    H = A & B exactly when every row of H lies in A and in B and
    rank H = dim A + dim B - dim(A + B), by Grassmann's formula; A + B is a
    copy of A's reduced row space with B's vectors added.  `trivial_basis`
    and `alpha_basis` are the lie_basis of A and B, built here unless the
    caller already has them; their row spaces are reduced once and reused.
    """
    if alpha.is_trivial():
        raise BadParameters("clifford check needs a nontrivial character")
    if trivial_basis is None:
        trivial_basis = lie_basis(make_context(group, trivial_character(group)))
    if alpha_basis is None:
        alpha_basis = lie_basis(make_context(group, alpha))
    space_a = trivial_basis.row_space()
    space_b = alpha_basis.row_space()
    space_sum = space_a.copy()
    for v in alpha_basis.vectors:
        space_sum.add(v.terms)
    dim_intersection = space_a.rank + space_b.rank - space_sum.rank

    kernel_order, rows = _kernel_rows(group, alpha)
    dim_kernel = RowSpace(cyclo.context(group.exponent), group.order, rows).rank
    ok = dim_kernel == dim_intersection and all(
        space_a.contains(row) and space_b.contains(row) for row in rows
    )
    result = CliffordResult(
        group_name=group.name,
        alpha_label=alpha.label,
        kernel_order=kernel_order,
        dim_kernel=dim_kernel,
        dim_intersection=dim_intersection,
        ok=ok,
    )
    if raise_on_failure and not ok:
        raise VerificationFailed("clifford", f"({group.name}, {alpha.label})")
    return result


@dataclass(frozen=True)
class KawanakaResult:
    group_name: str
    tau_label: str
    extension_name: str
    rows: tuple[dict, ...]
    ok: bool


def verify_kawanaka(group: GroupTable, tau: InvolutiveAutomorphism, *,
                    seed: int = 0,
                    table: CharacterTable | None = None,
                    report: IndicatorReport | None = None,
                    raise_on_failure: bool = True) -> KawanakaResult:
    """Check 2 F_eps(chi) = F_1(Res chi) - c_tau(Res chi) on the tau-extension.

    The extension is G extended by the order-2 group acting through tau; eps
    is its order-2 character with kernel the embedded copy of G.  Split
    restrictions additionally satisfy c_tau(chi+) = c_tau(chi-) and
    F(chi+) = F(chi-), with c_tau and F = F_1 of G read from `report`, the
    indicator_report of (G, trivial, tau), built here unless the caller
    already has it.
    """
    ext = semidirect_product(group, tau)
    table_ext = character_table(ext, seed=seed)
    cd_ext = conjugacy_data(ext)
    n = group.order

    # element g + i*n of the extension is (g, tau^i), so eps(g + i*n) = (-1)^i
    half = ext.exponent // 2
    eps = LinearCharacter(ext.exponent, (0,) * n + (half,) * n, "eps")
    f_eps = weighted_fs_indicator(table_ext, eps)

    if table is None:
        table = character_table(group, seed=seed)
    cd = conjugacy_data(group)
    ctx_ext = table_ext.context()

    # restrictions to G of the extension's irreps, as class functions of G
    res = table_ext.coeff_array[:, [cd_ext.class_of[r] for r in cd.representatives]]
    # n * F_1 and n * c_tau of each restriction, kept integral; restrictions
    # are reducible, so these are not read off as indicators
    weights = stacked_weights(group, [(None, identity_automorphism(group)), (None, tau)], ctx_ext)
    sums = scaled_sums(weights, res, ctx_ext)
    nf1, nctau = sums[:, 0], sums[:, 1]

    # decompose every restriction into irreducibles of G: n * <Res chi_i, chi_j>
    gconj_emb = cyclo.galois_array(table.coeff_array, -1, table.context(), ctx_ext)
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

    trivial = trivial_character(group)
    if report is None:
        report = indicator_report(group, table, trivial, tau)
    else:
        _check_report(report, group, trivial, tau)
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

    result = KawanakaResult(group.name, tau.label, ext.name, tuple(rows), ok)
    if raise_on_failure and not ok:
        raise VerificationFailed("kawanaka", f"({group.name}, tau={tau.label})")
    return result


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

    tau_policy: "all" (identity plus inversion where valid), "id", "inv", or
    an explicit list of automorphisms (sensible with one group).
    """
    if groups is None:
        groups = default_catalog()
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    result = SuiteResult()
    for group in groups:
        table = character_table(group, seed=seed)
        if isinstance(tau_policy, list):
            taus = tau_policy
        elif tau_policy == "all":
            taus = curated_taus(group)
        elif tau_policy == "inv":
            taus = [inversion_automorphism(group)]
        else:
            taus = [identity_automorphism(group)]
        # the tau = id basis of every linear character, shared by the
        # theorem checks with tau = id and the Clifford checks of this group
        bases = {c.exponents: lie_basis(make_context(group, c))
                 for c in linear_characters(group)}
        trivial_basis = bases[trivial_character(group).exponents]
        chars = linear_characters(group)
        if alpha_labels != "all":
            chars = [c for c in chars if c.label in alpha_labels]
        pairs = [(alpha, tau) for tau in taus for alpha in chars
                 if alpha_tau_compatible(alpha, tau)]
        # the indicator reports of all the group's contexts, as one batch
        reports = indicator_reports(group, table, pairs)
        for (alpha, tau), report in zip(pairs, reports):
            result.reports.append(
                verify_theorem(group, alpha, tau,
                               basis=bases[alpha.exponents] if tau.is_identity() else None,
                               report=report, raise_on_failure=False)
            )
        for tau in taus:
            if not tau.is_identity() and 2 * group.order <= 256:
                # the (trivial, tau) report, unless the selection left trivial out
                report = next((r for (a, t), r in zip(pairs, reports)
                               if t is tau and a.is_trivial()), None)
                result.kawanaka.append(
                    verify_kawanaka(group, tau, seed=seed, table=table, report=report,
                                    raise_on_failure=False)
                )
        for alpha in chars:
            if not alpha.is_trivial():
                result.clifford.append(
                    verify_clifford(group, alpha,
                                    trivial_basis=trivial_basis,
                                    alpha_basis=bases[alpha.exponents],
                                    raise_on_failure=False)
                )
    result.reports.sort(key=lambda r: (r.group_name, r.alpha_label, r.tau_label))
    result.clifford.sort(key=lambda r: (r.group_name, r.alpha_label))
    result.kawanaka.sort(key=lambda r: (r.group_name, r.tau_label))
    return result
