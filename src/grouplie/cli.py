"""Command-line interface: analyze, verify, table, bessel, catalog-list."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from .bessel import deviation, exp_cyclic, exp_matrix_oracle
from .chartable import character_table
from .errors import GroupLieError, UsageError
from .groups import find_character, linear_characters, load_tau, parse_group_spec
from .indicators import indicator_reports, render_factors
from .liealg import lie_basis, make_context
from .verify import center_data, default_catalog, run_suite, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplie",
        description="Twisted Lie subalgebras of finite group algebras: "
                    "exact construction, predicted decomposition, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group_required=True):
        p.add_argument("--group", required=group_required,
                       help="catalog spec (cyclic:12, dihedral:6, symmetric:4, "
                            "alternating:5, quaternion8, frobenius21, "
                            "product:cyclic:2,cyclic:4, semidirect:cyclic:7,inv) "
                            "or a JSON file path")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        # a string default goes through type=int, so a bad GROUPLIE_SEED is a usage error
        p.add_argument("--seed", type=int, default=os.environ.get("GROUPLIE_SEED", "0"))
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="indicator + structure report for one context")
    common(p)
    p.add_argument("--alpha", default="trivial")
    p.add_argument("--tau", default="id", help="id, inv, or a JSON file with the map")

    p = sub.add_parser("verify", help="run the theorem-checking suite")
    common(p, group_required=False)
    p.add_argument("--alpha", default="all")
    p.add_argument("--tau", default="all", help="id, inv, all, or a JSON file")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("table", help="exact character table")
    common(p)
    p.add_argument("--prime", type=int, default=None)

    p = sub.add_parser("bessel", help="folded Bessel coefficients vs matrix exponential")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega-k", type=int, default=0,
                   help="omega = exp(2 pi i k / n)")
    p.add_argument("--z", default="1,0", help="complex z as re,im")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("catalog-list", help="list the stock groups")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise UsageError("bad arguments") from None
        raise
    if ns.command == "bessel":
        if ns.n < 2:
            raise UsageError(f"--n must be at least 2, got {ns.n}")
        # omega = exp(2 pi i k / n) from k as given, not reduced mod n
        try:
            ns.omega = cmath.exp(2j * cmath.pi * ns.omega_k / ns.n)
        except OverflowError:
            ns.omega = cmath.nan
        if not cmath.isfinite(ns.omega):
            raise UsageError(f"--omega-k is too large: exp(2 pi i k / {ns.n}) is not finite")
        try:
            re_s, sep, im_s = ns.z.partition(",")
            ns.z = complex(float(re_s), float(im_s if sep else "0"))
        except ValueError:
            raise UsageError(f"cannot parse --z {ns.z!r}; expected re,im") from None
        if not cmath.isfinite(ns.z):
            raise UsageError(f"--z must be finite, got {ns.z}")
        if not (math.isfinite(ns.tol) and ns.tol > 0):
            raise UsageError(f"--tol must be finite and positive, got {ns.tol}")
    return ns


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_analyze(cfg: argparse.Namespace) -> int:
    group = parse_group_spec(cfg.group)
    alpha = find_character(group, cfg.alpha)
    tau = load_tau(group, cfg.tau)
    # the context first, so an incompatible pair fails before any table is built
    ctx = make_context(group, alpha, tau)
    ind = indicator_reports(character_table(group, seed=cfg.seed), [ctx])[0]
    report = verify_theorem(lie_basis(ctx), ind, center_data([ctx])[0])
    if cfg.fmt == "json":
        _emit(_dump({
            "indicators": ind.to_json_dict(),
            "structure": report.to_json_dict(),
        }), cfg.out)
    else:
        sub = "" if alpha.is_trivial() else f"_{alpha.label}"
        twist = "" if tau.is_identity() else f",{tau.label}"
        lines = [
            f"L{sub}{twist}({group.name}) = {render_factors(ind.factors)}, "
            f"dim {report.dim_l_rank}, center {report.center_dim_exact}",
            f"  dim by rank = {report.dim_l_rank}, by census = {report.dim_l_formula}, "
            f"predicted = {report.dim_m_predicted}",
            f"  checks: {'all pass' if report.all_ok else 'FAILED ' + str(report.first_failure())}",
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if report.all_ok else EXIT_VERIFY


def cmd_verify(cfg: argparse.Namespace) -> int:
    groups = None
    if cfg.group:
        groups = [parse_group_spec(cfg.group)]
    alpha_labels = "all" if cfg.alpha == "all" else [cfg.alpha]
    if cfg.tau in ("id", "inv", "all"):
        tau_policy = cfg.tau
    else:
        if not groups:
            raise UsageError("--tau from a file requires --group")
        tau_policy = [load_tau(groups[0], cfg.tau)]
    result = run_suite(
        groups,
        max_order=cfg.max_order,
        alpha_labels=alpha_labels,
        tau_policy=tau_policy,
        seed=cfg.seed,
    )
    if not result.contexts:
        raise UsageError(
            f"no theorem context selected (alpha={cfg.alpha}, tau={cfg.tau}); a context "
            "needs a character label of the group with alpha o tau = alpha"
        )
    if cfg.fmt == "json":
        payload = {
            "contexts": result.contexts,
            "all_ok": result.all_ok,
            "reports": [r.to_json_dict(include_timing=cfg.timings) for r in result.reports],
            "clifford": [
                {
                    "group": c.group_name,
                    "alpha": c.alpha_label,
                    "kernel_order": c.kernel_order,
                    "dim_kernel": c.dim_kernel,
                    "dim_intersection": c.dim_intersection,
                    "ok": c.ok,
                }
                for c in result.clifford
            ],
            "kawanaka": [
                {
                    "group": kw.group_name,
                    "tau": kw.tau_label,
                    "extension": kw.extension_name,
                    "ok": kw.ok,
                }
                for kw in result.kawanaka
            ],
        }
        _emit(_dump(payload), cfg.out)
    else:
        lines = []
        for r in result.reports:
            status = "ok" if r.all_ok else f"FAIL ({r.first_failure()})"
            lines.append(
                f"{r.group_name:>12}  alpha={r.alpha_label:<8} tau={r.tau_label:<4} "
                f"dim {r.dim_l_rank:>3} = {r.dim_l_formula:>3} = {r.dim_m_predicted:>3}  "
                f"center {r.center_dim_exact} = {r.center_dim_predicted}  {status}"
            )
        for c in result.clifford:
            lines.append(
                f"{c.group_name:>12}  clifford alpha={c.alpha_label:<8} "
                f"dim {c.dim_kernel} = {c.dim_intersection}  {'ok' if c.ok else 'FAIL'}"
            )
        for kw in result.kawanaka:
            lines.append(
                f"{kw.group_name:>12}  kawanaka tau={kw.tau_label:<4} "
                f"on {kw.extension_name}  {'ok' if kw.ok else 'FAIL'}"
            )
        lines.append(
            f"{result.contexts} contexts, {len(result.clifford)} clifford, "
            f"{len(result.kawanaka)} kawanaka: "
            + ("all pass" if result.all_ok else "FAILURES")
        )
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if result.all_ok else EXIT_VERIFY


def cmd_table(cfg: argparse.Namespace) -> int:
    group = parse_group_spec(cfg.group)
    table = character_table(group, seed=cfg.seed, prime=cfg.prime)
    if cfg.fmt == "json":
        _emit(_dump(table.to_json_dict()), cfg.out)
        return EXIT_OK
    cd = table.class_data
    lines = [
        f"character table of {group.name} (order {group.order}, "
        f"exponent {group.exponent}, prime {table.prime})",
        "class sizes: " + " ".join(str(s) for s in cd.sizes),
    ]
    for i, values in enumerate(table.scalar_rows()):
        row = "  ".join(f"{v!r}" for v in values)
        approx = "  ".join(f"{complex(v):.6g}" for v in values)
        lines.append(f"chi_{i} (deg {table.degrees[i]}): {row}")
        lines.append(f"        ~ {approx}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_bessel(cfg: argparse.Namespace) -> int:
    expansion = exp_cyclic(cfg.n, cfg.omega, cfg.z, tol=cfg.tol)
    oracle = exp_matrix_oracle(cfg.n, cfg.omega, cfg.z)
    dev = deviation(expansion, oracle)
    if cfg.fmt == "json":
        payload = expansion.to_json_dict()
        payload["oracle"] = [[c.real, c.imag] for c in oracle]
        payload["deviation"] = dev
        payload["within_tol"] = dev <= cfg.tol
        _emit(_dump(payload), cfg.out)
    else:
        lines = [
            f"exp((z/2)(y - omega/y)) in C[Z/{cfg.n}], omega = exp(2 pi i {cfg.omega_k}/{cfg.n}), z = {cfg.z}",
            "fold:   " + "  ".join(f"{c:.12g}" for c in expansion.coefficients),
            "oracle: " + "  ".join(f"{c:.12g}" for c in oracle),
            f"deviation = {dev:.3e} (tol {cfg.tol:.1e}), tail bound {expansion.error_bound:.3e}",
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if dev <= cfg.tol else EXIT_VERIFY


def cmd_catalog_list(cfg: argparse.Namespace) -> int:
    groups = default_catalog()
    if cfg.max_order is not None:
        groups = [g for g in groups if g.order <= cfg.max_order]
    if cfg.fmt == "json":
        _emit(_dump([
            {"name": g.name, "order": g.order, "exponent": g.exponent,
             "abelian": g.is_abelian(),
             "characters": len(linear_characters(g))}
            for g in groups
        ]), cfg.out)
    else:
        lines = [
            f"{g.name:>12}  order {g.order:>3}  exponent {g.exponent:>3}  "
            f"{'abelian' if g.is_abelian() else 'nonabelian'}  "
            f"{len(linear_characters(g))} characters"
            for g in groups
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "table": cmd_table,
    "bessel": cmd_bessel,
    "catalog-list": cmd_catalog_list,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
        return _COMMANDS[cfg.command](cfg)
    except GroupLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
