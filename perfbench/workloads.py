"""The benchmark's workloads: fixed inputs, one pass each, verdict payloads.

A pass builds its groups afresh, as every ``grouplie verify`` or
``grouplie table`` run does.  Each unit of a pass has one verdict payload:
the JSON that ``verify --format json`` emits for each report, Clifford and
Kawanaka check (timings stripped), or ``table --format json`` for each
table.  Payloads are compared through their SHA-256 digests, which keeps the
committed references small.  The workload seed only reaches grouplie's internal eigenspace-splitting
randomness, which must not change any payload.

Why these inputs (see README.md for the measured shares):

* ``suite-small`` is the order <= 24 suite of the acceptance gate: many small
  contexts with complex alpha, dominated by indicators, Clifford, the center
  and the tables.
* ``suite-large`` holds nonabelian groups of order 36-120 with few linear
  characters: closure, orthogonality, the center and Bareiss rank dominate,
  while tables and indicators stay under 5 %.
* ``tables`` is the character-table layer alone (split, lift, certify) on
  15-60 classes, with no Lie work.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

WORKLOADS = ("suite-small", "suite-large", "tables")

SUITE_SMALL_MAX_ORDER = 24

SUITE_LARGE_GROUPS = (
    "symmetric:5",
    "alternating:5",
    "product:alternating:5,cyclic:2",
    "product:symmetric:3,alternating:4",
    "product:symmetric:4,cyclic:2",
    "product:symmetric:4,cyclic:3",
    "product:symmetric:3,symmetric:3",
    "dihedral:30",
)

# (group spec, prime); None takes the default (first valid) prime.  181 is
# the second prime p = 1 (mod 60) with p^2 > 4 * 120, so S5 is computed twice
# through different modular reductions.
TABLE_INPUTS = (
    ("cyclic:48", None),
    ("cyclic:60", None),
    ("product:cyclic:4,cyclic:12", None),
    ("dihedral:60", None),
    ("product:quaternion8,cyclic:6", None),
    ("product:dihedral:4,cyclic:6", None),
    ("semidirect:cyclic:30,inv", None),
    ("symmetric:5", None),
    ("symmetric:5", 181),
)

# One group per workload, for the benchmark's self-tests.
TINY_SUITE_SMALL = ("cyclic:4",)
TINY_SUITE_LARGE = ("symmetric:3",)
TINY_TABLE_INPUTS = (("dihedral:4", None),)


@dataclass
class PassResult:
    """What one pass returned; verdicts are extracted after its timing stops."""

    reports: list = field(default_factory=list)
    clifford: list = field(default_factory=list)
    kawanaka: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    # (start, end) of each unit in time.perf_counter seconds, raw
    units: list[tuple[float, float]] = field(default_factory=list)
    error: str | None = None

    def verdicts(self) -> dict[str, tuple[str, bool]]:
        """Unit key -> (SHA-256 of the unit's canonical JSON payload, ok)."""
        out: dict[str, tuple[str, bool]] = {}

        def add(key, payload, ok):
            if key in out:
                raise ValueError(f"two verdicts share the key {key!r}")
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            out[key] = (hashlib.sha256(text.encode()).hexdigest(), ok)

        for r in self.reports:
            add(f"report {r.group_name}|{r.alpha_label}|{r.tau_label}",
                r.to_json_dict(), r.all_ok)
        for c in self.clifford:
            add(f"clifford {c.group_name}|{c.alpha_label}", _clifford_json(c), c.ok)
        for kw in self.kawanaka:
            add(f"kawanaka {kw.group_name}|{kw.tau_label}", _kawanaka_json(kw), kw.ok)
        for key, table in self.tables:
            if isinstance(table, Exception):
                add(key, {"error": f"{type(table).__name__}: {table}"}, False)
            else:
                add(key, table.to_json_dict(), True)
        return out


def _clifford_json(c) -> dict:
    """One Clifford entry exactly as ``verify --format json`` emits it."""
    return {
        "group": c.group_name,
        "alpha": c.alpha_label,
        "kernel_order": c.kernel_order,
        "dim_kernel": c.dim_kernel,
        "dim_intersection": c.dim_intersection,
        "ok": c.ok,
    }


def _kawanaka_json(kw) -> dict:
    """One Kawanaka entry exactly as ``verify --format json`` emits it."""
    return {"group": kw.group_name, "tau": kw.tau_label,
            "extension": kw.extension_name, "ok": kw.ok}


def _suite_steps(specs, max_order, seed: int, out: PassResult):
    """The suite one group at a time.

    ``run_suite`` treats each group on its own with the same seed, so
    calling it once per group gives exactly the verdicts of one call over
    all of them.  The first step builds the groups.  A unit is one
    ``verify_theorem`` call, timed around the call from outside by
    rebinding the name ``run_suite`` calls it through.
    """
    from grouplie import groups, verify
    from tracer import Bindings

    if specs is None:
        group_list = [g for g in verify.default_catalog() if g.order <= max_order]
    else:
        group_list = [groups.parse_group_spec(s) for s in specs]
    original = verify.verify_theorem

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        report = original(*args, **kwargs)
        out.units.append((t0, time.perf_counter()))
        return report

    bindings = Bindings()
    bindings.rebind_attr(verify, "verify_theorem", timed)
    try:
        yield
        for group in group_list:
            result = verify.run_suite([group], seed=seed)
            out.reports += result.reports
            out.clifford += result.clifford
            out.kawanaka += result.kawanaka
            yield
    finally:
        bindings.restore()


def _tables_steps(inputs, seed: int, out: PassResult):
    """One character table per step; a unit is one table, timed around the call."""
    from grouplie import chartable, groups

    for spec, prime in inputs:
        key = f"table {spec}@{prime or 'default'}"
        try:
            group = groups.parse_group_spec(spec)
            t0 = time.perf_counter()
            table = chartable.character_table(group, seed=seed, prime=prime)
            out.units.append((t0, time.perf_counter()))
        except Exception as exc:  # a failed unit is a failed verdict, not a crash
            table = exc
        out.tables.append((key, table))
        yield


def pass_steps(workload: str, seed: int, tiny: bool, out: PassResult):
    """One pass of `workload` as a generator that yields after each step.

    The steps fill `out`.  Between steps the caller may run code of its own
    (the host-speed probe) outside the step's timing.  grouplie is looked up
    at call time, so a tracer or fault installed by rebinding module names
    takes effect.
    """
    if workload == "suite-small":
        specs = TINY_SUITE_SMALL if tiny else None
        return _suite_steps(specs, SUITE_SMALL_MAX_ORDER, seed, out)
    if workload == "suite-large":
        return _suite_steps(TINY_SUITE_LARGE if tiny else SUITE_LARGE_GROUPS, None, seed, out)
    if workload == "tables":
        return _tables_steps(TINY_TABLE_INPUTS if tiny else TABLE_INPUTS, seed, out)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, seed: int, tiny: bool = False) -> PassResult:
    """One whole pass of `workload`, untimed."""
    out = PassResult()
    for _ in pass_steps(workload, seed, tiny, out):
        pass
    return out


def reference_name(workload: str, tiny: bool) -> str:
    return f"{workload}.tiny.json" if tiny else f"{workload}.json"
