"""Record digests of the reference verdict payloads that every benchmark pass is checked against.

    python3 perfbench/record_reference.py

For each workload, full and tiny, one pass runs under two different pass
seeds; the payloads must be identical and every verdict ok, or nothing is
written.  Also records, per workload, the conductors m whose Q(zeta_m)
contexts a pass uses, which the worker builds during set-up.  Run it only
when a change is meant to alter a payload, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE_DIR, ROOT, pass_seed

SEEDS = (0, 1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import grouplie
    from grouplie import cyclo
    from tracer import Bindings
    from workloads import WORKLOADS, reference_name, run_pass

    seen: set[int] = set()
    original = cyclo.context

    def spy(m):
        seen.add(m)
        return original(m)

    conductors = {}
    for workload in WORKLOADS:
        for tiny in (False, True):
            payloads = []
            bindings = Bindings()
            bindings.rebind_everywhere(original, spy)
            seen.clear()
            try:
                for seed in SEEDS:
                    verdicts = run_pass(workload, pass_seed(seed, 0), tiny).verdicts()
                    bad = [k for k, (_, ok) in verdicts.items() if not ok]
                    if bad:
                        print(f"{workload}: verdicts not ok: {bad[:5]}", file=sys.stderr)
                        return 1
                    payloads.append({k: digest for k, (digest, _) in verdicts.items()})
            finally:
                bindings.restore()
            if payloads[0] != payloads[1]:
                diff = [k for k in payloads[0] if payloads[0][k] != payloads[1].get(k)]
                print(f"{workload}: payload depends on the seed: {diff[:5]}", file=sys.stderr)
                return 1
            if not tiny:
                conductors[workload] = sorted(seen)
            doc = {"workload": workload, "tiny": tiny, "grouplie": grouplie.__version__,
                   "pass_seeds": [pass_seed(s, 0) for s in SEEDS], "units": payloads[0]}
            path = REFERENCE_DIR / reference_name(workload, tiny)
            path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            print(f"{path.name}: {len(payloads[0])} verdicts")
    (REFERENCE_DIR / "conductors.json").write_text(json.dumps(conductors, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
