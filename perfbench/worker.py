"""One workload in one fresh single-threaded process; started by run.py.

Protocol: after importing grouplie and filling the per-conductor caches the
worker prints ``READY`` and the host-speed figures of its set-up (run.py
times process start to that line as set-up, and rescales it with them),
then runs its mode and prints one JSON line with its samples.  A host-speed
sampler (speed.py) runs from the worker's start to its end.

Modes:
  setup  stop after READY;
  run    untraced passes while the next one, taking as long as the last,
         would end within --seconds (at least two passes);
  trace  pairs of one untraced and one traced pass on the same pass seed,
         while the next pair would end within --seconds (at least one pair).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
# Two passes give every untraced run two pass seeds, and a median of more
# than one sample.
MIN_PASSES = 2


def another_fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more step lasting `last` seconds ends within the budget."""
    return time.perf_counter() - start + last <= seconds


def pass_seed(workload_seed: int, index: int) -> int:
    """Seed handed to grouplie for pass `index` of a run."""
    return 1000 * workload_seed + index


def load_reference(workload: str, tiny: bool) -> dict:
    from workloads import reference_name

    with open(REFERENCE_DIR / reference_name(workload, tiny)) as fh:
        return json.load(fh)


def verdicts_of(result) -> dict[str, tuple[str, bool]] | None:
    """The pass's verdicts, or None when the pass (or reading it) raised."""
    if result.error is not None:
        return None
    try:
        return result.verdicts()
    except Exception:
        result.error = traceback.format_exc(limit=3)
        return None


def verdict_failures(verdicts, expected: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) verdicts of one pass against expected digests.

    A verdict fails when its pass raised, it is not ok, its payload differs
    from the expected one, or it is missing; an unexpected verdict also fails.
    """
    if verdicts is None:
        return len(expected), len(expected)
    keys = set(expected) | set(verdicts)
    failed = 0
    for key in keys:
        if key not in verdicts or key not in expected:
            failed += 1
        elif not verdicts[key][1] or verdicts[key][0] != expected[key]:
            failed += 1
    return len(keys), failed


def timed_pass(workload: str, seed: int, tiny: bool):
    """(result, steps) of one pass, timed step by step.

    steps holds (start, end, CPU seconds) of each step, raw; `pass_timing`
    rescales them once the sampler has probed past the pass's end.
    """
    from workloads import PassResult, pass_steps

    out = PassResult()
    pass_iter = pass_steps(workload, seed, tiny, out)
    steps = []
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            next(pass_iter)
        except StopIteration:
            break
        except Exception:  # the whole pass counts as failed verdicts
            out.error = traceback.format_exc(limit=3)
        steps.append((w0, time.perf_counter(), time.process_time() - c0))
        if out.error:
            break
    return out, steps


def pass_timing(steps, units, sampler) -> dict:
    """Raw and rescaled times of a timed pass's steps and units.

    The raw wall and CPU seconds include the host-speed probes; the
    rescaled ones and the unit latencies are at the reference host speed
    (speed.py).
    """
    wall = cpu = ref_wall = ref_cpu = 0.0
    for w0, w1, c in steps:
        rw, rc = sampler.rescale(w0, w1, w1 - w0, c)
        wall, cpu, ref_wall, ref_cpu = wall + w1 - w0, cpu + c, ref_wall + rw, ref_cpu + rc
    unit_ms = [sampler.rescale(a, b, b - a, 0.0)[0] * 1e3 for a, b in units]
    return {"raw_wall_s": wall, "raw_cpu_s": cpu, "wall_s": ref_wall, "cpu_s": ref_cpu,
            "unit_ms": unit_ms}


def install_fault(kind: str):
    """Corrupt grouplie's output from outside, to prove the output check bites.

    swap-table: every character table comes back with two values of its last
    irrep exchanged (the degree at the identity class and the value at the
    last class).
    """
    from grouplie import chartable
    from tracer import Bindings

    if kind != "swap-table":
        raise ValueError(f"unknown fault {kind!r}")
    original = chartable.character_table

    def swapped(*args, **kwargs):
        table = original(*args, **kwargs)
        rows = [list(row) for row in table.values]
        rows[-1][0], rows[-1][-1] = rows[-1][-1], rows[-1][0]
        return dataclasses.replace(table, values=tuple(tuple(r) for r in rows))

    Bindings().rebind_everywhere(original, swapped)


def run_mode(args, reference: dict, sampler) -> dict:
    timed = []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, steps = timed_pass(args.workload, pass_seed(args.seed, len(timed)), args.tiny)
        a, f = verdict_failures(verdicts_of(result), reference["units"])
        attempted, failed = attempted + a, failed + f
        timed.append((steps, result.units, result.error))
        if len(timed) >= MIN_PASSES and not another_fits(start, time.perf_counter() - t0,
                                                         args.seconds):
            break
    passes, unit_ms = [], []
    for steps, units, error in timed:
        timing = pass_timing(steps, units, sampler)
        units = timing.pop("unit_ms")
        if error:
            # A pass that raised delivered no verdict: count it as one unit
            # that took the whole pass, so the latency figures still exist.
            errors.append(error)
            units = [timing["wall_s"] * 1e3]
        passes.append(dict(timing, units=len(units)))
        unit_ms.append(units)
    return {"passes": passes, "unit_ms": unit_ms, "attempted": attempted,
            "failed": failed, "errors": errors[:3]}


def trace_mode(args, reference: dict, sampler) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    seed = pass_seed(args.seed, 0)
    pairs, timed = [], []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain, plain_steps = timed_pass(args.workload, seed, args.tiny)
        tracer.install()
        tracer.reset()
        try:
            traced, traced_steps = timed_pass(args.workload, seed, args.tiny)
        finally:
            tracer.uninstall()
        plain_v, traced_v = verdicts_of(plain), verdicts_of(traced)
        for result, verdicts in ((plain, plain_v), (traced, traced_v)):
            a, f = verdict_failures(verdicts, reference["units"])
            attempted, failed = attempted + a, failed + f
            if result.error:
                errors.append(result.error)
        # The traced verdicts must equal the untraced ones, verdict by verdict.
        same = {k: digest for k, (digest, _) in (plain_v or {}).items()}
        a, f = verdict_failures(traced_v, same)
        attempted, failed = attempted + a, failed + f
        pairs.append({"layers": tracer.layer_metrics(),
                      "cover_pass": tracer.module_cover(),
                      "cover_verify_theorem": tracer.module_cover("verify.verify_theorem")})
        timed.append((plain_steps, traced_steps))
        if not another_fits(start, time.perf_counter() - t0, args.seconds):
            break
    for pair, (plain_steps, traced_steps) in zip(pairs, timed):
        plain_timing = pass_timing(plain_steps, [], sampler)
        traced_timing = pass_timing(traced_steps, [], sampler)
        pair.update(plain_wall_s=plain_timing["wall_s"], traced_wall_s=traced_timing["wall_s"],
                    traced_raw_wall_s=traced_timing["raw_wall_s"])
    spans = None
    if args.spans:
        spans = tracer.write_spans(args.spans)
    return {"pairs": pairs, "attempted": attempted, "failed": failed,
            "errors": errors[:3], "spans_written": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--fault")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import grouplie
    from grouplie import cyclo

    with open(REFERENCE_DIR / "conductors.json") as fh:
        conductors = json.load(fh)[args.workload]
    for m in conductors:
        cyclo.context(m)
    probe_s, _, speed, _ = sampler.window(t0, time.perf_counter())
    print("READY " + json.dumps({"probe_s": probe_s, "speed": speed}), flush=True)
    if args.mode == "setup":
        sampler.stop()
        return 0

    import numpy

    reference = load_reference(args.workload, args.tiny)
    if args.fault:
        install_fault(args.fault)
    mode = run_mode if args.mode == "run" else trace_mode
    out = mode(args, reference, sampler)
    sampler.stop()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = numpy.__version__
    out["grouplie"] = grouplie.__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
