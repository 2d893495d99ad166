"""grouplie benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 32 --trace 0

Each run starts fresh single-threaded worker processes (worker.py) from the
root of a source checkout; nothing is installed.  With --trace 0 it reports
the end-to-end metrics from untraced passes; with --trace 1 it reports the
per-layer metrics of traced passes, plus the tracing overhead.  Every verdict
of every pass is checked against perfbench/reference/; a mismatch counts as
a failed verdict.  The last line of standard output is the JSON result; the
lines before it, starting with '#', repeat it for people together with the
environment record.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed in this many processes that stop once ready, plus the
# measuring process itself; setup_s is the median.
SETUP_ONLY_PROCESSES = 5
DEADLINE_S = 170.0
# Enough samples beyond the 95th percentile to report it (choosing-metrics).
P95_MIN_SAMPLES = 200

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


class Workers:
    """Starts worker processes against one deadline and always reaps them."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, **WORKER_ENV)

    def run(self, mode: str) -> tuple[float, float, dict | None]:
        """(seconds from process start to READY, the same rescaled to the
        reference host speed, the worker's JSON or None).

        The worker's READY line gives the time its host-speed probes
        (speed.py) took during set-up and their mean speed; the set-up time
        less the probes, times that speed, is the rescaled set-up.
        """
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode]
        if a.tiny:
            cmd.append("--tiny")
        if a.fault:
            cmd += ["--fault", a.fault]
        if mode == "trace" and a.spans:
            cmd += ["--spans", a.spans]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        tag, _, figures = first.partition(" ")
        if tag != "READY" or proc.returncode != 0:
            raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
        figures = json.loads(figures)
        ref_ready = (ready - figures["probe_s"]) * figures["speed"]
        if mode == "setup":
            return ready, ref_ready, None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no result")
        return ready, ref_ready, json.loads(lines[-1])


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, load_1m: float) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "workload_seed": seed,
        "loadavg_1m_at_start": load_1m,
    }


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, heaviest in the middle.

    Unit latencies cluster, with gaps between clusters; a plain median
    jumps across whichever gap sits at the middle when a few units trade
    places, and this estimate does not.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    cdf = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def unit_p50(per_pass: list[list[float]]) -> float:
    """Median latency of a unit: the Harrell-Davis median over the units of
    each unit's median over the passes.

    Every full pass has the same units in the same order.  A pass that
    raised has a single unit and is left out unless no pass is full.
    """
    sizes = [len(p) for p in per_pass]
    n = max(sizes, key=sizes.count)
    full = [p for p in per_pass if len(p) == n]
    return harrell_davis_median([statistics.median(p[i] for p in full) for i in range(n)])


def end_to_end(setups: list[tuple[float, float]], res: dict) -> tuple[dict, dict]:
    """(metrics, extra samples) of an untraced run.

    setups holds (raw, rescaled) set-up seconds; every metric time is the
    rescaled one, and the raw medians are kept beside them.
    """
    passes = res["passes"]
    unit_ms = [u for units in res["unit_ms"] for u in units]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "unit_ms_p50": (unit_p50(res["unit_ms"]), "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    extra = {"setup_s_samples": setups, "passes": passes, "unit_ms_samples": len(unit_ms),
             "raw_setup_s": statistics.median(r for r, _ in setups),
             "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
             "raw_cpu_s": statistics.median(p["raw_cpu_s"] for p in passes)}
    if len(unit_ms) >= P95_MIN_SAMPLES:
        extra["unit_ms_p95"] = statistics.quantiles(unit_ms, n=100, method="inclusive")[94]
    return metrics, extra


def per_layer(res: dict) -> tuple[dict, dict]:
    """(metrics, extra samples) of a traced run: medians over its pass pairs."""
    pairs = res["pairs"]
    metrics = {}
    for name in layer_metric_names():
        values = [p["layers"][name] for p in pairs]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:  # counts stay whole numbers; they repeat across pairs anyway
            metrics[name] = (statistics.median_low(values), "count")
    plain = statistics.median(p["plain_wall_s"] for p in pairs)
    traced = statistics.median(p["traced_wall_s"] for p in pairs)
    metrics["trace.overhead"] = (traced / plain, "ratio")
    # Shares of the traced pass, and of verify_theorem, that each module's
    # outermost spans cover: what confirms which layer a workload exercises.
    last = pairs[-1]
    theorem = last["layers"]["verify.verify_theorem.busy_s"]
    extra = {"pairs": len(pairs), "untraced_wall_s": plain, "traced_wall_s": traced,
             "spans_written": res.get("spans_written"),
             "cover_share_of_pass": {m: t / last["traced_raw_wall_s"]
                                     for m, t in last["cover_pass"].items()},
             "cover_share_of_verify_theorem": {m: t / theorem for m, t in
                                               last["cover_verify_theorem"].items()
                                               } if theorem else {}}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="one group per workload (self-tests)")
    ap.add_argument("--fault", choices=("swap-table",),
                    help="corrupt every character table from outside (self-tests)")
    ap.add_argument("--spans", help="traced run: write the last traced pass's spans here")
    ap.add_argument("--record", help="also write the full result record here")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.perf_counter()
    load_1m = os.getloadavg()[0]
    if not (ROOT / "src" / "grouplie" / "__init__.py").is_file():
        print(f"error: no grouplie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workers = Workers(args, start + DEADLINE_S)
    try:
        if args.trace:
            _, _, res = workers.run("trace")
            metrics, extra = per_layer(res)
        else:
            setups = [workers.run("setup")[:2] for _ in range(SETUP_ONLY_PROCESSES)]
            ready, ref_ready, res = workers.run("run")
            metrics, extra = end_to_end(setups + [(ready, ref_ready)], res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(environment(args.seed, load_1m), numpy=res["numpy"])
    attempted, failed = res["attempted"], res["failed"]
    extra["failed_share"] = failed / attempted
    extra["errors"] = res["errors"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, "env": env,
                  "samples": extra, "result": result}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} verdicts={attempted} "
          f"failed={failed} failed_share={extra['failed_share']:.6g}")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"#   {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"#   ({len(extra['passes'])} passes, {extra['unit_ms_samples']} units, "
              f"{len(extra['setup_s_samples'])} set-ups; times at reference host speed)")
        print(f"#   raw, not rescaled: setup_s = {extra['raw_setup_s']:.6g} s, "
              f"wall_s = {extra['raw_wall_s']:.6g} s, cpu_s = {extra['raw_cpu_s']:.6g} s")
    for scope in ("pass", "verify_theorem"):
        shares = extra.get(f"cover_share_of_{scope}")
        if shares:
            text = ", ".join(f"{m} {v:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1]))
            print(f"#   share of {scope} covered by: {text}")
    if "unit_ms_p95" in extra:
        print(f"#   unit_ms_p95 = {extra['unit_ms_p95']:.6g} ms "
              f"(n={extra['unit_ms_samples']}, not a BENCHMARK.json metric)")
    for err in extra["errors"]:
        print("# error: " + err.strip().replace("\n", "\n#   "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
