"""Benchmark runner for bskit.

    python3 bench/run.py --workload ball_n1 --seed 1 --seconds 20 --trace 0

runs whole passes of one workload until ``--seconds`` have elapsed (and at
least three passes), checks every output
against ``bench/golden.json``, and prints one JSON result as the last
stdout line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  ``--workload all`` runs every
workload in turn and prints a table.  ``--record`` rewrites the golden file
from the current source tree.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MIN_PASSES = 3     # so every operation's median has three samples


def _fail(message: str) -> "NoReturn":
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare() -> None:
    if not (SRC / "bskit" / "__init__.py").is_file():
        _fail(f"no bskit sources under {SRC}; run from a full checkout")
    os.environ.pop("BSK_MAX_BALL", None)
    sys.path.insert(0, str(SRC))
    _pin_to_one_cpu()


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    Contention differs between CPUs, and the reference loop (below) can
    only stand for the CPU the workload ran on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------
# Environment stamp

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bskit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


# ---------------------------------------------------------------------------
# Measuring

def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB.

    Read from ``VmHWM``: Linux starts a child's ``ru_maxrss`` at its
    parent's resident set at fork, so a parent larger than the benchmark
    would set that figure.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_passes(wl, state, gate, seconds, min_passes, *, traced, run_id0=0,
               between=None):
    """Whole passes until the time and the minimum pass count are both met.

    Each pass ends by timing the reference loop.  ``between`` is called
    with each finished pass; its time does not count toward ``seconds``.
    Returns (passes, per-pass tracer snapshots, attempted, failed).
    """
    from tracer import Tracer
    from workloads import PassRun

    passes, traces = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        tracer = Tracer() if traced else None
        p = PassRun(run_id0 + len(passes), tracer)
        if tracer is not None:
            tracer.install()
        try:
            wl.run_pass(state, p)
        except Exception as exc:  # the pass stops at the first error
            if not any(op.error for op in p.ops):
                attempted += 1
                failed += 1
                gate.mismatches.append(("pass", None, repr(exc)))
        finally:
            if tracer is not None:
                tracer.restore()
        for op in p.ops:
            attempted += 1
            if op.error is not None:
                failed += 1
                gate.mismatches.append((op.key, op.variant, op.error))
            elif not gate.check(op.key, op.output, op.variant):
                failed += 1
            op.output = None  # checked; keep it out of peak_rss_mb
        passes.append(p)
        p.time_reference()
        if tracer is not None:
            traces.append(dict(tracer.snapshot(),
                               stage_spans=tracer.stage_spans))
        if between is not None:
            t0 = time.perf_counter()
            between(p)
            start += time.perf_counter() - t0
    return passes, traces, attempted, failed


def nominal(seconds: float, ref: float) -> float:
    """``seconds`` measured next to a reference-loop time ``ref``, as
    seconds on a host where the loop takes ``REF_NOMINAL_S``."""
    from workloads import REF_NOMINAL_S

    return seconds * REF_NOMINAL_S / ref


def op_times(passes) -> dict:
    """Each operation's nominal time: the median over the passes of its
    time in a pass scaled by the reference time after that pass."""
    times = {}
    for p in passes:
        for op in p.ops:
            times.setdefault((op.key, op.variant), []).append(
                nominal(op.seconds, p.ref))
    return {k: statistics.median(ts) for k, ts in times.items()}


def nominal_wall(passes) -> float:
    return sum(op_times(passes).values())


def end_to_end(wl, passes, setup_samples, rss_mb) -> tuple:
    times = op_times(passes)
    wall = sum(times.values())
    latencies = [s * 1e3 for s in times.values()]
    tail = percentile(latencies, wl.tail_q)
    per_key_ms = {}
    for (key, _variant), s in times.items():
        per_key_ms[key] = per_key_ms.get(key, 0.0) + s * 1e3
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (max(p.units for p in passes) / wall, "1/s"),
        "op_p50_ms": (percentile(latencies, 0.5), "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(nominal(s, ref)
                                      for s, ref in setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"passes": len(passes), "operations": len(latencies),
            "latency_samples": sum(len(p.ops) for p in passes),
            "tail_percentile": round(wl.tail_q * 100),
            "operations_beyond_tail": sum(x > tail for x in latencies),
            "reference_s_median": statistics.median(p.ref for p in passes),
            "pass_wall_s_median": statistics.median(p.wall_s
                                                    for p in passes),
            "ops_per_s_unit": f"{wl.unit} per second",
            "setup_samples_s": [s for s, _ref in setup_samples],
            "op_ms_per_key": per_key_ms}
    return metrics, info


def per_layer(untraced, traced, traces) -> tuple:
    from tracer import layer_metrics

    per_pass = [layer_metrics(t) for t in traces]
    metrics = {name: (statistics.median(p[name] for p in per_pass),
                      _layer_unit(name))
               for name in per_pass[0]}
    metrics["trace_overhead_frac"] = (
        nominal_wall(traced) / nominal_wall(untraced), "ratio")
    counts = [{k: v for k, v in p.items() if k.endswith(".calls")}
              for p in per_pass]
    info = {"traced_passes": len(traces), "untraced_passes": len(untraced),
            "counts_repeat_across_passes": all(c == counts[0]
                                               for c in counts)}
    return metrics, info


def _cli_layer(wl, untraced) -> dict:
    """``cli.import_s`` from fresh processes; ``cli.exec_s``, the commands'
    time with the import excluded, from the untraced passes (as
    ``wall_s``)."""
    if not wl.runs_cli:
        return {"cli.import_s": (0.0, "s"), "cli.exec_s": (0.0, "s")}
    imports = [wl.import_seconds() for _ in range(SETUP_PROBES)]
    return {"cli.import_s": (statistics.median(imports), "s"),
            "cli.exec_s": (nominal_wall(untraced), "s")}


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".max_height")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("psd_margin"):
        return "eigenvalue"
    return "ratio"


def write_trace(workload, seed, traces, stamp) -> Path:
    out = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "env": stamp,
                   "passes": traces}, fh)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from golden import Gate
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    gate = Gate.load()
    stamp = env_stamp()
    state = wl.setup(seed)

    # Set-up is probed in fresh processes between the untraced passes, each
    # probe paired with the reference time of the pass just before it.
    setup_samples = []

    def probe_setup(p):
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append((wl.setup_seconds(seed), p.ref))

    budget = seconds / 2 if trace else seconds
    min_passes = 2 if trace else MIN_PASSES
    untraced, _, attempted, failed = run_passes(
        wl, state, gate, budget, min_passes, traced=False,
        between=None if trace else probe_setup)
    if trace:
        passes, traces, a2, f2 = run_passes(
            wl, state, gate, budget, 1, traced=True, run_id0=len(untraced))
        attempted, failed = attempted + a2, failed + f2
        metrics, info = per_layer(untraced, passes, traces)
        metrics.update(_cli_layer(wl, untraced))
        info["trace_file"] = str(write_trace(workload, seed, traces, stamp)
                                 .relative_to(ROOT))
    else:
        while len(setup_samples) < SETUP_PROBES:
            probe_setup(untraced[-1])
        metrics, info = end_to_end(wl, untraced, setup_samples,
                                   peak_rss_mb())

    for key, variant, detail in gate.mismatches[:5]:
        print(f"bench: MISMATCH {key}"
              + (f" [{variant}]" if variant is not None else "")
              + f": {detail!r}", file=sys.stderr)
    info.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                failed_frac=failed / attempted if attempted else 1.0,
                env=stamp)
    print(json.dumps({"info": info}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, one subprocess each; prints a table."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            status = 1
        if not lines:
            print(f"{name}: no result\n{out.stderr}")
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        print(f"{name}  correct={result['correct']}  "
              f"failed_frac={info['failed_frac']:.4g}  "
              f"({result['failed']}/{result['attempted']}, "
              f"{info['passes']} passes, tail = p{info['tail_percentile']} "
              f"of {info['operations']} operations' nominal times)")
        for metric, m in result["metrics"].items():
            print(f"    {metric:<12} {m['value']:>14.6g} {m['unit']}")
    return status


def record() -> int:
    from golden import GOLDEN_PATH, Recorder
    from workloads import WORKLOADS

    rec = Recorder()
    for wl in WORKLOADS.values():
        t0 = time.perf_counter()
        wl.record(rec)
        print(f"recorded {wl.name} in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"recorded_from": env_stamp(), "outputs": rec.outputs},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite bench/golden.json from this source tree")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _prepare()
    if args.record:
        return record()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        _fail(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        t0 = time.perf_counter()
        WORKLOADS[args.workload].setup(args.seed)
        print(repr(time.perf_counter() - t0))
        return 0
    if not (BENCH_DIR / "golden.json").is_file():
        _fail("bench/golden.json is missing; record it with --record")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
