#!/usr/bin/env python3
"""exaclim end-to-end benchmark: warmed training throughput on three
workloads, attributed per module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Builds perfbench/ (and the library sources it compiles) into .bench_build/
at the root of the checkout, pins the knobs the workload relies on, runs
the C++ driver, checks the correctness facts it reports and prints the
metrics. The last line of stdout is one JSON object with exactly the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A traced run also writes a chrome trace to .bench_build/traces/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "exaclim_perfbench"

# Pool size per workload, so that rank threads, pipeline workers and pool
# threads (EXACLIM_THREADS counts the calling thread) stay within 4 cores.
WORKLOAD_THREADS = {
    "tiramisu-1rank-fp32": 4,    # 1 rank thread + 3 pool workers
    "deeplab-2rank-fp16": 3,     # 2 rank threads + 2 pool workers
    "tiramisu-stream-epoch": 2,  # 1 trainer + 1 pool worker + 2 producers
}

# Knobs run_driver sets whatever the caller's environment holds.
PINNED_KNOBS = ("EXACLIM_THREADS", "EXACLIM_ALLOC_TRACK")

FIXED_ORDER = {"tiramisu-1rank-fp32", "deeplab-2rank-fp16"}

# The end-to-end metric, and the workload, each per-layer metric should
# move (BENCHMARK.json's schema has no field for it).
PER_LAYER_MOVES = {
    "nn.forward_ms": "train_samples_per_s on tiramisu-1rank-fp32 (up to its share of the step); diluted on tiramisu-stream-epoch",
    "nn.backward_ms": "train_samples_per_s on tiramisu-1rank-fp32 (up to its share of the step); diluted on tiramisu-stream-epoch",
    "nn.conv_fwd_ms": "nn.forward_ms, hence train_samples_per_s, on every workload",
    "nn.conv_bwd_ms": "nn.backward_ms, hence train_samples_per_s, on every workload",
    "nn.conv_bwd_fwd_ratio": "backward/forward cost ratio of the costliest conv; nn.backward_ms",
    "nn.eval_forward_ms": "eval_samples_per_s only",
    "tensor.gemm_conv_gflop_per_s": "train_gflop_per_s on tiramisu-1rank-fp32 and deeplab-2rank-fp16",
    "tensor.gemm_peak_gflop_per_s": "the GEMM ceiling; train_gflop_per_s on tiramisu-1rank-fp32 and deeplab-2rank-fp16",
    "tensor.gemm_conv_pct_of_peak": "train_gflop_per_s on tiramisu-1rank-fp32 and deeplab-2rank-fp16",
    "tensor.half_round_trip_gb_per_s": "step_ms_p50 on deeplab-2rank-fp16 only; FP32 workloads unchanged",
    "hvd.exchange_exposed_ms": "step_ms_p50 on deeplab-2rank-fp16 while the exchange outlasts backward; 0 elsewhere",
    "comm.bytes_per_step": "step_ms_p50 on deeplab-2rank-fp16 (exact count); 0 elsewhere",
    "comm.messages_per_step": "step_ms_p50 on deeplab-2rank-fp16 (exact count); 0 elsewhere",
    "optim.update_ms": "step_ms_p50 on deeplab-2rank-fp16; ~0 on Tiramisu",
    "optim.skipped_step_ratio": "FP16 overflow skips; convergence on deeplab-2rank-fp16; 0 on FP32",
    "data.make_batch_ms": "train_samples_per_s and eval_samples_per_s on tiramisu-stream-epoch; only setup_s elsewhere",
    "io.pipeline_wait_ms": "step_ms_p90 then train_samples_per_s on tiramisu-stream-epoch",
    "io.pipeline_ready_ratio": "step_ms_p90 on tiramisu-stream-epoch",
    "io.pipeline_produce_ms": "train_samples_per_s on tiramisu-stream-epoch",
    "train.overhead_ms": "step_ms_p50 on every workload",
    "train.step_ms_p90": "input stalls on tiramisu-stream-epoch show here before step_ms_p50; first-use scratch growth on every workload",
    "common.allocs_per_step": "step_ms_p90 and peak_rss_mib on every workload",
    "common.pool_peak_mib": "peak_rss_mib on every workload",
    "flops.train_gflop_per_sample": "analytic FLOPs per sample: train_gflop_per_s = this x train_samples_per_s",
    "flops.computed_mb_per_sample": "analytic computed (not measured) bytes per sample",
    "trace.overhead_pct": "gap between traced and untraced windows of this run",
}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to perfbench/")
    return json.loads(path.read_text())


def build():
    """Configures once, then builds incrementally; all output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the exaclim sources (src/) are not in this checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_driver(workload, seed, seconds, trace, quick, extra_env=None):
    """Runs the C++ driver; returns (report, trace_summary or None)."""
    env = dict(os.environ)
    env["EXACLIM_THREADS"] = str(WORKLOAD_THREADS[workload])
    # The traced run switches the heap census on itself, window by window.
    env["EXACLIM_ALLOC_TRACK"] = "0"
    env.update(extra_env or {})
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {seconds + 120:.0f} s", 4)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}", 4)
    report = json.loads(lines[-1])
    summary = json.loads(lines[-2]) if trace and len(lines) > 1 else None
    return report, summary


def check_report(report, expected_metrics, end_to_end):
    """Judges a driver report against the metrics BENCHMARK.json names
    (end-to-end metrics must also be positive). Returns (attempted,
    failed, problems)."""
    c = report["checks"]
    problems = []
    skipped = c["pipeline_skipped"]
    attempted = c["timed_steps"] + skipped + c["eval_passes"]
    failed = c["nonfinite_losses"] + skipped + c["eval_pixel_mismatches"]
    if c["nonfinite_losses"]:
        problems.append(f"{c['nonfinite_losses']} timed steps had a non-finite loss")
    if c["final_loss"] is None or not math.isfinite(c["final_loss"]):
        problems.append("final loss is not finite")
    crcs = c["replica_crcs"]
    if len(crcs) != report["ranks"] or len(set(crcs)) != 1:
        failed += 1
        problems.append(f"replica parameter CRCs diverged: {crcs}")
    if skipped or c["producer_failures"] or c["next_exceptions"]:
        problems.append(f"input pipeline skipped {skipped} batches "
                        f"({c['producer_failures']} producer failures)")
    if c["eval_pixel_mismatches"]:
        problems.append("an eval confusion matrix did not count exactly the "
                        "evaluated pixels")
    if c["setup_loss_mismatches"]:
        failed += c["setup_loss_mismatches"]
        problems.append("repeated set-ups from one seed gave different "
                        "warm-up losses")
    if c["timed_steps"] < 1:
        problems.append("no timed step completed")
    metrics = report["metrics"]
    for name, unit in expected_metrics.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"metric {name} missing")
        elif entry.get("unit") != unit:
            problems.append(f"metric {name} has unit {entry.get('unit')}, "
                            f"expected {unit}")
        elif entry.get("value") is None or not math.isfinite(entry["value"]):
            problems.append(f"metric {name} is not a finite number")
        elif end_to_end and entry["value"] <= 0:
            problems.append(f"metric {name} is not positive")
    return attempted, failed, problems


def print_summary(args, report, summary, problems, expected, steal_pct):
    prov = report["provenance"]
    c = report["checks"]
    print(f"exaclim perfbench: {args.workload} seed {args.seed} "
          f"trace {args.trace} ({report['ranks']} rank(s) x batch "
          f"{report['batch_per_rank']})")
    print(f"provenance: git {git_sha()}, sources {source_digest()}, "
          f"{prov['compiler']}, gemm microkernel {prov['gemm_microkernel']} "
          f"({prov['gemm_kernel_mode']}), conv {prov['conv_algorithm']}, "
          f"pool threads {prov['pool_threads']}, nproc {os.cpu_count()}, "
          f"seed {args.seed}")
    knobs = ", ".join(f"{k}={v}" + (" (pinned)" if k in PINNED_KNOBS else "")
                      for k, v in sorted(prov["knobs"].items()))
    print(f"knobs: {knobs or 'none'}")
    if steal_pct is not None:
        # Time the hypervisor gave the host's other guests: on a shared
        # host, compare runs only at similar steal.
        print(f"host steal during the run: {steal_pct:.1f}% of all CPU time")
    for name, m in report["metrics"].items():
        line = f"  {name:32s} {m['value']:14.4f} {m['unit']:10s} n={m['n']}"
        if name not in expected:
            line += "  (reported, not gated)"
        elif args.trace:
            line += f"  -> {PER_LAYER_MOVES.get(name, '')}"
        print(line)
    if summary:
        print(f"trace: {summary['chrome_trace'] or 'not written'}; conv probe "
              f"{summary['probe_conv']}, GEMM m x n x k "
              f"{summary['probe_gemm_mnk']}, half round trip over "
              f"{summary['probe_half_elements']} floats")
        print(f"tracing overhead: {summary['traced_samples_per_s']:.3f} "
              f"samples/s traced vs {summary['untraced_samples_per_s']:.3f} "
              "untraced windows")
        print("self time per span (ms): name count total self")
        for name, t in summary["self_times"].items():
            print(f"  {name:24s} {t['count']:6d} {t['total_ms']:11.2f} "
                  f"{t['self_ms']:11.2f}")
    print(f"checks: {c['timed_steps']} timed steps, final loss "
          f"{c['final_loss']}, FP16 skipped updates "
          f"{c['fp16_skipped_updates']}, replica CRCs {c['replica_crcs']}, "
          f"{c['eval_passes']} eval passes / {c['eval_samples']} samples")
    if args.workload in FIXED_ORDER:
        print(f"reproducibility: the loss after step {c['fingerprint_step']} "
              f"is {c['fingerprint_loss']}; {args.workload} must reproduce "
              "it bit-for-bit at the same seed")
    else:
        print("reproducibility: the pipeline may deliver batches out of "
              "order, so this workload's loss is only checked for finiteness")
    for p in problems:
        print(f"CHECK FAILED: {p}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args()

    spec = load_spec()
    build()
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    before = cpu_ticks()
    report, summary = run_driver(args.workload, args.seed, args.seconds,
                                 args.trace, args.quick)
    after = cpu_ticks()
    steal_pct = None
    if before and after and after[1] > before[1]:
        steal_pct = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
    attempted, failed, problems = check_report(report, expected,
                                               end_to_end=not args.trace)
    print_summary(args, report, summary, problems, expected, steal_pct)
    metrics = {name: {"value": report["metrics"][name]["value"],
                      "unit": report["metrics"][name]["unit"]}
               for name in expected if name in report["metrics"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
