#!/usr/bin/env python3
"""Self-test of the exaclim benchmark at reduced size (--quick).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, passes its correctness
checks and emits every metric BENCHMARK.json names with its unit; that
the traced run writes a readable chrome trace; that the fixed-order
workloads reproduce their loss bit-for-bit at one seed; and that the
checker rejects a NaN loss, diverged replica CRCs, a skipped batch (one
edited into a report, one injected for real through EXACLIM_FAULTS) and
a missing metric. Exits 0 when every check passes.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SEED = 7
SECONDS = 1

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def rejected(report, expected):
    _, failed, problems = bench.check_report(report, expected, True)
    return bool(problems), failed


def main():
    spec = bench.load_spec()
    bench.build()
    expected = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}

    reports = {}
    for workload in sorted(bench.WORKLOAD_THREADS):
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            report, summary = bench.run_driver(workload, SEED, SECONDS, trace,
                                               quick=True)
            attempted, failed, problems = bench.check_report(
                report, expected[kind], end_to_end=not trace)
            expect(not problems and failed == 0 and attempted >= 1,
                   f"{workload} trace={trace}: checks pass and every "
                   f"{kind} metric is emitted with its unit {problems}")
            reports[(workload, trace)] = report
            if trace:
                path = Path(summary["chrome_trace"])
                events = (json.loads(path.read_text())["traceEvents"]
                          if path.is_file() else [])
                expect(any(e["name"] == "train.step" for e in events) and
                       bool(summary["self_times"]),
                       f"{workload}: chrome trace with train.step spans and "
                       "self times")

    for workload in sorted(bench.FIXED_ORDER):
        again, _ = bench.run_driver(workload, SEED, SECONDS, 0, quick=True)
        first = reports[(workload, 0)]["checks"]["fingerprint_loss"]
        expect(again["checks"]["fingerprint_loss"] == first,
               f"{workload}: loss reproduces bit-for-bit at one seed "
               f"({first})")

    e2e = expected["end_to_end"]
    base = reports[("deeplab-2rank-fp16", 0)]
    nan = copy.deepcopy(base)
    nan["checks"]["nonfinite_losses"] = 1
    nan["checks"]["final_loss"] = None
    bad, failed = rejected(nan, e2e)
    expect(bad and failed >= 1, "checker rejects a NaN loss")
    crc = copy.deepcopy(base)
    crc["checks"]["replica_crcs"][1] ^= 1
    bad, failed = rejected(crc, e2e)
    expect(bad and failed >= 1, "checker rejects diverged replica CRCs")
    missing = copy.deepcopy(base)
    del missing["metrics"]["setup_s"]
    expect(rejected(missing, e2e)[0], "checker rejects a missing metric")
    zero = copy.deepcopy(base)
    zero["metrics"]["eval_samples_per_s"]["value"] = 0
    expect(rejected(zero, e2e)[0], "checker rejects a zero end-to-end metric")
    skip = copy.deepcopy(reports[("tiramisu-stream-epoch", 0)])
    skip["checks"]["pipeline_skipped"] = 1
    bad, failed = rejected(skip, e2e)
    expect(bad and failed >= 1, "checker rejects a skipped batch")

    # A real producer failure. The first six produce attempts fail; with
    # two workers holding at most two batches in flight, at least one
    # batch exhausts its try and both retries and is skipped.
    faulted, _ = bench.run_driver(
        "tiramisu-stream-epoch", SEED, SECONDS, 0, quick=True,
        extra_env={"EXACLIM_FAULTS": "pipeline.produce:1:7:6"})
    bad, failed = rejected(faulted, e2e)
    expect(bad and faulted["checks"]["pipeline_skipped"] >= 1 and failed >= 1,
           "checker rejects a run whose pipeline skipped an injected batch")

    out = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload",
         "tiramisu-1rank-fp32", "--seed", str(SEED), "--seconds",
         str(SECONDS), "--trace", "0", "--quick"],
        capture_output=True, text=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    expect(out.returncode == 0 and
           set(last) == {"correct", "attempted", "failed", "metrics"} and
           set(last["metrics"]) == set(e2e) and
           all(set(m) == {"value", "unit"} for m in last["metrics"].values()),
           "run.py prints the result line with exactly the contract keys")

    print(f"{len(failures)} self-test check(s) failed" if failures
          else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
