#!/usr/bin/env python3
"""UBfuzz repository benchmark: campaign throughput on four workloads.

    python3 perfbench/run.py --workload {ubfuzz,music,service,harden}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The first run configures and builds
perfbench/ (the core library from src/ plus the two benchmark binaries)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild incrementally.

--trace 0 prints the end-to-end metrics of the workload's timed
campaign, repeated for about S seconds; --trace 1 runs the campaign
once untraced and once through the traced mirror (perfbench_trace) and
prints the per-layer metrics. Every run checks its outputs: each
campaign's accounting invariants and pinned finding digest, the
service journal's merge against the live stats, the harden counters
(pinned exactly for the timed campaign), a check campaign on inputs
drawn from --seed, and, when traced, that the mirror's counters equal
the untraced run's. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; a failed check makes
"correct" false and the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SRC = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ubfuzz", "music", "service", "harden")

# Finding digest of each workload's timed campaign (seed 20240427).
# ubfuzz and harden share the standard 20-seed digest: harden runs the
# same seeds, UB programs and matrix, plus its two hardening phases.
PINNED_DIGESTS = {
    "ubfuzz": "e72b92eeeb0205a6",
    "music": "e03aa376787c7773",
    "service": "79b5b55ea0252174",
    "harden": "e72b92eeeb0205a6",
}

# HardenStats of each workload's timed campaign. Only harden runs the
# hardening passes and the VM fault path; the digest covers none of
# their results, so their counters are pinned here instead.
HARDEN_FIELDS = (
    "hardenPrograms", "faultsInjected", "faultsDetected", "faultsMasked",
    "faultsSdc", "driftComparisons", "driftReports",
)
NO_HARDENING = dict.fromkeys(HARDEN_FIELDS, 0)
PINNED_HARDEN = {
    "ubfuzz": NO_HARDENING,
    "music": NO_HARDENING,
    "service": NO_HARDENING,
    "harden": {
        "hardenPrograms": 20, "faultsInjected": 160, "faultsDetected": 20,
        "faultsMasked": 140, "faultsSdc": 0, "driftComparisons": 3825,
        "driftReports": 0,
    },
}

# Set-up launches per run; set-up is short, so the median of several
# launches is what keeps setup_s steady.
SETUP_LAUNCHES = 40

# A run may not leave more than this share of unit time outside the
# mirror's spans, or its per-layer shares are not an account of the
# unit's time.
MAX_UNATTRIBUTED_SHARE = 0.10

PARITY_FIELDS = (
    "lowerings", "deltaLowerings", "deltaFallbacks", "earlyOptRuns",
    "earlyOptCacheHits", "specializations", "traceExecutions",
    "ubPrograms", "nonTriggering", "noUB", "executions",
) + HARDEN_FIELDS


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build perfbench/; return the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree next to perfbench/; run from the "
                 "root of a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_SRC, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_json(cmd):
    """Run a benchmark binary; return its JSON output."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (cmd[0], done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checks:
    """Correctness bookkeeping: units attempted and units failed."""

    def __init__(self, workload):
        self.pinned_digest = PINNED_DIGESTS[workload]
        self.pinned_harden = PINNED_HARDEN[workload]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, units, why):
        self.failed += units
        self.errors.append(why)

    def campaign(self, record, what, pinned=True):
        units = record["units"]
        self.attempted += units
        # Units the supervisor lost to a crash, a timeout or quarantine.
        lost = (record["worker_crashes"] + record["worker_timeouts"] +
                record["quarantined"])
        if lost:
            self.fail(min(lost, units), "%s: %d failed unit attempts"
                      % (what, lost))
        if record["error"]:
            self.fail(units, "%s: %s" % (what, record["error"]))
        elif pinned and record["digest"] != self.pinned_digest:
            self.fail(units, "%s: finding digest %s, pinned %s"
                      % (what, record["digest"], self.pinned_digest))
        else:
            self.harden(record, what, pinned)

    def harden(self, record, what, pinned):
        h = {f: record["parity"][f] for f in HARDEN_FIELDS}
        if pinned and h != self.pinned_harden:
            self.fail(record["units"], "%s: harden counters %s, pinned %s"
                      % (what, h, self.pinned_harden))
        # On any seed, every injected fault is detected, masked or
        # silent corruption. Drift reports and silent corruptions are
        # the hardening oracle's findings, not failures: the check
        # campaign of seed 1004 reports 4 drifts, so only the timed
        # campaign's pin holds them to 0.
        elif h["faultsInjected"] != (
                h["faultsDetected"] + h["faultsMasked"] + h["faultsSdc"]):
            self.fail(record["units"], "%s: harden counters %s"
                      % (what, h))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, binaries, workdir, checks):
    exe = os.path.join(binaries, "perfbench_e2e")
    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir]
    setups = [run_json(base + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    out = run_json(base + ["--seconds", str(args.seconds)])
    setups.append(out["setup_s"])
    setup_s = statistics.median(setups)

    rounds = out["rounds"]
    for i, r in enumerate(rounds):
        checks.campaign(r, "round %d" % i)
    checks.campaign(out["check"], "check campaign (seed %d)" % args.seed,
                    pinned=False)

    wall = sum(r["wall_s"] for r in rounds)
    ub = sum(r["ub_programs"] for r in rounds)
    candidates = sum(r["ub_programs"] + r["non_triggering"] + r["no_ub"]
                     for r in rounds)
    units = sum(r["units"] for r in rounds)
    cpu = sum(r["cpu_s"] for r in rounds)
    bug_times = [r["last_new_bug_s"] for r in rounds
                 if r["last_new_bug_s"] >= 0]
    if not bug_times:
        checks.fail(0, "no round found an injected bug")
        bug_times = [0.0]
    rss_kb = max(out["max_rss_self_kb"], out["max_rss_children_kb"])
    success = 1 - checks.failed / max(checks.attempted, 1)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in rounds),
                         "s"),
        "ub_programs_per_s": metric(ub / wall, "1/s"),
        "candidates_per_s": metric(candidates / wall, "1/s"),
        "units_per_s": metric(units / wall, "1/s"),
        "time_to_last_bug_s": metric(
            setup_s + statistics.median(bug_times), "s"),
        "cpu_ms_per_ub_program": metric(1000 * cpu / max(ub, 1), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "unit_success_ratio": metric(success, "ratio"),
    }


LAYER_UNITS = {
    "calls": "count", "self_s": "s", "share": "ratio", "allocs": "count",
}


def layer_unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix in LAYER_UNITS:
        return LAYER_UNITS[suffix]
    if name.endswith("_ms"):
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "share", "yield")):
        return "ratio"
    return "count"


def traced(args, binaries, workdir, checks):
    base = ["--workload", args.workload, "--workdir", workdir]
    untraced = run_json([os.path.join(binaries, "perfbench_e2e"),
                            "--seed", str(args.seed), "--rounds", "1"] +
                           base)
    round0 = untraced["rounds"][0]
    checks.campaign(round0, "untraced round")
    checks.campaign(untraced["check"],
                    "check campaign (seed %d)" % args.seed, pinned=False)

    trace = run_json([os.path.join(binaries, "perfbench_trace")] + base)
    record = dict(trace, units=round0["units"], worker_crashes=0,
                  worker_timeouts=0, quarantined=0)
    checks.campaign(record, "traced mirror")
    for field in PARITY_FIELDS:
        if trace["parity"][field] != round0["parity"][field]:
            checks.fail(round0["units"], "traced %s = %d, untraced %d"
                        % (field, trace["parity"][field],
                           round0["parity"][field]))
    layers = dict(trace["metrics"])
    if layers["fuzzer.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        checks.fail(0, "unattributed share %.3f exceeds %.2f"
                    % (layers["fuzzer.unattributed_share"],
                       MAX_UNATTRIBUTED_SHARE))
    layers["trace.overhead_ratio"] = trace["wall_s"] / round0["wall_s"]
    return {name: metric(value, layer_unit(name))
            for name, value in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20240427)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 64 or args.seconds < 1:
        parser.error("--seed must be a uint64 and --seconds >= 1")

    binaries = build()
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    checks = Checks(args.workload)
    if args.trace:
        metrics = traced(args, binaries, workdir, checks)
    else:
        metrics = end_to_end(args, binaries, workdir, checks)

    correct = not checks.errors
    for why in checks.errors:
        log("perfbench: check failed:", why)
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
