#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_sweep --seed 7 --seconds 15 \
        --trace 0

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt) into .bench_build/; later runs rebuild
incrementally. Each measured iteration is its own driver process, so every
iteration reports its own peak memory. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The line before it records the host, the build and the seed.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "cmake"
DRIVER = BUILD / "perfbench"
REFERENCE = BENCH / "reference_digests.json"
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's scratch files stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def serial_env():
    """The environment minus every DECLUST_* knob: one job, full configs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DECLUST_")}


def drive(mode, workload, seed, out_dir):
    """Runs one driver process; returns its JSON, or None if it failed."""
    cmd = [str(DRIVER), mode, "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=serial_env(),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Gate:
    """The correctness gate: counts attempted and failed sweep points."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.first = {}  # (sweep index, point label) -> digest
        self.points = {}  # sweep index -> points per call
        reference = json.loads(REFERENCE.read_text())
        self.reference = (reference["workloads"][workload]
                          if seed == reference["seed"] else None)

    def note(self, count, message):
        self.failed += count
        self.notes.append(message)

    def child_failed(self, mode):
        self.attempted += 1
        self.note(1, f"{mode} process failed")

    def calls(self, child):
        """Checks every sweep call of one driver process."""
        for i, call in enumerate(child["calls"]):
            if call["status"] != "OK":
                n = self.points.get(i, 1)
                self.attempted += n
                self.note(n, f"sweep {i}: {call['status']}")
                continue
            self.points[i] = call["points"]
            self.attempted += call["points"]
            manifest = json.loads(Path(call["manifest"]).read_text())
            for point in manifest["points"]:
                key = (i, point["label"])
                digest = point["digest"]
                if self.first.setdefault(key, digest) != digest:
                    self.note(1, f"sweep {i} {point['label']}: digest "
                                 f"{digest} != {self.first[key]} earlier")
                elif (self.reference is not None and
                      self.reference[i].get(point["label"]) != digest):
                    self.note(1, f"sweep {i} {point['label']}: digest "
                                 f"{digest} != reference")
            top = call["top_qps"]
            if self.workload == "paper_sweep" and not (
                    top["MAGIC"] >= top["BERD"] >= top["range"]):
                self.note(len(top), f"sweep {i}: highest-MPL throughput "
                                    f"{top} is not MAGIC >= BERD >= range")
            if self.workload == "elastic_skew" and call["pages_migrated"] <= 0:
                self.note(call["points"], f"sweep {i}: no pages migrated")


def host_meta(args, build_info, samples):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "machine": platform.machine(),
            "git_describe": describe or "unknown", "build": build_info,
            "samples": samples}


def per_layer(args, out_dir, gate, untraced_s):
    """The traced process's metrics plus the audited pass's check count."""
    values = {}
    traced = drive("trace", args.workload, args.seed, out_dir)
    if traced is None:
        gate.child_failed("trace")
    else:
        gate.calls(traced)
        if traced["traced_mismatched"]:
            gate.note(traced["traced_mismatched"],
                      "traced points differ from the runner's")
        values = dict(traced["metrics"])
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_s
    audit = drive("audit", args.workload, args.seed, out_dir)
    if audit is None:
        gate.child_failed("audit")
    else:
        gate.calls(audit)
        values["audit.checks"] = audit["audit_checks"]
        bad = audit["audit_violations"] + audit["oracle_mismatches"]
        if bad:
            gate.note(bad, "audit: " + "; ".join(audit["messages"][:4]))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    build()
    out_dir = ROOT / ".bench_build" / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    gate = Gate(args.workload, args.seed)
    setup_s, sweep_s, vmhwm_kb = [], [], []
    build_info = {}
    start = time.monotonic()
    while (len(setup_s) < MIN_ITERATIONS or
           time.monotonic() - start < args.seconds):
        child = drive("iterate", args.workload, args.seed, out_dir)
        if child is None:
            gate.child_failed("iterate")
            break
        gate.calls(child)
        setup_s.append(child["setup_s"])
        sweep_s.append(child["sweep_wall_s"])
        vmhwm_kb.append(child["vmhwm_kb"])
        build_info = child["build"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if setup_s and not args.trace:
        values = {"setup_s": statistics.median(setup_s),
                  "sweep_wall_s": statistics.median(sweep_s),
                  "peak_rss_mb": statistics.median(vmhwm_kb) / 1024.0}
    elif setup_s:
        untraced_s = statistics.median(a + b for a, b in zip(setup_s, sweep_s))
        values = per_layer(args, out_dir, gate, untraced_s)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and gate.failed == 0:
        fail(f"driver reported no value for {missing}")
    for note in gate.notes:
        print(f"perfbench: FAIL {note}", file=sys.stderr)
    samples = {"setup_s": setup_s, "sweep_wall_s": sweep_s,
               "peak_rss_mb": [kb / 1024.0 for kb in vmhwm_kb]}
    print(json.dumps({"meta": host_meta(args, build_info, samples)}))
    print(json.dumps({
        "correct": gate.failed == 0 and not missing,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], -1),
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
