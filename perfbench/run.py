#!/usr/bin/env python3
"""jitgc simulator benchmark: one command, three workloads, checked output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds the simulator library
and the runner from source (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

A run is a fixed number of repetitions, derived from --seconds and the
workload's nominal repetition length so that the inputs depend on --seed
(and --seconds) alone. Repetition 0 simulates seed --seed itself; later ones
simulate seeds derived from it, so a run averages over several inputs.

--trace 0 prints the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions of the same seeds and
prints the per-layer metrics (medians over the traced repetitions), plus
trace.overhead_s, the traced minus the untraced measured-phase time.

Every repetition's simulated output is checked: the invariants in
check_output() always, and the statistics committed in
perfbench/expected.json when its seed is recorded there (the default seed 1
and the held-out seed 2). A repetition
that crashes, mismatches or breaks an invariant counts as failed; it never
contributes a time. The last stdout line is the result object; the line
before it is an attributable record (git describe, build type, compiler,
nproc, seed, array pool threads), also appended to
<build dir>/results.jsonl.

Extra modes (not used by benchmark runs):
    --record-expected   re-record perfbench/expected.json for --workload at
                        --seed (a model-changing change does this as its own
                        benchmark change)
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

# Nominal host seconds of one untraced repetition (rep_seconds) and of one
# untraced + traced pair (pair_seconds) on the reference machine, a 4-core
# x86-64 container. They set the repetition counts, never what is simulated.
WORKLOADS = {
    "ycsb-buffered": {"rep_seconds": 1.8, "pair_seconds": 4.8},
    "oltp-tenants": {"rep_seconds": 1.4, "pair_seconds": 3.3},
    "array-fill": {"rep_seconds": 1.35, "pair_seconds": 5.4},
}
# No repetition starts after this many seconds, so a run on a slow machine
# still ends well within its 180-second limit.
DEADLINE_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_ops_per_s": "ops/s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit, in the order the runner's traced mode emits them.
PER_LAYER = {
    "sim.ctor_s": "s",
    "sim.fill_s": "s",
    "ftl.fill_pages_per_s": "pages/s",
    "ftl.fill_writes": "count",
    "nand.fill_programs": "count",
    "nand.fill_erases": "count",
    "ftl.fill_gc_cycles": "count",
    "workload.next_s": "s",
    "workload.next_calls": "count",
    "core.policy_s": "s",
    "core.policy_calls": "count",
    "host.page_cache_s": "s",
    "host.pages_flushed": "count",
    "host.absorbed_overwrites": "count",
    "ftl.gc_step_pages_per_s": "pages/s",
    "ftl.victim_select_us": "us",
    "ftl.victim_candidates_per_select": "count",
    "sim.metrics_s": "s",
    "sim.metrics_records": "count",
    "sim.metrics_bytes": "bytes",
    "sim.run_self_s": "s",
    "sim.snapshot_save_s": "s",
    "sim.snapshot_restore_s": "s",
    "sim.snapshot_bytes": "bytes",
    "sim.ops": "count",
    "nand.programs": "count",
    "nand.erases": "count",
    "ftl.gc_migrations": "count",
    "ftl.fgc_cycles": "count",
    "ftl.bgc_cycles": "count",
    "ftl.victim_selections": "count",
    "ftl.victim_candidates_visited": "count",
    "frontend.tenant0.ops": "count",
    "frontend.tenant1.ops": "count",
}

# Run-record fields pinned by perfbench/expected.json.
EXPECTED_FIELDS = ("ops", "iops", "waf", "p99_latency_us", "fgc_cycles", "bgc_cycles",
                   "pages_migrated", "nand_erases", "nand_programs")
EXPECTED_TENANT_FIELDS = ("ops", "p99_latency_us")

REP_TIMEOUT_S = 50


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def usable_cpus():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "sim" / "simulator.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, usable_cpus())))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "jitgc_perfbench"


def sim_seed(seed, rep):
    """Simulated seed of repetition `rep`: the run's own seed first, then
    seeds derived from it."""
    return seed if rep == 0 else (seed * 1000003 + rep) % (1 << 63)


def describe(binary):
    proc = subprocess.run([str(binary), "--describe"], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def run_record_text(line):
    """Raw bytes of the `run` JSONL record the runner embeds as its last
    field."""
    return line[line.index('"run_record":') + len('"run_record":'):-1]


def load_expected():
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def expected_of(record):
    out = {k: record[k] for k in EXPECTED_FIELDS}
    if "tenants" in record:
        out["tenants"] = [{k: t[k] for k in EXPECTED_TENANT_FIELDS} for t in record["tenants"]]
    return out


def check_output(rep, seed, expected):
    """Problems with one repetition's simulated output (empty = correct)."""
    rec = rep["run_record"]
    problems = []
    if rec.get("worn_out") or rec.get("elapsed_s") != rec.get("duration_s"):
        problems.append("run ended early")
    if rep["nand_programs"] != rep["host_pages_written"] + rep["pages_migrated"]:
        problems.append("NAND programs != host writes + migrations")
    if "tenants" in rec and sum(t["ops"] for t in rec["tenants"]) != rec["ops"]:
        problems.append("tenant ops do not sum to the total")
    if rec["waf"] < 1.0:
        problems.append("WAF < 1")
    want = expected.get(str(seed))
    if want is not None and expected_of(rec) != want:
        got = expected_of(rec)
        diff = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        problems.append(f"statistics differ from perfbench/expected.json: {diff}")
    return problems


def git_describe():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                               "--tags"], capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the simulator sources and the benchmark's own files."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """One benchmark invocation's runner calls: every call counts as
    attempted; crashed, mismatched or invariant-breaking calls as failed."""

    def __init__(self, binary, workload, expected):
        self.binary = binary
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()

    def invoke(self, mode, seed):
        """Runs one repetition; returns its JSON object, or an error string."""
        cmd = [str(self.binary), f"--workload={self.workload}", f"--seed={seed}",
               f"--mode={mode}"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {REP_TIMEOUT_S} s"
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        try:
            line = proc.stdout.strip().splitlines()[-1]
            out = json.loads(line)
        except (ValueError, IndexError):
            return "unparsable output"
        if "run_record" in out:
            out["run_record_text"] = run_record_text(line)
        return out

    def note_failure(self, what, problem):
        self.failed += 1
        print(f"perfbench: {self.workload} {what}: {problem}", file=sys.stderr)

    def call(self, mode, seed):
        """invoke() with the output checks; None for a failed (or, past the
        deadline, skipped) repetition."""
        if time.monotonic() - self.started > DEADLINE_S:
            return None
        self.attempted += 1
        rep = self.invoke(mode, seed)
        problems = [rep] if isinstance(rep, str) else []
        if not problems and "run_record" in rep:
            problems = check_output(rep, seed, self.expected)
        if problems:
            self.note_failure(f"{mode} seed {seed}", "; ".join(problems))
            return None
        return rep


def end_to_end(run, seed, reps):
    plain = [r for r in (run.call("plain", sim_seed(seed, i)) for i in range(reps)) if r]
    if not plain:
        return {}
    return {
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "run_ops_per_s": statistics.median([r["ops"] / r["measured_s"] for r in plain]),
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(run, seed, pairs):
    plain, traced = [], []
    for i in range(pairs):
        s = sim_seed(seed, i)
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        got = {mode: run.call(mode, s) for mode in order}
        if got["plain"] and got["traced"]:
            # Transparency: the decorators must not change the simulation.
            if got["plain"]["run_record_text"] != got["traced"]["run_record_text"]:
                run.note_failure(f"seed {s}", "traced run record differs from the untraced one")
                continue
            plain.append(got["plain"])
            traced.append(got["traced"])
    if not traced:
        return {}

    def aggregate(name, unit):
        values = [t[name] for t in traced]
        # Counts stay exact: the lower median is always one repetition's value.
        exact = unit in ("count", "bytes")
        return statistics.median_low(values) if exact else statistics.median(values)

    metrics = {name: aggregate(name, unit) for name, unit in PER_LAYER.items()
               if name != "sim.metrics_bytes"}
    # The JSONL volume of the untraced run: on oltp-tenants the policy
    # decorator hides MultiStreamJitPolicy from the simulator, so the traced
    # run writes shorter tenant_interval records.
    metrics["sim.metrics_bytes"] = statistics.median_low([p["metrics_bytes"] for p in plain])
    metrics["trace.overhead_s"] = (statistics.median([t["measured_s"] for t in traced]) -
                                   statistics.median([p["measured_s"] for p in plain]))
    return metrics


def record_expected(run, seed):
    rep = run.invoke("plain", seed)
    if isinstance(rep, str):
        fail(rep)
    expected = load_expected()
    expected.setdefault(run.workload, {})[str(seed)] = expected_of(rep["run_record"])
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"recorded {run.workload} seed {seed} in {EXPECTED_PATH.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    run = Run(binary, args.workload, load_expected().get(args.workload, {}))
    if args.record_expected:
        record_expected(run, args.seed)
        return

    spec = WORKLOADS[args.workload]
    if args.trace:
        pairs = max(2, round(args.seconds / spec["pair_seconds"]))
        metrics = per_layer(run, args.seed, pairs)
        units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
    else:
        reps = max(3, round(args.seconds / spec["rep_seconds"]))
        metrics = end_to_end(run, args.seed, reps)
        units = END_TO_END

    info = describe(binary)
    record = {
        "type": "perfbench_result",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_describe": git_describe(),
        "source_digest": source_digest(),
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "nproc": usable_cpus(),
        "array_pool_threads": info["array_pool_threads"],
        "elapsed_s": round(time.monotonic() - run.started, 3),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    with open(build_dir() / "results.jsonl", "a") as f:
        f.write(line + "\n")

    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
