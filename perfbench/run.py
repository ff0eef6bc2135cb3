"""Repository benchmark: time to a checked `metacont run`, per workload.

    python3 perfbench/run.py --workload {wave2d,laws2d,solid3d} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.

Load shape: a closed loop from one process.  Each repetition runs one
`metacont.cli.run` in a fresh interpreter (perfbench/worker.py) with
METACONT_THREADS=1, because every user invocation pays the import cost and
the peak RSS must belong to one workload.  The run first starts
SETUP_SAMPLES interpreters that only import metacont and validate the
config, then repeats the workload for as long as the next repetition,
taking the median time of those before it, is expected to end within
--seconds of the start (at least once).

The whole run is pinned to one CPU.  The speed of each CPU of the host
varies by up to +-30% over seconds, independently on each CPU, so a wall
time alone does not repeat between runs.  Each repetition therefore also
times a fixed reference kernel (worker.reference_seconds, no metacont code)
just before and just after cli.run on the same CPU.

--trace 0 reports the end-to-end metrics:
    setup_s       interpreter start to an imported metacont and a validated
                  RunConfig; median over every interpreter started
    run_ref       wall time of cli.run (initial state to the last artifact)
                  over the mean of the two reference-kernel times around it;
                  median over the repetitions.  The raw run_s is printed.
    peak_rss_mb   peak resident set size of a repetition's process; median
--trace 1 alternates untraced and traced repetitions (TRACED_REPS traced,
at least one untraced) and reports the per-layer metrics of perfbench/
tracing.py, medians over the traced repetitions, plus trace.overhead_frac =
traced run_ref / untraced run_ref - 1.  The traced counts must repeat
exactly between traced repetitions.

Every repetition's artifacts are checked (workloads.check_outputs), and all
repetitions of a run must write byte-identical artifacts apart from
manifest.json.  A repetition fails if it raised or any check failed;
failed_frac = failed / attempted is printed, and `correct` is false when any
repetition failed.  Human-readable lines come first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

SETUP_SAMPLES = 5
TRACED_REPS = 2
REP_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# metric names and units; BENCHMARK.json leaves out scenarios.measure_wave_ms,
# which the trace prints, because it is 0 wherever no wave oracle runs
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PERCENTILES = (99, 95, 90, 75, 50)

def percentile_line(values) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return text + f", p{p} {cut:.6g})"
    return text + "; no percentile has 10 samples beyond it)"


def environment(workload: str) -> dict:
    """Versions, CPU and the computed size of one complex field array."""
    doc = workloads.WORKLOADS[workload](0)
    points = 1
    for n in doc["grid"]["dims"]:
        points *= n
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "METACONT_THREADS": "1",
        "grid": doc["grid"]["dims"],
        "complex_array_kib": points * 16 / 1024,
        "real_array_kib": points * 8 / 1024,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    env["note"] = ("computed array sizes; every working set fits in the last-level "
                   "cache, so no memory-bandwidth claim can rest on these workloads")
    return env


class Runner:
    """Starts repetitions of one workload and keeps their results."""

    def __init__(self, workload: str, seed: int, out_root: Path):
        self.workload, self.seed, self.out_root = workload, seed, out_root
        self.env = {**os.environ, "METACONT_THREADS": "1"}
        self.setup_s: list[float] = []
        self.reps: list[dict] = []     # parsed worker results
        self.rep_wall: list[float] = []  # seconds from start to exit of each
        self.failures: list[str] = []

    def _spawn(self, out_dir: Path, *flags: str) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out_dir), *flags]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {REP_TIMEOUT_S} s"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"exit {proc.returncode}: {tail[0]}"}
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return {"error": f"unreadable worker output: {lines[-1][:200]}"}
        self.setup_s.append(result["setup_end"] - start)
        return result

    def setup_only(self) -> None:
        result = self._spawn(self.out_root / "setup", "--setup-only")
        if "error" in result:
            self.failures.append(f"set-up: {result['error']}")

    def repetition(self, traced: bool) -> None:
        out_dir = self.out_root / f"rep_{len(self.reps):03d}"
        start = time.monotonic()
        result = self._spawn(out_dir, *(["--trace"] if traced else []))
        self.rep_wall.append(time.monotonic() - start)
        self.record(result, traced)

    def record(self, result: dict, traced: bool = False) -> None:
        """Keep one worker result; it fails if it raised, failed a check or
        wrote other artifacts than the first repetition of this run."""
        result["traced"] = traced
        if "error" in result:
            result["failures"] = [result["error"]]
        elif self.reps and "digest" in self.reps[0] \
                and result["digest"] != self.reps[0]["digest"]:
            result["failures"].append("artifacts differ from the first repetition")
        self.reps.append(result)

    def failed_frac(self) -> float:
        return sum(1 for r in self.reps if r["failures"]) / len(self.reps)


def run_ref(reps) -> float:
    """Median over repetitions of the cli.run time divided by the mean time
    of the reference kernel timed just before and just after it on the same
    CPU: the run's length in reference units.  The host's speed moves both
    times alike, so it moves their ratio far less than either time."""
    return statistics.median(r["run_s"] / statistics.mean(r["ref_s"]) for r in reps)


def trace_metrics(runner: Runner) -> dict:
    traced = [r for r in runner.reps if r["traced"] and "trace" in r]
    untraced = [r for r in runner.reps if not r["traced"] and "run_s" in r]
    if len(traced) < TRACED_REPS or not untraced:
        runner.failures.append("too few traced or untraced repetitions finished")
        return {}
    for other in traced[1:]:
        if other["trace"]["counts"] != traced[0]["trace"]["counts"]:
            runner.failures.append(
                f"traced counts differ: {traced[0]['trace']['counts']} "
                f"vs {other['trace']['counts']}")
    names = traced[0]["trace"]["metrics"]
    metrics = {
        name: {"value": statistics.median(r["trace"]["metrics"][name][0]
                                          for r in traced),
               "unit": names[name][1]}
        for name in names
    }
    overhead = run_ref(traced) / run_ref(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    print("trace counts: " + json.dumps(traced[0]["trace"]["counts"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "metacont" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/metacont",
              file=sys.stderr)
        return 2

    # one CPU for the whole run (children inherit it), so each run and the
    # reference kernel timed around it see the same CPU's speed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_root = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, out_root)
    start = time.monotonic()
    try:
        for _ in range(SETUP_SAMPLES):
            runner.setup_only()
        if args.trace:
            for _ in range(TRACED_REPS):
                runner.repetition(traced=False)
                runner.repetition(traced=True)
        while not runner.reps or (time.monotonic() - start + statistics.median(
                runner.rep_wall) <= args.seconds):
            runner.repetition(traced=False)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if out_root.parent.is_dir() and not any(out_root.parent.iterdir()):
            out_root.parent.rmdir()
    elapsed = time.monotonic() - start

    if not runner.setup_s or not any("run_s" in r for r in runner.reps):
        print("perfbench: no repetition finished: "
              + "; ".join(runner.failures + [f for r in runner.reps
                                             for f in r.get("failures", [])]),
              file=sys.stderr)
        return 1

    print(json.dumps({"environment": environment(args.workload)}, sort_keys=True))
    attempted = len(runner.reps)
    failed = sum(1 for r in runner.reps if r["failures"])
    print(f"workload {args.workload} seed {args.seed}: {attempted} repetitions "
          f"in {elapsed:.1f} s, {failed} failed, failed_frac {runner.failed_frac():.3g}")
    for r in runner.reps:
        for f in r["failures"]:
            print(f"  FAIL: {f}")

    untraced = [r for r in runner.reps if not r["traced"] and "run_s" in r]
    samples = {"setup_s": runner.setup_s,
               "run_s": [r["run_s"] for r in untraced],
               "ref_s": [t for r in untraced for t in r["ref_s"]],
               "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    for name, values in samples.items():
        if values:
            print(f"  {name:12s} {percentile_line(values)} "
                  f"{'MB' if name == 'peak_rss_mb' else 's'}; "
                  f"samples {' '.join(f'{v:.4g}' for v in values)}")

    if args.trace:
        traced = trace_metrics(runner)
        metrics = {m["name"]: traced[m["name"]] for m in BENCHMARK["per_layer"]
                   if m["name"] in traced}
        if traced and len(metrics) < len(BENCHMARK["per_layer"]):
            runner.failures.append("the trace lacks a per-layer metric")
    else:
        values = {"setup_s": statistics.median(samples["setup_s"]),
                  "run_ref": run_ref(untraced),
                  "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        print(f"  run_ref      {values['run_ref']:.6g} ref")
    for f in runner.failures:
        print(f"  FAIL: {f}")
    correct = failed == 0 and not runner.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
