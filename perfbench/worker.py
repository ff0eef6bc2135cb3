"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Imports metacont from ./src, validates the workload's RunConfig, then runs
`metacont.cli.run` once and checks its artifacts.  Prints one JSON object on
the last line of stdout:

    setup_end    time.monotonic() once metacont is imported and the config
                 validated; the parent subtracts its own clock reading taken
                 just before it started this process (CLOCK_MONOTONIC is
                 shared by all processes)
    run_s        wall time of cli.run
    ref_s        wall times of reference_seconds() just before and just after
                 cli.run
    peak_rss_mb  peak resident set size of this process, taken after the run
    failures     check failures (empty when the run is correct)
    digest       sha256 of the artifacts other than manifest.json
    trace        per-layer summary (only with --trace)
"""

import argparse
import json
import os
import sys
import time

import workloads

REF_ITERATIONS = 1500


def reference_seconds() -> float:
    """Wall time of a fixed numpy/scipy.fft computation shaped like the
    program's own work: a 64x64 complex transform pair, elementwise algebra,
    and the copy plus finiteness scan of a field construction.  It calls no
    metacont code, so a change to the program moves it only by changing
    global numpy or scipy state; a change in the host's speed moves it as it
    moves the run."""
    import numpy as np
    import scipy.fft

    a = np.random.default_rng(0).standard_normal((64, 64))
    k = 1j * np.fft.fftfreq(64)[:, None]
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        b = scipy.fft.ifftn(k * scipy.fft.fftn(a)).real
        a = np.array(a + 1e-3 * b, dtype=np.float64, order="C", copy=True)
        np.isfinite(a).all()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from metacont import cli

    doc = workloads.WORKLOADS[args.workload](args.seed)
    config = cli.RunConfig.from_dict(doc, out_dir=args.out)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    import resource

    ref_before = reference_seconds()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    cli.run(config)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    ref_s = [ref_before, reference_seconds()]

    outputs = workloads.collect_outputs(args.out)
    result = {
        "setup_end": setup_end,
        "run_s": run_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": workloads.check_outputs(args.workload, outputs,
                                            config.control.t_end),
        "digest": outputs["digest"],
    }
    if tracer is not None:
        result["trace"] = tracer.summary(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
