"""Benchmark of l2limits: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the last line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.  Times are scaled to the
reference speed that ``speed.py`` samples between operations.  See
perfbench/README.md.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5      # set-ups per run: this process plus four children

NAMES = ("mc-percolated", "tower-defect", "ball-laws-flag", "cli-spectra")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def setup(args, workdir, tracer):
    """Import the program, generate the inputs, load LAPACK."""
    sys.path.insert(0, str(SRC))
    if tracer is not None:
        tracer.install()
    import l2limits
    import numpy as np
    import workloads

    if Path(l2limits.__file__).resolve().parent != SRC / "l2limits":
        raise SystemExit(f"l2limits was imported from {l2limits.__file__}, not {SRC}")
    np.linalg.eigvalsh(np.eye(4) + 1.0)
    return workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir, tracer)


def setup_child(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "l2limits" / "__init__.py").is_file():
        print(f"error: no l2limits sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        workload = setup(args, workdir, tracer)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        from checks import CheckError
        from speed import Probe

        probe = Probe()
        outputs, times, scaled, failed = [], [], [], 0
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                outputs.append(op())
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                traceback.print_exc()
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] * probe.scale(times[-1]))
        run_s = sum(scaled)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-spectra" else resource.RUSAGE_SELF
        peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0

        if tracer is not None:
            tracer.active = False
            if workload.finish is not None:
                workload.finish(tracer)
        correct = True
        check_start = time.perf_counter()
        try:
            if outputs:
                workload.check(outputs)
        except CheckError as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"wall: run {sum(times):.4f} s, median operation "
          f"{1e3 * statistics.median(times):.4f} ms; {len(probe.times)} reference searches, "
          f"median {1e3 * statistics.median(probe.times):.4f} ms")
    if tracer is None:
        setups = [setup_s] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        # A set-up is too short to sample the machine's speed on its own, so
        # set-ups, which run just before and after the operations, are scaled
        # by the speed the whole run measured.
        run_factor = run_s / sum(times)
        print("wall: set-ups " + ", ".join(f"{s:.4f}" for s in setups) + " s")
        metrics = {
            "setup_s": metric(run_factor * statistics.median(setups), "s"),
            "run_s": metric(run_s, "s"),
            "op_ms_p50": metric(1e3 * statistics.median(scaled), "ms"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
        }
    else:
        metrics = tracer.metrics()
        print(f"traced run_s = {run_s:.4f} s")
    print(f"workload {args.workload}: {len(times)} operations, {failed} failed, "
          f"correct={correct} (checks took {check_s:.2f} s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
