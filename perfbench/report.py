"""Run the benchmark over several workloads and summarize.

    python3 perfbench/report.py --trace [--seed N]
        one untraced and one traced run per workload: every per-layer
        metric, and the tracing overhead (traced run_s over untraced run_s)
    python3 perfbench/report.py --spread 10 [--seed N]
        ten untraced runs per workload on seeds N..N+9: median and
        quartile spread (IQR / median) of every end-to-end metric, and of
        the run's wall time before scaling to the reference speed

Add ``--workload NAME`` (repeatable) to restrict the workloads and
``--raw FILE`` to keep every run's JSON line.  The run length is the one in
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    traced = [ln for ln in lines if ln.startswith("traced run_s = ")]
    if traced:
        result["traced_run_s"] = float(traced[0].split()[3])
    wall = [ln for ln in lines if ln.startswith("wall: run ")]
    result["wall_run_s"] = float(wall[0].split()[2])
    return result


def spread(names, seed, seconds, count, raw):
    print("| workload | metric | median | Q1 | Q3 | IQR/median | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        results = [run(name, seed + i, seconds, 0) for i in range(count)]
        raw.extend({"workload": name, "seed": seed + i, **r}
                   for i, r in enumerate(results))
        fails = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        columns = [(metric, first["unit"], [r["metrics"][metric]["value"] for r in results])
                   for metric, first in results[0]["metrics"].items()]
        columns.append(("unscaled wall run", "s", [r["wall_run_s"] for r in results]))
        for metric, unit, values in columns:
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {metric} ({unit}) | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} | {', '.join(fails)} |")
        sys.stdout.flush()


def traced(names, seed, seconds, raw):
    rows = {}
    overhead = {}
    for name in names:
        plain = run(name, seed, seconds, 0)
        result = run(name, seed, seconds, 1)
        raw.extend([{"workload": name, "seed": seed, **plain},
                    {"workload": name, "seed": seed, **result}])
        untraced_s = plain["metrics"]["run_s"]["value"]
        overhead[name] = (untraced_s, result["traced_run_s"])
        for metric, m in result["metrics"].items():
            rows.setdefault(metric, {"unit": m["unit"]})[name] = m["value"]
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, row in rows.items():
        cells = " | ".join(f"{row[n]:.4g}" for n in names)
        print(f"| {metric} | {row['unit']} | {cells} |")
    print()
    for name, (plain_s, traced_s) in overhead.items():
        print(f"{name}: run_s {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
              f"({100 * (traced_s / plain_s - 1):+.1f}% tracing overhead)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--spread", type=int, metavar="RUNS")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", dest="workloads")
    ap.add_argument("--raw", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    raw = []
    if args.trace:
        traced(names, args.seed, bench["run_seconds"], raw)
    else:
        spread(names, args.seed, bench["run_seconds"], args.spread, raw)
    if args.raw:
        args.raw.write_text("\n".join(json.dumps(r) for r in raw) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
