"""Run the benchmark over several seeds and record medians, spreads and machine info.

    python3 perfbench/record.py --seeds 0-9 --out perfbench/results/NAME.json
    python3 perfbench/record.py --seeds 0-4 --workloads sweep      # quick spread check

For every workload it runs run.py once per seed with --trace 0, then once with
--trace 1 on the first seed. Per end-to-end metric it reports the median and
the interquartile range as a share of the median (statistics.quantiles, n=4),
the spread the benchmark's bounds are judged against. A run that is not
correct stops the recording.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode or not res["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stdout}")
    res["wall_s"] = time.perf_counter() - t0
    return res


def machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "values": values}


def breakdown(workload: str, layer: dict) -> dict:
    """The seed-state shares the first recorded run is compared against."""
    v = {k: m["value"] for k, m in layer.items()}
    traced_s = v["trace.op_ms"] * 1e-3
    if workload == "synth":
        fit = v["fitter.fit_uniform_s"] + v["fitter.fit_nonuniform_s"] + v["fitter.fit_multi_s"]
        return {"fit_share": fit / traced_s, "multi_share": v["fitter.fit_multi_s"] / traced_s}
    if workload == "resume":
        io_s = v["sampler.load_s"] + v["sampler.canonical_s"]
        return {"sample_load_plus_reserialize_s": io_s, "share": io_s / traced_s}
    return {"filter_us_p50": v["simulator.filter_us_p50"],
            "step_us_p50": v["simulator.step_us_p50"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--workloads", default="synth,resume,sweep")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", default=None, help="write the record here as JSON")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    record = {"machine": machine(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = [run_once(w, s, args.seconds, 0) for s in seeds]
        names = list(runs[0]["metrics"])
        entry = {"attempted": [r["attempted"] for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs],
                 "end_to_end": {n: dict(spread([r["metrics"][n]["value"] for r in runs]),
                                        unit=runs[0]["metrics"][n]["unit"]) for n in names}}
        for n, s in entry["end_to_end"].items():
            print(f"{w:7s} {n:12s} median {s['median']:12.4f} {s['unit']:3s} "
                  f"IQR/median {s['iqr_over_median']:.4f}  n={len(seeds)}  "
                  + " ".join(f"{x:.5g}" for x in s["values"]), flush=True)
        if not args.no_trace:
            traced = run_once(w, seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = traced["metrics"]
            entry["breakdown"] = breakdown(w, traced["metrics"])
            print(f"{w:7s} breakdown {entry['breakdown']}", flush=True)
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
