"""Run the benchmark as a full driver pass would, and summarise it.

    python3 perfbench/baseline.py

For each workload, makes two sets of untraced runs, on seeds 1 to 10 and
11 to 20, and a traced run on the first seed of each set, all through
`run.py` exactly as the benchmark command does.  Prints, per end-to-end
metric and set, the median, the quartiles and the spread (quartile distance
over the median), and the change of the second set's median against the
first.  Writes every run's result and time, the summaries and the traced
per-layer metrics to `baseline.json`.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = (range(1, 11), range(11, 21))


def bench(workload: str, seed: int, seconds: int, trace: int):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), time.monotonic() - start


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    total_s = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        sets, traced = [], []
        for seeds in SETS:
            runs = []
            for seed in seeds:
                detail, result, took = bench(workload, seed, spec["run_seconds"], 0)
                total_s += took
                runs.append({"seed": seed, "run_s": took, "detail": detail,
                             "result": result})
                print(workload, seed, f"{took:.1f}s", result["correct"],
                      result["failed"],
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                      flush=True)
            sets.append({"summary": summarise([r["result"] for r in runs]),
                         "runs": runs})
            t_detail, t_result, took = bench(workload, seeds[0], spec["run_seconds"], 1)
            total_s += took
            traced.append({"seed": seeds[0], "run_s": took,
                           "detail": t_detail["detail"],
                           "correct": t_result["correct"],
                           "metrics": {k: v["value"]
                                       for k, v in t_result["metrics"].items()}})
        # how much worse the second set's median is than the first's
        drift = {}
        for name, first in sets[0]["summary"].items():
            a, b = first["median"], sets[1]["summary"][name]["median"]
            worse = (b - a) if better[name] == "lower" else (a - b)
            drift[name] = worse / a if a else 0.0
        for name in drift:
            print(f"  {name:14s} median {sets[0]['summary'][name]['median']:.4f}"
                  f" spread {sets[0]['summary'][name]['spread']:.3f}"
                  f" / {sets[1]['summary'][name]['spread']:.3f}"
                  f" worse {drift[name]:+.3f}")
        report["workloads"][workload] = {
            "environment": sets[0]["runs"][0]["detail"]["environment"],
            "sets": sets, "second_set_worse": drift, "traced": traced}
        report["total_run_s"] = total_s
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{total_s:.0f} s in all runs")


if __name__ == "__main__":
    main()
