"""toricfiber benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and from nowhere else.  Workloads:

* bundled_report   -- the computation behind `toricfiber pipeline report`
                      on the bundled dataset (the seed does not change it);
* fibration_family -- generated toric fibrations, one operation being
                      `flattening_stratification()` plus `is_fibration()`;
* polytope_family  -- generated lattice polytopes, one operation being
                      lattice points, facet-interior sum, section
                      restriction along every normal-fan ray and the
                      homogeneous form.

The loop is closed: one caller, one operation at a time.  Every child is a
fresh process (`child.py`), started only after the previous one ended, so
that set-up is paid cold.  A pass runs the seed's sample once, dealt over a
few children; passes repeat while another fits in `--seconds`, and there is
always at least one.  Every operation's output digest is checked against
`refs.json`.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` one traced pass is followed by an untraced pass over the
children that do not hold the slowest input; the last line holds the
per-layer metrics, including the tracing overhead, and the traced digests
must equal the untraced ones.  The line
before the last one records the environment and the run's details, and
traced spans are written under `.bench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("bundled_report", "fibration_family", "polytope_family")
CHILDREN_PER_PASS = 3      # families: the sample is dealt over this many
GUARD_S = 60               # per-operation guard deadline
RUN_LIMIT_S = 170          # no child is left running past this


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, stale references)."""


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it; p90 when
    there are too few samples for that (the handful of reports of a
    bundled_report run)."""
    return math.floor(100 - 1000 / n) if n >= 20 else 90


def quantile(values, percent: int) -> float:
    """Harrell-Davis estimate of the percentile (Biometrika 69, 1982): a
    mean of all order statistics, weighted by the mass that a
    Beta(p(n+1), (1-p)(n+1)) distribution puts on each interval
    [i/n, (i+1)/n].  It has less run-to-run noise than one order statistic
    on these small, noisy samples."""
    x = sorted(values)
    n, p = len(x), percent / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64   # midpoint rule per interval; the mass is normalised below
    density = [math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
               for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


# -- inputs ----------------------------------------------------------------------


def load_refs(workload: str) -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def make_sample(workload: str, seed: int, refs: dict):
    """[(key, docs, size)] for the run; bundled_report has one input."""
    if workload == "bundled_report":
        return [("report", [], 0)]
    items = [(gen.input_key(docs), list(docs), size)
             for docs, size in gen.universe(workload)]
    missing = [k for k, _, _ in items if k not in refs]
    if missing:
        raise BenchError(f"{len(missing)} {workload} inputs have no reference; "
                         "re-record refs.json")
    picked = gen.sample([refs[k]["ref_s"] for k, _, _ in items], seed,
                        gen.TIERS[workload])
    return [items[i] for i in picked]


def deal(sample, refs, seed: int, children: int):
    """Split a sample over children round-robin from the slowest input (by
    reference time) down, so that every child gets a like mix of easy and
    hard inputs.  The slowest input goes to the first child."""
    ranked = sorted(sample, key=lambda it: (-refs[it[0]]["ref_s"], it[0]))
    hands = [ranked[i::children] for i in range(children)]
    rng = gen.random.Random(seed)
    for h in hands:
        rng.shuffle(h)
    return hands


# -- children --------------------------------------------------------------------


def run_child(workload, batch, trace, trace_path, deadline):
    job = {"workload": workload, "src": SRC, "trace": trace,
           "trace_path": trace_path, "guard_s": GUARD_S,
           "items": [[key, docs] for key, docs, _ in batch]}
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(job),
                                    timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ops": [[key, "timeout", None, None] for key, _, _ in batch]}
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["t_import_end"] - t_spawn + res["setup_items_s"]
    return res


def hands_of(workload, sample, refs, seed):
    if workload == "bundled_report":
        return [sample]
    return deal(sample, refs, seed, CHILDREN_PER_PASS)


def run_pass(workload, hands, trace, deadline, tag, seed):
    results = []
    for i, hand in enumerate(hands):
        path = None
        if trace:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"spans-{workload}-seed{seed}-{tag}-{i}.jsonl.gz")
        results.append(run_child(workload, hand, trace, path, deadline))
    return results


# -- aggregation -----------------------------------------------------------------


def check_ops(results, refs):
    """Per input: list of op times over passes; plus failure counts."""
    times, digests = {}, {}
    attempted = failed = wrong = 0
    for res in results:
        for key, status, seconds, digest in res["ops"]:
            attempted += 1
            ok = status == "ok" and digest == refs[key]["digest"]
            if not ok:
                failed += 1
                wrong += status != "timeout"
                print(f"operation {key}: {status} {digest}", file=sys.stderr)
            else:
                times.setdefault(key, []).append(seconds)
            digests.setdefault(key, set()).add(digest)
    return times, digests, attempted, failed, wrong


def end_to_end(workload, passes, times, attempted, failed):
    """End-to-end metric values, and the number of operation samples."""
    # a pass's set-up and wall are those of all its children together; a
    # pass with a child past the run limit has neither
    complete = [p for p in passes if all("wall_s" in r for r in p)]
    setup = [sum(r["setup_s"] for r in p) for p in complete]
    walls = [sum(r["wall_s"] for r in p) for p in complete]
    rss = [r["maxrss_kb"] / 1024 for p in passes for r in p if "maxrss_kb" in r]
    if workload == "bundled_report":
        op_times = times.get("report", [])     # one sample per report
    else:
        op_times = [statistics.median(v) for v in times.values()]
    if not (setup and walls and op_times):
        raise BenchError("no operation completed")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": quantile(op_times, 50),
        "op_tail_s": quantile(op_times, tail_percentile(len(op_times))),
        "peak_rss_mb": statistics.median(rss),
        "ok_share": (attempted - failed) / attempted,
    }, len(op_times)


def per_layer(workload, traced, compared, untraced):
    """Sum the traced children's layer summaries into the metric names; the
    overhead is the traced over the untraced wall of the `compared` ones."""
    traced = [r for r in traced if "layers" in r]
    compared = [r for r in compared if "layers" in r]
    untraced = [r for r in untraced if "wall_s" in r]
    if not (traced and compared and untraced):
        raise BenchError("no traced child completed")
    acc = {}
    for r in traced:
        for k, v in r["layers"].items():
            if k.endswith("max_bits"):
                acc[k] = max(acc.get(k, 0), v)
            else:
                acc[k] = acc.get(k, 0) + v

    def ratio(num, den):
        return acc.get(num, 0) / acc[den] if acc.get(den) else 0.0

    acc["fans.locate_relint.scan_ratio"] = ratio(
        "fans.locate_relint.scanned", "fans.locate_relint.found")
    acc["polytopes.lattice_points.box_ratio"] = ratio(
        "polytopes.lattice_points.kept", "polytopes.lattice_points.box")
    acc["bundles.restrict_section_to_orbit_closure.kept_ratio"] = ratio(
        "bundles.restrict_section_to_orbit_closure.terms_kept",
        "bundles.restrict_section_to_orbit_closure.terms_in")
    acc["cli.import_s"] = statistics.median(r["import_s"] for r in traced)
    acc["data.dataset_s"] = (statistics.median(r["dataset_s"] for r in traced)
                             if workload == "bundled_report" else 0.0)
    acc["trace.overhead_ratio"] = (sum(r["wall_s"] for r in compared)
                                   / sum(r["wall_s"] for r in untraced))
    return acc


def environment(workload, seed, sample, refs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    text=True, capture_output=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "toricfiber")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_digest.update(name.encode() + b"\0" + fh.read())
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu, "commit": commit or None,
           "src_sha256": src_digest.hexdigest(), "workload": workload,
           "seed": seed, "inputs": len(sample)}
    if workload == "fibration_family":
        env["share_above_60_cones"] = sum(s > 60 for _, _, s in sample) / len(sample)
    if workload == "polytope_family":
        env["max_chart_bits"] = max(refs[k]["chart_bits"] for k, _, _ in sample)
    return env


# -- main ------------------------------------------------------------------------


def metric_names(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "toricfiber", "__init__.py")):
        raise BenchError(f"no toricfiber sources under {SRC}")
    refs = load_refs(args.workload)
    sample = make_sample(args.workload, args.seed, refs)
    env = environment(args.workload, args.seed, sample, refs)

    hands = hands_of(args.workload, sample, refs, args.seed)
    if args.trace:
        traced = run_pass(args.workload, hands, True, deadline, "traced", args.seed)
        # the overhead is measured on the hands without the slowest input,
        # to keep the run short; every traced digest is also checked against
        # refs.json, which was recorded untraced
        first = 1 if len(hands) > 1 else 0
        compared = traced[first:]
        untraced = run_pass(args.workload, hands[first:], False, deadline,
                            "untraced", args.seed)
        results = traced + untraced
        times, digests, attempted, failed, wrong = check_ops(results, refs)
        same = all(len(d) == 1 for d in digests.values())
        wrong += not same
        values = per_layer(args.workload, traced, compared, untraced)
        names = metric_names("per_layer")
        checks = [c for r in traced for c in r.get("fan_checks", [])]
        detail = {"passes": 2, "traced_digests_equal_untraced": same,
                  # pairwise validation work per fan: [maximal cones, intersections]
                  "fan_checks_above_60": sum(n for c, n in checks if c > 60),
                  "fans_above_60": sum(c > 60 for c, _ in checks),
                  "fan_checks_at_most_60": sum(n for c, n in checks if c <= 60)}
        if args.workload == "bundled_report":
            detail["fan_checks_10_cones_or_more"] = [c for c in checks if c[0] >= 10]
    else:
        passes = []
        while True:
            start = time.monotonic()
            passes.append(run_pass(args.workload, hands, False, deadline,
                                   f"p{len(passes)}", args.seed))
            took = time.monotonic() - start
            if time.monotonic() - t0 + took > args.seconds:
                break
        results = [r for p in passes for r in p]
        times, digests, attempted, failed, wrong = check_ops(results, refs)
        values, n_ops = end_to_end(args.workload, passes, times, attempted,
                                   failed)
        names = metric_names("end_to_end")
        detail = {"passes": len(passes), "children": len(results),
                  "op_samples": n_ops,
                  "op_tail_percentile": tail_percentile(n_ops)}

    detail["elapsed_s"] = time.monotonic() - t0
    print(json.dumps({"environment": env, "detail": detail}))
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
