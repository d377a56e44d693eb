"""Record the benchmark's reference outputs: `refs.json`.

    python3 perfbench/record.py [--workload NAME ...]

Runs every input of each generated universe REPEATS times, untraced,
through the same child as the benchmark, and stores per input its output
digest (which must repeat), its median operation time and one input
property.  The time only ranks inputs by difficulty for `gen.sample`, so
an input that already has one keeps it: re-recording never changes which
inputs a seed draws.  The bundled report's reference is the SHA-256 of
`python -m toricfiber.cli pipeline report` stdout.  Record only at a
commit whose outputs are trusted: the benchmark counts every later
difference as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import run
from run import GUARD_S, HERE, ROOT, SRC, gen
from tracing import int_bits

BATCH = 10
REPEATS = 3     # reference times are the median of this many runs


def chart_bits(docs) -> int:
    """Largest entry, in bits, of the chart bases an operation builds:
    the facet-interior charts and the ray restriction charts."""
    from toricfiber import documents, polytopes
    p = documents.polytope_from_document(documents.parse(docs[0]))
    best = 0
    for inc in p.facet_vertex_incidence():
        face = polytopes.face_polytope(p, inc)
        best = max(best, int_bits(polytopes.orthogonal_complement_basis(
            [e for e, _ in face.equations], p.ambient_rank)))
    for normal, _ in p.facets:
        best = max(best, int_bits(polytopes.orthogonal_complement_basis(
            [normal], p.ambient_rank)))
    return best


def record_family(workload: str, old: dict) -> dict:
    items = [(gen.input_key(docs), list(docs), size)
             for docs, size in gen.universe(workload)]
    out = {}
    for start in range(0, len(items), BATCH):
        batch = items[start:start + BATCH]
        runs = [run.run_child(workload, batch, False, None,
                              deadline=time.monotonic() + BATCH * GUARD_S)["ops"]
                for _ in range(REPEATS)]
        for i, (key, docs, size) in enumerate(batch):
            ops = [r[i] for r in runs]
            bad = [op for op in ops if op[1] != "ok" or op[3] != ops[0][3]]
            if bad:
                raise SystemExit(f"{workload} input {key}: {bad}")
            ref_s = round(statistics.median(op[2] for op in ops), 3)
            entry = {"digest": ops[0][3],
                     "ref_s": old.get(key, {}).get("ref_s", ref_s)}
            if workload == "fibration_family":
                entry["max_cones"] = size
            else:
                entry["chart_bits"] = chart_bits(docs)
            out[key] = entry
            print(workload, key, entry, flush=True)
    return out


def record_report() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "toricfiber.cli", "pipeline",
                           "report"], cwd=ROOT, env=env, capture_output=True,
                          check=True)
    return {"report": {"digest": hashlib.sha256(proc.stdout).hexdigest(),
                       "lines": proc.stdout.count(b"\n")}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    path = os.path.join(HERE, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    for workload in args.workload or run.WORKLOADS:
        refs[workload] = (record_report() if workload == "bundled_report"
                          else record_family(workload, refs.get(workload, {})))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
