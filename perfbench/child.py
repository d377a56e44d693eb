"""One benchmark child process: set up the inputs, run the operations,
print one JSON line with timings, output digests and (when traced) the
per-layer summary.

The job arrives as JSON on stdin; see `run.py` for its fields.  Set-up is
the import plus the time spent turning inputs into library objects; clock
readings use `time.monotonic`, which is system-wide on Linux, so the parent
can time the import from the moment it started this process.
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time


class GuardTimeout(Exception):
    """An operation ran past the per-operation guard deadline."""


def _on_alarm(signum, frame):
    raise GuardTimeout()


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


# -- workloads ----------------------------------------------------------------
# A set-up turns one input's documents into library objects; an operation
# maps them to the value its digest covers.


def setup_bundled(tf):
    from toricfiber import data
    data.total_fan()
    data.base_fan()
    data.fibration_map()
    data.section_polytope()


def op_bundled(tf, _obj):
    from toricfiber import cli
    lines = cli.pipeline_report_lines()
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def setup_fibration(tf, docs):
    from toricfiber import documents as d
    source, _ = d.fan_from_document(d.parse(docs[0]))
    target, _ = d.fan_from_document(d.parse(docs[1]))
    phi = d.lattice_map_from_document(d.parse(docs[2]))
    return tf.FanMap(phi, source, target)


def op_fibration(tf, m):
    strata = [(sigma, rep.primitive, rep.index,
               tuple(c.label for c in rep.components))
              for sigma, rep in m.flattening_stratification()]
    cert = m.is_fibration()
    return _digest((strata, cert.is_fibration, cert.violations,
                    cert.skeleton_onto))


def setup_polytope(tf, docs):
    from toricfiber import documents as d
    p = d.polytope_from_document(d.parse(docs[0]))
    return p, tf.normal_fan(p)


def op_polytope(tf, obj):
    p, nf = obj
    points = len(tf.lattice_points(p))
    interior = tf.facet_interior_sum(p)
    section = tf.LaurentSection.generic(p)
    kept = [len(tf.restrict_section_to_orbit_closure(section, (i,), p, nf)[0])
            for i in range(len(nf.rays))]
    offsets = dict(p.facets)
    form = tf.homogeneous_form(section, p, nf, [offsets[r] for r in nf.rays])
    degrees = sorted(set(form.degree_table().values()))
    return _digest((points, interior, kept, degrees))


WORKLOADS = {
    "bundled_report": (None, op_bundled),   # set up once, by setup_bundled
    "fibration_family": (setup_fibration, op_fibration),
    "polytope_family": (setup_polytope, op_polytope),
}


def main():
    job = json.load(sys.stdin)
    workload = job["workload"]
    src = job["src"]
    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import toricfiber as tf
    import toricfiber.cli  # noqa: F401  every command pays for it
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(tf.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"toricfiber imported from {tf.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(tf)

    setup_one, op = WORKLOADS[workload]
    out = {"import_s": import_s, "t_import_end": time.monotonic(), "ops": [],
           "setup_items_s": 0.0, "wall_s": 0.0}

    t_data = time.perf_counter()
    if workload == "bundled_report":
        setup_bundled(tf)
    out["dataset_s"] = out["setup_items_s"] = time.perf_counter() - t_data

    signal.signal(signal.SIGALRM, _on_alarm)
    # each input is set up right before its operation and dropped after it,
    # so that an operation runs beside its own objects only
    for i, (key, docs) in enumerate(job["items"]):
        if tracer:
            tracer.op = i
        status, digest, op_s = "ok", None, None
        signal.alarm(job["guard_s"])
        try:
            t0 = time.perf_counter()
            try:
                obj = setup_one(tf, docs) if setup_one else None
            finally:
                t1 = time.perf_counter()
                out["setup_items_s"] += t1 - t0
            digest = op(tf, obj)
            op_s = time.perf_counter() - t1
            out["wall_s"] += op_s
        except GuardTimeout:
            status = "timeout"
        except Exception as exc:
            status, digest = "error", f"{type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
        obj = None
        out["ops"].append([key, status, op_s, digest])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["fan_checks"] = tracer.fan_checks
        if job.get("trace_path"):
            tracer.dump(job["trace_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
