"""In-process tracing of toricfiber from the outside.

`Tracer.install()` replaces public functions and methods of the library
modules with wrappers that record one span per call: name, start, end,
parent span and operation id.  Spans live in flat in-memory arrays and
are written out once, by `dump`, when the child process ends.  Self time
(span time minus the time of child spans) and counters are accumulated as
the spans close; the work of computing counters is charged to no layer.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute): what gets a span.  Methods are given as
# "Class.method" and replaced on the class; free functions are replaced in
# every library namespace that imported them.  A span name is
# "<layer>.<function>", the layer being the module that owns the work.
SPANS = [
    ("intlinalg.smith_normal_form", "intlinalg", "smith_normal_form"),
    ("intlinalg.solve_rational", "intlinalg", "solve_rational"),
    ("intlinalg.kernel_basis", "intlinalg", "kernel_basis"),
    ("intlinalg.in_sublattice_coords", "intlinalg", "in_sublattice_coords"),
    ("intlinalg.quotient_lattice", "intlinalg", "quotient_lattice"),
    ("intlinalg.mat_inverse_unimodular", "intlinalg", "mat_inverse_unimodular"),
    ("geometry.dual_description", "geometry", "dual_description"),
    # pairwise fan validation is the only caller
    ("fans.intersect_cones", "geometry", "intersect_cones"),
    ("fans.Fan.init", "fans", "Fan.__init__"),
    ("fans.locate_relint", "fans", "Fan.locate_relint"),
    ("fans.Cone.contains", "fans", "Cone.contains"),
    ("fans.Cone.contains_relint", "fans", "Cone.contains_relint"),
    ("fans.star_subdivide", "fans", "star_subdivide"),
    ("surfaces.identify_surface", "surfaces", "identify_surface"),
    ("morphism.FanMap.init", "morphism", "FanMap.__init__"),
    ("morphism.flattening_stratification", "morphism",
     "FanMap.flattening_stratification"),
    ("morphism.fiber_report", "morphism", "FanMap.fiber_report"),
    ("morphism.relative_star", "morphism", "FanMap.relative_star"),
    ("morphism.index_of", "morphism", "FanMap.index_of"),
    ("morphism.is_fibration", "morphism", "FanMap.is_fibration"),
    ("morphism.project_polytope", "morphism", "FanMap.project_polytope"),
    ("polytopes.Polytope.init", "polytopes", "Polytope.__init__"),
    ("polytopes.lattice_points", "polytopes", "Polytope.lattice_points"),
    ("polytopes.restriction_polytope", "polytopes", "restriction_polytope"),
    # the saturated basis behind every restriction and face chart
    ("polytopes.chart_basis", "polytopes", "orthogonal_complement_basis"),
    ("polytopes.normal_fan", "polytopes", "normal_fan"),
    ("bundles.restrict_section_to_orbit_closure", "bundles",
     "restrict_section_to_orbit_closure"),
    ("bundles.homogeneous_form", "bundles", "homogeneous_form"),
    ("analysis.facet_interior_sum", "analysis", "facet_interior_sum"),
    ("analysis.resolve_pipeline", "analysis", "resolve_pipeline"),
    ("documents.parse", "documents", "parse"),
]


def int_bits(rows) -> int:
    """Largest bit length of an integer in a nested sequence."""
    best = 0
    stack = [rows]
    while stack:
        x = stack.pop()
        if isinstance(x, int):
            best = max(best, abs(x).bit_length())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []     # [span index, time of children]
        self.op = -1                    # -1: set-up
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        # per constructed fan: [maximal cones, pairwise intersections run]
        self.fan_checks: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, key: str, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _wrap(self, fn, name: str, before, after):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            frame = [len(self.span_start), 0.0]
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            state = before(args) if before else None
            stack.append(frame)
            try:
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self.span_start[frame[0]] = start
                    self.span_end[frame[0]] = end
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.self_s[name] = (self.self_s.get(name, 0.0)
                                         + end - start - frame[1])
                if after:
                    after(result, args, state)
                return result
            finally:
                # the parent is charged neither for this span nor for the
                # bookkeeping around it
                if stack:
                    stack[-1][1] += perf_counter() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, package):
        modules = {m: sys.modules[f"{package.__name__}.{m}"]
                   for m in sorted({layer for _, layer, _ in SPANS} | {"cli", "data"})
                   if f"{package.__name__}.{m}" in sys.modules}
        namespaces = list(modules.values()) + [package]
        hooks = self._hooks()
        for name, layer, attr in SPANS:
            mod = modules[layer]
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(orig, name, before, after))
            else:
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, name, before, after)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, key, wrapped)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _hooks(self):
        """Counters taken at span boundaries, as (before, after) pairs:
        before(args) returns a state that after(result, args, state) gets."""
        t = self

        def snf(res, args, _):
            t.peak("intlinalg.smith_normal_form.max_bits",
                   max(int_bits(args[0]), int_bits(res.U), int_bits(res.V),
                       int_bits(list(res.diagonal))))

        def kernel(res, args, _):
            t.peak("intlinalg.kernel_basis.max_bits", int_bits(res))

        def dual(res, args, _):
            rays, lin = res
            t.count("geometry.dual_description.rays_out", len(rays))
            t.peak("geometry.dual_description.max_bits",
                   max(int_bits(rays), int_bits(lin)))

        def scans(args):
            return t.calls.get("fans.Cone.contains_relint", 0)

        def located(res, args, before):
            t.count("fans.locate_relint.scanned",
                    t.calls.get("fans.Cone.contains_relint", 0) - before)
            t.count("fans.locate_relint.found", res is not None)

        def uncached(args):
            return args[0]._lattice_points is None

        def points(res, args, scanned):
            if scanned:
                box = 1
                for lo, hi in zip(*args[0].bounding_box()):
                    box *= hi - lo + 1
                t.count("polytopes.lattice_points.kept", len(res))
                t.count("polytopes.lattice_points.box", box)

        def intersections(args):
            return t.calls.get("fans.intersect_cones", 0)

        def fan_checked(res, args, before):
            t.fan_checks.append([len(args[0].maximal_cones),
                                 t.calls.get("fans.intersect_cones", 0) - before])

        def chart(res, args, _):
            t.peak("polytopes.chart_basis.max_bits", int_bits(res))

        def restrict(res, args, _):
            t.count("bundles.restrict_section_to_orbit_closure.terms_in",
                    len(args[0].terms))
            t.count("bundles.restrict_section_to_orbit_closure.terms_kept",
                    len(res[0].terms))

        def parse(res, args, _):
            t.count("documents.parse.bytes", len(args[0].encode()))

        return {
            "intlinalg.smith_normal_form": (None, snf),
            "intlinalg.kernel_basis": (None, kernel),
            "geometry.dual_description": (None, dual),
            "fans.locate_relint": (scans, located),
            "fans.Fan.init": (intersections, fan_checked),
            "polytopes.lattice_points": (uncached, points),
            "polytopes.chart_basis": (None, chart),
            "bundles.restrict_section_to_orbit_closure": (None, restrict),
            "documents.parse": (None, parse),
        }

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counters)
        out["trace.spans"] = len(self.span_start)
        return out

    def dump(self, path: str):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(json.dumps([i, self.span_name[i], self.span_parent[i],
                                     self.span_op[i], self.span_start[i],
                                     self.span_end[i]]) + "\n")
