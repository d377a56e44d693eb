"""The names the benchmark harness in perfbench/ binds to still exist.

The harness traces the library by patching its functions in place and
drives it through a few public names; a rename or deletion there would
otherwise show up only when the benchmark runs.
"""

import importlib
import os
import sys

import pytest

import toricfiber as tf
import toricfiber.cli as cli
from toricfiber import polytopes
from toricfiber.fans import Fan
from toricfiber.intlinalg import LatticeMap
from toricfiber.polytopes import Polytope

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    # read the harness without writing bytecode into its directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_tracer_installs_and_restores(tracing):
    original = Polytope.__dict__["lattice_points"]
    tracer = tracing.Tracer()
    tracer.install(tf)
    try:
        assert Polytope.__dict__["lattice_points"] is not original
        assert tracer.names == [name for name, _, _ in tracing.SPANS]
    finally:
        tracer.uninstall()
    assert Polytope.__dict__["lattice_points"] is original


def test_harness_names_resolve():
    for name in ("lattice_points", "normal_fan", "facet_interior_sum",
                 "restrict_section_to_orbit_closure", "homogeneous_form",
                 "FanMap"):
        assert callable(getattr(tf, name)), name
    assert callable(tf.LaurentSection.generic)
    assert callable(polytopes.face_polytope)
    assert callable(polytopes.orthogonal_complement_basis)
    assert callable(Polytope.facet_vertex_incidence)
    assert callable(cli.pipeline_report_lines)


def test_tracer_hooks_read_the_library(tracing):
    # the hooks read private state (the point cache) and the arguments of
    # Fan.__init__; a rename there must fail here, not in a benchmark run
    tracer = tracing.Tracer()
    tracer.install(tf)
    try:
        square = Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert tf.facet_interior_sum(square) == 4
        assert len(tf.lattice_points(square)) == 9
        plane = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                    [[0, 1], [1, 2], [2, 3], [3, 0]])
        line = Fan(1, [(1,), (-1,)], [[0], [1]])
        fans_before = len(tracer.fan_checks)
        m = tf.FanMap(LatticeMap.from_rows([[1, 0]]), plane, line)
        assert len(m.flattening_stratification()) == 3
    finally:
        tracer.uninstall()
    counters = tracer.summary()
    assert counters["polytopes.lattice_points.kept"] == 9
    assert counters["fans.locate_relint.found"] > 0
    assert fans_before == 2
    assert len(tracer.fan_checks) == counters["fans.Fan.init.calls"] > 2
