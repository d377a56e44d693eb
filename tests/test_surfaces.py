import importlib
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import search_planar_equivalent, search_surface_label
from toricfiber import documents
from toricfiber.fans import Fan
from toricfiber.intlinalg import mat_vec, primitivize
from toricfiber.morphism import FanMap
from toricfiber.surfaces import (CATALOG_RAYS, UNKNOWN, catalog_fan,
                                 complete_fan_from_rays, fan_normal_form,
                                 identify_surface, order_counterclockwise,
                                 planar_normal_form,
                                 planar_sets_unimodular_equivalent)

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def random_unimodular(rng):
    u = [[1, 0], [0, 1]]
    for _ in range(6):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]]
        else:
            u = [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]
        if rng.random() < 0.3:
            u = [u[1], u[0]]
    return u


def test_catalog_self_identification():
    for label in CATALOG_RAYS:
        assert identify_surface(catalog_fan(label)) == label


def test_known_fan_presentations():
    assert identify_surface(
        complete_fan_from_rays([(2, 3), (-1, 0), (0, -1)])) == "WCP2(1,2,3)"
    assert identify_surface(
        complete_fan_from_rays([(1, 0), (0, 1), (-1, 2), (0, -1)])) == "F2"
    assert identify_surface(
        complete_fan_from_rays([(1, 0), (0, 1), (-1, -1)])) == "CP2"
    assert identify_surface(
        complete_fan_from_rays([(1, 3), (0, -1), (-1, 0)])) == "WCP2(1,1,3)"


def test_identification_unimodular_invariance():
    rng = random.Random(99)
    for label, rays in CATALOG_RAYS.items():
        for _ in range(10):
            u = random_unimodular(rng)
            twisted = complete_fan_from_rays([tuple(mat_vec(u, r)) for r in rays])
            assert identify_surface(twisted) == label


def test_complete_fan_from_rays_rejects_rays_that_leave_a_half_plane():
    for rays, pair in (([(1, 0), (0, 1)], "(0, 1) to its counterclockwise "
                        "neighbour (1, 0)"),
                       ([(1, 0), (0, 1), (-1, 1), (2, -1)], "(-1, 1) to its "
                        "counterclockwise neighbour (2, -1)"),
                       ([(1, 0), (0, 1), (-1, 1), (1, -1)], "(-1, 1) to its "
                        "counterclockwise neighbour (1, -1)")):
        with pytest.raises(ValueError) as err:
            complete_fan_from_rays(rays)
        assert "do not span the plane positively" in str(err.value)
        assert pair in str(err.value)


def test_unknown_surface():
    f = complete_fan_from_rays([(1, 0), (0, 1), (-1, 5), (0, -1)])
    assert identify_surface(f) == UNKNOWN


def test_identify_requires_complete_2d():
    with pytest.raises(ValueError):
        identify_surface(Fan(2, [(1, 0), (0, 1)], [[0, 1]]))
    with pytest.raises(ValueError):
        identify_surface(Fan(3, [(1, 0, 0)], [[0]]))


def test_planar_equivalence():
    a = [(0, 0), (1, 0), (2, 0), (3, 0), (3, -1)]
    b = [(0, 0), (0, 1), (0, 2), (0, 3), (-1, 3)]
    assert planar_sets_unimodular_equivalent(a, b)
    assert not planar_sets_unimodular_equivalent(
        a, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    # segments with different lattice lengths
    assert planar_sets_unimodular_equivalent([(0, 0), (1, 1)], [(2, 3), (3, 3)])
    assert not planar_sets_unimodular_equivalent(
        [(0, 0), (2, 2)], [(0, 0), (1, 0)])


def test_planar_equivalence_random_twists():
    rng = random.Random(11)
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 4)]
    for _ in range(15):
        u = random_unimodular(rng)
        shift = (rng.randint(-5, 5), rng.randint(-5, 5))
        image = [tuple(x + s for x, s in zip(mat_vec(u, p), shift)) for p in pts]
        assert planar_sets_unimodular_equivalent(pts, image)


def test_planar_equivalence_rejects_points_outside_z2():
    triangle = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(ValueError, match="must lie in Z\\^2"):
        planar_sets_unimodular_equivalent(triangle, triangle)
    with pytest.raises(ValueError, match="must lie in Z\\^2"):
        planar_sets_unimodular_equivalent([(0, 0), (1, 0)],
                                          [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="must lie in Z\\^2"):
        planar_normal_form([(0, 0), (0.5, 1)])


def test_planar_normal_forms_of_points_and_segments():
    assert planar_normal_form([(4, -7)]) == ((0, 0),)
    # lattice coordinates 0, 1, 3 along the segment, or reflected 0, 2, 3
    assert planar_normal_form([(0, 0), (2, 2), (3, 3)]) == \
        ((0, 0), (1, 0), (3, 0))
    assert planar_normal_form([(5, 1), (5, 3), (5, 4)]) == \
        ((0, 0), (1, 0), (3, 0))


# -- the normal forms against the searches they replaced

@st.composite
def unimodular(draw):
    u = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]]
        else:
            u = [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]
        if draw(st.booleans()):
            u = [u[1], u[0]]
    return u


@st.composite
def complete_ray_sets(draw):
    """A catalog entry, or the rays of P^2 and a few more primitive rays:
    every angle between neighbours stays below pi, so the rays carry a
    complete fan."""
    if draw(st.booleans()):
        return draw(st.sampled_from(list(CATALOG_RAYS.values())))
    vec = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
    extra = {primitivize(v) for v in draw(st.lists(vec, max_size=5))}
    return order_counterclockwise(extra | {(1, 0), (0, 1), (-1, -1)})


@settings(max_examples=200, deadline=None)
@given(complete_ray_sets(), unimodular(), st.integers(0, 9), st.booleans())
def test_fan_normal_form_invariance(rays, u, shift, reverse):
    k = shift % len(rays)
    moved = [tuple(mat_vec(u, r)) for r in rays[k:] + rays[:k]]
    fan = complete_fan_from_rays(moved[::-1] if reverse else moved)
    assert fan_normal_form(fan) == fan_normal_form(complete_fan_from_rays(rays))
    assert identify_surface(fan) == search_surface_label(fan.rays)


point_sets = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                      min_size=1, max_size=7)


def twisted(points, u, shift):
    return [tuple(x + s for x, s in zip(mat_vec(u, p), shift)) for p in points]


@settings(max_examples=150, deadline=None)
@given(point_sets, unimodular(),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_planar_normal_form_invariance(points, u, shift):
    assert planar_normal_form(twisted(points, u, shift)) == \
        planar_normal_form(points)


@settings(max_examples=150, deadline=None)
@given(point_sets, point_sets, unimodular(),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.booleans())
def test_planar_equivalence_matches_the_search(a, b, u, shift, twin):
    """About half the pairs are twins: b is an image of a."""
    if twin:
        b = twisted(a, u, shift)
    assert planar_sets_unimodular_equivalent(a, b) == \
        search_planar_equivalent(a, b)


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    # read the generator without writing bytecode into its directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("gen")


def test_fibration_components_match_the_search(gen):
    """One generated fibration per base: every complete surface among the
    fiber components gets the label that the catalog search gives."""
    per_base = gen.universe("fibration_family")[:len(gen.BASES)]
    surfaces = 0
    for docs, _ in per_base:
        source, _ = documents.fan_from_document(documents.parse(docs[0]))
        target, _ = documents.fan_from_document(documents.parse(docs[1]))
        phi = documents.lattice_map_from_document(documents.parse(docs[2]))
        for _, report in FanMap(phi, source, target).flattening_stratification():
            for comp in report.components:
                fan = comp.star.fan
                if fan.rank == 2 and fan.is_complete():
                    surfaces += 1
                    assert comp.label == search_surface_label(fan.rays)
    assert surfaces > 0
