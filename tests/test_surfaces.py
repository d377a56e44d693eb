import random

import pytest

from toricfiber.fans import Fan
from toricfiber.intlinalg import mat_vec
from toricfiber.surfaces import (CATALOG_RAYS, UNKNOWN, catalog_fan,
                                 complete_fan_from_rays, identify_surface,
                                 planar_sets_unimodular_equivalent)


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
