import random

import pytest

from toricfiber import data
from toricfiber.fans import (Cone, Fan, fan_equal, fan_isomorphic,
                             singular_locus_cones, star, star_subdivide,
                             zero_fan)
from toricfiber.intlinalg import mat_vec


def test_base_fan_counts():
    f = data.base_fan()
    assert len(f.all_cone_indices) == 33
    assert f.f_vector() == (1, 7, 15, 10)
    assert f.is_smooth()
    assert f.is_complete()


def test_projective_line_fan():
    f = Fan(1, [(1,), (-1,)], [[0], [1]])
    assert len(f.all_cone_indices) == 3
    assert f.is_complete() and f.is_smooth()


def test_total_fan_builds_and_is_singular():
    f = data.total_fan()
    assert len(f.maximal_cones) == 54
    assert len(f.rays) == 13
    assert f.is_complete()
    assert not f.is_smooth()
    # face closure idempotent: rebuilding from all cones reproduces them
    again = Fan(f.rank, f.rays, f.maximal_cones, validate=False)
    assert set(again.all_cone_indices) == set(f.all_cone_indices)
    # golden cone count, cross-checked by direct subset enumeration
    import itertools
    subsets = {sub for c in f.maximal_cones
               for r in range(len(c) + 1)
               for sub in itertools.combinations(c, r)}
    assert len(f.all_cone_indices) == len(subsets) == 393


def test_build_rejects_non_primitive_ray():
    with pytest.raises(ValueError):
        Fan(2, [(2, 4)], [[0]])


def test_build_rejects_overlap():
    # two 2-cones overlapping in the interior, not in a face
    with pytest.raises(ValueError):
        Fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)],
                  [[0, 1], [2, 3]])


def test_multiplicities():
    assert Cone.make([(0, 0, 0, 0, -1), (0, 0, 0, 2, 3)], 5).multiplicity() == 2
    assert Cone.make([(0, 0, 0, -1, 0), (0, 0, 1, 2, 3),
                      (0, 0, 2, 2, 3)], 5).multiplicity() == 3
    assert Cone.make([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3).multiplicity() == 1


def test_multiplicity_invariance():
    rng = random.Random(5)
    gens = [(1, 0), (1, 2)]
    base = Cone.make(gens, 2).multiplicity()
    for _ in range(20):
        u = [[1, 0], [0, 1]]
        for _ in range(4):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]]
            else:
                u = [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]
        twisted = [tuple(mat_vec(u, g)) for g in gens]
        rng.shuffle(twisted)
        assert Cone.make(twisted, 2).multiplicity() == base


def test_relint_point_examples():
    assert Cone.make([], 3).relint_point() == (0, 0, 0)
    ray = Cone.make([(0, 1, 4)], 3)
    assert ray.relint_point() == (0, 1, 4)
    c = Cone.make([(0, 0, 0, -1, 0), (0, 0, 0, 2, 3)], 5)
    assert c.relint_point() == (0, 0, 0, 1, 3)


def test_contains_relint():
    c = Cone.make([(1, 0), (0, 1)], 2)
    assert c.contains_relint((1, 1))
    assert not c.contains_relint((1, 0))
    total = data.total_fan()
    for idx in total.all_cone_indices:
        cone = total.cone(idx)
        assert cone.contains_relint(cone.relint_point())
    # a ray generator is not in the relative interior of a 2-cone over it
    two = total.cone(data.total_cone("v5' b'"))
    assert not two.contains_relint(data.TOTAL_RAYS["v5'"])


def test_star_at_zero_is_self():
    f = data.base_fan()
    s = star(f, ())
    assert fan_equal(s.fan, f)


def test_star_of_singular_cones():
    total = data.total_fan()
    s = star(total, data.total_cone("v5' b'"))
    assert fan_isomorphic(s.fan, data.base_fan()) is not None
    s = star(total, data.total_cone("v4' e1' e2'"))
    assert set(s.fan.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_star_subdivide_smooth_cone():
    f = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
    g = star_subdivide(f, (1, 1))
    assert len(g.maximal_cones) == 2
    assert g.is_smooth()


def test_star_subdivide_splits_only_incident_cones():
    total = data.total_fan()
    g = star_subdivide(total, data.RESOLUTION_RAYS["b3'"])
    touched = [c for c in total.maximal_cones
               if set(data.total_cone("v5' b'")) <= set(c)]
    assert len(g.maximal_cones) == 54 + len(touched)
    untouched = [c for c in total.maximal_cones if c not in touched]
    for c in untouched:
        assert c in g.maximal_cones


def test_star_subdivide_preserves_support():
    total = data.total_fan()
    g = total
    for name in data.RESOLUTION_ORDER:
        g = star_subdivide(g, data.RESOLUTION_RAYS[name])
    for c in total.maximal_cones:
        assert g.support_contains(total.cone(c).relint_point())
    assert g.is_smooth()


def test_star_subdivide_outside_support():
    f = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(ValueError):
        star_subdivide(f, (-1, 0))


def test_singular_locus():
    total = data.total_fan()
    locus = {data.cone_name(data.total_ray_names(), c): total.cone(c).multiplicity()
             for c in singular_locus_cones(total)}
    assert locus == {"v5'.b'": 2, "v4'.b'": 3, "v4'.e1'.e2'": 3}
    assert singular_locus_cones(data.base_fan()) == []
    single = Fan(2, [(1, 0), (1, 2)], [[0, 1]])
    assert singular_locus_cones(single) == [(0, 1)]


def test_zero_fan():
    f = zero_fan(3)
    assert f.all_cone_indices == [()]
    assert not f.is_complete()
