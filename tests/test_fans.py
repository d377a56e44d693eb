import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (cone_extreme_rays, face_table, facet_closure,
                     quotient_star, scan_locate_relint)
from strategies import PYRAMID, SMALL_FANS
from toricfiber import data, fans
from toricfiber.fans import (Cone, Fan, fan_equal, fan_from_cones,
                             fan_isomorphic, singular_locus_cones,
                             star_subdivide, zero_fan)
from toricfiber.geometry import dual_description
from toricfiber.intlinalg import (is_zero, lin_comb, mat_det, mat_rank,
                                  mat_vec, primitivize)
from toricfiber.morphism import star
from toricfiber.polytopes import Polytope, normal_fan
from toricfiber.surfaces import catalog_fan


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


def test_listed_faces_of_other_cones_are_not_maximal():
    f = Fan(1, [(1,), (-1,)], [[0], [1], []])
    assert f.maximal_cones == ((0,), (1,))
    assert f.is_complete()
    f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0], [1]])
    assert f.maximal_cones == ((0, 1), (0, 2), (1, 2))
    assert f.is_complete() and len(f.all_cone_indices) == 7


def test_total_fan_builds_and_is_singular():
    f = data.total_fan()
    assert len(f.maximal_cones) == 54
    assert len(f.rays) == 13
    assert f.is_complete()
    assert not f.is_smooth()
    # face closure idempotent: rebuilding from all cones reproduces them
    again = Fan(f.rank, f.rays, f.maximal_cones)
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


def test_build_rejects_a_negative_rank_or_a_ray_of_another_length():
    with pytest.raises(ValueError, match="rank -1 is negative"):
        Fan(-1, [], [])
    with pytest.raises(ValueError, match=r"ray \(1, 0, 0\) has 3 "
                       "coordinates, but the fan has rank 2"):
        Fan(2, [(1, 0, 0), (0, 1, 0)], [[0, 1]])
    with pytest.raises(ValueError, match=r"ray \(1, 0\) has 2 "
                       "coordinates, but the fan has rank 3"):
        Fan(3, [(1, 0)], [[0]])
    # a bare cone is not checked: its description pairs the vectors
    with pytest.raises(ValueError, match="vectors of lengths"):
        Cone(((1, 0, 0), (0, 1, 0)), 2).halfspaces


def test_build_rejects_overlap():
    # two 2-cones overlapping in the interior, not in a face
    with pytest.raises(ValueError):
        Fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)],
                  [[0, 1], [2, 3]])


def test_build_rejects_redundant_ray():
    # (1, 1) lies inside the cone over the other two rays
    with pytest.raises(ValueError, match="redundant ray"):
        Fan(2, [(1, 0), (1, 1), (0, 1)], [[0, 1, 2]])


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
    assert fan_equal(s, f)


def test_star_of_singular_cones():
    total = data.total_fan()
    s = star(total, data.total_cone("v5' b'"))
    assert fan_isomorphic(s, data.base_fan()) is not None
    s = star(total, data.total_cone("v4' e1' e2'"))
    assert set(s.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    with pytest.raises(ValueError):
        star(total, data.total_cone("v4' v6'") + data.total_cone("v1'"))


def test_star_matches_the_quotient_star_on_the_total_fan():
    total = data.total_fan()
    for tau in total.all_cone_indices:
        got, expected = star(total, tau), quotient_star(total, tau)
        assert got.rank == expected.rank == 5 - len(tau)
        if expected.maximal_cones:
            assert fan_isomorphic(got, expected) is not None, tau
        else:
            assert got.maximal_cones == () and got.rays == ()


def test_stars_of_non_simplicial_fans_are_complete():
    octahedron = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
    cube = Polytope([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1)])
    for f in (normal_fan(octahedron), normal_fan(cube)):
        for tau in f.all_cone_indices:
            s = star(f, tau)
            assert s.is_complete(), tau
            assert s.rank == 3 - f.cone(tau).dim


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
        assert g.locate_relint(total.cone(c).relint_point()) is not None
    assert g.is_smooth()


def test_star_subdivisions_equal_fans_built_afresh():
    # each resolution fan shares its parent's cones for the index sets it
    # keeps; built again from its rays and maximal cones alone, every cone
    # must come out the same
    g = data.total_fan()
    for name in data.RESOLUTION_ORDER:
        parent, g = g, star_subdivide(g, data.RESOLUTION_RAYS[name])
        fresh = Fan(g.rank, g.rays, g.maximal_cones)
        assert fan_equal(g, fresh)
        assert g.f_vector() == fresh.f_vector()
        assert g.is_complete() and fresh.is_complete()
        assert g.all_cone_indices == fresh.all_cone_indices
        for idx in fresh.all_cone_indices:
            cone = g.cone(idx)
            assert cone.generators == tuple(g.rays[i] for i in idx)
            assert cone.halfspaces == fresh.cone(idx).halfspaces
        assert any(g.cone(c) is parent.cone(c) for c in g.maximal_cones)


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


def test_zero_fan_has_one_form():
    for r in (0, 2):
        forms = [zero_fan(r), Fan(r, [], [[]]), fan_from_cones(r, [[]])]
        for f in forms:
            assert f.maximal_cones == ()
            assert f.is_complete() == (r == 0)
            assert f.f_vector() == forms[0].f_vector() == (1,) + (0,) * r


def test_zero_fans_are_isomorphic_by_the_identity():
    for r in (0, 2):
        assert fan_isomorphic(zero_fan(r), zero_fan(r)) \
            == [[int(i == j) for j in range(r)] for i in range(r)]
    line = Fan(2, [(1, 0)], [[0]])
    assert fan_isomorphic(zero_fan(2), line) is None
    assert fan_isomorphic(line, zero_fan(2)) is None
    assert fan_isomorphic(zero_fan(0), zero_fan(2)) is None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_FANS), st.data())
def test_fan_isomorphic_finds_a_map_onto_a_lattice_image(f, picks):
    n = f.rank
    # a unimodular g from elementary row operations
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(picks.draw(st.integers(0, 6))):
        i, j = picks.draw(st.integers(0, n - 1)), picks.draw(st.integers(0, n - 1))
        if i != j:
            k = picks.draw(st.integers(-3, 3))
            g[i] = [x + k * y for x, y in zip(g[i], g[j])]
    if picks.draw(st.booleans()):
        g[0] = [-x for x in g[0]]
    order = picks.draw(st.permutations(range(len(f.rays))))
    where = {old: new for new, old in enumerate(order)}
    image = Fan(n, [mat_vec(g, f.rays[i]) for i in order],
                [[where[i] for i in c] for c in f.maximal_cones])
    u = fan_isomorphic(f, image)
    assert u is not None and abs(mat_det(u)) == 1
    assert fan_equal(Fan(n, [mat_vec(u, r) for r in f.rays], f.maximal_cones),
                     image)


def test_fan_isomorphic_rejects_fans_of_the_same_counts():
    for a, b in (("F2", "CP1xCP1"), ("CP2", "WCP2(1,1,3)")):
        f1, f2 = catalog_fan(a), catalog_fan(b)
        assert (len(f1.rays), len(f1.maximal_cones)) \
            == (len(f2.rays), len(f2.maximal_cones))
        assert fan_isomorphic(f1, f2) is None
        assert fan_isomorphic(f2, f1) is None


def test_fan_isomorphic_needs_a_simplicial_full_dimensional_anchor():
    octahedron = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
    coordinate_rays = Fan(2, [(1, 0), (0, 1)], [[0], [1]])
    for f in (normal_fan(octahedron), coordinate_rays):
        with pytest.raises(ValueError, match="anchor"):
            fan_isomorphic(f, f)


def test_fan_isomorphic_anchors_past_a_non_simplicial_first_cone():
    apex = next(c for c in PYRAMID.maximal_cones if len(c) == 4)
    order = list(apex) + [i for i in range(len(PYRAMID.rays))
                          if i not in apex]
    where = {old: new for new, old in enumerate(order)}
    f = Fan(3, [PYRAMID.rays[i] for i in order],
            [[where[i] for i in c] for c in PYRAMID.maximal_cones])
    assert len(f.maximal_cones[0]) == 4
    g = [[1, 2, 0], [0, 1, 0], [3, -1, 1]]
    image = Fan(3, [mat_vec(g, r) for r in f.rays], f.maximal_cones)
    for target in (f, image):
        u = fan_isomorphic(f, target)
        assert u is not None and abs(mat_det(u)) == 1
        assert fan_equal(Fan(3, [mat_vec(u, r) for r in f.rays],
                             f.maximal_cones), target)


def test_locate_relint_matches_scan_of_every_cone():
    octahedron = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
    cube_cones = normal_fan(octahedron)
    assert not any(cube_cones.cone(c).is_simplicial
                   for c in cube_cones.maximal_cones)
    rng = random.Random(11)
    for f in (data.total_fan(), data.base_fan(), cube_cones):
        scan = scan_locate_relint(f)
        for idx in f.all_cone_indices:
            assert f.locate_relint(f.cone(idx).relint_point()) == idx
            assert scan(f.cone(idx).relint_point()) == idx
        for _ in range(60):
            v = tuple(rng.randint(-3, 3) for _ in range(f.rank))
            assert f.locate_relint(v) == scan(v)
    # outside the support of a non-complete fan
    quadrant = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
    assert quadrant.locate_relint((-1, 1)) is None
    assert quadrant.locate_relint((0, 3)) == (1,)


def assert_faces_match_closure(f):
    """is_face on every pair of cones and proper_faces on every cone agree
    with the facet closure of the maximal cones and its pairwise inclusion
    table; every cone's faces are its facet closure."""
    table = face_table(f)
    cones = f.all_cone_indices
    assert set(table) == set(cones)
    for sigma in cones:
        assert set(f.proper_faces(sigma)) == table[sigma] - {sigma}
        for tau in cones:
            assert f.is_face(tau, sigma) == (tau in table[sigma])
        cone = f.cone(sigma)
        assert cone.face_generator_sets() == facet_closure(cone)


def test_face_relation_matches_facet_closure():
    octahedron = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
    # not simple: four facets meet at the apex, whose normal cone has four
    # rays, while the base vertices have simplicial normal cones
    pyramid = normal_fan(Polytope([(1, 1, 0), (1, -1, 0), (-1, 1, 0),
                                   (-1, -1, 0), (0, 0, 1)]))
    assert sorted(len(c) for c in pyramid.maximal_cones) == [3, 3, 3, 3, 4]
    for f in (data.total_fan(), data.base_fan(), normal_fan(octahedron),
              pyramid):
        assert_faces_match_closure(f)


@st.composite
def generator_sets(draw):
    """(rank, generators) in ranks 1 to 5: small vectors, zero and
    non-primitive ones included, with at will a positive combination of
    two (a redundant generator), the opposite of one (a line), and every
    vector confined to a coordinate hyperplane (not full rank)."""
    rank = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    gens = draw(st.lists(vec, min_size=1, max_size=rank + 3))
    if rank > 1 and draw(st.booleans()):
        k = draw(st.integers(0, rank - 1))
        gens = [g[:k] + (0,) + g[k + 1:] for g in gens]
    if len(gens) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(gens) - 1), min_size=2,
                             max_size=2, unique=True))
        gens.append(tuple(a + 2 * b for a, b in zip(gens[i], gens[j])))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return rank, draw(st.permutations(gens))


@settings(max_examples=400, deadline=None)
@given(generator_sets())
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
@example((3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)]))
@example((4, [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, 0)]))
@example((2, [(1, 0), (-1, 0), (0, 1)]))
def test_extreme_rays_match_a_second_double_description(case):
    """Cone.make reads extreme rays off one double description; the oracle
    runs a second one on the facets and span equations."""
    rank, gens = case
    assert Cone(tuple(gens), rank).dim == mat_rank(gens)
    try:
        expected = cone_extreme_rays(gens, rank)
    except ValueError:
        with pytest.raises(ValueError, match="not strongly convex"):
            Cone.make(gens, rank)
        return
    cone = Cone.make(gens, rank)
    assert sorted(cone.generators) == sorted(expected)
    assert cone.dim == mat_rank(gens)


@st.composite
def independent_primitive_sets(draw):
    """(rank, generators): n independent primitive vectors in rank n,
    for n from 0 to 6, with entries up to 10 in absolute value."""
    n = draw(st.integers(0, 6))
    gens = draw(st.lists(st.tuples(*[st.integers(-10, 10)] * n),
                         min_size=n, max_size=n))
    assume(mat_rank(gens) == n)
    return n, [primitivize(g) for g in gens]


@settings(max_examples=300, deadline=None)
@given(independent_primitive_sets())
@example((0, []))
@example((2, [(1, 0), (0, 1)]))
@example((3, [(0, 0, 1), (-7, 10, 3), (1, 1, 0)]))
def test_full_dimensional_simplicial_facets_match_the_double_description(
        case):
    """The facets read off the adjugate are the double description's,
    in its order, with no span equations."""
    n, gens = case
    assert Cone(tuple(gens), n).halfspaces == dual_description(gens, [], n)


def test_singular_square_sets_take_the_double_description(monkeypatch):
    calls = []

    def counted(inequalities, equations, dim):
        calls.append(dim)
        return dual_description(inequalities, equations, dim)

    monkeypatch.setattr(fans, "dual_description", counted)
    for gens in ([(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                 [(1, 2, 0), (0, 0, 1), (-1, -2, 0)],
                 [(1, 1), (1, 1)]):
        cone = Cone(tuple(gens), len(gens))
        assert cone.dim < len(gens) and not cone.is_simplicial
        assert calls == [len(gens)]
        calls.clear()
    cone = Cone(((1, 0, 0), (1, 1, 0), (1, 1, 1)), 3)
    assert cone.dim == 3 and cone.is_simplicial and not calls


def test_relint_face_of_a_square_cone():
    square = Cone.make([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    on = {g: i for i, g in enumerate(square.generators)}
    assert square.relint_face((0, 0, 1)) == tuple(range(4))
    assert square.relint_face((1, 1, 2)) == tuple(sorted(
        [on[(1, 0, 1)], on[(0, 1, 1)]]))
    assert square.relint_face((0, 0, 0)) == ()
    assert square.relint_face((2, 0, 1)) is None
    assert not square.contains_relint((1, 1, 2)) and square.contains((1, 1, 2))


# -- the completeness certificate against the pairwise check --------------

def verdicts(rank, rays, cones):
    """(first failing certificate step or 0, pairwise check passes) for a
    collection of cones, built without the pairwise fallback."""
    with mock.patch.object(Fan, "_validate_intersections", lambda self: None):
        f = Fan(rank, rays, cones)
    try:
        Fan._validate_intersections(f)
    except ValueError:
        return f._certificate_failure(), False
    return f._certificate_failure(), True


START_FANS = {
    2: [([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [0, 3]])],
    3: [([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
         [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
          (0, 0, -1)],
         [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)])],
}


@st.composite
def subdivided_fans(draw):
    """Complete simplicial fans: P^n or a cross-polytope fan after up to
    three star subdivisions at random primitive vectors."""
    rank = draw(st.sampled_from([2, 3]))
    rays, cones = draw(st.sampled_from(START_FANS[rank]))
    f = Fan(rank, rays, cones)
    vec = st.tuples(*[st.integers(-3, 3)] * rank).filter(
        lambda v: not is_zero(v))
    for v in draw(st.lists(vec, max_size=3)):
        f = star_subdivide(f, primitivize(v))
    return f


@settings(max_examples=200, deadline=None)
@given(subdivided_fans())
def test_certificate_accepts_subdivided_complete_fans(f):
    assert verdicts(f.rank, f.rays, f.maximal_cones) == (0, True)
    assert f.is_complete()
    assert_faces_match_closure(f)


@settings(max_examples=100, deadline=None)
@given(subdivided_fans(), st.data())
def test_holed_fans_are_valid_and_not_complete(f, picks):
    tops = list(f.maximal_cones)
    drop = picks.draw(st.lists(st.sampled_from(tops), min_size=1,
                               max_size=len(tops) - 1, unique=True))
    kept = [c for c in tops if c not in drop]
    step, pairwise = verdicts(f.rank, f.rays, kept)
    assert step == 2 and pairwise
    holed = Fan(f.rank, f.rays, kept)
    assert not holed.is_complete()
    assert_faces_match_closure(holed)


def overlapping_index_sets(f):
    """The sets of rank many rays that span a full-dimensional cone and are
    not a maximal cone of f."""
    return [c for c in itertools.combinations(range(len(f.rays)), f.rank)
            if c not in f.maximal_cones
            and mat_rank([f.rays[i] for i in c]) == f.rank]


@settings(max_examples=150, deadline=None)
@given(subdivided_fans(), st.data())
def test_extra_overlapping_cone_is_rejected(f, picks):
    n = f.rank
    candidates = overlapping_index_sets(f)
    if not candidates:
        # P^n and the cross-polytope fans have none; a star subdivision
        # inside a maximal cone leaves that cone's rays as one
        top = picks.draw(st.sampled_from(f.maximal_cones))
        f = star_subdivide(f, primitivize(f.cone(top).relint_point()))
        candidates = overlapping_index_sets(f)
    extra = list(picks.draw(st.sampled_from(candidates)))
    cones = list(f.maximal_cones) + [extra]
    step, pairwise = verdicts(n, f.rays, cones)
    assert step != 0 and not pairwise
    with pytest.raises(ValueError):
        Fan(n, f.rays, cones)


@settings(max_examples=100, deadline=None)
@given(subdivided_fans(), st.data())
def test_folded_pair_is_rejected(f, picks):
    # replace the partner of a cone across one of its facets by a cone over
    # the same facet on the same side, inside the first cone
    top = picks.draw(st.sampled_from(f.maximal_cones))
    apex = picks.draw(st.sampled_from(top))
    facet = [i for i in top if i != apex]
    partner = next(c for c in f.maximal_cones
                   if c != top and set(facet) <= set(c))
    w = primitivize(lin_comb([1] * f.rank, [f.rays[i] for i in top], f.rank))
    rays = list(f.rays)
    if w not in rays:
        rays.append(w)
    folded = sorted(facet + [rays.index(w)])
    cones = [c for c in f.maximal_cones if c != partner] + [folded]
    step, pairwise = verdicts(f.rank, rays, cones)
    assert step == 2 and not pairwise
    with pytest.raises(ValueError):
        Fan(f.rank, rays, cones)


def test_fold_that_pairs_every_ray_fails_the_orientation_step():
    # a closed chain of plane cones turning back at (-1, 2) and at (1, 2):
    # every ray lies in two cones and the ray sum (0, -2) of the first cone
    # is covered once, but the cones overlap between the two fold rays
    rays = [(-1, 0), (1, -2), (1, 0), (-1, 2), (1, 2)]
    cones = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
    assert verdicts(2, rays, cones) == (2, False)
    with pytest.raises(ValueError):
        Fan(2, rays, cones)


def test_pentagram_double_cover_fails_only_the_degree_step():
    rays = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
    cones = [[i, (i + 1) % 5] for i in range(5)]
    assert verdicts(2, rays, cones) == (3, False)
    with pytest.raises(ValueError, match="overlap|common face|not a face"):
        Fan(2, rays, cones)


def test_large_overlapping_fan_is_rejected():
    # the total fan subdivided at two resolution rays and at the ray sums of
    # three maximal cones those leave alone: 54 + 10 + 10 + 3 * 4 cones
    g = data.total_fan()
    for name in ("b3'", "b1'"):
        g = star_subdivide(g, data.RESOLUTION_RAYS[name])
    split = [c for c in g.maximal_cones if c in data.total_fan().maximal_cones]
    for c in split[:3]:
        g = star_subdivide(g, primitivize(g.cone(c).relint_point()))
    assert len(g.maximal_cones) == 86 and g.is_complete()
    # put the last of the three back over its five pieces
    with pytest.raises(ValueError, match="do not meet in a common face"):
        Fan(5, g.rays, list(g.maximal_cones) + [split[2]])
