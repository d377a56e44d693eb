import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (ReferenceHull, box_scan_points, chart_facet_interior_sum,
                     chart_interior_points, fraction_sublattice_coords,
                     hull_membership_oracle, ray_sum_support_vertex,
                     restrict_to_subspace)
from strategies import polytopes, subdivided, wide_cones, with_refinement
from toricfiber import data
from toricfiber.analysis import facet_interior_sum
from toricfiber.fans import Fan
from toricfiber.intlinalg import (SublatticeCoords, lin_comb, mat_rank, vadd,
                                  vdot, vsub)
from toricfiber.polytopes import (Polytope, SubspaceChart, dual_polytope,
                                  face_polytope, interior_lattice_points,
                                  is_reflexive, lattice_points, normal_fan,
                                  orthogonal_complement_basis,
                                  restriction_polytope)


def test_unit_square_from_five_points():
    p = Polytope([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert len(p.vertices) == 4
    assert len(p.facets) == 4


def test_simplex_facets():
    p = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(p.facets) == 4


@st.composite
def point_lists(draw):
    """Point lists in Z^1 to Z^5 with a repeated point at will, a single
    point among them, and at will every point moved onto the hyperplane
    x_k = c + <a, x> (a over the other coordinates)."""
    d = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1,
                        max_size=d + 4))
    if d > 1 and draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        c = draw(st.integers(-1, 1))
        a = draw(st.tuples(*[st.integers(-1, 1)] * d))
        pts = [p[:k] + (c + sum(a[j] * p[j] for j in range(d) if j != k),)
               + p[k + 1:] for p in pts]
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    return pts


@settings(max_examples=300, deadline=None)
@given(point_lists())
@example([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 1)])
@example([(1, -1, 2)])
@example([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
@example([(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 2, 0), (0, 0, 0, 0)])
def test_hull_of_one_cone_matches_two_double_descriptions(pts):
    """Polytope reads its hull off the cone over its points; the oracle
    runs a second double description from the facets back to vertices."""
    p, ref = Polytope(pts), ReferenceHull(pts)
    assert list(p.vertices) == ref.vertices
    assert list(p.facets) == ref.facets
    assert list(p.equations) == ref.equations
    for v in p.vertices:
        others = [q for q in pts if tuple(q) != v]
        assert not others or not hull_membership_oracle(others)(v)


def test_big_polytope_data():
    p = data.section_polytope()
    assert len(p.vertices) == 14
    assert len(p.facets) == 9
    assert is_reflexive(p)
    assert len(lattice_points(p)) == 3365


def test_big_polytope_facet_incidences():
    p = data.section_polytope()
    vno = {v: i + 1 for i, v in enumerate(data.POLYTOPE_VERTICES)}
    ray_of = {v: n for n, v in data.TOTAL_RAYS.items()}
    reference = {
        "v1'": [6, 7, 8, 9, 10, 11, 12, 13, 14],
        "v2'": [2, 4, 6, 7, 9, 13, 14],
        "c1'": [3, 4, 6, 7, 8, 9],
        "c2'": [1, 2, 3, 4, 7, 8, 9, 10, 14],
        "v4'": [1, 2, 5, 7, 10, 11, 12, 13, 14],
        "v5'": [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        "f'": [1, 3, 5, 6, 7, 8, 10, 11],
        "g'": [5, 6, 7, 11, 12],
        "v6'": [1, 2, 3, 4, 5, 6, 7, 12, 13],
    }
    seen = {}
    for (n, c), inc in zip(p.facets, p.facet_vertex_incidence()):
        assert c == 1
        seen[ray_of[n]] = sorted(vno[p.vertices[i]] for i in inc)
    assert seen == reference


def test_dual_polytope():
    p = data.section_polytope()
    d = dual_polytope(p)
    expected = {data.TOTAL_RAYS[n] for n in
                ["v1'", "v2'", "c1'", "c2'", "v4'", "v5'", "f'", "g'", "v6'"]}
    assert set(d.vertices) == expected
    assert len(d.facets) == 14
    assert dual_polytope(d) == p
    # the facet of the dual labelled by m6' has 7 vertices
    m6 = data.POLYTOPE_VERTICES[5]
    inc = None
    for (n, c), vs in zip(d.facets, d.facet_vertex_incidence()):
        if n == m6:
            inc = vs
    assert inc is not None and len(inc) == 7


def test_cross_polytope_cube_duality():
    cross = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                  (0, 0, 1), (0, 0, -1)])
    cube = dual_polytope(cross)
    assert len(cube.vertices) == 8
    assert dual_polytope(cube) == cross


def test_reflexivity_flags_of_component_hulls():
    from toricfiber.surfaces import CATALOG_RAYS
    flags = {label: is_reflexive(Polytope(rays))
             for label, rays in CATALOG_RAYS.items()}
    assert flags["WCP2(1,2,3)"] and flags["X(4)"] and flags["CP2"] and flags["F2"]
    assert not flags["X(5)"] and not flags["WCP2(1,1,3)"]


def test_lattice_points_brute_force_agreement():
    from oracles import hull_membership_oracle
    rng = random.Random(31)
    for _ in range(30):
        dim = rng.randint(2, 4)
        pts = [tuple(rng.randint(-2, 2) for _ in range(dim))
               for _ in range(rng.randint(dim + 1, dim + 2))]
        p = Polytope(pts)
        got = set(lattice_points(p))
        member = hull_membership_oracle(p.vertices)
        lo, hi = p.bounding_box()
        for cand in itertools.product(*[range(l, h + 1)
                                        for l, h in zip(lo, hi)]):
            assert (cand in got) == member(cand)


def test_normal_fan_square():
    p = Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    f = normal_fan(p)
    assert set(f.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert len(f.maximal_cones) == 4


def test_normal_fan_shifted_triangle():
    p = Polytope([(1, 0), (0, 1), (-1, -1)])  # contains 0, three maximal cones
    f = normal_fan(p)
    assert len(f.maximal_cones) == 3
    assert f.is_complete()


def test_normal_fan_mirrors_polar_fan():
    p = data.section_polytope()
    # the normal fan of a reflexive polytope has the dual's vertices as rays
    f = normal_fan(p)
    assert set(f.rays) == set(dual_polytope(p).vertices)


def test_restriction_polytope_rows():
    p = data.section_polytope()
    total = data.total_fan()
    r = restriction_polytope(p, data.total_cone("e1'"), total)
    assert len(lattice_points(r.polytope)) == 2
    r = restriction_polytope(p, (), total)
    assert len(lattice_points(r.polytope)) == 3365
    r = restriction_polytope(p, data.total_cone("v1' e2'"), total)
    pts = lattice_points(r.polytope)
    assert len(pts) == 11
    reference = {(0, 0, 0, -2, 1), (0, 0, 0, 1, -1), (2, 1, -1, -1, 1),
               (2, 2, -1, -1, 1), (4, 2, -2, 0, 1), (4, 3, -2, 0, 1),
               (4, 4, -2, 0, 1), (6, 3, -3, 1, 1), (6, 4, -3, 1, 1),
               (6, 5, -3, 1, 1), (6, 6, -3, 1, 1)}
    assert {r.chart.from_chart(x) for x in pts} == reference


def test_restriction_checks_every_maximal_cone():
    # tau = (0,) lies only in the cone {0, 1}, which has a support vertex;
    # the cone {1, 2} has none, so the fan does not refine the square's
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    f = Fan(2, [(1, 0), (1, 1), (-1, 2)], [[0, 1], [1, 2]])
    assert square.face([f.rays[i] for i in (0, 1)])[0] == ((0, 0),)
    for _ in range(2):
        with pytest.raises(ValueError, match="does not refine"):
            restriction_polytope(square, (0,), f)
    nf = normal_fan(square)
    r = restriction_polytope(square, (0,), nf)
    assert restriction_polytope(square, (0,), nf) == r


def test_restriction_translation_stability():
    # any other valid weight vertex gives a lattice translate
    p = data.section_polytope()
    total = data.total_fan()
    tau = data.total_cone("v1' e2'")
    r = restriction_polytope(p, tau, total)
    tops = [c for c in total.maximal_cones if total.is_face(tau, c)]
    base_pts = None
    for top in tops:
        (origin,), _ = p.face([total.rays[i] for i in top])
        q = restrict_to_subspace(p, origin, r.chart.basis)
        pts = sorted(lattice_points(q))
        anchored = [tuple(x - y for x, y in zip(pt, pts[0])) for pt in pts]
        if base_pts is None:
            base_pts = anchored
        assert anchored == base_pts


def test_interior_points():
    edge = Polytope([(0, 0), (3, 0)])
    assert sorted(interior_lattice_points(edge)) == [(1, 0), (2, 0)]
    vertex = Polytope([(5, 7)])
    assert interior_lattice_points(vertex) == []
    tri = Polytope([(1, 0), (0, 1), (-1, -1)])
    assert interior_lattice_points(tri) == [(0, 0)]


def test_face_polytope_guard():
    p = Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(ValueError):
        face_polytope(p, [0, 3])  # diagonal is not a face


def test_vh_consistency_big():
    p = data.section_polytope()
    for pt in lattice_points(p):
        assert all(vdot(n, pt) >= -c for n, c in p.facets)
    for v in p.vertices:
        tight = [n for n, c in p.facets if vdot(n, v) == -c]
        assert mat_rank(tight) == 5


SEGMENT = Polytope([(0, 0, 0), (2, 4, 2)])
TRIANGLE_IN_3_SPACE = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
# x + y = 2z: the equation's last coefficient is -2
HALF_SLOPE_TRIANGLE = Polytope([(0, 0, 0), (4, 0, 2), (0, 4, 2)])
# thin, skewed simplices whose bounding boxes are almost empty, so that the
# scan drops most prefixes before the last coordinate: 5 of 10,080 and 4 of
# 315 box points, and 3 of 784 on the plane z = x + y
THIN_SIMPLEX = Polytope([(0, 0, 0, 0), (1, 3, 5, 7), (2, 5, 9, 13),
                         (3, 8, 13, 19), (1, 3, 5, 8)])
NEEDLE = Polytope([(0, 0, 0), (7, 5, 3), (8, 6, 3), (7, 6, 4)])
SKEW_PLANE_TRIANGLE = Polytope([(0, 0, 0), (6, 5, 11), (7, 6, 13)])
# box widths 9, 2, 2: the scan takes the first coordinate last
WIDE_FIRST = Polytope([(0, 0, 0), (9, 1, 0), (0, 2, 1), (5, 0, 2)])
# a parallelogram with two equation rows and box widths 1, 8, 1, 2: the
# widest coordinate is the second
SKEW_PARALLELOGRAM = Polytope([(0, 0, 0, 0), (1, 5, 0, 1), (0, 3, 1, 1),
                               (1, 8, 1, 2)])


@settings(max_examples=150, deadline=None)
@given(polytopes())
@example(SEGMENT)
@example(TRIANGLE_IN_3_SPACE)
@example(HALF_SLOPE_TRIANGLE)
@example(Polytope([(3, 1)]))
@example(THIN_SIMPLEX)
@example(NEEDLE)
@example(SKEW_PLANE_TRIANGLE)
@example(WIDE_FIRST)
@example(SKEW_PARALLELOGRAM)
def test_lattice_points_match_oracles(p):
    pts = p.lattice_points()
    assert pts == box_scan_points(p)
    assert sorted(interior_lattice_points(p)) == sorted(chart_interior_points(p))
    assert facet_interior_sum(p) == chart_facet_interior_sum(p)
    # each point's tight-facet mask, against one pairing per facet
    assert list(p.point_masks().items()) == [
        (pt, sum(1 << j for j, (n, c) in enumerate(p.facets)
                 if vdot(n, pt) == -c))
        for pt in pts]
    assert sum(p.census.values()) == len(pts)


@pytest.mark.parametrize("order", [(4, 3, 2, 1, 0), (1, 0, 3, 4, 2),
                                   (2, 4, 0, 1, 3)])
def test_census_does_not_depend_on_coordinate_order(order):
    # the section polytope's box widths are 29, 21, 8, 4 and 3; a copy
    # with its coordinates permuted has the same census once its points
    # are permuted back and sorted, and its facets renumbered
    p = data.section_polytope()
    copy = Polytope([tuple(v[i] for i in order) for v in p.vertices])
    assert p.ambient_rank == copy.ambient_rank == len(order)
    back = [order.index(i) for i in range(len(order))]
    facet_no = {(tuple(n[i] for i in order), c): j
                for j, (n, c) in enumerate(p.facets)}
    renumber = [facet_no[f] for f in copy.facets]
    census = sorted(
        (tuple(pt[i] for i in back),
         sum(1 << k for j, k in enumerate(renumber) if m >> j & 1))
        for pt, m in copy.point_masks().items())
    assert list(p.point_masks().items()) == census
    assert copy.lattice_points() == sorted(copy.lattice_points())


def _assert_face_counts_match_restrictions(p, fan, cones):
    for tau in cones:
        r = restriction_polytope(p, tau, fan)
        _, mask = p.face([fan.rays[i] for i in tau])
        assert p.tight_point_count(mask) == \
            len(lattice_points(r.polytope)), tau
        assert r.vertices == r.polytope.vertices


@settings(max_examples=150, deadline=None)
@given(polytopes().filter(lambda p: p.is_full_dimensional))
@example(THIN_SIMPLEX)
@example(NEEDLE)
def test_face_point_counts_match_charted_restrictions(p):
    nf = normal_fan(p)
    _assert_face_counts_match_restrictions(p, nf, nf.all_cone_indices)


def test_face_point_counts_match_the_bundled_restrictions():
    m = data.fibration_map()
    p = data.section_polytope()
    taus = [t for _, rep in m.flattening_stratification()
            for t in rep.primitive if t]
    assert len(taus) == 59
    _assert_face_counts_match_restrictions(p, m.source, taus)


def test_cached_ray_minima_carry_no_refinement_verdict():
    # the refining fan pairs the square with the rays of the wedge first,
    # so the wedge is checked against minima kept from another fan
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert sorted(square.support_vertices(normal_fan(square)).values()) \
        == sorted(square.vertices)
    refining = Fan(2, [(1, 0), (3, 2), (0, 1), (-1, 0), (0, -1), (1, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert set(square.support_vertices(refining).values()) \
        == set(square.vertices)
    wedge = Fan(2, [(3, 2), (1, -1)], [(0, 1)])
    with pytest.raises(ValueError, match="does not refine"):
        square.support_vertices(wedge)


def _assert_restrictions_match_h_description(p, fan):
    for tau in fan.all_cone_indices:
        r = restriction_polytope(p, tau, fan)
        assert r.polytope == restrict_to_subspace(p, r.chart.origin,
                                                  r.chart.basis)


@settings(max_examples=150, deadline=None)
@given(polytopes().filter(lambda p: p.is_full_dimensional), st.data())
def test_restriction_is_the_face_of_the_h_description(p, picks):
    """On every cone of the normal fan and of a refinement, the restriction
    read off the face's vertices is the slice of the H-description."""
    for fan in with_refinement(normal_fan(p), picks):
        _assert_restrictions_match_h_description(p, fan)


def test_restriction_is_the_face_on_named_fans():
    # the cube's normal fan subdivided at each of its cones in turn, a
    # pyramid whose apex cone is not simplicial, and the bundled fan
    cube = Polytope(itertools.product((0, 1), repeat=3))
    fan = normal_fan(cube)
    assert len(wide_cones(fan)) == 20
    for cone in wide_cones(fan):
        _assert_restrictions_match_h_description(cube, subdivided(fan, cone))
    pyramid = Polytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
    assert not wide_cones(normal_fan(pyramid))
    _assert_restrictions_match_h_description(pyramid, normal_fan(pyramid))
    _assert_restrictions_match_h_description(data.section_polytope(),
                                             data.total_fan())


@settings(max_examples=150, deadline=None)
@given(polytopes().filter(lambda p: p.is_full_dimensional), st.data())
def test_support_vertex_matches_the_ray_sum_rule(p, picks):
    """The same one-vertex face or the same rejection as the ray-sum rule,
    on every cone of refining fans and of the fans of another polytope,
    which mostly do not refine the normal fan of p; the support table
    holds the rule's vertex on every maximal cone, or is refused."""
    point = st.tuples(*[st.integers(-2, 2)] * p.ambient_rank)
    other = Polytope(picks.draw(st.lists(point, min_size=1, max_size=7)))
    fans = with_refinement(normal_fan(p), picks)
    if other.is_full_dimensional:
        fans += with_refinement(normal_fan(other), picks)
    for fan in fans:
        for cone in fan.all_cone_indices:
            expected = ray_sum_support_vertex(p, fan, cone)
            face, _ = p.face([fan.rays[i] for i in cone])
            if expected is None:
                assert len(face) != 1
            else:
                assert face == (expected,)
        table = {c: ray_sum_support_vertex(p, fan, c)
                 for c in fan.maximal_cones}
        if None in table.values():
            with pytest.raises(ValueError, match="does not refine"):
                p.support_vertices(fan)
        else:
            assert p.support_vertices(fan) == table


def test_facet_interior_sum_on_named_polytopes():
    assert SEGMENT.dim == 1 and TRIANGLE_IN_3_SPACE.dim == 2
    assert [e for e, _ in HALF_SLOPE_TRIANGLE.equations] in ([(1, 1, -2)],
                                                            [(-1, -1, 2)])
    assert THIN_SIMPLEX.is_full_dimensional and NEEDLE.is_full_dimensional
    assert [e for e, _ in SKEW_PLANE_TRIANGLE.equations] in ([(1, 1, -1)],
                                                            [(-1, -1, 1)])
    # each edge of the doubled square holds one interior point; the plane
    # x + y = 2z holds the points of even x + y, so the triangle's three
    # edges hold 1, 1 and 3
    assert facet_interior_sum(Polytope([(0, 0), (2, 0), (0, 2), (2, 2)])) == 4
    assert facet_interior_sum(HALF_SLOPE_TRIANGLE) == 5
    assert facet_interior_sum(SEGMENT) == 0
    assert facet_interior_sum(Polytope([(3, 1)])) == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_chart_matches_sublattice_coords(picks):
    d = picks.draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    tau = picks.draw(st.lists(vec, max_size=d))
    basis = tuple(orthogonal_complement_basis(tau, d))
    origin = picks.draw(vec)
    chart = SubspaceChart(origin, SublatticeCoords.of(basis))
    coeffs = picks.draw(st.tuples(*[st.integers(-4, 4)] * len(basis)))
    step = lin_comb(coeffs, basis, d)
    on_chart = vadd(origin, step)
    off_span = vadd(origin, picks.draw(vec))
    half = tuple(o + Fraction(x, 2) for o, x in zip(origin, step))
    for point in (on_chart, off_span, half):
        expected = fraction_sublattice_coords(list(basis), vsub(point, origin))
        if expected is None:
            with pytest.raises(ValueError):
                chart.to_chart(point)
        else:
            assert chart.to_chart(point) == expected
            assert chart.from_chart(expected) == point
    assert chart.to_chart(on_chart) == coeffs


def test_chart_needs_a_saturated_basis():
    with pytest.raises(ValueError):
        SubspaceChart((0, 0), SublatticeCoords.of(((2, 0),)))
    with pytest.raises(ValueError):
        SubspaceChart((0, 0, 0), SublatticeCoords.of(((1, 1, 0), (1, -1, 0))))
    with pytest.raises(ValueError):
        SubspaceChart((0, 0), SublatticeCoords.of(((1, 0), (2, 0))))
    chart = SubspaceChart((1, 1, 1), SublatticeCoords.of(((1, 1, 0),
                                                          (0, 1, 0))))
    assert chart.to_chart((2, 5, 1)) == (1, 3)
    with pytest.raises(ValueError):
        chart.to_chart((2, 5, 2))
