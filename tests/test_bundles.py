import random
import re
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import chart_first_restriction, pinned_restriction, xi_transition
from strategies import polytopes, with_refinement
from toricfiber import bundles, data, intlinalg
from toricfiber.bundles import (LaurentSection, fibred_form,
                                fibred_homogeneous_form, homogeneous_form,
                                pullback_bundle, quotient_surjection,
                                restrict_section_to_orbit_closure)
from toricfiber.fans import Fan
from toricfiber.intlinalg import (LatticeMap, dual_map, kernel_basis,
                                  mat_det, section_of_surjection,
                                  smith_normal_form, vadd, vdot, vsub)
from toricfiber.morphism import FanMap
from toricfiber.polytopes import (Polytope, SubspaceChart, lattice_points,
                                  normal_fan, restriction_polytope)


def cp2_setup():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])
    p = Polytope([(-1, -1), (2, -1), (-1, 2)])  # anticanonical triangle
    return fan, p


# A line bundle on a fan refining the normal fan of P is its Cartier data:
# the support vertex of P on each maximal cone, as P.support_vertices gives it.

def test_plf_reflexive_anticanonical():
    # the anticanonical weights pair to -1 with every ray of every cone
    p = data.section_polytope()
    fan = data.total_fan()
    h = p.support_vertices(fan)
    assert len(h) == len(fan.maximal_cones) == 54
    assert all(vdot(h[c], fan.rays[i]) == -1 for c in h for i in c)


def test_plf_round_trip():
    p = data.section_polytope()
    assert Polytope(p.support_vertices(data.total_fan()).values()) == p
    fan, tri = cp2_setup()
    assert Polytope(tri.support_vertices(fan).values()) == tri


def test_plf_point_is_principal():
    # principal: one weight on every cone, a global character
    fan, _ = cp2_setup()
    h = Polytope([(3, -2)]).support_vertices(fan)
    assert set(h.values()) == {(3, -2)}
    segment_fan = Fan(1, [(1,), (-1,)], [[0], [1]])
    seg = Polytope([(0,), (1,)])
    h = seg.support_vertices(segment_fan)
    assert len(set(h.values())) == 2
    assert Polytope(h.values()) == seg


def test_plf_rejects_non_refining_fan():
    # the quadrant fan does not refine the normal fan of the CP2 triangle
    quad = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                     [[0, 1], [1, 2], [2, 3], [3, 0]])
    _, tri = cp2_setup()
    with pytest.raises(ValueError):
        tri.support_vertices(quad)


def test_refinement_checks_every_ray():
    # the cone holds (1, 0) inside, across the normal-fan wall between
    # (0, 0) and (0, 1); its ray sum (4, 1) still has the unique minimiser
    # (0, 0), but the ray (1, -1) is minimised at (0, 1)
    wedge = Fan(2, [(3, 2), (1, -1)], [(0, 1)])
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    m = FanMap(LatticeMap.identity(2), wedge, wedge)
    with pytest.raises(ValueError, match="does not refine"):
        pullback_bundle(m, square)
    with pytest.raises(ValueError, match="does not refine"):
        square.support_vertices(wedge)
    with pytest.raises(ValueError, match="does not refine"):
        m.lighted_part(square, (0, 1))


def test_support_table_is_built_once_per_fan(monkeypatch):
    # restriction_polytope, lighted_part and pullback_bundle on one
    # (P, fan) pair read the one table the polytope keeps for the fan: the
    # face of each maximal cone is read once, by the one table build
    p = Polytope([(0, 0), (2, 0), (0, 1), (1, 1)])
    fan = normal_fan(p)
    m = FanMap(LatticeMap.identity(2), fan, fan)
    built, faces = [], []
    face = Polytope.face

    class CountedTable(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    def counted(self, rays):
        faces.append(tuple(rays))
        return face(self, rays)

    p._refining_fans = CountedTable()
    monkeypatch.setattr(Polytope, "face", counted)
    for _ in range(3):
        restriction_polytope(p, (0,), fan)
        m.lighted_part(p, (0,))
        assert pullback_bundle(m, p) == p
    assert built == [fan]
    tops = [tuple(fan.rays[i] for i in c) for c in fan.maximal_cones]
    assert sorted(f for f in faces if f in tops) == sorted(tops)
    assert sorted(p.support_vertices(fan).values()) == sorted(p.vertices)


def test_same_bundle_linear_shift():
    # the same bundle: the weights differ by one character on every cone
    fan, tri = cp2_setup()
    h1 = tri.support_vertices(fan)

    def differences(q):
        h2 = q.support_vertices(fan)
        return {vsub(h2[c], h1[c]) for c in h1}

    shifted = Polytope([(v[0] + 2, v[1] - 1) for v in tri.vertices])
    assert differences(shifted) == {(2, -1)}
    bigger = Polytope([(2 * v[0], 2 * v[1]) for v in tri.vertices])
    assert len(differences(bigger)) > 1


def test_sections_counts():
    assert len(lattice_points(data.section_polytope())) == 3365
    assert len(lattice_points(Polytope([(4, 4)]))) == 1


def test_restriction_kernel_dimension():
    p = data.section_polytope()
    fan = data.total_fan()
    s = LaurentSection.generic(p)
    for name, survivors in [("c1'", 154), ("e1'", 2), ("v1' e2'", 11)]:
        restricted, _ = restrict_section_to_orbit_closure(
            s, data.total_cone(name), p, fan)
        assert len(restricted) == survivors
        assert len(s) - len(restricted) == 3365 - survivors
    # zero cone: unchanged
    restricted, _ = restrict_section_to_orbit_closure(s, (), p, fan)
    assert len(restricted) == 3365
    # a section supported entirely outside the restriction dies
    outside = LaurentSection.from_dict({(-22, -14, 4, 1, 1): Fraction(1)})
    restricted, _ = restrict_section_to_orbit_closure(
        outside, data.total_cone("c1'"), p, fan)
    assert len(restricted) == 0


def test_section_restriction_computes_no_vertices():
    p = data.section_polytope()
    fan = data.total_fan()
    s = LaurentSection.generic(p)
    tau = data.total_cone("v1' e2'")
    expected = restriction_polytope(p, tau, fan).polytope
    restricted, restriction = restrict_section_to_orbit_closure(s, tau, p, fan)
    assert "polytope" not in restriction.__dict__
    assert len(restricted) == 11
    assert all(p.contains(restriction.chart.from_chart(y))
               for y, _ in restricted.terms)
    assert restriction.polytope.vertices == expected.vertices


@settings(max_examples=100, deadline=None)
@given(polytopes().filter(lambda p: p.is_full_dimensional), st.data())
def test_face_first_restriction_matches_the_chart_first_loop(p, picks):
    # generic terms, integral terms of a larger box (most outside P), and
    # per cone a term on the face's span but outside P; only the kept terms
    # reach the chart solve
    fan = normal_fan(p)
    point = st.tuples(*[st.integers(-4, 4)] * p.ambient_rank)
    terms = {m: f"a{m}" for m in lattice_points(p)}
    terms.update((e, Fraction(1)) for e in picks.draw(st.lists(point, max_size=6)))
    to_chart = SubspaceChart.to_chart
    assert {fan.cone(tau).dim for tau in fan.all_cone_indices} \
        == set(range(p.ambient_rank + 1))
    for tau in fan.all_cone_indices:
        chart = restriction_polytope(p, tau, fan).chart
        s = dict(terms)
        if chart.basis:
            far = chart.from_chart((9,) + (0,) * (len(chart.basis) - 1))
            s[far] = Fraction(3)
        s = LaurentSection.from_dict(s)
        solved = []

        def spy(self, e):
            solved.append(e)
            return to_chart(self, e)

        with mock.patch.object(SubspaceChart, "to_chart", spy):
            got, _ = restrict_section_to_orbit_closure(s, tau, p, fan)
        assert got == chart_first_restriction(s, tau, p, fan)
        assert sorted(solved) == sorted(chart.from_chart(y) for y, _ in got.terms)


def _refining_fans(p, picks):
    """Fans that refine the normal fan of P.  For a full-dimensional P: its
    normal fan and, when that is simplicial, a star subdivision at a drawn
    cone of dimension 2 or more, whose new ray is no facet normal.  For a
    lower-dimensional P: the normal fan of P plus the standard simplex,
    which is complete and refines the normal fans of both summands."""
    if p.is_full_dimensional:
        return with_refinement(normal_fan(p), picks)
    d = p.ambient_rank
    simplex = [(0,) * d] + [tuple(int(i == j) for j in range(d))
                            for i in range(d)]
    return [normal_fan(Polytope([vadd(v, u) for v in p.vertices
                                 for u in simplex]))]


@settings(max_examples=100, deadline=None)
@given(polytopes(), st.data())
def test_census_restriction_matches_the_pinned_rule(p, picks):
    # P's points, integral terms of a larger box (most outside P), and per
    # cone a term on the chart's span but outside P
    point = st.tuples(*[st.integers(-4, 4)] * p.ambient_rank)
    terms = {m: f"a{m}" for m in lattice_points(p)}
    terms.update((e, Fraction(1)) for e in picks.draw(st.lists(point, max_size=6)))
    for fan in _refining_fans(p, picks):
        for tau in fan.all_cone_indices:
            chart = restriction_polytope(p, tau, fan).chart
            s = dict(terms)
            if chart.basis:
                s[chart.from_chart((9,) + (0,) * (len(chart.basis) - 1))] = 3
            s = LaurentSection.from_dict(s)
            got, _ = restrict_section_to_orbit_closure(s, tau, p, fan)
            assert got == pinned_restriction(s, tau, p, fan)


def test_restriction_takes_one_smith_form_and_no_pins(monkeypatch):
    # the chart and its coordinates come off one Smith form of tau's rays
    # (none for the zero cone, which has no rays), and a term is kept off
    # the census with no pairing and no inequality test
    p = data.section_polytope()
    fan = data.total_fan()
    s = LaurentSection.generic(p)
    taus = [(), *(data.total_cone(n) for n in ("c1'", "e1'", "v1' e2'"))]
    restrict_section_to_orbit_closure(s, taus[1], p, fan)
    forms, pins, tested = [], [], []
    contains = Polytope.contains

    def counted(matrix):
        forms.append(matrix)
        return smith_normal_form(matrix)

    def pinned(a, b):
        pins.append(a)
        return vdot(a, b)

    def counted_contains(self, point):
        tested.append(point)
        return contains(self, point)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    for tau in taus:
        forms.clear()
        restriction_polytope(p, tau, fan)
        assert len(forms) == (1 if tau else 0), tau
    monkeypatch.setattr(bundles, "vdot", pinned)
    monkeypatch.setattr(Polytope, "contains", counted_contains)
    for tau in taus:
        restricted, _ = restrict_section_to_orbit_closure(s, tau, p, fan)
        assert len(restricted)
    assert pins == [] and tested == []


def test_sections_reject_non_integral_exponents():
    # such a term used to build, restriction dropped it without a word, and
    # homogeneous_form on the CP^2 fan gave it Cox exponents (3/2, 1, 1/2)
    for bad in ((Fraction(1, 2), 0), (0, 1.5), ("1", 0)):
        with pytest.raises(ValueError, match=re.escape(f"{bad}: exponents")):
            LaurentSection.from_dict({(0, 0): Fraction(1), bad: Fraction(1)})
    s = LaurentSection.from_dict({(Fraction(2), 0): 1, (0, -1): 2})
    assert s.terms == (((0, -1), 2), ((2, 0), 1))
    assert all(type(x) is int for e, _ in s.terms for x in e)


def test_sections_reject_mixed_exponent_lengths():
    with pytest.raises(ValueError, match=re.escape(
            "term 1 at (1, 2, 3): 3 exponents, but an earlier term has 2")):
        LaurentSection.from_dict({(0, 0): 2, (1, 2, 3): 1})


def test_section_of_the_wrong_length_is_named():
    # a 3-exponent section on the CP^2 triangle was restricted to nothing
    # at the zero cone, its terms dropped as if off the chart lattice
    fan, tri = cp2_setup()
    s = LaurentSection.from_dict({(1, 2, 3): 1})
    message = "the section's exponents have length 3, but the {} has rank 2"
    for tau in ((), (0,)):
        with pytest.raises(ValueError, match=re.escape(message.format("polytope"))):
            restrict_section_to_orbit_closure(s, tau, tri, fan)
    with pytest.raises(ValueError, match=re.escape(message.format("fan"))):
        homogeneous_form(s, tri, fan, [1, 1, 1])
    m = data.fibration_map()
    with pytest.raises(ValueError, match="length 3, but the polytope has rank 5"):
        fibred_form(s, (), (), m, data.section_polytope())
    empty = LaurentSection.from_dict({})
    assert len(restrict_section_to_orbit_closure(empty, (), tri, fan)[0]) == 0


def test_pullback_identity_and_constant():
    fan, tri = cp2_setup()
    m = FanMap(LatticeMap.identity(2), fan, fan)
    assert pullback_bundle(m, tri) == tri
    assert dual_map(m.phi).apply((2, -1)) == (2, -1)
    line = Fan(1, [(1,), (-1,)], [[0], [1]])
    zero = FanMap(LatticeMap.from_rows([[0], [0]]), line, fan)
    assert pullback_bundle(zero, tri) == Polytope([(0,)])


def test_pullback_commutes_with_fiber_projection():
    # pulling back along the kernel inclusion equals the fiber projection
    m = data.fibration_map()
    p = data.section_polytope()
    ker = kernel_basis(m.phi)
    star = m.relative_star((), ())
    incl = LatticeMap.from_columns(ker)
    gen_fan = star.fan
    inc_map = FanMap(incl, gen_fan, m.source)
    pulled = pullback_bundle(inc_map, p)
    from toricfiber.polytopes import restriction_polytope
    r = restriction_polytope(p, (), m.source)
    proj = m.project_polytope(r, star)
    # the restriction chart normalizes by a weight vertex, so the two
    # agree exactly after translating by the pullback of that origin
    shift = dual_map(inc_map.phi).apply(r.chart.origin)
    shifted = {tuple(x + s for x, s in zip(pt, shift))
               for pt in lattice_points(proj)}
    assert shifted == set(lattice_points(pulled))


def test_fibred_form_generic_partition():
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    form = fibred_form(s, (), (), m, p)
    sizes = {f: len(terms) for f, terms in form.groups}
    assert len(sizes) == 7
    assert sum(sizes.values()) == 3365
    proj = m.project_polytope(form.restriction, m.relative_star((), ()))
    assert sorted(lattice_points(proj)) == sorted(sizes)


def test_fibred_form_fiber_keys_on_every_stratum():
    # a generic section's fiber exponents over each primitive cone are the
    # lattice points of the projected polytope
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    pairs = 0
    for sigma, _ in m.flattening_stratification():
        for tau in m.primitive_cones(sigma):
            form = fibred_form(s, tau, sigma, m, p)
            proj = m.project_polytope(form.restriction,
                                      m.relative_star(tau, sigma))
            assert [f for f, _ in form.groups] == \
                sorted(lattice_points(proj)), (tau, sigma)
            pairs += 1
    assert pairs == 60


def test_fibred_form_demonstration():
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    tau, sigma = data.total_cone("v1' e2'"), data.base_cone("d4 r1")
    form = fibred_form(s, tau, sigma, m, p)
    by_size = sorted(len(t) for _, t in form.groups)
    assert by_size == [1, 1, 2, 3, 4]
    # symbolic labels survive the regrouping untouched
    labels = {c for _, terms in form.groups for _, _, c in terms}
    assert len(labels) == 11 and all(isinstance(c, str) for c in labels)
    zero = LaurentSection.from_dict({})
    assert fibred_form(zero, tau, sigma, m, p).groups == ()


def test_fibred_form_single_term():
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.from_dict({(0, 0, 0, 0, 0): Fraction(5)})
    form = fibred_form(s, (), (), m, p)
    assert len(form.groups) == 1
    ((_, terms),) = form.groups
    assert len(terms) == 1


def random_section_on(restriction, rng):
    pts = lattice_points(restriction.polytope)
    amb = {restriction.chart.from_chart(y):
           Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for y in pts}
    return LaurentSection.from_dict(amb)


def test_fibred_form_exact_evaluation():
    from toricfiber.polytopes import restriction_polytope
    m = data.fibration_map()
    p = data.section_polytope()
    rng = random.Random(17)
    tau, sigma = data.total_cone("v1' e2'"), data.base_cone("d4 r1")
    restriction = restriction_polytope(p, tau, m.source)
    for _ in range(10):
        s = random_section_on(restriction, rng)
        form = fibred_form(s, tau, sigma, m, p)
        a = [list(r) for r in form.fiber_matrix] + \
            [list(r) for r in form.base_matrix]
        assert abs(mat_det(a)) == 1
        u = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in form.fiber_matrix)
        w = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in form.base_matrix)
        t = form.chart_point_for(u, w)
        chart_terms = {}
        for _, terms in form.groups:
            for _, y, c in terms:
                chart_terms[y] = c
        lhs = LaurentSection.from_dict(chart_terms).evaluate(t)
        assert lhs == form.evaluate(u, w)


def test_xi_transition_law():
    m = data.fibration_map()
    p = data.section_polytope()
    tau, sigma = data.total_cone("v1' e2'"), data.base_cone("d4 r1")
    phi_bar, _, _ = quotient_surjection(m, tau, sigma)
    xi1 = section_of_surjection(phi_bar)
    ker = kernel_basis(phi_bar)
    xi2 = LatticeMap.from_rows(
        [[xi1.matrix[i][j] + ker[0][i] for j in range(xi1.source_rank)]
         for i in range(xi1.target_rank)])
    s = LaurentSection.generic(p)
    f1 = fibred_form(s, tau, sigma, m, p, xi=xi1)
    f2 = fibred_form(s, tau, sigma, m, p, xi=xi2)
    assert xi_transition(xi1, xi1, f1, f1)
    assert xi_transition(xi1, xi2, f1, f2)
    # fiber groups do not depend on xi at all
    assert [f for f, _ in f1.groups] == [f for f, _ in f2.groups]


def test_fibred_form_rejects_bad_xi():
    m = data.fibration_map()
    p = data.section_polytope()
    tau, sigma = data.total_cone("v1' e2'"), data.base_cone("d4 r1")
    phi_bar, _, _ = quotient_surjection(m, tau, sigma)
    bad = LatticeMap.from_rows([[2] * phi_bar.target_rank]
                               * phi_bar.source_rank)
    s = LaurentSection.generic(p)
    with pytest.raises(ValueError):
        fibred_form(s, tau, sigma, m, p, xi=bad)
    _xi_errors(lambda xi: fibred_form(s, tau, sigma, m, p, xi=xi), phi_bar,
               "the quotient surjection")


def test_fibred_form_rejects_tau_off_sigma():
    # v1' lies over d4; its quotient map to N / N_r1 is not onto, but the
    # error names the pair, not the map
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    tau, sigma = data.total_cone("v1'"), data.base_cone("r1")
    assert m.sigma_of(tau) == data.base_cone("d4")
    with pytest.raises(ValueError, match="^tau does not lie over the "
                                         "relative interior of sigma$"):
        fibred_form(s, tau, sigma, m, p)


def _xi_errors(build, f: LatticeMap, name: str):
    """build(xi) rejects an xi of the wrong shape, naming both shapes, and
    one of the right shape that is not a section of f."""
    square = LatticeMap.identity(2)
    with pytest.raises(ValueError) as err:
        build(square)
    assert str(err.value) == (
        f"xi maps Z^2 to Z^2, but a section of {name} maps "
        f"Z^{f.target_rank} to Z^{f.source_rank}")
    doubled = LatticeMap.from_rows(
        [[2 * x for x in row] for row in section_of_surjection(f).matrix])
    with pytest.raises(ValueError, match=f"xi is not a section of {name}$"):
        build(doubled)


def test_fibred_homogeneous_form_xi_errors():
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    _xi_errors(lambda xi: fibred_homogeneous_form(s, p, m, [1] * 13, xi=xi),
               m.phi, "phi")


def test_homogeneous_cp2_anticanonical():
    fan, tri = cp2_setup()
    s = LaurentSection.generic(tri)
    table = homogeneous_form(s, tri, fan, [1, 1, 1])
    assert len(table.ray_exponents) == 10
    assert all(sum(e) == 3 for _, e in table.ray_exponents)
    assert all(x >= 0 for _, e in table.ray_exponents for x in e)


def test_homogeneous_single_point():
    fan, _ = cp2_setup()
    s = LaurentSection.from_dict({(0, 0): Fraction(1)})
    table = homogeneous_form(s, Polytope([(0, 0)]), fan, [0, 0, 0])
    assert table.ray_exponents == (((0, 0), (0, 0, 0)),)


def test_homogeneous_rejects_negative_exponent():
    fan, tri = cp2_setup()
    s = LaurentSection.generic(tri)
    with pytest.raises(ValueError):
        homogeneous_form(s, tri, fan, [0, 1, 1])


def test_homogeneous_big_polytope():
    p = data.section_polytope()
    fan = data.total_fan()
    s = LaurentSection.generic(p)
    table = homogeneous_form(s, p, fan, [1] * 13)
    assert len(table.ray_exponents) == 3365
    assert all(x >= 0 for _, e in table.ray_exponents for x in e)


def test_fibred_homogeneous_form():
    m = data.fibration_map()
    p = data.section_polytope()
    s = LaurentSection.generic(p)
    fh = fibred_homogeneous_form(s, p, m, [1] * 13)
    tnames = data.total_ray_names()
    assert {tnames[i] for i in fh.fiber_rays} == {"b'", "v4'", "v5'"}
    assert len(fh.groups) == 7
    assert sum(len(terms) for _, terms in fh.groups) == 3365
