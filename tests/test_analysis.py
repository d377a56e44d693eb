import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import tabulated_discriminant
from toricfiber import data
from toricfiber.analysis import (DISCRIMINANTS, adjunction_genus,
                                 discriminant_eval, facet_interior_sum,
                                 fiber_pattern_note, intersection_table,
                                 moduli_dimension, resolve_pipeline)
from toricfiber.fans import Fan
from toricfiber.polytopes import Polytope
from toricfiber.surfaces import CATALOG_RAYS, catalog_fan


def test_discriminant_x4_constant_one():
    shape = DISCRIMINANTS["X(4)"]
    for coeffs in ([1, 2, 3, 4], [0, 0, 0, 0], [-7, 5, 9, 2]):
        assert discriminant_eval(shape, coeffs) == 1


def test_discriminant_wcp113_constant_one():
    assert discriminant_eval(DISCRIMINANTS["WCP2(1,1,3)"], [5, 4, 3, 2, 1]) == 1


def test_discriminant_f2_cubic():
    assert discriminant_eval(DISCRIMINANTS["F2"], [0, -1, 0, 1]) == -4
    # full agreement with the classical cubic discriminant up to sign
    rng = random.Random(2)
    for _ in range(25):
        a0, a1, a2, a3 = (Fraction(rng.randint(-6, 6)) for _ in range(4))
        ours = discriminant_eval(DISCRIMINANTS["F2"], [a0, a1, a2, a3])
        classic = (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0
                   + a2 ** 2 * a1 ** 2 - 4 * a3 * a1 ** 3
                   - 27 * a3 ** 2 * a0 ** 2)
        assert ours == -classic


def test_discriminant_conic():
    shape = DISCRIMINANTS["CP2"]
    assert discriminant_eval(
        shape, {(0, 0): 1, (1, 0): 0, (2, 0): 1, (0, 1): 0, (1, 1): 0,
                (0, 2): 1}) == -4
    # vanishes exactly on degenerate conics: a perfect square form
    assert discriminant_eval(
        shape, {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 0, (1, 1): 0,
                (0, 2): 0}) == 0


def test_discriminant_x5_linear():
    assert discriminant_eval(DISCRIMINANTS["X(5)"], [9, 4]) == 4


def test_discriminant_wcp123_vanishing_oracle():
    # the big discriminant must vanish whenever the section family has a
    # singular member; cuspidal normal form a00 = x^3 - y^2 type checks
    shape = DISCRIMINANTS["WCP2(1,2,3)"]
    # f = y^2 - x^3: singular at the origin
    val = discriminant_eval(shape, {(0, 0): 0, (1, 0): 0, (2, 0): 0,
                                    (3, 0): -1, (0, 1): 0, (1, 1): 0,
                                    (0, 2): 1})
    assert val == 0
    # f = y^2 - x^3 + x has no singular zero locus: nonzero discriminant
    val = discriminant_eval(shape, {(0, 0): 0, (1, 0): 1, (2, 0): 0,
                                    (3, 0): -1, (0, 1): 0, (1, 1): 0,
                                    (0, 2): 1})
    assert val != 0
    # elliptic-curve cross-check: f = y^2 - (x^3 + Ax + B) has
    # discriminant proportional to 4A^3 + 27B^2
    rng = random.Random(8)
    base = None
    for _ in range(20):
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        val = discriminant_eval(shape, {(0, 0): -b, (1, 0): -a, (2, 0): 0,
                                        (3, 0): -1, (0, 1): 0, (1, 1): 0,
                                        (0, 2): 1})
        curve = 4 * a ** 3 + 27 * b ** 2
        if curve == 0:
            assert val == 0
            continue
        ratio = val / curve
        if base is None:
            base = ratio
        assert ratio == base


def test_discriminant_homogeneous_scaling():
    rng = random.Random(3)
    lam = Fraction(3, 2)
    for label, shape in DISCRIMINANTS.items():
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in shape.support]
        scaled = discriminant_eval(shape, [lam * c for c in coeffs])
        assert scaled == lam ** shape.homogeneity * discriminant_eval(shape, coeffs)


def test_discriminant_wrong_arity():
    with pytest.raises(ValueError):
        discriminant_eval(DISCRIMINANTS["F2"], [1, 2, 3])


def test_discriminant_wrong_keys():
    shape = DISCRIMINANTS["X(5)"]
    with pytest.raises(ValueError, match="coefficient keys do not match"):
        discriminant_eval(shape, {(0, 0): 1, (0, 1): 2})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DISCRIMINANTS)), st.data())
def test_discriminant_equals_term_table(label, draws):
    shape = DISCRIMINANTS[label]
    coeffs = draws.draw(st.lists(
        st.fractions(-20, 20, max_denominator=12),
        min_size=len(shape.support), max_size=len(shape.support)))
    keyed = dict(zip(shape.support, coeffs))
    assert discriminant_eval(shape, coeffs) == tabulated_discriminant(label,
                                                                      keyed)
    assert discriminant_eval(shape, keyed) == discriminant_eval(shape, coeffs)


def test_discriminant_formulas_are_the_term_table_as_polynomials():
    for label, shape in DISCRIMINANTS.items():
        c = {key: sympy.Symbol(f"c{key[0]}{key[1]}") for key in shape.support}
        formula = sympy.expand(shape.formula(c))
        assert formula == sympy.expand(tabulated_discriminant(label, c))
        poly = sympy.Poly(formula, *c.values())
        assert {sum(m) for m in poly.monoms()} == {shape.homogeneity}


def test_intersection_table_cp2():
    t = intersection_table(catalog_fan("CP2"))
    assert all(x == 1 for row in t.entries for x in row)


def test_intersection_table_f2():
    t = intersection_table(catalog_fan("F2"))
    i = t.rays.index((0, 1))
    assert t.product(i, i) == -2
    assert t.verify_relations()


def test_intersection_table_wcp123():
    t = intersection_table(catalog_fan("WCP2(1,2,3)"))
    assert t.canonical_squared() == 6
    assert t.canonical_squared() == Fraction((1 + 2 + 3) ** 2, 1 * 2 * 3)


def test_intersection_tables_all_catalog():
    for label in CATALOG_RAYS:
        t = intersection_table(catalog_fan(label))
        assert t.verify_relations()


def test_smooth_fan_wall_relation():
    # on a smooth complete surface, v_{i-1} + v_{i+1} = -(D_i^2) v_i
    for label in ("CP2", "CP1xCP1", "F2"):
        t = intersection_table(catalog_fan(label))
        n = len(t.rays)
        for i in range(n):
            d2 = t.product(i, i)
            assert d2.denominator == 1
            prev, cur, nxt = t.rays[(i - 1) % n], t.rays[i], t.rays[(i + 1) % n]
            assert all(p + nx == -int(d2) * c
                       for p, nx, c in zip(prev, nxt, cur))


def test_intersection_table_requires_complete():
    with pytest.raises(ValueError):
        intersection_table(Fan(2, [(1, 0), (0, 1)], [[0, 1]]))


def test_adjunction_genus():
    assert adjunction_genus(catalog_fan("WCP2(1,2,3)"), [1, 1, 1]) == 1
    cp2 = catalog_fan("CP2")
    assert adjunction_genus(cp2, [2, 0, 0]) == 0
    assert adjunction_genus(cp2, [3, 0, 0]) == 1


def test_moduli_dimension():
    p = data.section_polytope()
    assert facet_interior_sum(p) == 462
    assert moduli_dimension(p) == 2897
    tri = Polytope([(1, 0), (0, 1), (-1, -1)])
    assert moduli_dimension(tri) == 1
    square = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert moduli_dimension(square) == 9 - 3 - 4


def test_moduli_rejects_non_reflexive():
    with pytest.raises(ValueError):
        moduli_dimension(Polytope([(2, 0), (0, 2), (-2, -2)]))


def test_resolve_pipeline():
    rays = [data.RESOLUTION_RAYS[n] for n in data.RESOLUTION_ORDER]
    rep = resolve_pipeline(data.total_fan(), rays, phi=data.projection(),
                           target=data.base_fan())
    assert rep.smooth
    assert [s.maximal_cones for s in rep.steps] == [64, 74, 84, 92]
    assert set(rep.generic_fiber_rays) == {(1, 1), (2, 3), (1, 2), (0, 1),
                                           (-1, 0), (0, -1)}
    r1 = data.base_cone("r1")
    rnames = data.total_ray_names() + data.RESOLUTION_ORDER
    got = {data.cone_name(rnames, t) for t in rep.primitive_over[r1]}
    assert got == {"e1'", "e2'", "e3'", "e4'"}
    # other stratum types keep their primitive cones
    d4 = data.base_cone("d4")
    got = {data.cone_name(rnames, t) for t in rep.primitive_over[d4]}
    assert got == {"v1'"}


def test_restricted_bundle_pairings_stretch():
    # label-free check of the restricted-bundle intersection products on
    # the degenerate fiber components; divisor labels of the reducible
    # fibers are not pinned down, so only the value sets are asserted
    from toricfiber.intlinalg import vdot
    from toricfiber.polytopes import restriction_polytope
    m = data.fibration_map()
    p = data.section_polytope()
    expected = {"X(4)": {1, 0, 2}, "CP2": {2}, "X(5)": {1, 0},
                "WCP2(1,1,3)": {3, 1}, "F2": {0, 3}}
    for name, sigma_name in [("c1'", "r2"), ("c2'", "r2"), ("e1'", "r1"),
                             ("e2'", "r1"), ("e3'", "r1")]:
        tau = data.total_cone(name)
        sigma = data.base_cone(sigma_name)
        r = restriction_polytope(p, tau, m.source)
        star = m.relative_star(tau, sigma)
        proj = m.project_polytope(r, star)
        t = intersection_table(star.fan)
        coeffs = [-min(vdot(mm, v) for mm in proj.vertices) for v in t.rays]
        n = len(t.rays)
        values = {t.pairing(coeffs, [int(k == j) for k in range(n)])
                  for j in range(n)}
        assert values == expected[m.component_label(star)]


def test_fiber_pattern_notes():
    assert fiber_pattern_note(["X(4)", "CP2"]) is not None
    assert fiber_pattern_note(["X(5)", "WCP2(1,1,3)", "F2"]) is not None
    assert fiber_pattern_note(["WCP2(1,2,3)"]) is None
