"""Numeric analysis on fiber data: discriminants of the six fiber section
families, computed from their classical formulas, toric surface
intersection tables, adjunction genus, polynomial moduli count, and the
scripted desingularization pipeline.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .fans import Cone, Fan, star_subdivide
from .intlinalg import LatticeMap, Vec, vdot
from .morphism import FanMap
from .polytopes import Polytope, is_reflexive
from .surfaces import order_counterclockwise


@dataclass(frozen=True)
class DiscriminantShape:
    """Discriminant of one family of fiber sections.

    `support` lists the monomial exponents of the family; `formula` maps
    the coefficients, keyed by exponent, to the discriminant, which is
    homogeneous of degree `homogeneity` in them.
    """

    label: str
    support: tuple[tuple[int, int], ...]
    homogeneity: int
    formula: Callable[[dict], Fraction]


def _tate(c) -> Fraction:
    """Tate's discriminant of the section sum c_ij x^i y^j over the WCP2(1,2,3)
    support, homogeneous of degree 7 in the coefficients.  On c02 = 1,
    c30 = -1 it is Delta of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    with a1 = c11, a3 = c01, a2 = -c20, a4 = -c10, a6 = -c00 (Silverman,
    The Arithmetic of Elliptic Curves, III.1)."""
    c00, c10, c20, c30 = c[0, 0], c[1, 0], c[2, 0], c[3, 0]
    c01, c11, c02 = c[0, 1], c[1, 1], c[0, 2]
    b2 = c11 ** 2 - 4 * c02 * c20
    b4 = c11 * c01 - 2 * c02 * c10
    b6 = c01 ** 2 - 4 * c02 * c00
    b8 = (4 * c02 * c00 * c20 - c02 * c10 ** 2 + c10 * c11 * c01
          - c00 * c11 ** 2 - c20 * c01 ** 2)
    return (-b2 ** 2 * b8 + 8 * c30 * b4 ** 3 - 27 * c02 * c30 ** 2 * b6 ** 2
            - 9 * c30 * b2 * b4 * b6)


def _cubic(c) -> Fraction:
    """Minus the discriminant of the cubic c00 + c10 x + c20 x^2 + c30 x^3."""
    a0, a1, a2, a3 = c[0, 0], c[1, 0], c[2, 0], c[3, 0]
    return -(18 * a0 * a1 * a2 * a3 - 4 * a2 ** 3 * a0 + a1 ** 2 * a2 ** 2
             - 4 * a3 * a1 ** 3 - 27 * a0 ** 2 * a3 ** 2)


def _conic(c) -> Fraction:
    """-1/2 det [[2c20, c11, c10], [c11, 2c02, c01], [c10, c01, 2c00]]."""
    a, b, d = 2 * c[2, 0], c[1, 1], c[1, 0]
    e, f, g = 2 * c[0, 2], c[0, 1], 2 * c[0, 0]
    return -(a * (e * g - f * f) - b * (b * g - f * d)
             + d * (b * f - e * d)) / 2


DISCRIMINANTS = {s.label: s for s in (
    DiscriminantShape(
        "WCP2(1,2,3)",
        ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)), 7, _tate),
    DiscriminantShape("X(4)", ((0, 0), (1, 0), (2, 0), (0, 1)), 0,
                      lambda c: 1),
    DiscriminantShape(
        "CP2", ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)), 3, _conic),
    DiscriminantShape("X(5)", ((0, 0), (1, 0)), 1, lambda c: c[1, 0]),
    DiscriminantShape("WCP2(1,1,3)", ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1)),
                      0, lambda c: 1),
    DiscriminantShape("F2", ((0, 0), (1, 0), (2, 0), (3, 0)), 4, _cubic),
)}


def discriminant_eval(shape: DiscriminantShape, coefficients) -> Fraction:
    """Exact evaluation of a shape's discriminant.

    `coefficients` is a mapping keyed by support exponent pairs or a
    sequence in support order.
    """
    if not isinstance(coefficients, dict):
        seq = list(coefficients)
        if len(seq) != len(shape.support):
            raise ValueError(
                f"{shape.label} needs {len(shape.support)} coefficients")
        coefficients = dict(zip(shape.support, seq))
    if set(coefficients) != set(shape.support):
        raise ValueError(f"coefficient keys do not match the {shape.label} support")
    return Fraction(shape.formula(
        {key: Fraction(v) for key, v in coefficients.items()}))


@dataclass(frozen=True)
class IntersectionTable:
    """Divisor intersection numbers of a complete toric surface.

    Rays are stored counterclockwise; entries are exact rationals, and
    simplicial-but-singular cones give fractional products by design.
    """

    rays: tuple[Vec, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def product(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def pairing(self, coeffs_a, coeffs_b) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(coeffs_a):
            if not a:
                continue
            for j, b in enumerate(coeffs_b):
                if b:
                    total += Fraction(a) * Fraction(b) * self.entries[i][j]
        return total

    def canonical_squared(self) -> Fraction:
        ones = [1] * len(self.rays)
        return self.pairing(ones, ones)

    def verify_relations(self) -> bool:
        """Sum_j <m, v_j> (D_j . D_i) = 0 for dual basis m and every i."""
        n = len(self.rays)
        for m in ((1, 0), (0, 1)):
            for i in range(n):
                if sum(Fraction(vdot(m, self.rays[j])) * self.entries[j][i]
                       for j in range(n)) != 0:
                    return False
        return True


def intersection_table(fan: Fan) -> IntersectionTable:
    """Divisor products on a complete 2-dim simplicial fan.

    Adjacent products are reciprocal cone multiplicities, distant ones
    vanish, and self-intersections come from the two character relations
    (which are also re-verified as a consistency check).
    """
    if fan.rank != 2:
        raise ValueError("intersection table requires a 2-dimensional fan")
    if not fan.is_complete():
        raise ValueError("intersection table requires a complete fan")
    rays = order_counterclockwise(fan.rays)
    n = len(rays)
    table = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        mult = Cone.make([rays[i], rays[j]], 2).multiplicity()
        table[i][j] = table[j][i] = Fraction(1, mult)
    for i in range(n):
        solved = None
        for m in ((1, 0), (0, 1)):
            d = vdot(m, rays[i])
            if d == 0:
                continue
            rest = sum(Fraction(vdot(m, rays[j])) * table[j][i]
                       for j in range(n) if j != i)
            value = -rest / d
            if solved is None:
                solved = value
            elif solved != value:
                raise ArithmeticError("inconsistent self-intersection relations")
        table[i][i] = solved
    result = IntersectionTable(tuple(rays),
                               tuple(tuple(row) for row in table))
    if not result.verify_relations():
        raise ArithmeticError("intersection table fails the character relations")
    return result


def adjunction_genus(fan: Fan, curve_coeffs) -> Fraction:
    """g = 1 + (K + C).C / 2 for C given by integer ray coefficients."""
    table = intersection_table(fan)
    n = len(table.rays)
    coeffs = list(curve_coeffs)
    if len(coeffs) != n:
        raise ValueError("one coefficient per ray is required")
    # curve_coeffs are indexed by counterclockwise ray order
    k_plus_c = [c - 1 for c in coeffs]
    return 1 + table.pairing(k_plus_c, coeffs) / 2


def moduli_dimension(p: Polytope) -> int:
    """Polynomial moduli of anticanonical hypersurfaces of a reflexive
    polytope: points minus (rank+1) minus facet-interior points, all read
    off the polytope's one census."""
    if not is_reflexive(p):
        raise ValueError("moduli formula applies to reflexive polytopes")
    r = p.ambient_rank
    total = sum(p.census.values())
    interior_sum = facet_interior_sum(p)
    return total - (r + 1) - interior_sum


def facet_interior_sum(p: Polytope) -> int:
    """Lattice points in the relative interiors of the facets of P.

    A point lies in the relative interior of facet F exactly when F is its
    only tight facet: the smallest face holding it is the intersection of
    its tight facets, a proper face of F once another facet is tight too.
    So the sum counts the census keys with one bit.  The facets of a
    segment are points, which have no interior points.
    """
    if p.dim <= 1:
        return 0
    return sum(k for m, k in p.census.items() if m.bit_count() == 1)


@dataclass(frozen=True)
class ResolveStep:
    ray: Vec
    maximal_cones: int


@dataclass(frozen=True)
class ResolveReport:
    fan: Fan
    steps: tuple[ResolveStep, ...]
    smooth: bool
    primitive_over: dict
    generic_fiber_rays: tuple[Vec, ...]


def resolve_pipeline(fan: Fan, rays, phi: LatticeMap,
                     target: Fan) -> ResolveReport:
    """Sequential star subdivisions of the source fan of phi, with the
    updated primitive-cone sets per target cone and the refined generic
    fiber."""
    current = fan
    steps = []
    for r in rays:
        current = star_subdivide(current, r)
        steps.append(ResolveStep(tuple(r), len(current.maximal_cones)))
    smooth = current.is_smooth()
    fm = FanMap(phi, current, target)
    primitive_over = {sigma: tuple(fm.primitive_cones(sigma))
                      for sigma in fm.image_fan().all_cone_indices}
    generic_rays = tuple(sorted(fm.relative_star((), ()).fan.rays))
    return ResolveReport(current, tuple(steps), smooth, primitive_over,
                         generic_rays)


# free-text annotations for the two degenerate-fiber component patterns
_FIBER_NOTES = {
    frozenset({("X(4)", 1), ("CP2", 1)}):
        "two components meeting along a rational curve",
    frozenset({("X(5)", 1), ("WCP2(1,1,3)", 1), ("F2", 1)}):
        "three components with pairwise rational-curve intersections",
}


def fiber_pattern_note(labels) -> str | None:
    key = frozenset(Counter(labels).items())
    return _FIBER_NOTES.get(key)
