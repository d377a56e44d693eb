"""Numeric analysis on fiber data: fixed discriminants of the six fiber
section families, toric surface intersection tables, adjunction genus,
polynomial moduli count, and the scripted desingularization pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .fans import Cone, Fan, star_subdivide
from .intlinalg import LatticeMap, Vec, vdot
from .morphism import FanMap
from .polytopes import Polytope, is_reflexive, lattice_points
from .surfaces import order_counterclockwise


@dataclass(frozen=True)
class DiscriminantShape:
    """Fixed discriminant of one family of fiber sections.

    `support` lists the monomial exponents of the family; `polynomial`
    is a tuple of (integer coefficient, exponent-per-support) terms in
    the named coefficients.
    """

    label: str
    support: tuple[tuple[int, int], ...]
    polynomial: tuple[tuple[int, dict], ...]

    def degree(self) -> int:
        return max((sum(e.values()) for _, e in self.polynomial), default=0)


def _shape(label, support, terms):
    return DiscriminantShape(label, tuple(support),
                             tuple((c, dict(e)) for c, e in terms))


# sections of the generic-fiber family: a cubic-in-x, quadratic-in-y mix
_WCP123_TERMS = [
    (-432, {(0, 0): 2, (0, 2): 3, (3, 0): 2}),
    (-64, {(0, 0): 1, (2, 0): 3, (0, 2): 3}),
    (-64, {(1, 0): 3, (0, 2): 3, (3, 0): 1}),
    (-27, {(0, 1): 4, (0, 2): 1, (3, 0): 2}),
    (1, {(0, 0): 1, (1, 1): 6}),
    (16, {(1, 0): 2, (2, 0): 2, (0, 2): 3}),
    (16, {(0, 1): 2, (2, 0): 3, (0, 2): 2}),
    (1, {(0, 2): 1, (1, 0): 2, (1, 1): 4}),
    (-1, {(0, 1): 1, (1, 0): 1, (1, 1): 5}),
    (1, {(0, 1): 2, (1, 1): 4, (2, 0): 1}),
    (-1, {(0, 1): 3, (1, 1): 3, (3, 0): 1}),
    (288, {(0, 0): 1, (0, 2): 3, (1, 0): 1, (2, 0): 1, (3, 0): 1}),
    (48, {(0, 0): 1, (0, 2): 2, (1, 1): 2, (2, 0): 2}),
    (216, {(0, 0): 1, (0, 1): 2, (0, 2): 2, (3, 0): 2}),
    (-72, {(0, 1): 2, (0, 2): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1}),
    (-72, {(0, 0): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2, (3, 0): 1}),
    (-16, {(0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 1, (2, 0): 2}),
    (-8, {(0, 2): 2, (1, 0): 2, (1, 1): 2, (2, 0): 1}),
    (96, {(0, 1): 1, (0, 2): 2, (1, 0): 2, (1, 1): 1, (3, 0): 1}),
    (-144, {(0, 0): 1, (0, 1): 1, (0, 2): 2, (1, 1): 1, (2, 0): 1, (3, 0): 1}),
    (-12, {(0, 0): 1, (0, 2): 1, (1, 1): 4, (2, 0): 1}),
    # the cubed a_{11} power is forced by degree-7 homogeneity
    (8, {(0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 3, (2, 0): 1}),
    (-8, {(0, 1): 2, (0, 2): 1, (1, 1): 2, (2, 0): 2}),
    (-30, {(0, 1): 2, (0, 2): 1, (1, 0): 1, (1, 1): 2, (3, 0): 1}),
    (36, {(0, 1): 3, (0, 2): 1, (1, 1): 1, (2, 0): 1, (3, 0): 1}),
    (36, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 3, (3, 0): 1}),
]

DISCRIMINANTS = {
    "WCP2(1,2,3)": _shape(
        "WCP2(1,2,3)",
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)],
        _WCP123_TERMS),
    "X(4)": _shape("X(4)", [(0, 0), (1, 0), (2, 0), (0, 1)], [(1, {})]),
    "CP2": _shape(
        "CP2", [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)],
        [(1, {(2, 0): 1, (0, 1): 2}), (1, {(1, 0): 2, (0, 2): 1}),
         (1, {(1, 1): 2, (0, 0): 1}), (-1, {(1, 1): 1, (1, 0): 1, (0, 1): 1}),
         (-4, {(2, 0): 1, (0, 2): 1, (0, 0): 1})]),
    "X(5)": _shape("X(5)", [(0, 0), (1, 0)], [(1, {(1, 0): 1})]),
    "WCP2(1,1,3)": _shape(
        "WCP2(1,1,3)", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)], [(1, {})]),
    "F2": _shape(
        "F2", [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(27, {(0, 0): 2, (3, 0): 2}), (4, {(0, 0): 1, (2, 0): 3}),
         (4, {(1, 0): 3, (3, 0): 1}), (-1, {(1, 0): 2, (2, 0): 2}),
         (-18, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})]),
}


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
    total = Fraction(0)
    for c, exps in shape.polynomial:
        term = Fraction(c)
        for key, e in exps.items():
            term *= Fraction(coefficients[key]) ** e
        total += term
    return total


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
    polytope: points minus (rank+1) minus facet-interior points."""
    if not is_reflexive(p):
        raise ValueError("moduli formula applies to reflexive polytopes")
    r = p.ambient_rank
    total = len(lattice_points(p))
    interior_sum = facet_interior_sum(p)
    return total - (r + 1) - interior_sum


def facet_interior_sum(p: Polytope) -> int:
    """Lattice points in the relative interiors of the facets of P.

    A point lies in the relative interior of facet F exactly when F is its
    only tight facet: the smallest face holding it is the intersection of
    its tight facets, a proper face of F once another facet is tight too.
    The facets of a segment are points, which have no interior points.
    """
    if p.dim <= 1:
        return 0
    # tight facets per point; map(mul) is vdot without its length check
    tight = [[sum(map(mul, n, pt)) + c for n, c in p.facets].count(0)
             for pt in p.lattice_points()]
    return tight.count(1)


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
