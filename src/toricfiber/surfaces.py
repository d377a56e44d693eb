"""GL(2,Z) normal forms of complete 2-dimensional fans and of planar
lattice point sets, and the catalog of named surfaces.

The catalog holds the seven surface types that show up as fiber
components in the bundled data set, keyed by conventional labels.  Both
normal forms map their input through every frame that the input itself
singles out (a pair of adjacent rays, or a hull vertex with its two edge
directions) and keep the least image, in the manner of the polygon normal
forms of Kreuzer-Skarke (PALP) and Grinis-Kasprzyk.  Two inputs are
equivalent up to GL(2,Z), reflections included, exactly when their forms
are equal.
"""

from __future__ import annotations

from functools import cache, cmp_to_key

from .fans import Fan, fan_from_cones
from .intlinalg import primitivize, vdot, vsub
from .polytopes import Polytope

UNKNOWN = "UNKNOWN"

# ray lists in counterclockwise order; maximal cones are consecutive pairs
CATALOG_RAYS = {
    "CP2": [(1, 0), (0, 1), (-1, -1)],
    "CP1xCP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "WCP2(1,2,3)": [(2, 3), (-1, 0), (0, -1)],
    "WCP2(1,1,3)": [(1, 0), (0, 1), (-1, -3)],
    "F2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "X(4)": [(2, 3), (-1, 0), (-1, -1), (0, -1)],
    "X(5)": [(2, 3), (-1, 0), (-2, -3), (-1, -2), (0, -1)],
}


def complete_fan_from_rays(rays) -> Fan:
    """Complete 2-dim fan whose maximal cones join angle-adjacent rays.
    The rays must span the plane positively: each turns less than a
    half-turn counterclockwise to the next."""
    ordered = order_counterclockwise(rays)
    cones = [[ordered[i], ordered[(i + 1) % len(ordered)]]
             for i in range(len(ordered))]
    for a, b in cones:
        if a[0] * b[1] - a[1] * b[0] <= 0:
            raise ValueError(
                f"rays do not span the plane positively: {a} to its "
                f"counterclockwise neighbour {b} turns a half-turn or more")
    return fan_from_cones(2, cones)


def catalog_fan(label: str) -> Fan:
    return complete_fan_from_rays(CATALOG_RAYS[label])


def _angle_cmp(a, b):
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def order_counterclockwise(rays):
    return sorted({tuple(r) for r in rays}, key=cmp_to_key(_angle_cmp))


def _in_frame(vectors, u, w):
    """Images of `vectors` under the unique M in GL(2,Z) with M u = e1 and
    M w = (a, m), 0 <= a < m, for u primitive and w independent of u."""
    # extended Euclid: x u0 + y u1 = +-1
    a, b, x, y, x1, y1 = u[0], u[1], 1, 0, 0, 1
    while b:
        q = a // b
        a, b, x, x1, y, y1 = b, a - q * b, x1, x - q * x1, y1, y - q * y1
    row1, row2 = (a * x, a * y), (-u[1], u[0])
    m = vdot(row2, w)
    if m < 0:
        row2, m = (u[1], -u[0]), -m
    q = vdot(row1, w) // m
    row1 = (row1[0] - q * row2[0], row1[1] - q * row2[1])
    return [(vdot(row1, v), vdot(row2, v)) for v in vectors]


def fan_normal_form(fan: Fan) -> tuple:
    """GL(2,Z) normal form of a complete 2-dim fan: the least image of its
    ray cycle, read from each ray in either direction, in the frame of its
    first two rays."""
    if fan.rank != 2 or not fan.is_complete():
        raise ValueError("the normal form requires a complete 2-dim fan")
    ccw = order_counterclockwise(fan.rays)
    cycles = [ccw[k:] + ccw[:k] for k in range(len(ccw))]
    cycles += [c[:1] + c[:0:-1] for c in cycles]
    return min(tuple(_in_frame(c, c[0], c[1])) for c in cycles)


def planar_normal_form(points) -> tuple:
    """Normal form of a finite set in Z^2 up to GL(2,Z) and translation.

    For a polygon: the least sorted image of the set moved to a hull vertex,
    in the frame of that vertex's two primitive edge directions, in either
    order.  A segment is framed by its direction from either end, which
    leaves its lattice coordinates or their reflection; a point is (0, 0).
    """
    pts = sorted({tuple(p) for p in points})
    if any(len(p) != 2 or not all(isinstance(x, int) for x in p)
           for p in pts):
        raise ValueError("planar point sets must lie in Z^2")
    if len(pts) <= 1:
        return tuple((0, 0) for _ in pts)
    hull = Polytope(pts)
    frames = []
    if hull.dim == 1:
        for v, w in (hull.vertices, hull.vertices[::-1]):
            d = primitivize(vsub(w, v))
            frames.append((v, d, (-d[1], d[0])))
    else:
        edges = [[hull.vertices[i] for i in inc]
                 for inc in hull.facet_vertex_incidence()]
        for v in hull.vertices:
            d1, d2 = (primitivize(vsub(w, v))
                      for e in edges if v in e for w in e if w != v)
            frames += [(v, d1, d2), (v, d2, d1)]
    return min(tuple(sorted(_in_frame([vsub(p, v) for p in pts], d1, d2)))
               for v, d1, d2 in frames)


@cache
def _catalog_forms() -> dict:
    return {fan_normal_form(catalog_fan(label)): label
            for label in CATALOG_RAYS}


def identify_surface(fan: Fan) -> str:
    """Catalog label of a complete 2-dim fan up to GL(2,Z), else UNKNOWN."""
    return _catalog_forms().get(fan_normal_form(fan), UNKNOWN)


def planar_sets_unimodular_equivalent(points_a, points_b) -> bool:
    """Lattice point sets in Z^2 equal up to GL(2,Z) and translation."""
    return planar_normal_form(points_a) == planar_normal_form(points_b)
