"""Recognition of complete 2-dimensional fans against a fixed catalog.

The catalog holds the seven surface types that show up as fiber
components in the bundled data set, keyed by conventional labels.
Matching is up to GL(2, Z), reflections included.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key

from .fans import Fan, fan_from_cones
from .geometry import HullData
from .intlinalg import (mat_transpose, mat_vec, primitivize, solve_unimodular,
                        vadd, vdot, vsub)

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
    """Complete 2-dim fan whose maximal cones join angle-adjacent rays."""
    ordered = order_counterclockwise(rays)
    cones = [[ordered[i], ordered[(i + 1) % len(ordered)]]
             for i in range(len(ordered))]
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


def identify_surface(fan: Fan) -> str:
    """Catalog label of a complete 2-dim fan up to GL(2,Z), else UNKNOWN."""
    if fan.rank != 2:
        raise ValueError("surface identification requires a 2-dimensional fan")
    if not fan.is_complete():
        raise ValueError("surface identification requires a complete fan")
    rays = order_counterclockwise(fan.rays)
    n = len(rays)
    for label, cat in CATALOG_RAYS.items():
        if len(cat) != n:
            continue
        if _matches(rays, cat):
            return label
    return UNKNOWN


def _matches(rays, cat) -> bool:
    n = len(rays)
    anchor = mat_transpose(rays[:2])
    targets = []
    for k in range(n):
        targets.append((cat[k], cat[(k + 1) % n]))        # orientation kept
        targets.append((cat[k], cat[(k - 1) % n]))        # reflected
    for c0, c1 in targets:
        # U carries rays[0] to c0 and rays[1] to c1
        u = solve_unimodular(anchor, mat_transpose([c0, c1]))
        if u is not None and {mat_vec(u, r) for r in rays} == set(cat):
            return True
    return False


def planar_sets_unimodular_equivalent(points_a, points_b) -> bool:
    """Lattice point sets in Z^2 equal up to GL(2,Z) and translation.

    Complete search anchored on extreme points and edge directions of
    the convex hulls; intended for small sets.
    """
    pa = sorted({tuple(p) for p in points_a})
    pb = sorted({tuple(p) for p in points_b})
    if len(pa) != len(pb):
        return False
    if len(pa) == 1:
        return True
    ha, hb = HullData(pa), HullData(pb)
    if len(ha.vertices) != len(hb.vertices):
        return False
    if ha.dim != hb.dim:
        return False
    if ha.dim == 1:
        da = primitivize(vsub(ha.vertices[1], ha.vertices[0]))
        sa = sorted(_line_coords(pa, ha.vertices[0], da))
        db = primitivize(vsub(hb.vertices[1], hb.vertices[0]))
        sb = sorted(_line_coords(pb, hb.vertices[0], db))
        return sa == sb or sorted(-x + max(sa) for x in sa) == sb
    va = ha.vertices[0]
    dirs_a = _vertex_edge_dirs(ha, va)
    set_b = set(pb)
    for vb in hb.vertices:
        dirs_b = _vertex_edge_dirs(hb, vb)
        for da in itertools.permutations(dirs_a, 2):
            for db in itertools.permutations(dirs_b, 2):
                u = solve_unimodular(mat_transpose(da), mat_transpose(db))
                if u is not None and \
                        {vadd(mat_vec(u, vsub(p, va)), vb) for p in pa} == set_b:
                    return True
    return False


def _line_coords(points, origin, direction):
    out = []
    for p in points:
        diff = (p[0] - origin[0], p[1] - origin[1])
        if direction[0]:
            t = diff[0] // direction[0]
        else:
            t = diff[1] // direction[1]
        out.append(t)
    return out


def _vertex_edge_dirs(hull, v):
    """Primitive directions of the two hull edges leaving vertex v."""
    dirs = []
    for n, c in hull.facets:
        if vdot(n, v) == -c:
            others = [w for w in hull.vertices if w != v and vdot(n, w) == -c]
            if others:
                w = min(others, key=lambda w: (abs(w[0] - v[0]) + abs(w[1] - v[1])))
                dirs.append(primitivize((w[0] - v[0], w[1] - v[1])))
    uniq = []
    for d in dirs:
        if d not in uniq:
            uniq.append(d)
    return uniq
