"""The double-description engine against a brute-force ray oracle."""

import itertools
import random

from oracles import cone_extreme_rays
from toricfiber.geometry import (HullData, dual_description,
                                 halfspaces_to_vertices)
from toricfiber.intlinalg import primitivize, vdot


def brute_force_rays(ineqs, dim):
    """Extreme rays of {Ax >= 0} for a pointed cone: candidate directions
    from corank-1 tight subsets, filtered by feasibility and extremity."""
    rays = set()
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(len(ineqs)), k)
            for k in range(dim - 1, len(ineqs) + 1)):
        rows = [list(ineqs[i]) for i in subset]
        # null space of the tight rows
        basis = _nullspace(rows, dim)
        if len(basis) != 1:
            continue
        for v in (basis[0], tuple(-x for x in basis[0])):
            if all(vdot(a, v) >= 0 for a in ineqs):
                tight = [a for a in ineqs if vdot(a, v) == 0]
                if len(_nullspace([list(t) for t in tight], dim)) == 1:
                    rays.add(primitivize(v))
    return rays


def _nullspace(rows, dim):
    out = []
    from toricfiber.intlinalg import LatticeMap, kernel_basis
    if not rows:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return kernel_basis(LatticeMap.from_rows(rows))


def test_dd_matches_brute_force():
    rng = random.Random(20240)
    checked = 0
    while checked < 120:
        dim = rng.randint(2, 4)
        n = rng.randint(dim, dim + 3)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
        ineqs = [a for a in ineqs if any(a)]
        if not ineqs:
            continue
        rays, lin = dual_description(ineqs, [], dim)
        if lin:
            continue  # oracle below assumes a pointed cone
        assert set(rays) == brute_force_rays(ineqs, dim)
        checked += 1


def test_hull_square_with_interior_point():
    h = HullData([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert h.vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(h.facets) == 4 and not h.equations


def test_hull_degenerate_segment():
    h = HullData([(0, 0), (2, 0), (1, 0)])
    assert h.vertices == [(0, 0), (2, 0)]
    assert h.dim == 1 and len(h.equations) == 1


def test_extreme_rays_drop_redundant():
    assert sorted(cone_extreme_rays([(1, 0), (1, 1), (0, 1)], 2)) == \
        [(0, 1), (1, 0)]


def test_halfspaces_to_vertices_triangle():
    verts = halfspaces_to_vertices(
        [((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)], [], 2)
    assert verts == [(0, 0), (0, 2), (2, 0)]


def test_hull_vertices_satisfy_facets():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(2, 4)
        pts = [tuple(rng.randint(-4, 4) for _ in range(dim))
               for _ in range(rng.randint(dim + 1, dim + 5))]
        h = HullData(pts)
        for v in h.vertices:
            assert all(vdot(n, v) >= -c for n, c in h.facets)
            assert all(vdot(e, v) == -c for e, c in h.equations)
        for p in pts:
            assert all(vdot(n, p) >= -c for n, c in h.facets)
