"""The double-description engine against a brute-force ray oracle, and
the hulls and cones described by it."""

import itertools
import random

from oracles import cone_extreme_rays, halfspaces_to_vertices
from toricfiber import fans
from toricfiber.fans import Cone
from toricfiber.geometry import dual_description
from toricfiber.intlinalg import primitivize, vdot
from toricfiber.polytopes import Polytope


def brute_force_rays(ineqs, dim):
    """Extreme rays of {Ax >= 0} for a pointed cone: candidate directions
    from the null spaces of dim - 1 rows, filtered by feasibility and
    extremity.  The rows tight at an extreme ray have rank dim - 1, so
    dim - 1 of them cut out its line."""
    rays = set()
    for subset in itertools.combinations(ineqs, dim - 1):
        # null space of the tight rows
        basis = _nullspace([list(a) for a in subset], dim)
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


def _pad(v, spots):
    """v with a zero inserted at each position in spots (ascending)."""
    v = list(v)
    for i in spots:
        v.insert(i, 0)
    return tuple(v)


def test_dd_matches_brute_force():
    # pointed cones {Ax >= 0, Ex = 0} in ranks 2 to 5, some with equations,
    # and some padded with zero coordinates, which become lineality: the
    # adjacency pre-check must count the pointed part's dimension only
    rng = random.Random(20240)
    checked = with_eqs = padded = 0
    while checked < 200:
        dim = rng.randint(2, 5)
        n = rng.randint(dim, dim + 3)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
        ineqs = [a for a in ineqs if any(a)]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(dim))
               for _ in range(rng.choice((0, 0, 1, 2)))]
        if not ineqs:
            continue
        rays, lin = dual_description(ineqs, eqs, dim)
        if lin:
            continue  # oracle below assumes a pointed cone
        rows = ineqs + eqs + [tuple(-x for x in e) for e in eqs]
        expected = brute_force_rays(rows, dim)
        assert set(rays) == expected
        wide = dim + rng.randint(0, 2)
        spots = sorted(rng.sample(range(wide), wide - dim))
        rays, lin = dual_description([_pad(a, spots) for a in ineqs],
                                     [_pad(e, spots) for e in eqs], wide)
        assert set(rays) == {_pad(r, spots) for r in expected}
        assert sorted(lin) == sorted(
            tuple(int(i == j) for i in range(wide)) for j in spots)
        checked += 1
        with_eqs += bool(eqs)
        padded += bool(spots)
    assert with_eqs > 50 and padded > 50


def test_hull_square_with_interior_point():
    h = Polytope([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert h.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(h.facets) == 4 and not h.equations


def test_hull_degenerate_segment():
    h = Polytope([(0, 0), (2, 0), (1, 0)])
    assert h.vertices == ((0, 0), (2, 0))
    assert h.dim == 1 and len(h.equations) == 1


def test_one_double_description_per_hull_and_cone(monkeypatch):
    # a hull with a point to drop, and a cone with a redundant generator,
    # keep the description taken before dropping it
    calls = []

    def counted(inequalities, equations, dim):
        calls.append(dim)
        return dual_description(inequalities, equations, dim)

    monkeypatch.setattr(fans, "dual_description", counted)
    square = Polytope([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert len(square.vertices) == 4 and len(square.facets) == 4
    assert calls == [3]
    calls.clear()
    cone = Cone.make([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3)
    assert cone.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert len(cone.facets) == 3
    assert calls == [3]


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
        h = Polytope(pts)
        for v in h.vertices:
            assert all(vdot(n, v) >= -c for n, c in h.facets)
            assert all(vdot(e, v) == -c for e, c in h.equations)
        for p in pts:
            assert all(vdot(n, p) >= -c for n, c in h.facets)
