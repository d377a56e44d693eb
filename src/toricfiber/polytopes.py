"""Integral polytopes in a dual lattice: hulls, facets, lattice points,
polar duality, normal fans, and subspace restriction charts.

A polytope P is described as the cone over {1} x P: the cone's extreme
rays are the vertices, and its facets and span equations are those of P
(Ziegler, Lectures on Polytopes, section 1.5)."""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .fans import Cone, Fan, fan_from_cones
from .intlinalg import (SublatticeCoords, Vec, kernel_basis, kernel_coords,
                        LatticeMap, lin_comb, vadd, vdot, vsub)


class Polytope:
    """Convex hull of lattice points, with exact V- and H-representations.

    Facets are (inward primitive normal, offset) pairs meaning
    <normal, x> >= -offset; equations cut out the affine span the same
    way.  Vertices are lexicographically sorted.
    """

    def __init__(self, points):
        pts = {tuple(int(x) for x in p) for p in points}
        if not pts:
            raise ValueError("empty point set")
        self.ambient_rank = len(next(iter(pts)))
        # a functional n of the cone reads <n[1:], x> >= -n[0] on P; the
        # one with n[1:] zero is 1 >= 0, not a facet of P
        cone = Cone.make([(1,) + p for p in pts], self.ambient_rank + 1)
        normals, eqs = cone.halfspaces
        self.vertices: tuple[Vec, ...] = tuple(
            sorted(g[1:] for g in cone.generators))
        self.facets: tuple[tuple[Vec, int], ...] = tuple(
            sorted((n[1:], n[0]) for n in normals if any(n[1:])))
        self.equations: tuple[tuple[Vec, int], ...] = tuple(
            sorted((e[1:], e[0]) for e in eqs))
        # the census: lattice point -> tight-facet bitmask, in
        # lexicographic order
        self._lattice_points: dict[Vec, int] | None = None
        self._ray_faces: dict[Vec, int] = {}
        # the fans found to refine the normal fan, with their support
        # vertices (see support_vertices)
        self._refining_fans = weakref.WeakKeyDictionary()

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self.equations)

    @property
    def is_full_dimensional(self) -> bool:
        return not self.equations

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"facets={len(self.facets)})")

    def contains(self, point) -> bool:
        return (all(vdot(e, point) == -c for e, c in self.equations)
                and all(vdot(n, point) >= -c for n, c in self.facets))

    def bounding_box(self):
        lo = [min(v[i] for v in self.vertices) for i in range(self.ambient_rank)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.ambient_rank)]
        return lo, hi

    def lattice_points(self) -> list[Vec]:
        """All lattice points, lexicographically ordered.

        Walks the bounding box one coordinate at a time, carrying each
        inequality's partial sum; the equations count as two inequalities
        each.  At every coordinate the inequalities are solved for the
        interval of values from which the rest of the box can still
        satisfy them all, so a prefix that no box point completes is never
        extended, and at the last coordinate that interval is the run of
        lattice points itself.  The coordinates are taken from the
        narrowest box width to the widest (index order on ties), so the
        widest is the run, read in one step; when that is not the index
        order, the points are mapped back to the original coordinates and
        sorted once.  The scan keeps each point in the census
        (`point_masks`) with the bitmask of the facets it is tight on,
        read off the same run: a facet row with a positive coefficient is
        tight at most at the run's first value, one with a negative
        coefficient at its last, and one with coefficient 0 on the whole
        run or nowhere.
        """
        if self._lattice_points is None:
            self._lattice_points = (self._scan() if self.ambient_rank
                                    else {(): 0})
        return list(self._lattice_points)

    def point_masks(self) -> dict[Vec, int]:
        """The census: each lattice point, lexicographically ordered, with
        the bitmask of the facets it is tight on (bit j for facet j), kept
        from the one scan of `lattice_points`.  Callers read it and do not
        change it."""
        if self._lattice_points is None:
            self.lattice_points()
        return self._lattice_points

    @cached_property
    def census(self) -> Counter:
        """Lattice points counted by the set of facets they are tight on,
        keyed by bitmask.  A point is in the relative interior of the face
        cut out by its tight facets, so the key 0 counts the interior
        points and a one-bit key those interior to that facet."""
        return Counter(self.point_masks().values())

    def tight_point_count(self, mask: int) -> int:
        """The lattice points tight on every facet in the mask."""
        return sum(k for m, k in self.census.items() if m & mask == mask)

    def _scan(self) -> dict[Vec, int]:
        lo, hi = self.bounding_box()
        rows = list(self.equations)
        rows += [(tuple(-x for x in e), -c) for e, c in self.equations]
        first_facet = len(rows)
        rows += self.facets
        last = self.ambient_rank - 1
        # narrowest box width first, ties in index order: the widest
        # coordinate is then the run the last level reads in one step
        order = sorted(range(last + 1), key=lambda i: hi[i] - lo[i])
        permuted = order != list(range(last + 1))
        if permuted:
            pick = itemgetter(*order)
            lo, hi = pick(lo), pick(hi)
            rows = [(pick(n), c) for n, c in rows]
        # floors[k][i]: the least value of row i's sum over coordinates
        # 0..k from which coordinates k+1.. of the box can still reach -c
        floors = [None] * (last + 1)
        reach = [0] * len(rows)
        for k in range(last, -1, -1):
            floors[k] = [-c - r for r, (_, c) in zip(reach, rows)]
            reach = [r + max(n[k] * lo[k], n[k] * hi[k])
                     for r, (n, _) in zip(reach, rows)]
        columns = [[n[k] for n, _ in rows] for k in range(last + 1)]
        # per facet at the last coordinate: (bit, coefficient, floor)
        tight_rows = [(1 << j, t, f) for j, (t, f) in enumerate(
            zip(columns[last][first_facet:], floors[last][first_facet:]))]
        census = {}

        def extend(k, head, partial):
            a, b = lo[k], hi[k]
            for t, f, s in zip(columns[k], floors[k], partial):
                r = f - s                   # t * x >= r
                if t > 0:
                    a = max(a, -(-r // t))
                elif t < 0:
                    b = min(b, r // t)
                elif r > 0:
                    return
                if a > b:
                    return
            if k == last:
                run = at_a = at_b = 0
                for (bit, t, f), s in zip(tight_rows,
                                          partial[first_facet:]):
                    r = f - s
                    if t > 0:
                        if t * a == r:
                            at_a |= bit
                    elif t < 0:
                        if t * b == r:
                            at_b |= bit
                    elif r == 0:
                        run |= bit
                row = [run] * (b - a + 1)
                row[0] |= at_a
                row[-1] |= at_b
                census.update(zip([head + (x,) for x in range(a, b + 1)],
                                  row))
                return
            column = columns[k]
            for x in range(a, b + 1):
                extend(k + 1, head + (x,),
                       [s + t * x for s, t in zip(partial, column)])

        extend(0, (), [0] * len(rows))
        if permuted:
            # back to the original coordinates, in their lexicographic order
            back = itemgetter(*sorted(range(last + 1), key=order.__getitem__))
            census = dict(sorted(zip(map(back, census), census.values())))
        return census

    def facet_vertex_incidence(self):
        """Per facet, the sorted list of indices of vertices lying on it."""
        out = []
        for n, c in self.facets:
            out.append(tuple(i for i, v in enumerate(self.vertices)
                             if vdot(n, v) == -c))
        return out

    def face(self, rays) -> tuple[tuple[Vec, ...], int]:
        """(vertices, facet mask) of the face the rays cut out.  Its
        vertices are those minimising every ray: none when no vertex
        minimises them all, and every vertex for no ray.  The mask, the
        AND of their facet masks, holds the facets through the face.  A
        nonempty face is the intersection of P with those facets, or P
        itself when there are none (Ziegler, Lectures on Polytopes,
        section 2.1), so its lattice points are those whose census mask
        holds the face's (`tight_point_count`).  An empty face gets the
        mask -1, which no point's mask holds."""
        face = (1 << len(self.vertices)) - 1
        for r in rays:
            face &= self._ray_face(r)
        idx = [i for i in range(len(self.vertices)) if face >> i & 1]
        mask = -1
        for i in idx:
            mask &= self._vertex_masks[i]
        return tuple(self.vertices[i] for i in idx), mask

    def support_vertices(self, fan: Fan) -> dict:
        """Maximal cone of the fan -> its support vertex, the one vertex
        minimising every ray of the cone.  A cone lies in the normal cone
        of a vertex exactly when that vertex is the only one minimising
        all its rays, so this raises unless the fan refines the normal
        fan of P.  The table is built on the first call for a fan and
        kept with the polytope, weakly, so a fan is not kept alive by it.
        Callers read it and do not change it."""
        support = self._refining_fans.get(fan)
        if support is None:
            support = {}
            for idx in fan.maximal_cones:
                face, _ = self.face([fan.rays[i] for i in idx])
                if len(face) != 1:
                    raise ValueError(
                        "fan does not refine the normal fan of the polytope")
                support[idx] = face[0]
            self._refining_fans[fan] = support
        return support

    @cached_property
    def _vertex_masks(self) -> tuple[int, ...]:
        """Per vertex, the bitmask of the facets through it."""
        masks = [0] * len(self.vertices)
        for j, inc in enumerate(self.facet_vertex_incidence()):
            for i in inc:
                masks[i] |= 1 << j
        return tuple(masks)

    def _ray_face(self, ray) -> int:
        """The bitmask of the vertices minimising <v, ray> (bit i for
        vertex i), kept per ray on first use."""
        face = self._ray_faces.get(ray)
        if face is None:
            values = [vdot(v, ray) for v in self.vertices]
            least = min(values)
            face = self._ray_faces[ray] = sum(
                1 << i for i, x in enumerate(values) if x == least)
        return face


# No library caller: perfbench/child.py reads this name.
def lattice_points(p: Polytope) -> list[Vec]:
    return p.lattice_points()


def _origin_interior(p: Polytope) -> bool:
    return p.is_full_dimensional and all(c > 0 for _, c in p.facets)


def dual_polytope(p: Polytope) -> Polytope:
    """Polar dual {y : <y, x> >= -1 for all x in P}.

    Vertices of the dual are the facet normals scaled to offset 1;
    raises when the polar is not a lattice polytope.
    """
    if not _origin_interior(p):
        raise ValueError("polar duality requires the origin in the interior")
    verts = []
    for n, c in p.facets:
        if any(x % c for x in n):
            raise ValueError("polar dual is not a lattice polytope")
        verts.append(tuple(x // c for x in n))
    return Polytope(verts)


def is_reflexive(p: Polytope) -> bool:
    if not _origin_interior(p):
        raise ValueError("reflexivity requires the origin in the interior")
    return all(c == 1 for _, c in p.facets)


def normal_fan(p: Polytope) -> Fan:
    """Inner normal fan: the cone at a vertex collects the inward facet
    normals of the facets through it, so that <., v> is minimized on the
    corresponding face."""
    if not p.is_full_dimensional:
        raise ValueError("normal fan requires a full-dimensional polytope")
    incidence = p.facet_vertex_incidence()
    cones = [[n for (n, _), inc in zip(p.facets, incidence) if i in inc]
             for i in range(len(p.vertices))]
    return fan_from_cones(p.ambient_rank, cones)


@dataclass(frozen=True)
class SubspaceChart:
    """Affine chart origin + B y on a saturated sublattice slice, B having
    the basis of `coords` as columns; `coords` maps a vector of the
    slice's lattice to y through an integer left inverse of B."""

    origin: Vec
    coords: SublatticeCoords

    def __post_init__(self):
        if self.coords.scale != 1:
            raise ValueError("chart basis does not span a saturated sublattice")

    @property
    def basis(self) -> tuple[Vec, ...]:
        return self.coords.basis

    def to_chart(self, point) -> Vec:
        """Chart coordinates y, with lin_comb(y, basis) == point - origin."""
        coords = self.coords(vsub(point, self.origin))
        if coords is None:
            raise ValueError(f"{point} is not on the chart lattice")
        return coords

    def from_chart(self, coords) -> Vec:
        return vadd(self.origin, lin_comb(coords, self.basis, len(self.origin)))


@dataclass(frozen=True)
class RestrictedPolytope:
    """The face of a polytope P cut out by the rays of a cone tau, in the
    chart of tau's orthogonal complement at a vertex of that face: the
    chart points that P contains.  It keeps the face's vertices in P's
    coordinates and its facet mask, both from `P.face`; its vertices are
    charted on first use, and `P.tight_point_count(face_mask)` counts its
    lattice points with no chart; `polytope`, the charted hull, is built
    only when asked for."""

    chart: SubspaceChart
    face: tuple[Vec, ...] = field(repr=False)
    face_mask: int = field(repr=False)

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(sorted(self.chart.to_chart(v) for v in self.face))

    @cached_property
    def polytope(self) -> Polytope:
        return Polytope(self.vertices)


def orthogonal_complement_basis(vectors, rank: int) -> list[Vec]:
    """Basis of {m : <m, v> = 0 for all given v}, saturated in Z^rank."""
    return kernel_basis(LatticeMap._shaped(vectors, rank))


def restriction_polytope(p: Polytope, tau_idx, ref_fan: Fan) -> RestrictedPolytope:
    """Polytope of the bundle restricted to the orbit closure of a cone.

    Raises unless the fan refines the normal fan of P, checked on every
    maximal cone the first time this polytope meets this fan.  Translates
    by the weight of the lexicographically smallest maximal cone
    containing tau and intersects with the orthogonal complement of tau,
    expressed in a saturated basis of that complement: the kernel of
    tau's rays with its coordinates, off one Smith form.  That weight
    minimises every ray of tau, so the slice is the face of P they cut
    out.  Any other valid weight gives a lattice translate.
    """
    tau_idx = tuple(sorted(tau_idx))
    if not ref_fan.has_cone(tau_idx):
        raise ValueError("tau is not a cone of the fan")
    support = p.support_vertices(ref_fan)
    # the maximal cones are sorted, and tau, a cone of the fan, is a face
    # of each one that holds its rays
    top = next((c for c in ref_fan.maximal_cones if set(tau_idx) <= set(c)),
               None)
    if top is None:
        raise ValueError("tau is not contained in a maximal cone")
    origin = support[top]
    tau_rays = tuple(ref_fan.rays[i] for i in tau_idx)
    kernel, _ = kernel_coords(LatticeMap._shaped(tau_rays, p.ambient_rank))
    return RestrictedPolytope(SubspaceChart(origin, kernel), *p.face(tau_rays))


def interior_lattice_points(p: Polytope) -> list[Vec]:
    """Lattice points in the relative interior: those tight on no facet.

    Convention: a 0-dimensional polytope has no interior points.
    """
    if p.dim == 0:
        return []
    return [pt for pt, m in p.point_masks().items() if not m]


def face_polytope(p: Polytope, vertex_indices) -> Polytope:
    """The face spanned by the given vertices (must be an actual face)."""
    verts = [p.vertices[i] for i in vertex_indices]
    face = Polytope(verts)
    # a face is exactly the subset of P tight on some valid inequalities;
    # verify by checking no other vertex satisfies all of the face's
    # supporting facets with equality
    tight = [(n, c) for n, c in p.facets
             if all(vdot(n, v) == -c for v in verts)]
    for v in p.vertices:
        if v not in verts and all(vdot(n, v) == -c for n, c in tight):
            raise ValueError("vertex set does not span a face")
    return face
