"""Rational polyhedral cones and fans.

Cones are stored by primitive generators.  One description per cone
gives its facet normals and span equations, and its dimension, extreme
rays, faces and every membership question are read off them.  A
full-dimensional simplicial cone is read off its dual basis, the columns
of one fraction-free inverse of its generators; any other cone takes a
double description.
Fans keep a ray table plus index tuples, with every face registered on
construction.
Every fan is validated: a complete fan by a local certificate read off
the facets of its maximal cones (`Fan._certificate_failure`), any other
fan by intersecting each pair of maximal cones.  In a validated fan the
face relation is inclusion of ray index sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod

from .geometry import dual_description, intersect_cones
from .intlinalg import (Vec, is_zero, is_primitive, lin_comb, mat_det,
                        mat_mul, mat_rank, mat_vec, primitivize,
                        scaled_inverse, smith_normal_form, vdot)


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational polyhedral cone spanned by primitive rays."""

    generators: tuple[Vec, ...]
    ambient_rank: int

    @classmethod
    def make(cls, generators, ambient_rank: int) -> "Cone":
        gens = sorted({primitivize(g) for g in generators if not is_zero(g)})
        cone = cls(tuple(gens), ambient_rank)
        if not cone.is_simplicial:
            extreme = cone._extreme_rays()
            if extreme is None:
                raise ValueError(f"cone {gens} is not strongly convex")
            if len(extreme) != len(gens):
                # the same cone on fewer generators: its description stands
                halfspaces = cone.halfspaces
                cone = cls(tuple(extreme), ambient_rank)
                cone.__dict__["halfspaces"] = halfspaces
        return cone

    @cached_property
    def dim(self) -> int:
        """The ambient rank less the number of span equations: the
        equations are a basis of the orthogonal complement of the span."""
        return self.ambient_rank - len(self.halfspaces[1])

    @cached_property
    def is_simplicial(self) -> bool:
        return self.dim == len(self.generators)

    @cached_property
    def halfspaces(self):
        """(inward primitive facet normals, span equations).  For n
        independent generators in rank n, normal j is the primitive column j
        of the adjugate, the dual basis vector that vanishes on every other
        generator, signed to pair positively with generator j; this is what
        the double description returns, in the same order."""
        n, gens = self.ambient_rank, self.generators
        if len(gens) == n and all(len(g) == n for g in gens):
            inverse = scaled_inverse(gens)
            if inverse is not None:
                d, cols = inverse
                s = 1 if d > 0 else -1
                return [primitivize([s * row[j] for row in cols])
                        for j in range(n)], []
        return dual_description(gens, [], n)

    def _extreme_rays(self):
        """The generators that span extreme rays, in order, or None when
        the cone contains a line; read off the facets F and span
        equations E.

        The lineality space of the cone is the kernel of F and E together,
        so the cone is strongly convex exactly when they have rank d.  A
        generator g of a strongly convex cone lies in the relative interior
        of the face G cut out by the facets tight at g, and G is spanned by
        the generators it holds: those on every facet tight at g, the AND
        of those facets' generator masks.  The generators are primitive and
        distinct, so g spans an extreme ray exactly when that AND is g's
        own bit (Ziegler, Lectures on Polytopes, section 2)."""
        normals, eqs = self.halfspaces
        if mat_rank(normals + eqs) != self.ambient_rank:
            return None
        extreme = []
        for i, g in enumerate(self.generators):
            face = (1 << len(self.generators)) - 1
            for m in self._facet_masks:
                if m >> i & 1:
                    face &= m
            if face == 1 << i:
                extreme.append(g)
        return extreme

    def face(self, positions) -> "Cone":
        """The face spanned by the generators at these positions, which
        must span a face.  A face of a simplicial cone is simplicial, so its
        dimension is its number of generators."""
        face = Cone(tuple(self.generators[i] for i in positions),
                    self.ambient_rank)
        if self.is_simplicial:
            face.__dict__["dim"] = len(positions)
        return face

    def multiplicity(self) -> int:
        """Index of the subgroup generated by the rays inside the span lattice."""
        if not self.is_simplicial:
            raise ValueError("multiplicity requires a simplicial cone")
        mat = [[g[i] for g in self.generators] for i in range(self.ambient_rank)]
        return prod(d for d in smith_normal_form(mat).diagonal if d)

    def relint_point(self) -> Vec:
        """Canonical lattice point in the relative interior: the ray sum."""
        return lin_comb([1] * len(self.generators), self.generators,
                        self.ambient_rank)

    @cached_property
    def facets(self):
        """(inward primitive normal, positions of the generators on it) for
        each facet."""
        return tuple((n, tuple(i for i, g in enumerate(self.generators)
                               if vdot(n, g) == 0))
                     for n in self.halfspaces[0])

    @cached_property
    def _facet_masks(self):
        """The generator positions on each facet, as one int bitmask."""
        return tuple(sum(1 << i for i in on) for _, on in self.facets)

    def relint_face(self, v: Vec):
        """Generator positions of the face whose relative interior holds v,
        or None when v is outside the cone.

        The face is cut out by the facets tight at v, so its generators are
        those lying on every tight facet.
        """
        if any(vdot(e, v) for e in self.halfspaces[1]):
            return None
        face = range(len(self.generators))
        for n, on in self.facets:
            side = vdot(n, v)
            if side < 0:
                return None
            if side == 0:
                face = [i for i in face if i in on]
        return tuple(face)

    def contains(self, v: Vec) -> bool:
        return self.relint_face(v) is not None

    def contains_relint(self, v: Vec) -> bool:
        return self.relint_face(v) == tuple(range(len(self.generators)))

    def face_generator_sets(self):
        """Generator index subsets spanning the faces, the cone included,
        ordered by size: every subset when the cone is simplicial, else the
        intersections of the generator sets of the facets."""
        n = len(self.generators)
        if self.is_simplicial:
            return [s for k in range(n + 1)
                    for s in itertools.combinations(range(n), k)]
        # generator sets as bitmasks, closed under intersection (Kaibel and
        # Pfetsch, Comput. Geom. 23, 2002)
        masks = self._facet_masks
        found = {(1 << n) - 1}
        todo = list(found)
        while todo:
            face = todo.pop()
            for m in masks:
                sub = face & m
                if sub not in found:
                    found.add(sub)
                    todo.append(sub)
        faces = [tuple(i for i in range(n) if f >> i & 1) for f in found]
        return sorted(faces, key=lambda s: (len(s), s))


class Fan:
    """Face-closed collection of cones sharing a primitive ray table."""

    def __init__(self, rank: int, rays, maximal_cones, *, _parent_cones=None):
        self.rank = int(rank)
        if self.rank < 0:
            raise ValueError(f"fan rank {self.rank} is negative")
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in self.rays:
            if len(r) != self.rank:
                raise ValueError(f"ray {r} has {len(r)} coordinates, but "
                                 f"the fan has rank {self.rank}")
            if is_zero(r):
                raise ValueError("zero vector is not a ray")
            if not is_primitive(r):
                raise ValueError(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        maximal = []
        for c in maximal_cones:
            idx = tuple(sorted(set(int(i) for i in c)))
            if any(i < 0 or i >= len(self.rays) for i in idx):
                raise ValueError("cone refers to a missing ray")
            maximal.append(idx)
        self._cones: dict[tuple[int, ...], Cone] = {}
        self._close_faces(sorted(set(maximal)), _parent_cones or {})
        self._validate_cones()
        self._complete = self._certificate_failure() == 0
        if not self._complete:
            self._validate_intersections()

    # -- construction ----------------------------------------------------

    def _cone_from_indices(self, idx) -> Cone:
        return Cone(tuple(self.rays[i] for i in idx), self.rank)

    def _close_faces(self, listed, parent):
        """Close the listed cones under faces; the maximal cones are the
        listed ones, other than the zero cone, that are not a proper face of
        another.  Larger cones go first, so a listed face of one of them is
        already closed.  An index set that `parent` holds takes its cone
        from there: a fan whose ray table extends the parent's at the end
        names the same generators by it."""
        self._cones[()] = Cone((), self.rank)
        proper = set()
        for top in sorted(listed, key=len, reverse=True):
            if top in proper:
                continue
            cone = self._cones.setdefault(
                top, parent.get(top) or self._cone_from_indices(top))
            for sub in cone.face_generator_sets()[:-1]:
                f = tuple(top[i] for i in sub)
                proper.add(f)
                if f not in self._cones:
                    self._cones[f] = parent.get(f) or cone.face(sub)
        self.maximal_cones = tuple(c for c in listed if c and c not in proper)

    def _validate_cones(self):
        for idx in self.maximal_cones:
            cone = self._cones[idx]
            if cone.is_simplicial:
                continue
            extreme = cone._extreme_rays()
            if extreme is None:
                raise ValueError(f"cone {idx} is not strongly convex")
            if len(extreme) != len(idx):
                raise ValueError(f"cone {idx} lists a redundant ray")

    def _certificate_failure(self) -> int:
        """The first failing step of the completeness certificate, or 0.

        1. every maximal cone is full-dimensional;
        2. every facet (as a ray index set) is a facet of exactly two
           maximal cones, whose inward normals are opposite;
        3. the ray sum p of the first maximal cone lies in no other one.

        Soundness, by the degree-one argument for pseudomanifolds (Cox,
        Little and Schenck, Toric Varieties; Ewald, Combinatorial Convexity
        and Algebraic Geometry).  Take x in the relative interior of a face
        G of a maximal cone, a ball B about x meeting only the faces that
        contain x, and let deg(y) count the maximal cones having G as a
        face and y in their interior.  A generic path in B leaves such a
        cone through the relative interior of a facet F containing x, so
        F contains G; by step 2 the partner across F, which also has G as
        a face, is entered at the same time, and deg is constant on B.
        For G = 0 (B the whole space) deg counts every maximal cone and is
        1 near p by step 3: the interiors are disjoint and the cones cover
        the space.  For any G, deg >= 1 near x, so no maximal cone without
        the face G has interior points near x, and none contains x.  Hence
        x has the same carrier face G in every maximal cone through it.
        For two maximal cones and x in the relative interior of their
        intersection K, G contains K and lies in both, so K = G is a face
        of both.  Conversely, every complete fan passes the three steps.
        """
        if not self.maximal_cones:
            return 0 if self.rank == 0 else 1
        sides: dict[tuple[int, ...], list[Vec]] = {}
        for idx in self.maximal_cones:
            cone = self._cones[idx]
            if cone.dim != self.rank:
                return 1
            for n, on in cone.facets:
                sides.setdefault(tuple(idx[i] for i in on), []).append(n)
        if any(len(ns) != 2 or ns[0] != tuple(-x for x in ns[1])
               for ns in sides.values()):
            return 2
        first, *rest = self.maximal_cones
        p = self._cones[first].relint_point()
        if any(self._cones[idx].contains(p) for idx in rest):
            return 3
        return 0

    def _validate_intersections(self):
        """The fan is not yet known to be valid, so a common face is looked
        up among each cone's own faces, not decided by inclusion."""
        faces = {idx: {tuple(idx[i] for i in sub) for sub in
                       self._cones[idx].face_generator_sets()}
                 for idx in self.maximal_cones}
        for idx_a, idx_b in itertools.combinations(self.maximal_cones, 2):
            rays = intersect_cones(self._cones[idx_a].halfspaces,
                                   self._cones[idx_b].halfspaces, self.rank)
            common = []
            for r in rays:
                if r not in self.rays:
                    raise ValueError(
                        f"cones {idx_a} and {idx_b} overlap off a face")
                common.append(self.rays.index(r))
            face = tuple(sorted(common))
            if not (set(face) <= set(idx_a) and set(face) <= set(idx_b)):
                raise ValueError(
                    f"cones {idx_a} and {idx_b} do not meet in a common face")
            if face not in faces[idx_a] or face not in faces[idx_b]:
                raise ValueError(
                    f"intersection of {idx_a} and {idx_b} is not a face of both")

    # -- queries ----------------------------------------------------------

    @property
    def all_cone_indices(self) -> list[tuple[int, ...]]:
        return sorted(self._cones, key=lambda s: (len(s), s))

    def cone(self, idx) -> Cone:
        return self._cones[tuple(sorted(idx))]

    def has_cone(self, idx) -> bool:
        return tuple(sorted(idx)) in self._cones

    def is_face(self, tau_idx, sigma_idx) -> bool:
        """Is tau a face of sigma?  In a fan the intersection of two cones
        is a face of both, and tau inside sigma makes that face tau."""
        tau = tuple(sorted(tau_idx))
        sigma = tuple(sorted(sigma_idx))
        return tau in self._cones and sigma in self._cones and \
            set(tau) <= set(sigma)

    def proper_faces(self, idx) -> list[tuple[int, ...]]:
        """The faces of a cone other than itself, ordered by size."""
        idx = tuple(sorted(idx))
        return [tuple(idx[i] for i in sub)
                for sub in self.cone(idx).face_generator_sets()[:-1]]

    def locate_relint(self, v: Vec):
        """Index set of the unique cone whose relative interior contains v,
        or None when v is outside the support."""
        for idx in self.maximal_cones or [()]:
            face = self._cones[idx].relint_face(v)
            if face is not None:
                return tuple(idx[i] for i in face)
        return None

    def is_smooth(self) -> bool:
        for idx in self.maximal_cones:
            cone = self._cones[idx]
            if not cone.is_simplicial:
                raise ValueError("smoothness test requires a simplicial fan")
            if cone.multiplicity() != 1:
                return False
        return True

    def is_complete(self) -> bool:
        """Does the support cover the whole space?  This is the result of
        the certificate taken at construction, which holds for a fan
        exactly when it is complete; the rank-0 fan is complete."""
        return self._complete

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.rank + 1)
        for idx in self._cones:
            counts[self._cones[idx].dim] += 1
        return tuple(counts)


def fan_from_cones(rank: int, cones) -> Fan:
    """Fan from explicit generator lists; the ray table is collected."""
    rays: list[Vec] = []
    index: dict[Vec, int] = {}
    idx_cones = []
    for gens in cones:
        idx = []
        for g in gens:
            p = primitivize(g)
            if p not in index:
                index[p] = len(rays)
                rays.append(p)
            idx.append(index[p])
        idx_cones.append(idx)
    return Fan(rank, rays, idx_cones)


def zero_fan(rank: int) -> Fan:
    return Fan(rank, [], [])


def star_subdivide(f: Fan, r: Vec) -> Fan:
    """Star subdivision of a simplicial fan at a primitive lattice ray."""
    r = tuple(int(x) for x in r)
    if len(r) != f.rank:
        raise ValueError(f"subdivision ray has {len(r)} coordinates, but "
                         f"the fan has rank {f.rank}")
    if not is_primitive(r):
        raise ValueError("subdivision ray must be primitive")
    if f.locate_relint(r) is None:
        raise ValueError("subdivision ray lies outside the fan support")
    rays = list(f.rays)
    if r in rays:
        r_idx = rays.index(r)
    else:
        rays.append(r)
        r_idx = len(rays) - 1
    new_maximal = []
    for idx in f.maximal_cones:
        cone = f.cone(idx)
        if not cone.is_simplicial:
            raise ValueError("star subdivision implemented for simplicial fans")
        support = cone.relint_face(r)
        if support is None:
            new_maximal.append(idx)
            continue
        for drop in support:
            kept = tuple(sorted([i for i in idx if i != idx[drop]] + [r_idx]))
            new_maximal.append(kept)
    # the ray table only grows at the end, so every index set the
    # subdivision keeps names the parent's generators
    return Fan(f.rank, rays, new_maximal, _parent_cones=f._cones)


def singular_locus_cones(f: Fan) -> list[tuple[int, ...]]:
    """Minimal-by-face singular cones: multiplicity > 1, all faces smooth."""
    out = []
    for idx in f.all_cone_indices:
        cone = f.cone(idx)
        if not cone.is_simplicial:
            raise ValueError("singular locus requires a simplicial fan")
        if cone.multiplicity() <= 1:
            continue
        if all(f.cone(face).multiplicity() == 1 for face in f.proper_faces(idx)):
            out.append(idx)
    return out


def fan_equal(f1: Fan, f2: Fan) -> bool:
    """Same rays and same maximal cones, independent of ray order."""
    if f1.rank != f2.rank or set(f1.rays) != set(f2.rays):
        return False
    tops1 = {frozenset(f1.rays[i] for i in c) for c in f1.maximal_cones}
    tops2 = {frozenset(f2.rays[i] for i in c) for c in f2.maximal_cones}
    return tops1 == tops2


def fan_isomorphic(f1: Fan, f2: Fan):
    """GL(rank, Z) equivalence for fans with a simplicial full-dim cone.

    Returns the matrix of a lattice isomorphism carrying f1 onto f2,
    or None.  Search is anchored on the first maximal cone A of f1 that is
    simplicial and full-dimensional, and raises ValueError when f1 has
    none: for each ordering T of the generators of a target maximal cone,
    U A = T gives U = T (d A^-1) / d from one `scaled_inverse`, and
    det U = det T / det A, so a target with |det T| != |det A| is skipped.
    """
    if f1.rank != f2.rank or len(f1.rays) != len(f2.rays) or \
            len(f1.maximal_cones) != len(f2.maximal_cones):
        return None
    n = f1.rank
    if not f1.maximal_cones:                # two zero fans of one rank
        return [[int(i == j) for j in range(n)] for i in range(n)]
    # n generators of a cone of dimension n are independent
    anchor = next((idx for idx in f1.maximal_cones
                   if len(idx) == n and f1.cone(idx).dim == n), None)
    if anchor is None:
        raise ValueError("fan isomorphism needs a simplicial "
                         "full-dimensional maximal cone to anchor on")
    d, adj = scaled_inverse([[f1.rays[j][i] for j in anchor]
                             for i in range(n)])
    tops2 = {frozenset(f2.rays[i] for i in c) for c in f2.maximal_cones}
    for target in f2.maximal_cones:
        t_gens = [f2.rays[i] for i in target]
        if len(t_gens) != n or abs(mat_det(t_gens)) != abs(d):
            continue
        for perm in itertools.permutations(t_gens):
            t_mat = [[g[i] for g in perm] for i in range(n)]
            scaled = mat_mul(t_mat, adj)
            if any(x % d for row in scaled for x in row):
                continue
            u = [[x // d for x in row] for row in scaled]
            image = [mat_vec(u, r) for r in f1.rays]
            if set(image) != set(f2.rays):
                continue
            tops = {frozenset(image[j] for j in c) for c in f1.maximal_cones}
            if tops == tops2:
                return u
    return None
