"""Rational polyhedral cones and fans.

Cones are stored by primitive generators; fans keep a ray table plus
index tuples, with the face closure computed on construction.  The
pairwise intersection axiom is checked exhaustively for fans with at
most 60 maximal cones (enough for desk-scale data; larger fans are
trusted to their construction, e.g. star subdivision output).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .geometry import cone_halfspaces, dual_description, intersect_cones
from .intlinalg import (Vec, is_zero, is_primitive, mat_vec, primitivize,
                        quotient_lattice, smith_normal_form, solve_rational,
                        solve_unimodular, vadd, vdot)

PAIRWISE_CHECK_LIMIT = 60


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
            if set(extreme) != set(gens):
                cone = cls(tuple(sorted(extreme)), ambient_rank)
        return cone

    @cached_property
    def dim(self) -> int:
        mat = [[g[i] for g in self.generators] for i in range(self.ambient_rank)]
        return smith_normal_form(mat).rank if self.generators else 0

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @cached_property
    def is_simplicial(self) -> bool:
        return self.dim == len(self.generators)

    @cached_property
    def halfspaces(self):
        return cone_halfspaces(list(self.generators), self.ambient_rank)

    def _extreme_rays(self):
        """Extreme rays from the cached H-representation, or None when the
        cone contains a line (the dual description then has lineality)."""
        rays, lin = dual_description(*self.halfspaces, self.ambient_rank)
        return None if lin else rays

    def multiplicity(self) -> int:
        """Index of the subgroup generated by the rays inside the span lattice."""
        if not self.is_simplicial:
            raise ValueError("multiplicity requires a simplicial cone")
        if self.is_zero:
            return 1
        mat = [[g[i] for g in self.generators] for i in range(self.ambient_rank)]
        mult = 1
        for d in smith_normal_form(mat).diagonal:
            if d:
                mult *= d
        return mult

    def relint_point(self) -> Vec:
        """Canonical lattice point in the relative interior: the ray sum."""
        point = (0,) * self.ambient_rank
        for g in self.generators:
            point = vadd(point, g)
        return point

    def _simplicial_coords(self, v: Vec):
        rows = [[g[i] for g in self.generators] for i in range(self.ambient_rank)]
        sol = solve_rational(rows, v)
        if sol is None:
            return None
        rebuilt = tuple(sum(sol[j] * Fraction(self.generators[j][i])
                            for j in range(len(self.generators)))
                        for i in range(self.ambient_rank))
        if rebuilt != tuple(Fraction(x) for x in v):
            return None
        return sol

    def contains(self, v: Vec) -> bool:
        if self.is_zero:
            return is_zero(v)
        if self.is_simplicial:
            sol = self._simplicial_coords(v)
            return sol is not None and all(c >= 0 for c in sol)
        normals, eqs = self.halfspaces
        return (all(vdot(e, v) == 0 for e in eqs)
                and all(vdot(n, v) >= 0 for n in normals))

    def contains_relint(self, v: Vec) -> bool:
        if self.is_zero:
            return is_zero(v)
        if self.is_simplicial:
            sol = self._simplicial_coords(v)
            return sol is not None and all(c > 0 for c in sol)
        normals, eqs = self.halfspaces
        return (all(vdot(e, v) == 0 for e in eqs)
                and all(vdot(n, v) > 0 for n in normals))

    def face_generator_sets(self):
        """Generator index subsets spanning the faces, the cone included."""
        if self.is_simplicial:
            n = len(self.generators)
            out = []
            for mask in range(1 << n):
                out.append(tuple(i for i in range(n) if mask & (1 << i)))
            return out
        found = set()

        def descend(subset):
            key = tuple(sorted(subset))
            if key in found:
                return
            found.add(key)
            gens = [self.generators[i] for i in subset]
            if not gens:
                return
            normals, _ = cone_halfspaces(gens, self.ambient_rank)
            for n in normals:
                sub = [i for i in subset if vdot(n, self.generators[i]) == 0]
                if len(sub) < len(subset):
                    descend(sub)

        descend(list(range(len(self.generators))))
        found.add(())
        return sorted(found, key=lambda s: (len(s), s))


class Fan:
    """Face-closed collection of cones sharing a primitive ray table."""

    def __init__(self, rank: int, rays, maximal_cones, validate: bool = True):
        self.rank = int(rank)
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in self.rays:
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
        self.maximal_cones = tuple(sorted(set(maximal)))
        self._cones: dict[tuple[int, ...], Cone] = {}
        self._faces_of: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        self._close_faces()
        if validate:
            self._validate_cones()
            if len(self.maximal_cones) <= PAIRWISE_CHECK_LIMIT:
                self._validate_intersections()

    # -- construction ----------------------------------------------------

    def _cone_from_indices(self, idx) -> Cone:
        return Cone(tuple(self.rays[i] for i in idx), self.rank)

    def _close_faces(self):
        self._cones.setdefault((), Cone((), self.rank))
        self._faces_of.setdefault((), set()).add(())
        for top in self.maximal_cones:
            cone = self._cone_from_indices(top)
            self._cones.setdefault(top, cone)
            faces = set()
            for sub in cone.face_generator_sets():
                face_idx = tuple(sorted(top[i] for i in sub))
                faces.add(face_idx)
                if face_idx not in self._cones:
                    self._cones[face_idx] = self._cone_from_indices(face_idx)
            existing = self._faces_of
            for f in faces:
                existing.setdefault(f, set()).add(f)
                # faces of a face are recorded when we see the subsets below
            for f in faces:
                for g in faces:
                    if set(g) <= set(f):
                        # g <= f as index sets and both are faces of `top`;
                        # for cones arising as faces this implies g is a face of f
                        existing.setdefault(f, set()).add(g)

    def _validate_cones(self):
        for idx in self.maximal_cones:
            cone = self._cones[idx]
            if len(cone.generators) != len(idx):
                raise ValueError(f"cone {idx} lists a redundant ray")
            if cone.is_simplicial:
                continue
            if cone._extreme_rays() is None:
                raise ValueError(f"cone {idx} is not strongly convex")

    def _validate_intersections(self):
        tops = [(idx, self._cones[idx]) for idx in self.maximal_cones]
        for a in range(len(tops)):
            for b in range(a + 1, len(tops)):
                idx_a, cone_a = tops[a]
                idx_b, cone_b = tops[b]
                rays = intersect_cones(cone_a.halfspaces, cone_b.halfspaces,
                                       self.rank)
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
                if face not in self._faces_of.get(idx_a, ()) or \
                        face not in self._faces_of.get(idx_b, ()):
                    raise ValueError(
                        f"intersection of {idx_a} and {idx_b} is not a face of both")

    # -- queries ----------------------------------------------------------

    @property
    def all_cone_indices(self) -> list[tuple[int, ...]]:
        return sorted(self._cones, key=lambda s: (len(s), s))

    def cone(self, idx) -> Cone:
        return self._cones[tuple(sorted(idx))]

    def cones_by_dim(self, d: int) -> list[tuple[int, ...]]:
        return [idx for idx in self.all_cone_indices
                if self._cones[idx].dim == d]

    def has_cone(self, idx) -> bool:
        return tuple(sorted(idx)) in self._cones

    def is_face(self, tau_idx, sigma_idx) -> bool:
        tau = tuple(sorted(tau_idx))
        sigma = tuple(sorted(sigma_idx))
        return tau in self._faces_of.get(sigma, ())

    def proper_faces(self, idx) -> list[tuple[int, ...]]:
        idx = tuple(sorted(idx))
        return [f for f in self._faces_of.get(idx, ()) if f != idx]

    def locate_relint(self, v: Vec):
        """Index set of the unique cone whose relative interior contains v."""
        for idx in self.all_cone_indices:
            if self._cones[idx].contains_relint(v):
                return idx
        return None

    def support_contains(self, v: Vec) -> bool:
        return any(self._cones[idx].contains(v) for idx in self.maximal_cones)

    def is_smooth(self) -> bool:
        for idx in self.maximal_cones:
            cone = self._cones[idx]
            if not cone.is_simplicial:
                raise ValueError("smoothness test requires a simplicial fan")
            if cone.multiplicity() != 1:
                return False
        return True

    def is_complete(self) -> bool:
        """Every maximal cone full-dimensional and ridges shared by two cones.

        Sufficient for the pure simplicial fans in scope.
        """
        if not self.maximal_cones:
            return self.rank == 0
        if any(self._cones[idx].dim != self.rank for idx in self.maximal_cones):
            return False
        for ridge in self.cones_by_dim(self.rank - 1):
            count = sum(1 for top in self.maximal_cones if self.is_face(ridge, top))
            if count != 2:
                return False
        return True

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.rank + 1)
        for idx in self._cones:
            counts[self._cones[idx].dim] += 1
        return tuple(counts)


def fan_from_cones(rank: int, cones, validate: bool = True) -> Fan:
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
        idx_cones.append(tuple(sorted(idx)))
    # drop cones that are faces of others
    keep = []
    for c in idx_cones:
        if not any(set(c) < set(d) for d in idx_cones if d != c):
            keep.append(c)
    return Fan(rank, rays, keep, validate=validate)


def zero_fan(rank: int) -> Fan:
    return Fan(rank, [], [], validate=False)


def star(f: Fan, tau_idx) -> "StarFan":
    """Star of a cone: the fan of images in N / N_tau of cones containing tau."""
    tau_idx = tuple(sorted(tau_idx))
    if not f.has_cone(tau_idx):
        raise ValueError("cone is not in the fan")
    tau = f.cone(tau_idx)
    quot = quotient_lattice(f.rank, tau.generators)
    containing = [c for c in f.maximal_cones if f.is_face(tau_idx, c)]
    cones = []
    for c in containing:
        gens = [quot.project(f.rays[i]) for i in c if i not in tau_idx]
        cones.append([g for g in gens if not is_zero(g)])
    if not any(cones):
        return StarFan(zero_fan(quot.rank), quot)
    return StarFan(fan_from_cones(quot.rank, cones), quot)


@dataclass(frozen=True)
class StarFan:
    """A star fan together with the quotient that defines its coordinates."""

    fan: Fan
    quotient: object = field(repr=False)


def star_subdivide(f: Fan, r: Vec) -> Fan:
    """Star subdivision of a simplicial fan at a primitive lattice ray."""
    r = tuple(int(x) for x in r)
    if not is_primitive(r):
        raise ValueError("subdivision ray must be primitive")
    if not f.support_contains(r):
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
        if not cone.contains(r):
            new_maximal.append(idx)
            continue
        sol = cone._simplicial_coords(r)
        support = [idx[rays_pos] for rays_pos, coeff in enumerate(
            _coeffs_in_generator_order(cone, idx, f, sol)) if coeff > 0]
        for drop in support:
            kept = tuple(sorted([i for i in idx if i != drop] + [r_idx]))
            new_maximal.append(kept)
    return Fan(f.rank, rays, new_maximal, validate=False)


def _coeffs_in_generator_order(cone: Cone, idx, fan: Fan, sol):
    """Reorder simplicial-solve coefficients to match the index tuple."""
    order = {g: coeff for g, coeff in zip(cone.generators, sol)}
    return [order[fan.rays[i]] for i in idx]


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
    """GL(rank, Z) equivalence for fans with simplicial full-dim cones.

    Returns the matrix of a lattice isomorphism carrying f1 onto f2,
    or None.  Search is anchored on one maximal cone of f1.
    """
    if f1.rank != f2.rank or len(f1.rays) != len(f2.rays) or \
            len(f1.maximal_cones) != len(f2.maximal_cones):
        return None
    n = f1.rank
    anchor = f1.maximal_cones[0]
    a_gens = [f1.rays[i] for i in anchor]
    if len(a_gens) != n:
        return None
    a_mat = [[g[i] for g in a_gens] for i in range(n)]
    tops2 = {frozenset(f2.rays[i] for i in c) for c in f2.maximal_cones}
    for target in f2.maximal_cones:
        t_gens = [f2.rays[i] for i in target]
        if len(t_gens) != n:
            continue
        for perm in itertools.permutations(t_gens):
            t_mat = [[g[i] for g in perm] for i in range(n)]
            u = solve_unimodular(a_mat, t_mat)
            if u is None:
                continue
            image = [mat_vec(u, r) for r in f1.rays]
            if set(image) != set(f2.rays):
                continue
            tops = {frozenset(image[j] for j in c) for c in f1.maximal_cones}
            if tops == tops2:
                return u
    return None
