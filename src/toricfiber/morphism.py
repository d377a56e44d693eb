"""Toric morphism analysis for a map of fans: image fan, per-orbit fiber
structure (primitive cones, relative stars, indices), the fibration
criterion, the flattening stratification, and the star of a cone, which
is its relative star over the map to a point.

A FanMap validates the defining condition at construction.  Analysis of
maps that are not surjective over R is routed through the factorization
over the image fan; all sigma arguments then refer to image-fan cones.
A fiber report builds a relative star per fiber component only: the
dimension of an intersection of components is read off the stratum's
preimage lattice and cone dimensions, and the fibration criterion off the
dimensions of each primitive cone and the cone it lies over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .fans import Cone, Fan, fan_from_cones, zero_fan
from .geometry import dual_description
from .intlinalg import (INFINITE, InvariantError, LatticeMap,
                        QuotientLattice, SublatticeCoords, Vec,
                        cokernel_index, is_zero, kernel_coords, lin_comb,
                        mat_rank, mat_vec, primitivize, quotient_lattice,
                        saturate_columns, smith_normal_form, vdot)
from .polytopes import (Polytope, RestrictedPolytope, SubspaceChart,
                        orthogonal_complement_basis)
from .surfaces import UNKNOWN, identify_surface

EMPTY = "EMPTY"


def is_map_of_fans(phi: LatticeMap, source: Fan, target: Fan) -> bool:
    """Does every source cone map into some target cone?

    A cone maps into a target cone C exactly when the carrier of each of
    its rays' images, the target cone whose relative interior holds it,
    is a face of C, which in a fan means its rays are among C's.  So each
    ray is located once, and a maximal source cone passes when the union
    of its rays' carriers lies in the ray set of one maximal target cone.
    """
    if phi.source_rank != source.rank or phi.target_rank != target.rank:
        raise ValueError("lattice ranks do not match the map")
    carriers = _ray_carriers(phi, source, target)
    if None in carriers.values():
        return False
    tops = [_index_mask(t) for t in target.maximal_cones or [()]]
    for idx in source.maximal_cones or [()]:
        union = 0
        for i in idx:
            union |= carriers[i]
        if not any(union & ~top == 0 for top in tops):
            return False
    return True


def _index_mask(indices) -> int:
    """A set of indices as one int bitmask."""
    return sum(1 << i for i in indices)


def _ray_carriers(phi: LatticeMap, source: Fan, fan: Fan) -> dict:
    """Each ray of a source cone -> the cone of the fan whose relative
    interior holds its image, as a bitmask over the fan's rays, or None
    when the image is outside the support: one location per ray."""
    out = {}
    for idx in source.maximal_cones:
        for i in idx:
            if i not in out:
                carrier = fan.locate_relint(phi.apply(source.rays[i]))
                out[i] = None if carrier is None else _index_mask(carrier)
    return out


def _smallest_face(tops, union) -> tuple[int, ...] | None:
    """The smallest face holding the rays in `union` of the first maximal
    cone (index set, ray mask, facet ray masks) whose rays hold them, or
    None when no maximal cone does."""
    for top, whole, facets in tops:
        if union & ~whole == 0:
            face = whole
            for m in facets:
                if union & ~m == 0:
                    face &= m
            return tuple(i for i in top if face >> i & 1)
    return None


@dataclass(frozen=True)
class RelativeStar:
    """Fiber-component fan in the quotient lattice preimage(N_sigma)/N_tau.

    `lifts` are ambient source-lattice representatives of the quotient
    basis; pairing lattice points of the orthogonal-complement chart
    against them (`fiber_matrix`) puts restriction polytopes into the same
    coordinates.
    """

    fan: Fan
    tau: tuple[int, ...]
    sigma: tuple[int, ...]
    lifts: tuple[Vec, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.fan.rank

    def fiber_matrix(self, chart: SubspaceChart) -> tuple[Vec, ...]:
        """The integer matrix taking chart coordinates y to the coordinates
        dual to `lifts` of the chart vector sum(y_j basis_j): row i pairs
        lift i with each basis vector."""
        return tuple(tuple(vdot(lift, b) for b in chart.basis)
                     for lift in self.lifts)


@dataclass(frozen=True)
class FiberComponent:
    primitive_cone: tuple[int, ...]
    star: RelativeStar
    label: str

    @property
    def dim(self) -> int:
        return self.star.rank


@dataclass(frozen=True)
class FiberReport:
    """`intersections` maps each set of two or more primitive cones to the
    dimension of the intersection of their components, or EMPTY."""

    sigma: tuple[int, ...]
    sigma_prime_set: tuple[tuple[int, ...], ...]
    primitive: tuple[tuple[int, ...], ...]
    index: int
    components: tuple[FiberComponent, ...]
    intersections: dict


@dataclass(frozen=True)
class FibrationCertificate:
    is_fibration: bool
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    skeleton_onto: bool


@dataclass(frozen=True)
class _Stratum:
    """Lattice data shared by every source cone over one image cone sigma:
    N/N_sigma, the preimage phi^-1(N_sigma) with its coordinate map, the
    preimage coordinates of the rays of every member, and the index of
    phi(N') in N/N_sigma (INFINITE when it has lower rank)."""

    q_sigma: QuotientLattice
    preimage: SublatticeCoords
    ray_coords: dict
    index: object


@dataclass(frozen=True)
class LightedFace:
    vertex_indices: tuple[int, ...]
    vertices: tuple[Vec, ...]
    dim: int
    primitive: bool


@dataclass(frozen=True)
class LightedPart:
    sigma: tuple[int, ...]
    faces: tuple[LightedFace, ...]
    face_of_cone: dict


class FanMap:
    """A validated map of fans phi: source -> target."""

    def __init__(self, phi: LatticeMap, source: Fan, target: Fan):
        if not is_map_of_fans(phi, source, target):
            raise ValueError("phi does not carry every source cone into a target cone")
        self.phi = phi
        self.source = source
        self.target = target
        self._strata: dict[tuple[int, ...], _Stratum] = {}
        self._star_fans: dict = {}

    # -- image ------------------------------------------------------------

    @cached_property
    def _image_data(self):
        """(image fan, phi in image coords, the image lattice's basis in
        the target lattice).  Below full rank the basis is columns ..r of
        U in phi = U S V of rank r, so rows ..r of U^-1 are its left
        inverse."""
        snf = smith_normal_form(self.phi.matrix)
        r = snf.rank
        n = self.target.rank
        if r == n:
            return self.target, self.phi, LatticeMap.identity(n).matrix
        basis = tuple(tuple(snf.U[i][j] for i in range(n)) for j in range(r))
        in_image = SublatticeCoords(basis, snf.Uinv[:r], 1)
        cones = []
        span_rows = orthogonal_complement_basis(basis, n)
        for idx in self.target.maximal_cones or [()]:
            cone = self.target.cone(idx)
            normals, eqs = cone.halfspaces
            rays, lin = dual_description(
                list(normals), list(eqs) + span_rows, n)
            gens = []
            for ray in rays:
                coords = in_image(ray)
                if coords is not None and not is_zero(coords):
                    gens.append(coords)
            cones.append(gens)
        phi_img_cols = []
        for col in self.phi.columns():
            coords = in_image(col)
            if coords is None:
                raise InvariantError(
                    f"image lattice: phi column {col} is outside the image")
            phi_img_cols.append(coords)
        return (fan_from_cones(r, cones), LatticeMap.from_columns(phi_img_cols),
                basis)

    def image_fan(self) -> Fan:
        return self._image_data[0]

    @property
    def _phi_img(self) -> LatticeMap:
        return self._image_data[1]

    def image_ray_carriers(self) -> list[tuple[int, ...]]:
        """Per ray of the image fan, the target cone whose relative
        interior holds it: the ray itself when the image fan is the
        target.  A subspace meets the relative interior of a cone it does
        not contain in at most one ray, so no two image rays share one."""
        fan, _, basis = self._image_data
        out = [self.target.locate_relint(lin_comb(r, basis, self.target.rank))
               for r in fan.rays]
        if None in out:
            raise InvariantError(f"image lattice: image ray "
                                 f"{fan.rays[out.index(None)]} is outside "
                                 f"the target fan")
        return out

    def is_surjective_real(self) -> bool:
        return mat_rank(self.phi.matrix) == self.target.rank

    def degree(self):
        """[N : phi(N')] when finite, else INFINITE."""
        return cokernel_index(self.phi)

    # -- orbit bookkeeping --------------------------------------------------

    @cached_property
    def _sigma_of(self) -> dict:
        """Source cone -> the image-fan cone whose relint receives its relint.

        The image of a source cone lies in a maximal image cone C holding
        the carriers of its rays' images (see `is_map_of_fans`), each ray
        located once.  The relint of the image, spanned by those images,
        lies in the relint of the smallest face of C holding them all: the
        AND of the masks of C's facets that hold their union, or C when
        none does.  In a fan that face is the same for every such C.
        """
        fan = self.image_fan()
        tops = []
        for top in fan.maximal_cones or [()]:
            facets = [_index_mask(i for k, i in enumerate(top) if m >> k & 1)
                      for m in fan.cone(top)._facet_masks]
            tops.append((top, _index_mask(top), facets))
        carriers = _ray_carriers(self._phi_img, self.source, fan)
        outside = [i for i, c in carriers.items() if c is None]
        if outside:
            raise InvariantError(
                f"source rays {outside} map outside the image fan")
        faces = {}
        out = {}
        for idx in self.source.all_cone_indices:
            union = 0
            for i in idx:
                union |= carriers[i]
            if union not in faces:
                faces[union] = _smallest_face(tops, union)
                if faces[union] is None:
                    raise InvariantError(
                        f"image of source cone {idx} lies in no maximal "
                        f"cone of the image fan")
            out[idx] = faces[union]
        return out

    def sigma_of(self, sigma_prime_idx):
        sigma_prime_idx = tuple(sorted(sigma_prime_idx))
        if sigma_prime_idx not in self._sigma_of:
            raise ValueError(f"{sigma_prime_idx} is not a cone of the source fan")
        return self._sigma_of[sigma_prime_idx]

    @cached_property
    def _members(self) -> dict:
        """Image-fan cone -> the source cones over it, in source cone order."""
        out = {}
        for sp, s in self._sigma_of.items():
            out.setdefault(s, []).append(sp)
        return out

    def sigma_prime_of(self, sigma_idx) -> list[tuple[int, ...]]:
        sigma_idx = tuple(sorted(sigma_idx))
        if not self.image_fan().has_cone(sigma_idx):
            raise ValueError("sigma is not a cone of the image fan")
        return list(self._members.get(sigma_idx, ()))

    def _stratum(self, sigma_idx) -> _Stratum:
        """The lattice data of the stratum over sigma, built once.  Every
        member's rays must lie in phi^-1(N_sigma); then N'_sigma' maps into
        N_sigma, and the image of N'/N'_sigma' in N/N_sigma is that of N',
        one index per stratum."""
        if sigma_idx not in self._strata:
            fan = self.image_fan()
            q_sigma = quotient_lattice(fan.rank, saturate_columns(
                [fan.rays[i] for i in sigma_idx], fan.rank))
            # preimage of span(sigma): kernel of projection-after-phi, and
            # the index of its image, off one Smith form
            pre, index = kernel_coords(LatticeMap.from_columns(
                [q_sigma.project(col) for col in self._phi_img.columns()]))
            ray_coords = {}
            for sp in self._members.get(sigma_idx, ()):
                for i in sp:
                    if i not in ray_coords:
                        ray_coords[i] = pre(self.source.rays[i])
                        if ray_coords[i] is None:
                            raise InvariantError(
                                f"stratum over sigma {sigma_idx}: member {sp} "
                                f"has ray {i} outside the preimage of N_sigma")
            self._strata[sigma_idx] = _Stratum(q_sigma, pre, ray_coords, index)
        return self._strata[sigma_idx]

    def primitive_cones(self, sigma_idx) -> list[tuple[int, ...]]:
        """The cones over sigma with no proper face over sigma.  Faces are
        subsets, members come smaller first, and a member with a proper
        face over sigma contains a smaller primitive one."""
        out = []
        for sp in self.sigma_prime_of(sigma_idx):
            if not any(set(p) < set(sp) for p in out):
                out.append(sp)
        return out

    # -- index ---------------------------------------------------------------

    def index_of(self, sigma_idx) -> int:
        """Order of N/N_sigma modulo the image of N'/N'_sigma', the same for
        every sigma' over sigma (see `_stratum`)."""
        sigma_idx = tuple(sorted(sigma_idx))
        if not self.sigma_prime_of(sigma_idx):
            raise ValueError("no source cones lie over sigma")
        index = self._stratum(sigma_idx).index
        if index is INFINITE:
            raise ValueError("stratum member maps with infinite index")
        return index

    # -- relative stars -------------------------------------------------------

    def relative_star(self, tau_idx, sigma_idx) -> RelativeStar:
        tau_idx = tuple(sorted(tau_idx))
        sigma_idx = tuple(sorted(sigma_idx))
        if self.sigma_of(tau_idx) != sigma_idx:
            raise ValueError("tau does not lie over the relative interior of sigma")
        stratum = self._stratum(sigma_idx)
        pre = stratum.preimage
        n_src = self.source.rank
        tau_coords = []
        for t in saturate_columns([self.source.rays[i] for i in tau_idx], n_src):
            c = pre(t)
            if c is None:
                raise InvariantError(
                    f"relative star: tau {tau_idx} is not inside the "
                    f"preimage of sigma {sigma_idx}")
            tau_coords.append(c)
        quot = quotient_lattice(len(pre.basis), tau_coords)
        lifts = tuple(lin_comb(b, pre.basis, n_src) for b in quot.quotient_basis)

        projected = {}

        def project(i):
            if i not in projected:
                projected[i] = quot.project(stratum.ray_coords[i])
            return projected[i]

        # the images of a simplicial member modulo its face tau are
        # independent; those of any other member may include inner rays
        cones = []
        for sp in self._members[sigma_idx]:
            if not self.source.is_face(tau_idx, sp):
                continue
            gens = [project(i) for i in sp if i not in tau_idx]
            if not self.source.cone(sp).is_simplicial:
                gens = Cone.make(gens, quot.rank).generators
            cones.append(tuple(gens))
        # stars over one map often repeat: build and validate each once
        key = (quot.rank, tuple(cones))
        fan = self._star_fans.get(key)
        if fan is None:
            fan = self._star_fans[key] = fan_from_cones(*key)
        return RelativeStar(fan, tau_idx, sigma_idx, lifts)

    def component_label(self, star: RelativeStar) -> str:
        fan = star.fan
        if fan.rank == 0:
            return "point"
        if not fan.is_complete():
            return UNKNOWN
        if fan.rank == 1:
            return "CP1"
        if fan.rank == 2:
            return identify_surface(fan)
        return UNKNOWN

    # -- reports ---------------------------------------------------------------

    def fiber_report(self, sigma_idx) -> FiberReport:
        sigma_idx = tuple(sorted(sigma_idx))
        sps = self.sigma_prime_of(sigma_idx)
        prim = self.primitive_cones(sigma_idx)
        ind = self.index_of(sigma_idx)
        components = []
        for tau in prim:
            star = self.relative_star(tau, sigma_idx)
            components.append(FiberComponent(tau, star, self.component_label(star)))
        # components meet in the orbit closure of the cone their union
        # spans, of the rank its relative star would have
        rank = len(self._stratum(sigma_idx).preimage.basis)
        intersections = {}
        for size in range(2, len(prim) + 1):
            for subset in itertools.combinations(prim, size):
                union = tuple(sorted(set(itertools.chain.from_iterable(subset))))
                if self.source.has_cone(union):
                    if union not in sps:
                        raise InvariantError(
                            f"fiber over sigma {sigma_idx}: the cone {union} "
                            f"spanned by {subset} escapes the stratum")
                    intersections[subset] = rank - self.source.cone(union).dim
                else:
                    intersections[subset] = EMPTY
        return FiberReport(sigma_idx, tuple(sorted(sps, key=lambda s: (len(s), s))),
                           tuple(prim), ind, tuple(components), intersections)

    def is_fibration(self) -> FibrationCertificate:
        if not self.is_surjective_real():
            raise ValueError("fibration criterion requires a surjective morphism")
        # phi carries the relint of a primitive tau into that of sigma, so
        # phi(tau) lies in sigma, and every proper face of tau lies over a
        # proper face of sigma.  Were phi to lose dimension on tau, phi(tau)
        # would be the image of tau's boundary, inside sigma's boundary.  So
        # phi is injective on the span of tau (no ray maps to zero), and
        # phi(tau), with its boundary in sigma's, is all of sigma exactly
        # when dim tau = dim sigma
        violations = []
        fan = self.image_fan()
        for sigma_idx in fan.all_cone_indices:
            sigma_dim = fan.cone(sigma_idx).dim
            violations += [(sigma_idx, tau)
                           for tau in self.primitive_cones(sigma_idx)
                           if self.source.cone(tau).dim != sigma_dim]
        target_rays = set(fan.rays)
        hit = set()
        for r in self.source.rays:
            w = self._phi_img.apply(r)
            if is_zero(w):
                continue
            p = primitivize(w)
            if p in target_rays:
                hit.add(p)
        skeleton_onto = hit == target_rays
        return FibrationCertificate(not violations, tuple(violations), skeleton_onto)

    def flattening_stratification(self):
        """(sigma, FiberReport) per image-fan cone, checking index divisibility."""
        fan = self.image_fan()
        order = sorted(fan.all_cone_indices, key=lambda s: (fan.cone(s).dim, s))
        table = [(sigma, self.fiber_report(sigma)) for sigma in order]
        index = {sigma: rep.index for sigma, rep in table}
        for sigma in index:
            for tau in fan.proper_faces(sigma):
                if index[tau] % index[sigma]:
                    raise InvariantError(
                        f"divisibility law: index {index[tau]} of the face "
                        f"{tau} is not a multiple of index {index[sigma]} "
                        f"of {sigma}")
        return table

    def branch_locus(self):
        """Image cones where the covering degree drops (finite-index maps)."""
        deg = self.degree()
        if deg is INFINITE:
            raise ValueError("branch locus applies to finite-index maps")
        return [sigma for sigma, rep in self.flattening_stratification()
                if rep.index < deg]

    # -- dual polytope picture ---------------------------------------------------

    def lighted_part(self, polytope: Polytope, sigma_idx) -> LightedPart:
        """Faces of the polytope lit by sigma, with primitivity flags.

        The source fan must refine the normal fan of the polytope; the
        face attached to a source cone is where all its ray functionals
        are minimized.
        """
        sigma_idx = tuple(sorted(sigma_idx))
        polytope.support_vertices(self.source)  # raises if it does not refine
        vert_index = {v: i for i, v in enumerate(polytope.vertices)}
        rays = self.source.rays
        face_sets = {}
        for sp in self.sigma_prime_of(sigma_idx):
            fs = frozenset(vert_index[v] for v in
                           polytope.face([rays[i] for i in sp])[0])
            if not fs:
                raise InvariantError(
                    f"lighted part over sigma {sigma_idx}: the stratum cone "
                    f"{sp} minimises on no vertex")
            face_sets.setdefault(fs, []).append(sp)
        faces = []
        face_of_cone = {}
        for fs, cones in sorted(face_sets.items(), key=lambda kv: sorted(kv[0])):
            primitive = not any(fs < other for other in face_sets)
            verts = tuple(polytope.vertices[i] for i in sorted(fs))
            dim = Polytope(verts).dim
            faces.append(LightedFace(tuple(sorted(fs)), verts, dim, primitive))
            for c in cones:
                face_of_cone[c] = tuple(sorted(fs))
        return LightedPart(sigma_idx, tuple(faces), face_of_cone)

    # -- polytope projection -------------------------------------------------------

    def project_polytope(self, restriction: RestrictedPolytope,
                         star: RelativeStar) -> Polytope:
        """Image of a restriction polytope, cut along the star's tau, in
        the fiber quotient coordinates of a relative star the caller
        already holds (`relative_star(tau, sigma)`, or a fiber component's
        `star`).  The polytope lives in the coordinates dual to the star's
        quotient basis and is the hull of the images of the restriction's
        charted vertices, so the restriction's own hull is never built.
        """
        matrix = star.fiber_matrix(restriction.chart)
        return Polytope([mat_vec(matrix, v) for v in restriction.vertices])


def star(f: Fan, tau_idx) -> Fan:
    """Star of a cone of f, the fan of its orbit closure V(tau) in
    N / N_tau: the relative star of tau over the map of f to a point."""
    return _to_point(f).relative_star(tau_idx, ()).fan


@lru_cache(maxsize=1)
def _to_point(f: Fan) -> FanMap:
    """The map of f to a point, kept for the last fan: a caller taking
    the star of each cone in turn then sorts the cones over the point once."""
    return FanMap(LatticeMap.from_columns([()] * f.rank), f, zero_fan(0))
