"""Sections of equivariant line bundles, their restriction to orbit
closures, and their regrouping along fiber components.

A line bundle on a fan that refines the normal fan of a polytope P is
the vertex of P per maximal cone that `Polytope.support_vertices`
returns (its Cartier data); a section is a Laurent polynomial with
exponents among the lattice points of P.

Coefficients in sections are exact rationals or opaque string labels;
labels survive regrouping untouched, which is all the symbolic algebra
this module does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fans import Fan
from .intlinalg import (InvariantError, LatticeMap, Vec, dual_map, is_zero,
                        mat_mul, mat_transpose, mat_vec, quotient_lattice,
                        saturate_columns, section_of_surjection, vdot, vsub)
from .morphism import FanMap
from .polytopes import Polytope, RestrictedPolytope, restriction_polytope


@dataclass(frozen=True)
class LaurentSection:
    """Finite sum of characters; coefficients are Fractions or labels."""

    terms: tuple[tuple[Vec, object], ...]

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentSection":
        """The section with coefficient c at each exponent e; a character
        has integral exponents, all of one length, so any other term is a
        ValueError."""
        out = []
        for e, c in terms.items():
            e = tuple(e)
            try:
                m = tuple(int(x) for x in e)
            except (TypeError, ValueError):
                m = None
            if m != e:
                raise ValueError(f"term {c} at {e}: exponents must be integers")
            if out and len(m) != len(out[0][0]):
                raise ValueError(f"term {c} at {e}: {len(m)} exponents, but "
                                 f"an earlier term has {len(out[0][0])}")
            out.append((m, c))
        return cls(tuple(sorted(out, key=lambda t: t[0])))

    @classmethod
    def generic(cls, p: Polytope) -> "LaurentSection":
        return cls.from_dict({m: f"a{m}" for m in p.lattice_points()})

    def __len__(self):
        return len(self.terms)

    def evaluate(self, point):
        """Exact evaluation at a rational torus point (numeric terms only)."""
        total = Fraction(0)
        for e, c in self.terms:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("cannot evaluate a symbolic coefficient")
            total += Fraction(c) * _monomial(point, e)
        return total


def _check_rank(s: LaurentSection, rank: int, of: str):
    """Raise unless the section's exponents have length rank; from_dict
    gives every term one length, so the first term speaks for all."""
    if s.terms and len(s.terms[0][0]) != rank:
        raise ValueError(f"the section's exponents have length "
                         f"{len(s.terms[0][0])}, but the {of} has rank {rank}")


def restrict_section_to_orbit_closure(s: LaurentSection, tau_idx, p: Polytope,
                                      fan: Fan):
    """Keep the terms on the face of P cut out by tau and re-express them
    in the orthogonal-complement chart.

    A term e is kept when P's census holds it, with a tight-facet mask
    that holds the face's (see `Polytope.face`): exponents are integral,
    so e lies in P exactly when it is a census point.  Only kept terms
    are charted: a kept term is an integral vector of tau's orthogonal
    complement away from the origin, and the chart basis is a saturated
    basis of that complement.

    Returns (restricted section, RestrictedPolytope).
    """
    _check_rank(s, p.ambient_rank, "polytope")
    restriction = restriction_polytope(p, tau_idx, fan)
    chart, face_mask = restriction.chart, restriction.face_mask
    census = p.point_masks()
    kept = {chart.to_chart(e): c for e, c in s.terms
            if (m := census.get(e)) is not None and m & face_mask == face_mask}
    return LaurentSection.from_dict(kept), restriction


def pullback_bundle(f: FanMap, p2: Polytope) -> Polytope:
    """Polytope of the pulled-back bundle: the transpose image of p2.

    The target fan must refine the normal fan of p2.
    """
    p2.support_vertices(f.target)
    phi_t = dual_map(f.phi)
    return Polytope([phi_t.apply(v) for v in p2.vertices])


@dataclass(frozen=True)
class FibredForm:
    """Section terms regrouped as base-coefficient polynomials per fiber
    exponent, determined by a splitting xi of the quotient surjection."""

    groups: tuple[tuple[Vec, tuple[tuple[Vec, Vec, object], ...]], ...]
    # each entry: fiber exponent -> ((base exponent, chart exponent, coeff), ...)
    fiber_matrix: tuple[tuple[int, ...], ...]
    base_matrix: tuple[tuple[int, ...], ...]
    quotient_pair: tuple[tuple[int, ...], ...]
    restriction: RestrictedPolytope

    def evaluate(self, fiber_point, base_point):
        total = Fraction(0)
        for f, terms in self.groups:
            fval = _monomial(fiber_point, f)
            for b, _, c in terms:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError("cannot evaluate a symbolic coefficient")
                total += Fraction(c) * fval * _monomial(base_point, b)
        return total

    def chart_point_for(self, fiber_point, base_point):
        """Torus point in chart coordinates matching (fiber, base) evaluation."""
        t = []
        for i in range(len(self.fiber_matrix) + len(self.base_matrix)):
            val = Fraction(1)
            for j, u in enumerate(fiber_point):
                val *= Fraction(u) ** self.fiber_matrix[j][i]
            for j, w in enumerate(base_point):
                val *= Fraction(w) ** self.base_matrix[j][i]
            t.append(val)
        return tuple(t)


def quotient_surjection(m: FanMap, tau_idx, sigma_idx):
    """Induced map N'/N'_tau -> N/N_sigma in the SNF quotient bases."""
    fan = m.image_fan()
    q_src = quotient_lattice(
        m.source.rank,
        saturate_columns([m.source.rays[i] for i in tau_idx], m.source.rank))
    q_dst = quotient_lattice(
        fan.rank, saturate_columns([fan.rays[i] for i in sigma_idx], fan.rank))
    phi_img = m._phi_img
    cols = [q_dst.project(phi_img.apply(b)) for b in q_src.quotient_basis]
    return LatticeMap.from_columns(cols), q_src, q_dst


def _section(f: LatticeMap, xi: LatticeMap | None, name: str) -> LatticeMap:
    """xi, once f after xi is checked to be the identity (which makes f
    onto), or the canonical section of f when xi is None."""
    if xi is None:
        return section_of_surjection(f)
    if (xi.source_rank, xi.target_rank) != (f.target_rank, f.source_rank):
        raise ValueError(
            f"xi maps Z^{xi.source_rank} to Z^{xi.target_rank}, but a section "
            f"of {name} maps Z^{f.target_rank} to Z^{f.source_rank}")
    if f.compose(xi).matrix != LatticeMap.identity(f.target_rank).matrix:
        raise ValueError(f"xi is not a section of {name}")
    return xi


def fibred_form(s: LaurentSection, tau_idx, sigma_idx, m: FanMap,
                p: Polytope, xi: LatticeMap | None = None) -> FibredForm:
    """Regroup a section by fiber exponent with base Laurent coefficients.

    xi must be a section of the induced quotient surjection; by default
    the canonical SNF-based one is used.  Different xi give torically
    equivalent forms (same fiber groups, base parts shifted by a
    character).
    """
    tau_idx = tuple(sorted(tau_idx))
    sigma_idx = tuple(sorted(sigma_idx))
    # before the quotient map, whose failure would hide a tau off sigma
    star = m.relative_star(tau_idx, sigma_idx)
    phi_bar, q_src, q_dst = quotient_surjection(m, tau_idx, sigma_idx)
    xi = _section(phi_bar, xi, "the quotient surjection")
    restricted, restriction = restrict_section_to_orbit_closure(
        s, tau_idx, p, m.source)
    fiber_mat = star.fiber_matrix(restriction.chart)
    pair = tuple(tuple(vdot(q, b) for b in restriction.chart.basis)
                 for q in q_src.quotient_basis)
    # coords of a chart point in (N'/N'_tau)^* come from pairing with the
    # quotient basis lifts; xi^T then lands them in (N/N_sigma)^*
    base_mat = tuple(tuple(row) for row in mat_mul(mat_transpose(xi.matrix), pair))
    groups: dict = {}
    seen = set()
    for y, c in restricted.terms:
        f = mat_vec(fiber_mat, y)
        b = mat_vec(base_mat, y)
        if (f, b) in seen:
            raise InvariantError(
                f"fibred form of tau {tau_idx} over sigma {sigma_idx}: two "
                f"terms split to fiber {f} and base {b}")
        seen.add((f, b))
        groups.setdefault(f, []).append((b, y, c))
    return FibredForm(
        tuple(sorted((f, tuple(sorted(terms))) for f, terms in groups.items())),
        fiber_mat, base_mat, pair, restriction)


def _monomial(point, exps):
    val = Fraction(1)
    for t, k in zip(point, exps, strict=True):
        val *= Fraction(t) ** k
    return val


@dataclass(frozen=True)
class HomogeneousForm:
    """Cox-coordinate exponent table: one exponent per fan ray per term."""

    ray_exponents: tuple[tuple[Vec, tuple[int, ...]], ...]

    def degree_table(self) -> dict:
        return dict(self.ray_exponents)


def homogeneous_form(s: LaurentSection, p: Polytope, fan: Fan,
                     divisor_coeffs) -> HomogeneousForm:
    """Per-term homogeneous exponents <m, v_i> + a_i over the fan rays.

    Raises when a term would need a negative exponent, i.e. the section
    is not holomorphic for the given divisor.
    """
    _check_rank(s, fan.rank, "fan")
    a = list(divisor_coeffs)
    if len(a) != len(fan.rays):
        raise ValueError("one divisor coefficient per ray is required")
    rows = []
    for e, _ in s.terms:
        exps = tuple(vdot(e, r) + ai for r, ai in zip(fan.rays, a))
        if any(x < 0 for x in exps):
            raise ValueError(f"term {e} is not holomorphic for this divisor")
        rows.append((e, exps))
    return HomogeneousForm(tuple(rows))


@dataclass(frozen=True)
class FibredHomogeneousForm:
    fiber_rays: tuple[int, ...]
    base_rays: tuple[int, ...]
    groups: tuple            # fiber exponent vector -> ((term, base exps), ...)
    xi_factors: tuple        # per term: (target-ray exps, correction exps)


def fibred_homogeneous_form(s: LaurentSection, p: Polytope, m: FanMap,
                            divisor_coeffs, xi: LatticeMap | None = None
                            ) -> FibredHomogeneousForm:
    """Homogeneous form grouped by the exponents over kernel rays, with
    the xi-induced three-factor split of the coefficient monomials."""
    xi = _section(m.phi, xi, "phi")
    full = homogeneous_form(s, p, m.source, divisor_coeffs)
    fiber_rays = tuple(i for i, r in enumerate(m.source.rays)
                       if is_zero(m.phi.apply(r)))
    base_rays = tuple(i for i in range(len(m.source.rays))
                      if i not in fiber_rays)
    xi_dual = dual_map(xi)
    groups: dict = {}
    xi_factors = []
    for e, exps in full.ray_exponents:
        fiber_key = tuple(exps[i] for i in fiber_rays)
        base_part = tuple(exps[i] for i in base_rays)
        groups.setdefault(fiber_key, []).append((e, base_part))
        xi_t = xi_dual.apply(e)
        target_exps = tuple(vdot(xi_t, v) for v in m.target.rays)
        correction = tuple(
            vdot(e, vsub(m.source.rays[i], xi.apply(m.phi.apply(m.source.rays[i]))))
            for i in base_rays)
        # split identity per base ray: <m, v_k> = <xi^T m, phi(v_k)> + corr_k
        for pos, i in enumerate(base_rays):
            ray = m.source.rays[i]
            if vdot(e, ray) != vdot(xi_t, m.phi.apply(ray)) + correction[pos]:
                raise InvariantError(
                    f"fibred homogeneous form: the split identity fails on "
                    f"ray {i} for the exponent {e}")
        xi_factors.append((e, target_exps, correction))
    return FibredHomogeneousForm(
        fiber_rays, base_rays,
        tuple(sorted((f, tuple(sorted(terms))) for f, terms in groups.items())),
        tuple(xi_factors))
