"""Equivariant line bundles as piecewise linear weight systems, and the
restriction / regrouping calculus for their sections along orbit
closures and fiber components.

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
from .morphism import FanMap, RelativeStar
from .polytopes import (Polytope, RestrictedPolytope, lattice_points,
                        restriction_polytope, support_vertices)


@dataclass(frozen=True)
class PLFunction:
    """Piecewise linear function as a weight per maximal cone.

    weights[c] is the dual-lattice vector whose restriction to the cone
    with index tuple c realizes the function there.
    """

    fan: Fan
    weights: tuple[tuple[tuple[int, ...], Vec], ...]

    @classmethod
    def from_dict(cls, fan: Fan, weights: dict) -> "PLFunction":
        return cls(fan, tuple(sorted((tuple(sorted(k)), tuple(v))
                                     for k, v in weights.items())))

    def weight(self, cone_idx) -> Vec:
        key = tuple(sorted(cone_idx))
        for k, v in self.weights:
            if k == key:
                return v
        raise KeyError(cone_idx)

    def is_compatible(self) -> bool:
        """Weights agree on shared rays of any two maximal cones."""
        items = self.weights
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (ci, wi), (cj, wj) = items[i], items[j]
                diff = vsub(wi, wj)
                for r in set(ci) & set(cj):
                    if vdot(diff, self.fan.rays[r]) != 0:
                        return False
        return True

    def value(self, v: Vec):
        for idx in self.fan.maximal_cones:
            if self.fan.cone(idx).contains(v):
                return vdot(self.weight(idx), v)
        raise ValueError("point outside the fan support")


def plf_from_polytope(p: Polytope, fan: Fan) -> PLFunction:
    """Support-function weights of a polytope on a refining fan.

    The weight of a maximal cone is the unique vertex minimizing the
    pairing on it; non-uniqueness means the fan does not refine the
    normal fan and is an error.
    """
    return PLFunction.from_dict(fan, support_vertices(p, fan))


def polytope_from_plf(h: PLFunction) -> Polytope:
    return Polytope([w for _, w in h.weights])


def is_principal(h: PLFunction) -> bool:
    vals = {w for _, w in h.weights}
    return len(vals) == 1


def same_bundle(h1: PLFunction, h2: PLFunction) -> bool:
    """Equal in the Picard group: the weight systems differ by one
    global linear function."""
    if h1.fan is not h2.fan and h1.fan.rays != h2.fan.rays:
        return False
    diffs = {vsub(w1, h2.weight(c)) for c, w1 in h1.weights}
    return len(diffs) == 1


@dataclass(frozen=True)
class LaurentSection:
    """Finite sum of characters; coefficients are Fractions or labels."""

    terms: tuple[tuple[Vec, object], ...]

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentSection":
        """The section with coefficient c at each exponent e; a character
        has integral exponents, so any other term is a ValueError."""
        out = []
        for e, c in terms.items():
            e = tuple(e)
            try:
                m = tuple(int(x) for x in e)
            except (TypeError, ValueError):
                m = None
            if m != e:
                raise ValueError(f"term {c} at {e}: exponents must be integers")
            out.append((m, c))
        return cls(tuple(sorted(out, key=lambda t: t[0])))

    @classmethod
    def generic(cls, p: Polytope) -> "LaurentSection":
        return cls.from_dict({m: f"a{m}" for m in lattice_points(p)})

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


def restrict_section_to_orbit_closure(s: LaurentSection, tau_idx, p: Polytope,
                                      fan: Fan):
    """Keep the terms on the face of P cut out by tau and re-express them
    in the orthogonal-complement chart.

    A term e is dropped up front unless <e, r> = <origin, r> for every
    ray r of tau: the chart basis is a saturated basis of tau's
    orthogonal complement, so an integral term is on the chart lattice
    exactly when it pairs with tau like the origin.  The terms that pass
    are still mapped through the chart and tested against P.

    Returns (restricted section, RestrictedPolytope).
    """
    restriction = restriction_polytope(p, tau_idx, fan)
    chart = restriction.chart
    pins = [(r, vdot(r, chart.origin)) for r in restriction.tau_rays]
    kept = {}
    for e, c in s.terms:
        if any(vdot(r, e) != h for r, h in pins):
            continue
        try:
            y = chart.to_chart(e)
        except ValueError:
            continue
        if restriction.contains(y):
            kept[y] = c
    return LaurentSection.from_dict(kept), restriction


def pullback_bundle(f: FanMap, p2: Polytope) -> Polytope:
    """Polytope of the pulled-back bundle: the transpose image of p2.

    The target fan must refine the normal fan of p2.
    """
    support_vertices(p2, f.target)
    phi_t = dual_map(f.phi)
    return Polytope([phi_t.apply(v) for v in p2.vertices])


@dataclass(frozen=True)
class FiberSection:
    """Terms of a restricted section grouped by fiber exponent."""

    groups: tuple[tuple[Vec, tuple[tuple[Vec, object], ...]], ...]
    polytope: Polytope
    star: RelativeStar

    def group_sizes(self) -> dict:
        return {f: len(terms) for f, terms in self.groups}


def restrict_to_fiber(s: LaurentSection, tau_idx, sigma_idx, m: FanMap,
                      p: Polytope) -> FiberSection:
    """Restriction of a section to an irreducible fiber component.

    Exponents collapse onto the projected polytope; each fiber exponent
    carries the chart exponents (base data) that land on it.
    """
    restricted, restriction = restrict_section_to_orbit_closure(
        s, tau_idx, p, m.source)
    proj, star = m.project_polytope(restriction, tau_idx, sigma_idx)
    fiber_of = star.fiber_matrix(restriction.chart)
    groups: dict = {}
    for y, c in restricted.terms:
        f = mat_vec(fiber_of, y)
        groups.setdefault(f, []).append((y, c))
    return FiberSection(
        tuple(sorted((f, tuple(terms)) for f, terms in groups.items())),
        proj, star)


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
        a = [list(r) for r in self.fiber_matrix] + \
            [list(r) for r in self.base_matrix]
        n = len(a)
        t = []
        for i in range(n):
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


def xi_transition(xi1: LatticeMap, xi2: LatticeMap, form1: FibredForm,
                  form2: FibredForm) -> bool:
    """Check the two fibred forms differ exactly by the character of
    (xi2 - xi1) transposed, term by term, with identical fiber groups."""
    g1 = {f: {chart: (b, c) for b, chart, c in terms} for f, terms in form1.groups}
    g2 = {f: {chart: (b, c) for b, chart, c in terms} for f, terms in form2.groups}
    if g1.keys() != g2.keys():
        return False
    delta_t = mat_transpose([[x2 - x1 for x1, x2 in zip(r1, r2, strict=True)]
                             for r1, r2 in zip(xi1.matrix, xi2.matrix, strict=True)])
    for f in g1:
        if g1[f].keys() != g2[f].keys():
            return False
        for chart, (b1, c1) in g1[f].items():
            b2, c2 = g2[f][chart]
            if c1 != c2:
                return False
            # base exponents are xi^T of the quotient-dual coordinates of
            # the term, so the shift must be delta^T of those coordinates
            coords = mat_vec(form1.quotient_pair, chart)
            if vsub(b2, b1) != mat_vec(delta_t, coords):
                return False
    return True


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
