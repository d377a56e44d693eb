"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's double-description engine: hull
membership goes through Caratheodory simplices with precomputed exact
barycentric solvers.  The lattice-point oracles scan the whole bounding
box, and the facet-interior count goes through face charts, the way the
library did before it counted tight facets.  Cone location scans every
cone of a fan with exact solves on simplicial subcones, the way the
library did before it read faces off facet normals.  The lattice solves
are the Gauss-Jordan ones on Fractions that the library used before its
lattice layer became integer-only.  The face relation of a fan is closed
through facets and tested pairwise, and the index of a stratum is taken
member by member, the way the library did before it read both off the
fan and the stratum.  Surfaces and planar point sets are matched by the
searches over unimodular solves that the GL(2,Z) normal forms replaced,
and hulls by the two double descriptions (V to H, then H back to V) that
the library ran before it read a polytope off one cone over its points.
A polytope is restricted to a subspace through its H-description, by a
double description of the slice, the way the library did before it read
a restriction off the vertices of the face that a cone cuts out, and
the support vertex of a cone is read off at its ray sum, the way the
library did before it took the vertices minimising every ray.
The star of a simplicial cone is taken in the quotient by its own rays,
the way the library did before a star became a relative star.  A section
is restricted to an orbit closure by putting every term through the chart
solve, the way the library did before it kept only the terms that pair
with the cone like the chart origin, and by pinning every term to the
cone's rays and testing it against the polytope's inequalities, the way
the library did before it read the face off the polytope's point census.
The discriminants of the fiber
section families are the term table that the library evaluated before it
computed them from their classical formulas.  Two fibred forms of one
section under splittings xi1 and xi2 are compared term by term against
the transition law, the character of (xi2 - xi1) transposed, a check
that the library carried before it kept only the forms.  A primitive
cone is tested against the fibration criterion by a double description
of its image, and each intersection of primitive cones is measured by
the rank of its relative star, the way the library did before it read
both off the stratum.  The image cone of a source cone is located at the
image of its ray sum, and a map of fans is checked by testing every ray
image of each maximal source cone against each maximal target cone, the
way the library did before it read both off the carriers of ray images.
"""

import itertools
from fractions import Fraction
from math import lcm

from toricfiber.bundles import LaurentSection
from toricfiber.fans import Cone, fan_from_cones, zero_fan
from toricfiber.geometry import dual_description
from toricfiber.intlinalg import (INFINITE, LatticeMap, cokernel_index,
                                  is_zero, kernel_basis, lin_comb, mat_mul,
                                  mat_transpose, mat_vec, primitivize,
                                  quotient_lattice, vadd, vdot, vsub)
from toricfiber.morphism import EMPTY
from toricfiber.polytopes import (Polytope, face_polytope,
                                  orthogonal_complement_basis,
                                  restriction_polytope)
from toricfiber.surfaces import CATALOG_RAYS, UNKNOWN, order_counterclockwise


def _invert(matrix):
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def hull_membership_oracle(points):
    """Callable testing membership in conv(points), via simplices."""
    pts = sorted({tuple(p) for p in points})
    d = len(pts[0])
    # affine dimension
    base = pts[0]
    diffs = [[p[i] - base[i] for i in range(d)] for p in pts[1:]]
    rank = len(solveable_basis(diffs, d))
    solvers = []
    for sub in itertools.combinations(pts, rank + 1):
        w0 = sub[0]
        b = [[sub[j + 1][i] - w0[i] for j in range(rank)] for i in range(d)]
        bt = mat_transpose(b)
        gram = mat_mul(bt, b)
        gram_inv = _invert(gram)
        if gram_inv is None:
            continue  # affinely dependent subset
        proj = mat_mul(gram_inv, bt)  # left inverse of b
        solvers.append((w0, b, proj))

    def member(q):
        for w0, b, proj in solvers:
            rhs = [q[i] - w0[i] for i in range(d)]
            lam = [sum(proj[r][i] * rhs[i] for i in range(d))
                   for r in range(len(proj))]
            if any(x < 0 for x in lam) or sum(lam) > 1:
                continue
            if all(sum(b[i][r] * lam[r] for r in range(len(lam))) == rhs[i]
                   for i in range(d)):
                return True
        return False

    return member


def solveable_basis(rows, d):
    """Row basis via exact elimination (rank helper)."""
    basis = []
    work = [list(map(Fraction, r)) for r in rows]
    for c in range(d):
        piv = next((r for r in work if r[c] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = 1 / piv[c]
        piv = [x * inv for x in piv]
        work = [[x - r[c] * y for x, y in zip(r, piv)] for r in work]
        basis.append(piv)
    return basis


def box_scan_points(p):
    """Lattice points of p, lexicographically, by testing every point of
    its bounding box against the H-representation."""
    lo, hi = p.bounding_box()
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [pt for pt in box if p.contains(pt)]


def chart_first_restriction(s, tau_idx, p, fan):
    """The terms of s on the restriction of P to V(tau), in chart
    coordinates: every term goes through the chart solve, and the ones on
    the chart lattice through P's inequalities."""
    restriction = restriction_polytope(p, tau_idx, fan)
    kept = {}
    for e, c in s.terms:
        try:
            y = restriction.chart.to_chart(e)
        except ValueError:
            continue
        if p.contains(restriction.chart.from_chart(y)):
            kept[y] = c
    return LaurentSection.from_dict(kept)


def pinned_restriction(s, tau_idx, p, fan):
    """The terms of s on the restriction of P to V(tau), in chart
    coordinates: a term is kept when it pairs with every ray of tau like
    the chart origin and P's inequalities hold at it."""
    restriction = restriction_polytope(p, tau_idx, fan)
    chart = restriction.chart
    pins = [(fan.rays[i], vdot(fan.rays[i], chart.origin)) for i in tau_idx]
    return LaurentSection.from_dict(
        {chart.to_chart(e): c for e, c in s.terms
         if all(vdot(r, e) == h for r, h in pins) and p.contains(e)})


def xi_transition(xi1, xi2, form1, form2) -> bool:
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


def halfspaces_to_vertices(inequalities, equations, dim: int):
    """Vertices of the bounded polyhedron {<n,y> >= -c, <e,y> = -c}.

    `inequalities` and `equations` are (vector, offset) pairs.  Raises
    if the polyhedron is unbounded or empty, or has non-lattice vertices.
    """
    homog_ineq = [(c,) + tuple(n) for n, c in inequalities]
    homog_ineq.append((1,) + (0,) * dim)  # t >= 0
    homog_eq = [(c,) + tuple(e) for e, c in equations]
    rays, lin = dual_description(homog_ineq, homog_eq, dim + 1)
    if lin:
        raise ValueError("polyhedron contains a line")
    verts = []
    for r in rays:
        if r[0] == 0:
            raise ValueError("polyhedron is unbounded")
        if r[0] != 1:
            raise ValueError("polyhedron has a non-lattice vertex")
        verts.append(tuple(r[1:]))
    return sorted(verts)


def restrict_to_subspace(p, origin, basis):
    """(P - origin) intersected with the span of `basis`, in chart
    coordinates, from the H-description of P."""
    def in_chart(rows):
        return [(tuple(vdot(n, b) for b in basis), c + vdot(n, origin))
                for n, c in rows]
    return Polytope(halfspaces_to_vertices(in_chart(p.facets),
                                           in_chart(p.equations), len(basis)))


def ray_sum_support_vertex(p, fan, cone_idx):
    """The vertex of p minimising every ray of a cone of fan, or None when
    there is none: the unique minimiser of the ray sum, when it also
    minimises each ray."""
    rays = [fan.rays[i] for i in cone_idx]
    w = tuple(map(sum, zip(*rays))) if rays else (0,) * fan.rank
    best = min(vdot(v, w) for v in p.vertices)
    mins = [v for v in p.vertices if vdot(v, w) == best]
    if len(mins) == 1 and all(
            vdot(mins[0], r) == min(vdot(v, r) for v in p.vertices)
            for r in rays):
        return mins[0]
    return None


def chart_interior_points(p):
    """Relative-interior lattice points of p through a chart of its span.

    A degenerate p is restricted to a saturated basis of the subspace its
    equations cut out, at a vertex, and the interior points of that
    full-dimensional polytope are mapped back.
    """
    if p.dim == 0:
        return []
    if p.is_full_dimensional:
        return [pt for pt in box_scan_points(p)
                if all(vdot(n, pt) > -c for n, c in p.facets)]
    origin = p.vertices[0]
    basis = orthogonal_complement_basis([e for e, _ in p.equations],
                                        p.ambient_rank)
    inner = restrict_to_subspace(p, origin, basis)
    return [vadd(origin, lin_comb(y, basis, p.ambient_rank))
            for y in chart_interior_points(inner)]


def chart_facet_interior_sum(p):
    """Facet-interior lattice points of p, summed over the face polytope of
    each facet through its chart."""
    return sum(len(chart_interior_points(face_polytope(p, inc)))
               for inc in p.facet_vertex_incidence())


def _subcone_solvers(gens, d):
    """For every linearly independent choice J of dim(cone) generators, an
    integer matrix M and a positive integer q with M.(B_J x) = q x: the
    scaled coordinates of a vector of span(J) on the generators J."""
    rank = len(solveable_basis(gens, d))
    solvers = []
    for sub in itertools.combinations(gens, rank):
        b = [[g[i] for g in sub] for i in range(d)]
        bt = mat_transpose(b)
        gram_inv = _invert(mat_mul(bt, b)) if sub else []
        if gram_inv is None:
            continue
        proj = mat_mul(gram_inv, bt) if sub else []
        q = lcm(*(x.denominator for row in proj for x in row)) if sub else 1
        solvers.append((b, [[int(x * q) for x in row] for row in proj], q))
    return solvers


def relint_oracle(gens, d):
    """Callable testing membership in the relative interior of cone(gens).

    v is in the relative interior exactly when, for every generator g,
    v - t g stays in the cone for some t > 0, and by Caratheodory that
    holds when one simplicial subcone J keeps it for all small t: each
    coordinate of v on J is positive, or zero with the coordinate of g
    not positive.
    """
    solvers = _subcone_solvers(gens, d)

    def coords(b, m, q, x):
        c = [sum(r * xi for r, xi in zip(row, x)) for row in m]
        rebuilt = [sum(b[i][j] * c[j] for j in range(len(c)))
                   for i in range(d)]
        return c if rebuilt == [q * xi for xi in x] else None

    def member(v):
        if not gens:
            return all(x == 0 for x in v)
        ok = set()
        for b, m, q in solvers:
            cv = coords(b, m, q, v)
            if cv is None:
                return False
            for k, g in enumerate(gens):
                cg = coords(b, m, q, g)
                if all(x > 0 or (x == 0 and y <= 0) for x, y in zip(cv, cg)):
                    ok.add(k)
        return len(ok) == len(gens)

    return member


def scan_locate_relint(fan):
    """Callable returning the index set of the first cone of `fan` whose
    relative interior holds v, scanning every cone, or None."""
    tests = [(idx, relint_oracle(fan.cone(idx).generators, fan.rank))
             for idx in fan.all_cone_indices]

    def locate(v):
        return next((idx for idx, member in tests if member(v)), None)

    return locate


# -- the exact-rational lattice solves that the integer lattice layer
#    replaced, and lattice helpers only the tests use

def rational_solve(a, b):
    """Solve a x = b exactly over Q by Gauss-Jordan on Fractions; None if
    inconsistent, free variables set to 0."""
    rows, cols = len(a), len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(bv)]
         for row, bv in zip(a, b, strict=True)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if any(m[i][cols] != 0 for i in range(r, rows)):
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x


def fraction_det(a):
    """Determinant by Gaussian elimination over Q."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def fraction_sublattice_coords(basis, x):
    """Integer coordinates of x on a sublattice basis, or None, through a
    rational solve."""
    if not basis:
        return () if all(v == 0 for v in x) else None
    rows = [[b[i] for b in basis] for i in range(len(x))]
    sol = rational_solve(rows, x)
    if sol is None or any(s.denominator != 1 for s in sol):
        return None
    coords = tuple(int(s) for s in sol)
    return coords if lin_comb(coords, basis, len(x)) == tuple(x) else None


def fraction_solve_unimodular(a, t):
    """The integer U with U a = t and |det U| = 1, or None, solved row by
    row over Q."""
    at = mat_transpose(a)
    u = []
    for row in t:
        sol = rational_solve(at, row)
        if sol is None or any(s.denominator != 1 for s in sol):
            return None
        u.append([int(s) for s in sol])
    return u if abs(fraction_det(u)) == 1 else None


def lattice_intersection(basis_a, basis_b, ambient_rank):
    """Basis of the intersection of two sublattices of Z^n."""
    if not basis_a or not basis_b:
        return []
    cols = [list(a) for a in basis_a] + [[-x for x in b] for b in basis_b]
    mat = [[c[i] for c in cols] for i in range(ambient_rank)]
    gens = []
    for k in kernel_basis(LatticeMap.from_rows(mat)):
        g = lin_comb(k[:len(basis_a)], basis_a, ambient_rank)
        if any(g):
            gens.append(g)
    return list(column_lattice_hnf(gens, ambient_rank))


def column_lattice_hnf(columns, ambient_rank: int):
    """Canonical (column-style Hermite) basis of the lattice spanned by columns.

    Used to compare lattices for equality: equal lattices give equal output.
    """
    work = [list(c) for c in columns if not is_zero(c)]
    basis: list[list[int]] = []
    for row in range(ambient_rank):
        while True:
            nz = [c for c in work if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            head = nz[0]
            for c in nz[1:]:
                q = c[row] // head[row]
                for i in range(ambient_rank):
                    c[i] -= q * head[i]
            work = [c for c in work if not is_zero(c)]
        nz = [c for c in work if c[row] != 0]
        if not nz:
            continue
        head = nz[0]
        work.remove(head)
        if head[row] < 0:
            head = [-x for x in head]
        for b in basis:
            if b[row] != 0:
                q = b[row] // head[row]
                for i in range(ambient_rank):
                    b[i] -= q * head[i]
        basis.append(head)
    return tuple(tuple(b) for b in basis)


def sublattice_index(basis_super, basis_sub, ambient_rank):
    """[super : sub] for sub a finite-index sublattice of super."""
    coords = []
    for s in basis_sub:
        c = fraction_sublattice_coords(basis_super, s)
        if c is None:
            raise ValueError("not a sublattice")
        coords.append(c)
    if len(basis_sub) < len(basis_super):
        return INFINITE
    mat = [[coords[j][i] for j in range(len(coords))]
           for i in range(len(basis_super))]
    return cokernel_index(LatticeMap.from_rows(mat))


def cone_extreme_rays(generators, dim):
    """Extreme rays of cone(generators), primitive and deduplicated."""
    gens = [primitivize(g) for g in generators if any(g)]
    if not gens:
        return []
    rays, lin = dual_description(*dual_description(gens, [], dim), dim)
    if lin:
        raise ValueError("cone is not strongly convex")
    return rays


# -- the face relation and the stratum index the way the library computed
#    them before reading them off inclusion and off the stratum

def facet_closure(cone):
    """Generator position sets of the faces of a cone, the cone included:
    the intersections of the generator sets of its facets, ordered by
    size."""
    found = {tuple(range(len(cone.generators)))}
    todo = list(found)
    while todo:
        face = todo.pop()
        for _, on in cone.facets:
            sub = tuple(i for i in face if i in on)
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda s: (len(s), s))


def face_table(fan):
    """Cone of the fan -> the set of its faces: each maximal cone is closed
    through its facets, and between faces of one maximal cone inclusion of
    index sets is tested for every pair."""
    table = {(): {()}}
    for top in fan.maximal_cones:
        faces = [tuple(top[i] for i in sub)
                 for sub in facet_closure(fan.cone(top))]
        for f in faces:
            table.setdefault(f, set()).update(
                g for g in faces if set(g) <= set(f))
    return table


def saturated_basis(vectors, rank):
    """A basis of the saturation of the span of some vectors: what is
    orthogonal to everything orthogonal to them."""
    return orthogonal_complement_basis(
        orthogonal_complement_basis(vectors, rank), rank)


def member_index(m, sigma_idx, sp):
    """(index, canonical basis of the image) of N'/N'_sp in N/N_sigma,
    computed from the one stratum member sp of the FanMap m."""
    fan = m.image_fan()
    q_sigma = quotient_lattice(fan.rank, saturated_basis(
        [fan.rays[i] for i in sigma_idx], fan.rank))
    if q_sigma.rank == 0:
        return 1, ()
    n_src = m.source.rank
    q_sp = quotient_lattice(n_src, saturated_basis(
        [m.source.rays[i] for i in sp], n_src))
    cols = [q_sigma.project(m._phi_img.apply(b)) for b in q_sp.quotient_basis]
    image = column_lattice_hnf(cols, q_sigma.rank)
    if not cols:
        return INFINITE, image
    return cokernel_index(LatticeMap.from_columns(cols)), image


def quotient_star(f, tau_idx):
    """Star of a simplicial cone of f: the fan of the images in N / N_tau,
    N_tau spanned by the rays of tau, of the maximal cones containing it."""
    tau_idx = tuple(sorted(tau_idx))
    quot = quotient_lattice(f.rank, f.cone(tau_idx).generators)
    cones = []
    for c in f.maximal_cones:
        if f.is_face(tau_idx, c):
            gens = [quot.project(f.rays[i]) for i in c if i not in tau_idx]
            cones.append([g for g in gens if not is_zero(g)])
    if not any(cones):
        return zero_fan(quot.rank)
    return fan_from_cones(quot.rank, cones)


# -- the fibration criterion and fiber intersections, the way the library
#    took them before it read both off the stratum

def image_cone_violations(m):
    """(sigma, tau) for each primitive cone tau over an image cone sigma
    whose image is not sigma: a ray maps to zero, or the double
    description of the image differs from sigma in dimension or rays."""
    fan = m.image_fan()
    violations = []
    for sigma_idx in fan.all_cone_indices:
        sigma_cone = fan.cone(sigma_idx)
        for tau in m.primitive_cones(sigma_idx):
            images = [m._phi_img.apply(m.source.rays[i]) for i in tau]
            if any(is_zero(w) for w in images):
                violations.append((sigma_idx, tau))
                continue
            tau_dim = m.source.cone(tau).dim
            image_cone = Cone.make(images, fan.rank)
            if tau_dim != sigma_cone.dim or image_cone.dim != tau_dim or \
                    set(image_cone.generators) != set(sigma_cone.generators):
                violations.append((sigma_idx, tau))
    return tuple(violations)


def intersection_star_ranks(m, sigma_idx):
    """Each set of two or more primitive cones over sigma -> the rank of
    the relative star of the cone their union spans, or EMPTY when the
    union spans no cone of the source fan."""
    prim = m.primitive_cones(sigma_idx)
    out = {}
    for size in range(2, len(prim) + 1):
        for subset in itertools.combinations(prim, size):
            union = tuple(sorted(set(itertools.chain.from_iterable(subset))))
            out[subset] = m.relative_star(union, sigma_idx).fan.rank \
                if m.source.has_cone(union) else EMPTY
    return out


# -- the image cone of each source cone and the map-of-fans test, the way
#    the library took them before it read both off ray carriers

def cone_sigma_of(m):
    """Source cone -> the image-fan cone whose relative interior holds the
    image of its ray sum: one location per source cone."""
    fan = m.image_fan()
    zero = (0,) * m._phi_img.target_rank
    return {idx: fan.locate_relint(
                m._phi_img.apply(m.source.cone(idx).relint_point())
                if idx else zero)
            for idx in m.source.all_cone_indices}


def cone_is_map_of_fans(phi, source, target):
    """Whether every ray image of each maximal source cone lies in one
    maximal target cone, tried cone by cone."""
    if phi.source_rank != source.rank or phi.target_rank != target.rank:
        raise ValueError("lattice ranks do not match the map")
    for idx in source.maximal_cones or [()]:
        images = [phi.apply(source.rays[i]) for i in idx]
        if not any(all(target.cone(t).contains(w) for w in images)
                   for t in (target.maximal_cones or [()])):
            return False
    return True


# -- surface and planar-set equivalence by search, the way the library
#    matched them before it computed GL(2,Z) normal forms

def _rays_match(rays, cat) -> bool:
    """Whether some U in GL(2,Z) carries the counterclockwise rays onto the
    ray set cat, sending the first two rays to a pair adjacent in cat."""
    n = len(rays)
    anchor = mat_transpose(rays[:2])
    for k in range(n):
        for c0, c1 in ((cat[k], cat[(k + 1) % n]), (cat[k], cat[(k - 1) % n])):
            u = fraction_solve_unimodular(anchor, mat_transpose([c0, c1]))
            if u is not None and {mat_vec(u, r) for r in rays} == set(cat):
                return True
    return False


def search_surface_label(rays):
    """Catalog label of the complete 2-dim fan on rays, else UNKNOWN."""
    ccw = order_counterclockwise(rays)
    return next((label for label, cat in CATALOG_RAYS.items()
                 if len(cat) == len(ccw) and _rays_match(ccw, cat)), UNKNOWN)


class ReferenceHull:
    """Exact convex hull of lattice points by two double descriptions: the
    facets and equations of the cone over the homogenised points, then
    the vertices from those.

    facets: list of (inward primitive normal n, offset c) meaning <n,x> >= -c.
    equations: (e, c) pairs with <e,x> = -c on the affine span.
    vertices: the extreme points, lexicographically sorted.
    """

    def __init__(self, points):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        self.ambient = len(pts[0])
        homog = [(1,) + p for p in pts]
        functionals, span_eqs = dual_description(homog, [], self.ambient + 1)
        self.facets = sorted((tuple(f[1:]), f[0]) for f in functionals
                             if not is_zero(f[1:]))
        self.equations = sorted((tuple(e[1:]), e[0]) for e in span_eqs)
        vrays, lin = dual_description(functionals, span_eqs, self.ambient + 1)
        if lin or any(r[0] != 1 for r in vrays):
            raise ValueError("hull of lattice points with a bad vertex ray")
        self.vertices = sorted(tuple(r[1:]) for r in vrays)

    @property
    def dim(self) -> int:
        return self.ambient - len(self.equations)


def _line_coords(points, origin, direction):
    i = 0 if direction[0] else 1
    return [(p[i] - origin[i]) // direction[i] for p in points]


def _vertex_edge_dirs(hull, v):
    """Primitive directions of the two hull edges leaving vertex v."""
    dirs = []
    for n, c in hull.facets:
        if vdot(n, v) == -c:
            w = next(w for w in hull.vertices if w != v and vdot(n, w) == -c)
            dirs.append(primitivize(vsub(w, v)))
    return dirs


def search_planar_equivalent(points_a, points_b) -> bool:
    """Point sets in Z^2 equal up to GL(2,Z) and translation, by trying
    every map that sends the edge directions at one hull vertex of a to
    those at some hull vertex of b."""
    pa = sorted({tuple(p) for p in points_a})
    pb = sorted({tuple(p) for p in points_b})
    if len(pa) != len(pb):
        return False
    if len(pa) <= 1:
        return True
    ha, hb = ReferenceHull(pa), ReferenceHull(pb)
    if len(ha.vertices) != len(hb.vertices) or ha.dim != hb.dim:
        return False
    if ha.dim == 1:
        da = primitivize(vsub(ha.vertices[1], ha.vertices[0]))
        sa = sorted(_line_coords(pa, ha.vertices[0], da))
        db = primitivize(vsub(hb.vertices[1], hb.vertices[0]))
        sb = sorted(_line_coords(pb, hb.vertices[0], db))
        return sa == sb or sorted(max(sa) - x for x in sa) == sb
    va = ha.vertices[0]
    dirs_a = _vertex_edge_dirs(ha, va)
    set_b = set(pb)
    for vb in hb.vertices:
        dirs_b = _vertex_edge_dirs(hb, vb)
        for da in itertools.permutations(dirs_a, 2):
            for db in itertools.permutations(dirs_b, 2):
                u = fraction_solve_unimodular(mat_transpose(da),
                                              mat_transpose(db))
                if u is not None and {vadd(mat_vec(u, vsub(p, va)), vb)
                                      for p in pa} == set_b:
                    return True
    return False


# The discriminants as the library tabulated them before it computed them
# from classical formulas: integer coefficient and exponent per support
# monomial for each term, with the 26 WCP2(1,2,3) terms hand-entered.
_WCP123_TERMS = [
    (-432, {(0, 0): 2, (0, 2): 3, (3, 0): 2}),
    (-64, {(0, 0): 1, (2, 0): 3, (0, 2): 3}),
    (-64, {(1, 0): 3, (0, 2): 3, (3, 0): 1}),
    (-27, {(0, 1): 4, (0, 2): 1, (3, 0): 2}),
    (1, {(0, 0): 1, (1, 1): 6}),
    (16, {(1, 0): 2, (2, 0): 2, (0, 2): 3}),
    (16, {(0, 1): 2, (2, 0): 3, (0, 2): 2}),
    (1, {(0, 2): 1, (1, 0): 2, (1, 1): 4}),
    (-1, {(0, 1): 1, (1, 0): 1, (1, 1): 5}),
    (1, {(0, 1): 2, (1, 1): 4, (2, 0): 1}),
    (-1, {(0, 1): 3, (1, 1): 3, (3, 0): 1}),
    (288, {(0, 0): 1, (0, 2): 3, (1, 0): 1, (2, 0): 1, (3, 0): 1}),
    (48, {(0, 0): 1, (0, 2): 2, (1, 1): 2, (2, 0): 2}),
    (216, {(0, 0): 1, (0, 1): 2, (0, 2): 2, (3, 0): 2}),
    (-72, {(0, 1): 2, (0, 2): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1}),
    (-72, {(0, 0): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2, (3, 0): 1}),
    (-16, {(0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 1, (2, 0): 2}),
    (-8, {(0, 2): 2, (1, 0): 2, (1, 1): 2, (2, 0): 1}),
    (96, {(0, 1): 1, (0, 2): 2, (1, 0): 2, (1, 1): 1, (3, 0): 1}),
    (-144, {(0, 0): 1, (0, 1): 1, (0, 2): 2, (1, 1): 1, (2, 0): 1, (3, 0): 1}),
    (-12, {(0, 0): 1, (0, 2): 1, (1, 1): 4, (2, 0): 1}),
    (8, {(0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 3, (2, 0): 1}),
    (-8, {(0, 1): 2, (0, 2): 1, (1, 1): 2, (2, 0): 2}),
    (-30, {(0, 1): 2, (0, 2): 1, (1, 0): 1, (1, 1): 2, (3, 0): 1}),
    (36, {(0, 1): 3, (0, 2): 1, (1, 1): 1, (2, 0): 1, (3, 0): 1}),
    (36, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 3, (3, 0): 1}),
]

DISCRIMINANT_TERMS = {
    "WCP2(1,2,3)": _WCP123_TERMS,
    "X(4)": [(1, {})],
    "CP2": [(1, {(2, 0): 1, (0, 1): 2}), (1, {(1, 0): 2, (0, 2): 1}),
            (1, {(1, 1): 2, (0, 0): 1}),
            (-1, {(1, 1): 1, (1, 0): 1, (0, 1): 1}),
            (-4, {(2, 0): 1, (0, 2): 1, (0, 0): 1})],
    "X(5)": [(1, {(1, 0): 1})],
    "WCP2(1,1,3)": [(1, {})],
    "F2": [(27, {(0, 0): 2, (3, 0): 2}), (4, {(0, 0): 1, (2, 0): 3}),
           (4, {(1, 0): 3, (3, 0): 1}), (-1, {(1, 0): 2, (2, 0): 2}),
           (-18, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})],
}


def tabulated_discriminant(label, coefficients):
    """The term table of `label` evaluated on coefficients keyed by support
    exponent: exactly, on Fractions, or symbolically, on sympy symbols."""
    total = 0
    for c, exps in DISCRIMINANT_TERMS[label]:
        term = c
        for key, e in exps.items():
            term *= coefficients[key] ** e
        total += term
    return total
