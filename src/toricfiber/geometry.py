"""Exact rational polyhedral computations via double description.

The single engine here converts between H- and V-representations of
rational cones; polytopes ride along through homogenization.  All
arithmetic is exact and integer.  Intended scale: ambient
dimension <= 6-ish and a few dozen constraints, which covers fans and
desk-size lattice polytopes comfortably.
"""

from __future__ import annotations

from .intlinalg import Vec, is_zero, primitivize, vdot


def _project_off(v, pivot, a_pivot, a_v):
    """Integer combination a_pivot * v - a_v * pivot (kills constraint a).
    A list comprehension: it times below both the generator and every
    `map` form, which cannot fold in the two scalars without a bound
    method or a repeat per call."""
    return tuple([a_pivot * x - a_v * y for x, y in zip(v, pivot)])


def dual_description(inequalities, equations, dim: int):
    """Extreme rays and lineality of {x : <a,x> >= 0, <e,x> = 0}.

    Returns (rays, lineality_basis) with primitive integer entries.
    Rays are minimal generators modulo the lineality space.

    Constraints are added one at a time (Fukuda and Prodon, Double
    description method revisited, 1996).  Each ray carries the bitmask of
    the constraints tight at it, and <a, r> is taken once per ray and
    constraint.  Two rays on opposite sides of a constraint are combined
    when they are adjacent: no other ray is tight wherever both are.
    Adjacent rays span a 2-face of the pointed part, of dimension
    k = dim - len(lineality), so the constraints tight at both have rank
    k - 2; a pair with fewer than k - 2 common tight constraints is
    skipped before that scan.
    """
    constraints = []
    for e in equations:
        e = tuple(int(x) for x in e)
        constraints.append(e)
        constraints.append(tuple(-x for x in e))
    constraints += [tuple(int(x) for x in a) for a in inequalities]
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vec, int]] = []  # (vector, bitmask of tight constraints)

    for idx, a in enumerate(constraints):
        bit = 1 << idx
        if is_zero(a):
            rays = [(r, zs | bit) for r, zs in rays]
            continue
        lin_vals = [vdot(a, l) for l in lineality]
        pivot_idx = next((i for i, v in enumerate(lin_vals) if v), None)
        if pivot_idx is not None:
            pivot = lineality.pop(pivot_idx)
            ap = lin_vals.pop(pivot_idx)
            if ap < 0:
                pivot, ap = tuple(-x for x in pivot), -ap
            new_lin = []
            for l, al in zip(lineality, lin_vals):
                proj = _project_off(l, pivot, ap, al)
                if not is_zero(proj):
                    new_lin.append(primitivize(proj))
            lineality = new_lin
            new_rays = []
            for r, zs in rays:
                av = vdot(a, r)
                rr = primitivize(_project_off(r, pivot, ap, av)) if av else r
                new_rays.append((rr, zs | bit))
            # previously processed constraints all vanish on the old lineality,
            # so the pivot satisfies them with equality
            new_rays.append((pivot, bit - 1))
            rays = new_rays
            continue
        pos, neg, zero = [], [], []
        for r, zs in rays:
            av = vdot(a, r)
            if av > 0:
                pos.append((r, zs, av))
            elif av < 0:
                neg.append((r, zs, av))
            else:
                zero.append((r, zs | bit))
        kept = [(r, zs) for r, zs, _ in pos] + zero
        if not neg:
            rays = kept
            continue
        least = dim - len(lineality) - 2
        combined = []
        for p, zp, ap in pos:
            for n, zn, an in neg:
                common = zp & zn
                if common.bit_count() < least:
                    continue
                adjacent = not any(
                    zs & common == common
                    for r, zs in rays if r is not p and r is not n)
                if not adjacent:
                    continue
                w = _project_off(n, p, ap, an)
                if is_zero(w):
                    continue
                combined.append((primitivize(w), common | bit))
        rays = kept + combined
    seen = {}
    for r, zs in rays:
        seen.setdefault(r, zs)
    return list(seen.keys()), lineality


def intersect_cones(halfspaces_a, halfspaces_b, dim: int):
    """Extreme rays of the intersection of two cones given as H-data."""
    na, ea = halfspaces_a
    nb, eb = halfspaces_b
    rays, lin = dual_description(list(na) + list(nb), list(ea) + list(eb), dim)
    if lin:
        raise ValueError("intersection of strongly convex cones has a line")
    return rays

