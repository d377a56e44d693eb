"""Hypothesis strategies shared by several test modules."""

import itertools
from functools import lru_cache

from hypothesis import assume, strategies as st

from toricfiber.fans import Fan, star_subdivide
from toricfiber.intlinalg import (LatticeMap, mat_vec, primitivize,
                                  smith_normal_form, vadd)
from toricfiber.morphism import FanMap, is_map_of_fans
from toricfiber.polytopes import Polytope, normal_fan
from toricfiber.surfaces import CATALOG_RAYS, catalog_fan


@st.composite
def polytopes(draw):
    """Hulls in Z^2..Z^4: a few points of [-2,2]^d, or of [-1,1]^k (k < d)
    under an injective integer map plus a shift, which makes degenerate
    polytopes whose equations have coefficients other than +-1."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d))
    n = min(draw(st.integers(k + 1, k + 4)), 3 ** k)
    if k == d:
        return Polytope(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                                      min_size=n, max_size=n, unique=True)))
    unit = st.integers(-1, 1)
    embed = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=d,
                          max_size=d)
                 .filter(lambda m: smith_normal_form(m).rank == k))
    shift = draw(st.tuples(*[unit] * d))
    pts = draw(st.lists(st.tuples(*[unit] * k), min_size=n, max_size=n,
                        unique=True))
    return Polytope([vadd(shift, mat_vec(embed, q)) for q in pts])


def wide_cones(fan):
    """The cones of dimension at least 2 of a simplicial fan, at whose ray
    sums it can be star-subdivided; none for a fan that is not simplicial."""
    if not all(fan.cone(c).is_simplicial for c in fan.maximal_cones):
        return []
    return sorted(c for c in fan.all_cone_indices if len(c) >= 2)


def subdivided(fan, cone):
    """The star subdivision of a simplicial fan at a cone's ray sum, a ray
    in the cone's relative interior."""
    return star_subdivide(fan, primitivize(fan.cone(cone).relint_point()))


def with_refinement(fan, picks):
    """The fan, and when it is simplicial its star subdivision at the ray
    sum of a drawn cone."""
    wide = wide_cones(fan)
    if not wide:
        return [fan]
    return [fan, subdivided(fan, picks.draw(st.sampled_from(wide)))]


_P3 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
          list(itertools.combinations(range(4), 3)))
_BLOWN_UP_P3 = star_subdivide(_P3, (1, 1, 1))
SMALL_FANS = (
    *(catalog_fan(label) for label in CATALOG_RAYS),
    Fan(1, [(1,), (-1,)], [[0], [1]]),
    _P3,
    _BLOWN_UP_P3,
    star_subdivide(_BLOWN_UP_P3, (2, 1, 1)),
    star_subdivide(_BLOWN_UP_P3, (1, 1, 0)),
    star_subdivide(star_subdivide(_P3, (1, 1, 0)), (0, -1, -1)),
)


@lru_cache(maxsize=1)
def _ray_column_maps():
    """(phi, source, target) for every map of fans among SMALL_FANS whose
    columns are target rays with entries in [-2,2], or zero."""
    out = []
    for source, target in itertools.product(SMALL_FANS, repeat=2):
        columns = [r for r in target.rays if max(map(abs, r)) <= 2]
        columns.append((0,) * target.rank)
        for cols in itertools.product(columns, repeat=source.rank):
            phi = LatticeMap.from_columns(cols)
            if is_map_of_fans(phi, source, target):
                out.append((phi, source, target))
    return out


@st.composite
def fan_maps(draw):
    """Maps of fans between the catalog surfaces, P^1, P^3 and star
    subdivisions of P^3, with matrix entries in [-2,2].  Half draw the
    entries; half take each column to a target ray or zero, which reaches
    the refinements, projections and bundle maps (P^3 blown up at a point
    over P^2) that drawn entries seldom hit."""
    if draw(st.booleans()):
        phi, source, target = draw(st.sampled_from(_ray_column_maps()))
    else:
        source = draw(st.sampled_from(SMALL_FANS))
        target = draw(st.sampled_from(SMALL_FANS))
        n, m = source.rank, target.rank
        phi = LatticeMap.from_rows(draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=m, max_size=m)))
        assume(is_map_of_fans(phi, source, target))
    return FanMap(phi, source, target)


_CUBE_CORNERS = list(itertools.product((1, -1), repeat=3))
# the cones over the six faces of the cube [-1,1]^3: the normal fan of the
# octahedron, each cone on four rays
OCTAHEDRAL = Fan(3, _CUBE_CORNERS,
                 [[i for i, c in enumerate(_CUBE_CORNERS) if c[axis] == side]
                  for axis in range(3) for side in (1, -1)])
# each square cone cut along the diagonal through its first corner
TRIANGULATED_OCTAHEDRAL = Fan(3, _CUBE_CORNERS, [
    cut for c in OCTAHEDRAL.maximal_cones
    for cut in ((c[0], c[1], c[3]), (c[0], c[2], c[3]))])
# a square pyramid's normal fan: one cone of four rays at the apex
PYRAMID = normal_fan(Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                               (0, 0, 1)]))
NON_SIMPLICIAL_FANS = (OCTAHEDRAL, PYRAMID)


@lru_cache(maxsize=1)
def maps_into_non_simplicial():
    """(phi, source, target) for every map of fans from a rank-3 fan into
    OCTAHEDRAL or PYRAMID that is the identity or whose columns are target
    rays or zero."""
    sources = [f for f in SMALL_FANS if f.rank == 3]
    sources += [TRIANGULATED_OCTAHEDRAL, *NON_SIMPLICIAL_FANS]
    out = []
    for source, target in itertools.product(sources, NON_SIMPLICIAL_FANS):
        columns = list(target.rays) + [(0, 0, 0)]
        for phi in [LatticeMap.identity(3)] + [
                LatticeMap.from_columns(cols)
                for cols in itertools.product(columns, repeat=3)]:
            if is_map_of_fans(phi, source, target):
                out.append((phi, source, target))
    return out
