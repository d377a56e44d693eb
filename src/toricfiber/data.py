"""Bundled example dataset: a 5-dimensional toric variety elliptically
fibered over a smooth 3-fold base, together with the reflexive polytope
whose anticanonical hypersurfaces the analysis targets.

Ray names carry the conventional primed labels for this family so CLI
output and test expectations stay easy to audit.
"""

from __future__ import annotations

from functools import lru_cache

from .fans import Fan
from .intlinalg import LatticeMap
from .morphism import FanMap
from .polytopes import Polytope

BASE_RAYS = {
    "d4": (-1, 0, 0),
    "d3": (0, -1, 0),
    "r2": (0, 0, -1),
    "r1": (0, 0, 1),
    "d2": (0, 1, 2),
    "u": (0, 1, 3),
    "d1": (1, 0, 4),
}

BASE_MAXIMAL_CONES = [
    "d4 d2 r2", "d4 d2 u", "d4 u r1", "d4 d3 r1", "d4 d3 r2",
    "d1 d2 r2", "d1 d2 u", "d1 u r1", "d1 d3 r1", "d1 d3 r2",
]

TOTAL_RAYS = {
    "v1'": (-1, 0, 0, 2, 3),
    "v2'": (0, -1, 0, 2, 3),
    "c1'": (0, 0, -1, 2, 3),
    "c2'": (0, 0, -1, 1, 2),
    "v4'": (0, 0, 0, -1, 0),
    "v5'": (0, 0, 0, 0, -1),
    "b'": (0, 0, 0, 2, 3),
    "e1'": (0, 0, 1, 2, 3),
    "e2'": (0, 0, 2, 2, 3),
    "e3'": (0, 0, 1, 1, 1),
    "f'": (0, 1, 2, 2, 3),
    "g'": (0, 1, 3, 2, 3),
    "v6'": (1, 0, 4, 2, 3),
}

TOTAL_MAXIMAL_CONES = [
    "v1' b' e1' v2' v4'", "v1' b' f' c1' v4'", "v1' b' v2' c1' v4'",
    "v1' e3' e1' v2' v5'", "v1' b' e1' v2' v5'", "v1' b' f' c1' v5'",
    "v1' b' v2' c1' v5'", "v1' e3' v2' v4' v5'", "v1' b' f' v4' g'",
    "v1' b' e1' v4' g'", "v1' b' f' v5' g'", "v1' e3' e1' v5' g'",
    "v1' b' e1' v5' g'", "v1' e3' v4' v5' g'", "v1' f' v4' v5' g'",
    "v1' e3' e1' v2' e2'", "v1' e3' v2' v4' e2'", "v1' e1' v2' v4' e2'",
    "v1' e3' e1' g' e2'", "v1' e3' v4' g' e2'", "v1' e1' v4' g' e2'",
    "v1' f' c1' v4' c2'", "v1' v2' c1' v4' c2'", "v1' f' c1' v5' c2'",
    "v1' v2' c1' v5' c2'", "v1' f' v4' v5' c2'", "v1' v2' v4' v5' c2'",
    "v6' b' e1' v2' v4'", "v6' b' f' c1' v4'", "v6' b' v2' c1' v4'",
    "v6' e3' e1' v2' v5'", "v6' b' e1' v2' v5'", "v6' b' f' c1' v5'",
    "v6' b' v2' c1' v5'", "v6' e3' v2' v4' v5'", "v6' b' f' v4' g'",
    "v6' b' e1' v4' g'", "v6' b' f' v5' g'", "v6' e3' e1' v5' g'",
    "v6' b' e1' v5' g'", "v6' e3' v4' v5' g'", "v6' f' v4' v5' g'",
    "v6' e3' e1' v2' e2'", "v6' e3' v2' v4' e2'", "v6' e1' v2' v4' e2'",
    "v6' e3' e1' g' e2'", "v6' e3' v4' g' e2'", "v6' e1' v4' g' e2'",
    "v6' f' c1' v4' c2'", "v6' v2' c1' v4' c2'", "v6' f' c1' v5' c2'",
    "v6' v2' c1' v5' c2'", "v6' f' v4' v5' c2'", "v6' v2' v4' v5' c2'",
]

# projection onto the first three coordinates
PROJECTION_MATRIX = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
)

POLYTOPE_VERTICES = [
    (-22, -14, 4, 1, 1), (-22, 6, 4, 1, 1),
    (-10, -6, 2, -1, 1), (-10, 2, 2, -1, 1),
    (-6, -6, 0, 1, 1), (0, 0, 0, -2, 1),
    (0, 0, 0, 1, -1), (2, -6, 2, -1, 1),
    (2, 2, 2, -1, 1), (6, -14, 4, 1, 1),
    (6, -6, 0, 1, 1), (6, 3, -3, 1, 1),
    (6, 6, -3, 1, 1), (6, 6, 4, 1, 1),
]

# desingularizing rays, in the order they are inserted
RESOLUTION_RAYS = {
    "b3'": (0, 0, 0, 1, 1),
    "b1'": (0, 0, 0, 1, 2),
    "b2'": (0, 0, 0, 0, 1),
    "e4'": (0, 0, 1, 1, 2),
}
RESOLUTION_ORDER = ["b3'", "b1'", "b2'", "e4'"]


def _fan_from_names(rank, ray_table, cone_strings) -> Fan:
    names = list(ray_table)
    index = {n: i for i, n in enumerate(names)}
    cones = [[index[n] for n in s.split()] for s in cone_strings]
    return Fan(rank, [ray_table[n] for n in names], cones)


@lru_cache(maxsize=None)
def base_fan() -> Fan:
    return _fan_from_names(3, BASE_RAYS, BASE_MAXIMAL_CONES)


@lru_cache(maxsize=None)
def total_fan() -> Fan:
    return _fan_from_names(5, TOTAL_RAYS, TOTAL_MAXIMAL_CONES)


@lru_cache(maxsize=None)
def projection() -> LatticeMap:
    return LatticeMap(PROJECTION_MATRIX)


@lru_cache(maxsize=None)
def fibration_map() -> FanMap:
    return FanMap(projection(), total_fan(), base_fan())


@lru_cache(maxsize=None)
def section_polytope() -> Polytope:
    return Polytope(POLYTOPE_VERTICES)


def base_ray_names() -> list[str]:
    return list(BASE_RAYS)


def total_ray_names() -> list[str]:
    return list(TOTAL_RAYS)


def cone_indices_from_names(names, table) -> tuple[int, ...]:
    order = list(table)
    return tuple(sorted(order.index(n) for n in names))


def base_cone(names) -> tuple[int, ...]:
    if isinstance(names, str):
        names = names.split()
    return cone_indices_from_names(names, BASE_RAYS)


def total_cone(names) -> tuple[int, ...]:
    if isinstance(names, str):
        names = names.split()
    return cone_indices_from_names(names, TOTAL_RAYS)


def cone_name(fan_names, idx) -> str:
    """Human-readable dotted name of a cone given by ray indices."""
    if not idx:
        return "0"
    return ".".join(fan_names[i] for i in idx)
