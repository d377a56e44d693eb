"""Deterministic input generators for the benchmark.

Every input is a set of toricfiber text documents built with the standard
library only, so the library under test sees nothing but documents.  A
fixed universe of inputs is drawn from a master seed, and a run seed picks
a sample of it (see `sample`).  The same seed gives byte-identical
documents.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from math import gcd

UNIVERSE_SEED = 20001005
FIBRATION_UNIVERSE = 90       # drawn round-robin over the bases
POLYTOPE_UNIVERSE = 90        # drawn round-robin over the bands
# how a run samples a universe ranked from hardest to easiest (see
# `sample`): (inputs in the tier, one pick per group of this many), with
# None for the rest.  The hardest polytope is always drawn: it holds a third
# of the universe's time, and drawing it on some seeds only would make a
# pass's time bimodal.
TIERS = {"fibration_family": [(None, 3)],
         "polytope_family": [(1, 1), (20, 5), (None, 2)]}
MAX_SUBDIVISIONS = 6

# smooth complete base fans: rays and maximal cones (ray indices)
_P2 = [(1, 0), (0, 1), (-1, -1)]
BASES = {
    "P2": (_P2, [(0, 1), (1, 2), (2, 0)]),
    "P1xP1": ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "F1": ([(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "F2": ([(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "P3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           list(itertools.combinations(range(4), 3))),
    "P1xP2": ([(1, 0, 0), (-1, 0, 0)] + [(0,) + r for r in _P2],
              [(a, 2 + i, 2 + (i + 1) % 3) for a in (0, 1) for i in range(3)]),
    # the 3-fold base of the bundled dataset
    "bundled": ([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 2),
                 (0, 1, 3), (1, 0, 4)],
                [(0, 4, 2), (0, 4, 5), (0, 5, 3), (0, 1, 3), (0, 1, 2),
                 (6, 4, 2), (6, 4, 5), (6, 5, 3), (6, 1, 3), (6, 1, 2)]),
}

# complete fiber surfaces, rays counterclockwise (the library's catalog)
FIBERS = {
    "CP2": [(1, 0), (0, 1), (-1, -1)],
    "CP1xCP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "WCP2(1,2,3)": [(2, 3), (-1, 0), (0, -1)],
    "WCP2(1,1,3)": [(1, 0), (0, 1), (-1, -3)],
    "F2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "X(4)": [(2, 3), (-1, 0), (-1, -1), (0, -1)],
    "X(5)": [(2, 3), (-1, 0), (-2, -3), (-1, -2), (0, -1)],
}

# polytope bands: (dimension, coordinate bound)
POLYTOPE_BANDS = [(3, 3), (4, 3), (5, 1)]


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _fan_doc(rank, rays, cones, prefix="r"):
    out = ["toricfiber fan v1", f"rank {rank}"]
    out += [f"ray {prefix}{i} " + " ".join(map(str, r)) for i, r in enumerate(rays)]
    out += ["cone " + " ".join(f"{prefix}{i}" for i in sorted(c)) for c in cones]
    return "\n".join(out) + "\n"


def _map_doc(rows):
    out = ["toricfiber lattice_map v1", f"rows {len(rows)}", f"cols {len(rows[0])}"]
    out += ["row " + " ".join(map(str, r)) for r in rows]
    return "\n".join(out) + "\n"


def fibration(rng: random.Random, base: str):
    """A twisted product of a base fan and a catalog surface, with random
    integer lifts of the base rays and 0..MAX_SUBDIVISIONS stellar
    subdivisions at 2-faces.  Returns (source, target, map) documents and
    the number of maximal cones of the source fan."""
    brays, bcones = BASES[base]
    frays = FIBERS[rng.choice(sorted(FIBERS))]
    b = len(brays[0])
    n = b + 2
    rays = [tuple(u) + (rng.randint(-2, 2), rng.randint(-2, 2)) for u in brays]
    rays += [(0,) * b + f for f in frays]
    k = len(frays)
    fcones = [(len(brays) + i, len(brays) + (i + 1) % k) for i in range(k)]
    cones = [tuple(sorted(bc + fc)) for bc in bcones for fc in fcones]
    for _ in range(rng.randint(0, MAX_SUBDIVISIONS)):
        # the sum of two rays of a simplicial cone lies in the relative
        # interior of their 2-face; subdivide every cone containing it
        tau = tuple(sorted(rng.sample(rng.choice(cones), 2)))
        r = _primitive(tuple(x + y for x, y in zip(rays[tau[0]], rays[tau[1]])))
        rays.append(r)
        new = len(rays) - 1
        out = []
        for c in cones:
            if set(tau) <= set(c):
                out += [tuple(sorted([i for i in c if i != drop] + [new]))
                        for drop in tau]
            else:
                out.append(c)
        cones = out
    proj = [[int(i == j) for j in range(n)] for i in range(b)]
    return (_fan_doc(n, rays, cones), _fan_doc(b, brays, bcones, "b"),
            _map_doc(proj)), len(cones)


def _affine_rank(points):
    rows = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    rank, col, ncols = 0, 0, len(points[0])
    while rows and col < ncols:
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        rows = [[piv[col] * x - r[col] * y for x, y in zip(r, piv)] for r in rows]
        rank += 1
        col += 1
    return rank


def polytope(rng: random.Random, dim: int, bound: int):
    """Hull of 6..12 random points of [-bound, bound]^dim, redrawn until
    full-dimensional.  Returns a polytope document."""
    while True:
        pts = [tuple(rng.randint(-bound, bound) for _ in range(dim))
               for _ in range(rng.randint(6, 12))]
        if _affine_rank(pts) == dim:
            break
    out = ["toricfiber polytope v1", f"rank {dim}"]
    out += ["vertex " + " ".join(map(str, p)) for p in pts]
    return "\n".join(out) + "\n"


def universe(workload: str):
    """The fixed list of (documents, size) inputs of a family; the size is
    the number of maximal cones of a fibration's source fan and the
    dimension of a polytope."""
    rng = random.Random(f"{UNIVERSE_SEED}:{workload}")
    items = []
    if workload == "fibration_family":
        names = sorted(BASES)
        for i in range(FIBRATION_UNIVERSE):
            base = names[i % len(names)]
            docs, size = fibration(rng, base)
            items.append((docs, size))
    elif workload == "polytope_family":
        for i in range(POLYTOPE_UNIVERSE):
            dim, bound = POLYTOPE_BANDS[i % len(POLYTOPE_BANDS)]
            items.append(((polytope(rng, dim, bound),), dim))
    else:
        raise ValueError(f"no generated universe for {workload}")
    return items


def sample(ref_seconds, seed: int, tiers) -> list[int]:
    """Seeded sample of a universe, matched on difficulty.

    Inputs are ranked by their recorded reference operation time, from the
    slowest, and cut into the `tiers`; each tier is cut into consecutive
    groups and the seed picks one input per group.  Every seed thus gets a
    different set of inputs with the same spread of difficulty, which keeps
    a pass's time and its percentiles comparable across seeds.  Nothing is
    filtered: every input of the universe can be drawn.
    """
    rng = random.Random(seed)
    ranked = sorted(range(len(ref_seconds)), key=lambda i: (-ref_seconds[i], i))
    picked, start = [], 0
    for count, group in tiers:
        tier = ranked[start:] if count is None else ranked[start:start + count]
        start += len(tier)
        picked += [rng.choice(tier[g:g + group]) for g in range(0, len(tier), group)]
    return picked


def input_key(docs) -> str:
    return hashlib.sha256("\0".join(docs).encode()).hexdigest()[:24]
