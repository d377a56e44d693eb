"""Exact integer linear algebra over lattices Z^n.

Vectors are tuples of Python ints (arbitrary precision), maps act on
column vectors.  Everything here is pure and deterministic; the Smith
normal form uses smallest-absolute-value pivoting with row-major tie
breaking so golden tests stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd
from operator import mul


Vec = tuple[int, ...]


class _Infinite:
    """Sentinel for an infinite lattice index."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class InvariantError(ArithmeticError):
    """An internal consistency check failed.  It is raised, never asserted,
    so `python -O` keeps it; the CLI exits with code 2 on it."""


def vec(*coords) -> Vec:
    return tuple(int(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vdot(a, b):
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def vgcd(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def is_primitive(a: Vec) -> bool:
    return vgcd(a) == 1


def primitivize(a) -> Vec:
    """Scale a nonzero integer vector to its primitive integer ray."""
    g = vgcd(a)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(a) if g == 1 else tuple(x // g for x in a)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    n = len(v)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix rows of lengths other than {n}")
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _bareiss(a) -> tuple[int, int]:
    """(rank, signed last pivot) of an integer matrix by fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 22, 1968): every entry stays
    a minor of a, so every division is exact.  For a square matrix of full
    rank the signed last pivot is the determinant."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    sign, prev, r = 1, 1, 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pk = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            m[i][c + 1:] = [(x * pk - mic * y) // prev
                            for x, y in zip(m[i][c + 1:], m[r][c + 1:])]
        prev, r = pk, r + 1
        if r == rows:
            break
    return r, sign * prev


def mat_det(a) -> int:
    """Determinant of a square integer matrix."""
    rank, last = _bareiss(a)
    return last if rank == len(a) else 0


def mat_rank(a) -> int:
    """Rank of an integer matrix."""
    return _bareiss(a)[0]


def scaled_inverse(a):
    """(d, d a^-1) for a nonsingular square integer matrix, d = +-det a,
    or None when a is singular.

    One fraction-free Gauss-Jordan pass on [a | I] (Bareiss, Math.
    Comp. 22, 1968): every row below and above the pivot is eliminated
    with the same exact division by the previous pivot, so the left block
    ends as d I and the right block as d a^-1, an adjugate up to sign."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        row = m[k]
        pk = row[k]
        for i in range(n):
            if i != k:
                mik = m[i][k]
                m[i] = [(x * pk - mik * y) // prev
                        for x, y in zip(m[i], row)]
        prev = pk
    return prev, [r[n:] for r in m]


def lin_comb(coeffs, vectors, rank: int) -> Vec:
    """sum_j coeffs[j] * vectors[j], a vector of length `rank`."""
    out = [0] * rank
    for c, v in zip(coeffs, vectors, strict=True):
        for i in range(rank):
            out[i] += c * v[i]
    return tuple(out)


# No library caller: perfbench/tracing.py traces this name.
def mat_inverse_unimodular(a):
    """Exact inverse of a matrix with determinant +-1, else ArithmeticError:
    V^-1 U^-1 from one Smith form a = U S V."""
    snf = smith_normal_form(a)
    if snf.rank < len(a):
        raise ArithmeticError("matrix is singular")
    if any(d != 1 for d in snf.diagonal):
        raise ArithmeticError("matrix is not unimodular")
    return mat_mul(snf.Vinv, snf.Uinv)


# No library caller: perfbench/tracing.py traces this name.
def solve_rational(a, b):
    """Solve a x = b exactly over Q; returns None if inconsistent.

    `a` is a list of rows, `b` a vector.  When the system is
    underdetermined an arbitrary solution with free variables set to 0
    is returned.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b, strict=True)]
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
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism between lattices, acting on column vectors.  The source
    rank is kept beside the rows, so a map to the zero lattice keeps it."""

    matrix: tuple[tuple[int, ...], ...]
    source_rank: int = field(init=False)

    def __post_init__(self):
        widths = {len(r) for r in self.matrix}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        object.__setattr__(self, "source_rank", widths.pop() if widths else 0)

    @classmethod
    def from_rows(cls, rows) -> "LatticeMap":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, cols) -> "LatticeMap":
        cols = list(cols)
        return cls._shaped(zip(*cols), len(cols))

    @classmethod
    def _shaped(cls, rows, source_rank: int) -> "LatticeMap":
        """The map from Z^source_rank with these rows, which cannot tell
        the source rank when there are none."""
        m = cls.from_rows(rows)
        object.__setattr__(m, "source_rank", source_rank)
        return m

    @classmethod
    def identity(cls, n: int) -> "LatticeMap":
        return cls.from_rows(_identity(n))

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.source_rank:
            raise ValueError("vector length does not match source rank")
        return mat_vec(self.matrix, v)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        if self.source_rank != other.target_rank:
            raise ValueError("rank mismatch in composition")
        cols = other.columns()
        return LatticeMap._shaped([[vdot(row, c) for c in cols]
                                   for row in self.matrix], other.source_rank)

    def columns(self) -> list[Vec]:
        return [tuple(row[j] for row in self.matrix) for j in range(self.source_rank)]


def dual_map(f: LatticeMap) -> LatticeMap:
    """Transpose: <dual_map(f)(u), v> = <u, f(v)>."""
    return LatticeMap._shaped(f.columns(), f.target_rank)


_SWAP, _ADD, _NEG = range(3)


def _replay(n: int, ops) -> tuple[tuple[int, ...], ...]:
    """The identity of size n after the recorded row operations: (_SWAP,
    i, j), (_ADD, src, dst, k) for row[dst] += k * row[src], (_NEG, i)."""
    m = _identity(n)
    for op in ops:
        if op[0] == _SWAP:
            m[op[1]], m[op[2]] = m[op[2]], m[op[1]]
        elif op[0] == _ADD:
            _, src, dst, k = op
            m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        else:
            m[op[1]] = [-x for x in m[op[1]]]
    return tuple(map(tuple, m))


def _inverse_transposed(ops):
    """E^-T for each recorded row operation E, in the same order; for a
    column operation F, recorded as F^T, this is F^-1."""
    return [(_ADD, op[2], op[1], -op[3]) if op[0] == _ADD else op for op in ops]


def _transposed(m):
    return tuple(zip(*m))


@dataclass(frozen=True)
class SmithDecomposition:
    """A = U . S . V with U, V unimodular and S diagonal, d_i | d_{i+1};
    Uinv and Vinv are the inverses of U and V.

    The reduction records its elementary row operations E and column
    operations F, S = E_k ... E_1 A F_1 ... F_l.  Each transform is built
    on first use by replaying them on an identity: U^-1 = E_k ... E_1
    takes the row operations as they are, the transpose of
    V^-1 = F_1 ... F_l the column operations as row operations, and U^T
    and V the same lists with every addition reversed
    (`_inverse_transposed`).  A caller that reads only the diagonal builds
    none of them.
    """

    S: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]
    _row_ops: list = field(repr=False, compare=False)
    _col_ops: list = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @cached_property
    def U(self) -> tuple[tuple[int, ...], ...]:
        return _transposed(_replay(len(self.S),
                                   _inverse_transposed(self._row_ops)))

    @cached_property
    def Uinv(self) -> tuple[tuple[int, ...], ...]:
        return _replay(len(self.S), self._row_ops)

    @cached_property
    def V(self) -> tuple[tuple[int, ...], ...]:
        return _replay(self._cols, _inverse_transposed(self._col_ops))

    @cached_property
    def Vinv(self) -> tuple[tuple[int, ...], ...]:
        return _transposed(_replay(self._cols, self._col_ops))

    @property
    def _cols(self) -> int:
        return len(self.S[0]) if self.S else 0


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form with transforms and their inverses, A = U S V
    exactly.

    Pivot selection: smallest absolute nonzero entry of the working
    submatrix, ties broken in row-major order.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            row_ops.append((_SWAP, i, j))

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            col_ops.append((_SWAP, i, j))

    def add_row(src, dst, k):
        # work[dst] += k * work[src]
        if k:
            a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
            row_ops.append((_ADD, src, dst, k))

    def add_col(src, dst, k):
        # work[:,dst] += k * work[:,src]
        if k:
            for r in a:
                r[dst] += k * r[src]
            col_ops.append((_ADD, src, dst, k))

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        row_ops.append((_NEG, i))

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        entry = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                      if a[i][j] % a[t][t] != 0), None)
        if entry is not None:
            add_row(entry[0], t, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] if i < cols else 0 for i in range(limit))
    return SmithDecomposition(tuple(map(tuple, a)), diag, row_ops, col_ops)


def cokernel_index(f: LatticeMap):
    """[target : image] as an integer, or INFINITE if the image has lower rank."""
    return _index(smith_normal_form(f.matrix), f.target_rank)


def _index(snf: SmithDecomposition, target_rank: int):
    if snf.rank < target_rank:
        return INFINITE
    idx = 1
    for d in snf.diagonal:
        if d:
            idx *= d
    return idx


def kernel_basis(f: LatticeMap) -> list[Vec]:
    """Basis of ker(f) in the source lattice; the result is saturated."""
    return list(kernel_coords(f)[0].basis)


@dataclass(frozen=True)
class QuotientLattice:
    """Z^ambient / span(sub), described by a compatible basis change.

    `quotient_basis` lifts a basis of the free part back to the ambient
    lattice; `torsion` lists the invariant factors > 1.  `_projection`
    holds the rows of U^-1 that give coordinates in the free part.
    """

    ambient_rank: int
    sublattice_basis: tuple[Vec, ...]
    quotient_basis: tuple[Vec, ...]
    torsion: tuple[int, ...]
    _projection: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.quotient_basis)

    def project(self, x: Vec) -> Vec:
        """Coordinates of x in the free part of the quotient."""
        return mat_vec(self._projection, x)


def quotient_lattice(ambient_rank: int, sub) -> QuotientLattice:
    """Quotient of Z^ambient_rank by the span of independent vectors."""
    sub = [tuple(int(x) for x in s) for s in sub]
    if not sub:
        ident = tuple(tuple(r) for r in _identity(ambient_rank))
        return QuotientLattice(ambient_rank, (), ident, (), ident)
    mat = [[s[i] for s in sub] for i in range(ambient_rank)]  # columns = sub
    snf = smith_normal_form(mat)
    k = len(sub)
    if snf.rank < k:
        raise ValueError("sublattice vectors are dependent")
    quotient = tuple(tuple(row[j] for row in snf.U)
                     for j in range(k, ambient_rank))
    return QuotientLattice(
        ambient_rank=ambient_rank,
        sublattice_basis=tuple(sub),
        quotient_basis=quotient,
        torsion=tuple(d for d in snf.diagonal if d > 1),
        _projection=snf.Uinv[k:],
    )


def section_of_surjection(f: LatticeMap) -> LatticeMap:
    """A right inverse xi with f . xi = identity, via the SNF transforms.

    f is onto exactly when its Smith form has one diagonal entry per
    target row and every diagonal entry is 1.
    """
    if not f.target_rank:       # the map to a point; see kernel_coords
        return LatticeMap.from_rows([()] * f.source_rank)
    snf = smith_normal_form(f.matrix)
    if snf.rank < f.target_rank or any(d != 1 for d in snf.diagonal):
        raise ValueError("map is not a surjection of lattices")
    # xi = V^-1 S^+ U^-1, and S^+ keeps the first t columns of V^-1
    t = f.target_rank
    return LatticeMap.from_rows(mat_mul([row[:t] for row in snf.Vinv],
                                        snf.Uinv))


def saturate_columns(columns, ambient_rank: int) -> list[Vec]:
    """Basis of the saturation (R-span intersected with Z^n) of a column lattice."""
    if not columns:
        return []
    mat = [[c[i] for c in columns] for i in range(ambient_rank)]
    snf = smith_normal_form(mat)
    r = snf.rank
    u = snf.U
    return [tuple(u[i][j] for i in range(ambient_rank)) for j in range(r)]


@dataclass(frozen=True)
class SublatticeCoords:
    """Coordinates on the lattice spanned by independent vectors `basis`.

    `left_inverse` is an integer L with L B = scale I, B having the basis
    as columns.  It is read off one Smith form B = U S V as
    L = V^-1 (scale S^+) U^-1, scale being the largest invariant factor
    d_k; the scale is 1 exactly when the basis spans a saturated
    sublattice.
    """

    basis: tuple[Vec, ...]
    left_inverse: tuple[Vec, ...]
    scale: int

    @classmethod
    def of(cls, basis) -> "SublatticeCoords":
        basis = tuple(tuple(int(x) for x in b) for b in basis)
        if not basis:
            return cls((), (), 1)
        k = len(basis)
        snf = smith_normal_form(list(zip(*basis)))
        if snf.rank < k:
            raise ValueError("basis vectors are dependent")
        scale = snf.diagonal[-1]
        scaled = [[scale // d * x for x in row]
                  for d, row in zip(snf.diagonal, snf.Uinv)]
        return cls(basis, tuple(map(tuple, mat_mul(snf.Vinv, scaled))), scale)

    def __call__(self, x):
        """The c with lin_comb(c, basis) == x, or None when x is not on the
        lattice."""
        # int() makes non-integral coordinates fail the final check
        c = [int(y) for y in mat_vec(self.left_inverse, x)]
        if self.scale != 1:
            if any(y % self.scale for y in c):
                return None
            c = [y // self.scale for y in c]
        c = tuple(c)
        return c if lin_comb(c, self.basis, len(x)) == tuple(x) else None


def kernel_coords(f: LatticeMap) -> tuple[SublatticeCoords, object]:
    """(ker f with its coordinates, [target : image]) off one Smith form
    f = U S V of rank r.  The kernel basis is columns r.. of V^-1, and
    rows r.. of V are its left inverse at scale 1, since V V^-1 = I; the
    index is `cokernel_index`'s."""
    n = f.source_rank
    if not f.target_rank:       # no rows tell smith_normal_form the width
        ident = tuple(tuple(r) for r in _identity(n))
        return SublatticeCoords(ident, ident, 1), 1
    snf = smith_normal_form(f.matrix)
    r = snf.rank
    basis = tuple(tuple(row[j] for row in snf.Vinv) for j in range(r, n))
    return SublatticeCoords(basis, snf.V[r:], 1), _index(snf, f.target_rank)


def in_sublattice_coords(basis, x: Vec):
    """Coordinates of x in terms of an independent sublattice basis, or
    None when x is off the sublattice.  To map many vectors on one basis,
    build its `SublatticeCoords` once."""
    return SublatticeCoords.of(basis)(x)
