"""Exact integer linear algebra over lattices Z^n.

Vectors are tuples of Python ints (arbitrary precision), maps act on
column vectors.  Everything here is pure and deterministic; the Smith
normal form uses smallest-absolute-value pivoting with row-major tie
breaking so golden tests stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


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
    return sum(x * y for x, y in zip(a, b, strict=True))


def vgcd(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def is_primitive(a: Vec) -> bool:
    return vgcd(a) == 1


def primitivize(a):
    """Scale a nonzero rational/integer vector to its primitive integer ray."""
    fracs = [Fraction(x) for x in a]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = vgcd(ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in ints)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_det(a) -> int:
    """Determinant of a square integer matrix (fraction-free Gauss)."""
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
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    if det.denominator != 1:
        raise ArithmeticError(f"determinant {det} is not an integer")
    return int(det)


def lin_comb(coeffs, vectors, rank: int) -> Vec:
    """sum_j coeffs[j] * vectors[j], a vector of length `rank`."""
    out = [0] * rank
    for c, v in zip(coeffs, vectors, strict=True):
        for i in range(rank):
            out[i] += c * v[i]
    return tuple(out)


def mat_inverse_unimodular(a):
    """Exact inverse of a matrix with determinant +-1, else ArithmeticError."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ArithmeticError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    out = [[m[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ArithmeticError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


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


def solve_unimodular(a, t):
    """The integer U with U a = t and |det U| = 1, or None.

    Solved row by row over Q (row i of U solves a^T x = row i of t), so
    when `a` is invertible U is unique.
    """
    at = mat_transpose(a)
    u = []
    for row in t:
        sol = solve_rational(at, row)
        if sol is None or any(s.denominator != 1 for s in sol):
            return None
        u.append([int(s) for s in sol])
    return u if abs(mat_det(u)) == 1 else None


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism between lattices, acting on column vectors."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = {len(r) for r in self.matrix}
        if len(rows) > 1:
            raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows) -> "LatticeMap":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, cols) -> "LatticeMap":
        return cls.from_rows(zip(*cols)) if cols else cls(())

    @classmethod
    def identity(cls, n: int) -> "LatticeMap":
        return cls.from_rows(_identity(n))

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Vec) -> Vec:
        if not self.matrix:
            return ()
        if len(v) != self.source_rank:
            raise ValueError("vector length does not match source rank")
        return mat_vec(self.matrix, v)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        if self.source_rank != other.target_rank:
            raise ValueError("rank mismatch in composition")
        return LatticeMap.from_rows(mat_mul([list(r) for r in self.matrix],
                                            [list(r) for r in other.matrix]))

    def columns(self) -> list[Vec]:
        return [tuple(row[j] for row in self.matrix) for j in range(self.source_rank)]


def dual_map(f: LatticeMap) -> LatticeMap:
    """Transpose: <dual_map(f)(u), v> = <u, f(v)>."""
    return LatticeMap.from_rows(mat_transpose([list(r) for r in f.matrix]))


@dataclass(frozen=True)
class SmithDecomposition:
    """A = U . S . V with U, V unimodular and S diagonal, d_i | d_{i+1}."""

    U: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form with transforms, A = U S V exactly.

    Pivot selection: smallest absolute nonzero entry of the working
    submatrix, ties broken in row-major order.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    # U and V accumulate the inverses of the row/column operations applied
    # to the working matrix, preserving A = U * work * V throughout.
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            for r in u:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            v[i], v[j] = v[j], v[i]

    def add_row(src, dst, k):
        # work[dst] += k * work[src]  =>  U[:,src] -= k * U[:,dst]
        if k:
            for c in range(cols):
                a[dst][c] += k * a[src][c]
            for r in u:
                r[src] -= k * r[dst]

    def add_col(src, dst, k):
        # work[:,dst] += k * work[:,src]  =>  V[src,:] -= k * V[dst,:]
        if k:
            for r in a:
                r[dst] += k * r[src]
            v[src] = [x - k * y for x, y in zip(v[src], v[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        for r in u:
            r[i] = -r[i]

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
    snf = SmithDecomposition(
        U=tuple(tuple(r) for r in u),
        S=tuple(tuple(r) for r in a),
        V=tuple(tuple(r) for r in v),
        diagonal=diag,
    )
    return snf


def cokernel_index(f: LatticeMap):
    """[target : image] as an integer, or INFINITE if the image has lower rank."""
    snf = smith_normal_form(f.matrix)
    if snf.rank < f.target_rank:
        return INFINITE
    idx = 1
    for d in snf.diagonal:
        if d:
            idx *= d
    return idx


def kernel_basis(f: LatticeMap) -> list[Vec]:
    """Basis of ker(f) in the source lattice; the result is saturated."""
    snf = smith_normal_form(f.matrix)
    vinv = mat_inverse_unimodular([list(r) for r in snf.V])
    n = f.source_rank
    return [tuple(vinv[i][j] for i in range(n)) for j in range(snf.rank, n)]


@dataclass(frozen=True)
class QuotientLattice:
    """Z^ambient / span(sub), described by a compatible basis change.

    `quotient_basis` lifts a basis of the free part back to the ambient
    lattice; `torsion` lists the invariant factors > 1.
    """

    ambient_rank: int
    sublattice_basis: tuple[Vec, ...]
    quotient_basis: tuple[Vec, ...]
    torsion: tuple[int, ...]
    _uinv: tuple[tuple[int, ...], ...]
    _sub_count: int

    @property
    def rank(self) -> int:
        return len(self.quotient_basis)

    def project(self, x: Vec) -> Vec:
        """Coordinates of x in the free part of the quotient."""
        y = mat_vec(self._uinv, x)
        return tuple(y[self._sub_count:])

    def project_with_torsion(self, x: Vec):
        y = mat_vec(self._uinv, x)
        tor = tuple(y[i] % d for i, d in enumerate(self.torsion_factors_all())
                    if d > 1)
        return tuple(y[self._sub_count:]), tor

    def torsion_factors_all(self) -> tuple[int, ...]:
        pad = [1] * (self._sub_count - len(self.torsion))
        return tuple(sorted(pad + list(self.torsion)))


def quotient_lattice(ambient_rank: int, sub) -> QuotientLattice:
    """Quotient of Z^ambient_rank by the span of independent vectors."""
    sub = [tuple(int(x) for x in s) for s in sub]
    if not sub:
        ident = tuple(tuple(r) for r in _identity(ambient_rank))
        basis = tuple(tuple(r[i] for r in ident) for i in range(ambient_rank))
        return QuotientLattice(ambient_rank, (), basis, (), ident, 0)
    mat = [[s[i] for s in sub] for i in range(ambient_rank)]  # columns = sub
    snf = smith_normal_form(mat)
    k = len(sub)
    if snf.rank < k:
        raise ValueError("sublattice vectors are dependent")
    u = [list(r) for r in snf.U]
    uinv = mat_inverse_unimodular(u)
    quotient = tuple(tuple(u[i][j] for i in range(ambient_rank))
                     for j in range(k, ambient_rank))
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return QuotientLattice(
        ambient_rank=ambient_rank,
        sublattice_basis=tuple(sub),
        quotient_basis=quotient,
        torsion=torsion,
        _uinv=tuple(tuple(r) for r in uinv),
        _sub_count=k,
    )


def section_of_surjection(f: LatticeMap) -> LatticeMap:
    """A right inverse xi with f . xi = identity, via the SNF transforms.

    f is onto exactly when its Smith form has one diagonal entry per
    target row and every diagonal entry is 1.
    """
    snf = smith_normal_form(f.matrix)
    if snf.rank < f.target_rank or any(d != 1 for d in snf.diagonal):
        raise ValueError("map is not a surjection of lattices")
    uinv = mat_inverse_unimodular([list(r) for r in snf.U])
    vinv = mat_inverse_unimodular([list(r) for r in snf.V])
    s, t = f.source_rank, f.target_rank
    splus = [[1 if i == j else 0 for j in range(t)] for i in range(s)]
    xi = mat_mul(mat_mul(vinv, splus), uinv)
    return LatticeMap.from_rows(xi)


def column_lattice_hnf(columns, ambient_rank: int) -> tuple[Vec, ...]:
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


def saturate_columns(columns, ambient_rank: int) -> list[Vec]:
    """Basis of the saturation (R-span intersected with Z^n) of a column lattice."""
    if not columns:
        return []
    mat = [[c[i] for c in columns] for i in range(ambient_rank)]
    snf = smith_normal_form(mat)
    r = snf.rank
    u = snf.U
    return [tuple(u[i][j] for i in range(ambient_rank)) for j in range(r)]


def in_sublattice_coords(basis, x: Vec):
    """Coordinates of x in terms of a sublattice basis, or None.

    Exact: returns None when x is outside the Q-span or the coordinates
    are non-integral.
    """
    if not basis:
        return () if is_zero(x) else None
    rows = [[b[i] for b in basis] for i in range(len(x))]
    sol = solve_rational(rows, x)
    if sol is None:
        return None
    if any(s.denominator != 1 for s in sol):
        return None
    # verify (solve_rational ignores redundant rows only when consistent)
    if tuple(sum(int(sol[j]) * basis[j][i] for j in range(len(basis)))
             for i in range(len(x))) != tuple(x):
        return None
    return tuple(int(s) for s in sol)


def lattice_intersection(basis_a, basis_b, ambient_rank: int) -> list[Vec]:
    """Basis of the intersection of two sublattices of Z^n."""
    if not basis_a or not basis_b:
        return []
    cols = [list(a) for a in basis_a] + [[-x for x in b] for b in basis_b]
    mat = [[c[i] for c in cols] for i in range(ambient_rank)]
    ker = kernel_basis(LatticeMap.from_rows(mat))
    gens = []
    for k in ker:
        g = lin_comb(k[:len(basis_a)], basis_a, ambient_rank)
        if not is_zero(g):
            gens.append(g)
    return [tuple(b) for b in column_lattice_hnf(gens, ambient_rank)]


def sublattice_index(basis_super, basis_sub, ambient_rank: int):
    """[super : sub] for sub a finite-index sublattice of super."""
    coords = []
    for s in basis_sub:
        c = in_sublattice_coords(basis_super, s)
        if c is None:
            raise ValueError("not a sublattice")
        coords.append(c)
    if len(basis_sub) < len(basis_super):
        return INFINITE
    mat = [[coords[j][i] for j in range(len(coords))] for i in range(len(basis_super))]
    return cokernel_index(LatticeMap.from_rows(mat))
