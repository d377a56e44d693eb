import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from oracles import (column_lattice_hnf, fraction_sublattice_coords,
                     lattice_intersection, sublattice_index)
from toricfiber import data, intlinalg
from toricfiber.intlinalg import (INFINITE, LatticeMap, SublatticeCoords,
                                  cokernel_index, dual_map,
                                  in_sublattice_coords, is_zero,
                                  kernel_basis, lin_comb, mat_det,
                                  mat_inverse_unimodular, mat_mul, mat_rank,
                                  mat_vec,
                                  quotient_lattice, section_of_surjection,
                                  smith_normal_form, vdot, vgcd)
from toricfiber.morphism import FanMap
from toricfiber.polytopes import SubspaceChart
from toricfiber.surfaces import CATALOG_RAYS, catalog_fan, identify_surface

PROJECTION = LatticeMap.from_rows([[1, 0, 0, 0, 0],
                                   [0, 1, 0, 0, 0],
                                   [0, 0, 1, 0, 0]])


def as_lists(m):
    return [list(r) for r in m]


def test_snf_identity():
    snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert snf.U == ident and snf.S == ident and snf.V == ident


def test_snf_2x2_golden():
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.diagonal == (2, 4)
    assert mat_mul(mat_mul(as_lists(snf.U), as_lists(snf.S)),
                   as_lists(snf.V)) == [[2, 4], [6, 8]]
    assert abs(mat_det(snf.U)) == 1 and abs(mat_det(snf.V)) == 1


def test_snf_projection_matrix():
    snf = smith_normal_form(PROJECTION.matrix)
    assert snf.diagonal == (1, 1, 1)


def test_cokernel_examples():
    assert cokernel_index(PROJECTION) == 1
    assert cokernel_index(LatticeMap.from_rows([[2]])) == 2
    assert cokernel_index(LatticeMap.from_rows([[1], [0]])) is INFINITE


def test_kernel_projection():
    assert kernel_basis(PROJECTION) == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    assert kernel_basis(LatticeMap.identity(3)) == []


def is_saturated(basis):
    """An independent basis spans a saturated sublattice exactly when its
    Smith form has every invariant factor 1."""
    return smith_normal_form(list(zip(*basis))).diagonal == (1,) * len(basis)


def test_kernel_saturated():
    f = LatticeMap.from_rows([[2, 4]])
    (b,) = kernel_basis(f)
    assert vdot((2, 4), b) == 0
    assert b in ((2, -1), (-2, 1))
    assert is_saturated([b])


def test_quotient_examples():
    q = quotient_lattice(3, [(0, 0, 1)])
    assert q.rank == 2
    # the quotient is by the saturation of the span: (1, 0) goes to 0
    q = quotient_lattice(2, [(2, 0)])
    assert q.rank == 1 and q.project((1, 0)) == (0,)
    q = quotient_lattice(5, [(-1, 0, 0, 2, 3), (0, 0, 2, 2, 3)])
    assert q.rank == 3


def test_quotient_of_dependent_generators():
    assert quotient_lattice(2, [(1, 0), (2, 0)]) == \
        quotient_lattice(2, [(1, 0)])


def test_quotient_rejects_generators_of_another_length():
    # (1, 0, 0) was read as (1, 0), and (1, 0) in rank 3 raised IndexError
    for rank, gens in ((2, [(1, 0, 0)]), (3, [(1, 0)])):
        with pytest.raises(ValueError,
                           match=re.escape(f"{gens[-1]} is not in Z^{rank}")):
            quotient_lattice(rank, gens)


def unit(i, n):
    return tuple(int(i == j) for j in range(n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_by_the_saturated_span(picks):
    n = picks.draw(st.integers(0, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    drawn = picks.draw(st.lists(vec, max_size=4))
    # dependent and non-primitive generators: integer combinations

    def combination():
        return lin_comb(picks.draw(st.lists(
            st.integers(-3, 3), min_size=len(drawn), max_size=len(drawn))),
            drawn, n)

    gens = drawn + [combination()
                    for _ in range(picks.draw(st.integers(0, 2)))]
    q = quotient_lattice(n, gens)
    r = mat_rank(gens)
    assert q.rank == n - r
    assert all(is_zero(q.project(g)) for g in gens)
    for j, lift in enumerate(q.quotient_basis):
        assert q.project(lift) == unit(j, q.rank)
    # a primitive vector on the span is in the saturation, if not on the
    # lattice the generators span
    on_span = combination()
    for x in (picks.draw(vec), on_span,
              tuple(x // max(1, vgcd(on_span)) for x in on_span)):
        assert is_zero(q.project(x)) == (mat_rank(gens + [x]) == r)
    assert len(q.span.basis) == r
    for i, b in enumerate(q.span.basis):
        assert q.span(b) == unit(i, r)


def test_section_of_surjection():
    xi = section_of_surjection(PROJECTION)
    assert PROJECTION.compose(xi).matrix == LatticeMap.identity(3).matrix
    ident = LatticeMap.identity(4)
    assert section_of_surjection(ident).matrix == ident.matrix
    with pytest.raises(ValueError):
        section_of_surjection(LatticeMap.from_rows([[2]]))
    wide = LatticeMap.from_rows([[2, 3]])
    assert wide.compose(section_of_surjection(wide)).matrix == ((1,),)
    for not_onto in ([[2, 4]], [[1, 2], [2, 4]], [[1], [0]]):
        with pytest.raises(ValueError):
            section_of_surjection(LatticeMap.from_rows(not_onto))


def test_section_of_surjection_takes_one_smith_form(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    section_of_surjection(PROJECTION)
    assert len(calls) == 1


def test_dual_map_pairing():
    f = LatticeMap.from_rows([[1, 2, 0, -1], [0, 3, 1, 1], [2, 0, 0, 5]])
    ft = dual_map(f)
    for i in range(3):
        u = tuple(int(i == k) for k in range(3))
        for j in range(4):
            v = tuple(int(j == k) for k in range(4))
            assert vdot(ft.apply(u), v) == vdot(u, f.apply(v))


def test_lattice_maps_keep_both_ranks():
    def ranks(m):
        return m.target_rank, m.source_rank

    to_point = LatticeMap.from_columns([()] * 5)
    assert ranks(to_point) == (0, 5)
    assert to_point.apply((1, 2, 3, 4, 5)) == ()
    assert ranks(dual_map(to_point)) == (5, 0)
    assert dual_map(dual_map(to_point)) == to_point
    assert to_point != LatticeMap(())
    assert ranks(to_point.compose(LatticeMap.identity(5))) == (0, 5)
    from_point = LatticeMap.from_rows([()] * 3)
    assert ranks(from_point) == (3, 0)
    assert ranks(dual_map(from_point)) == (0, 3)
    assert dual_map(dual_map(from_point)) == from_point
    assert ranks(from_point.compose(to_point)) == (3, 5)
    assert from_point.compose(to_point).matrix == ((0,) * 5,) * 3
    with pytest.raises(ValueError):
        to_point.apply((1, 2))


def test_the_map_to_a_point_has_all_of_its_source_as_kernel():
    to_point = LatticeMap.from_columns([()] * 5)
    assert kernel_basis(to_point) == [tuple(int(i == j) for j in range(5))
                                      for i in range(5)]
    xi = section_of_surjection(to_point)
    assert (xi.target_rank, xi.source_rank) == (5, 0)
    assert xi.matrix == ((),) * 5
    back = to_point.compose(xi)
    assert (back.target_rank, back.source_rank) == (0, 0)
    assert back == LatticeMap.identity(0)
    assert xi.compose(to_point).matrix == ((0,) * 5,) * 5


def test_remark_index_identity_doubling():
    # doubling Z -> Z: [N : phi(N')] = 2 = Ind(0) * [N_sigma : N_sigma cap phi(N')]
    phi = LatticeMap.from_rows([[2]])
    assert cokernel_index(phi) == 2
    inter = lattice_intersection([(1,)], [(2,)], 1)
    assert sublattice_index([(1,)], inter, 1) == 2


def test_cokernel_matches_coset_enumeration():
    # brute-force coset count on rank-2 instances: canonical representative
    # by flooring against the rational inverse of the column basis
    rng_cases = [[[2, 0], [0, 3]], [[2, 4], [6, 8]], [[1, 2], [3, 4]],
                 [[5, 1], [0, 1]], [[3, 1], [1, 3]]]
    for mat in rng_cases:
        f = LatticeMap.from_rows(mat)
        idx = cokernel_index(f)
        cols = [(mat[0][0], mat[1][0]), (mat[0][1], mat[1][1])]
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        reps = set()
        for x in range(-6, 7):
            for y in range(-6, 7):
                # coordinates of (x, y) in the image basis
                a = Fraction(y * cols[1][0] - x * cols[1][1], -det)
                b = Fraction(x * cols[0][1] - y * cols[0][0], -det)
                fa, fb = a - (a.numerator // a.denominator), \
                    b - (b.numerator // b.denominator)
                reps.add((fa, fb))
        assert len(reps) == idx


def test_column_lattice_hnf_canonical():
    a = column_lattice_hnf([(2, 0), (0, 3)], 2)
    b = column_lattice_hnf([(2, 3), (2, -3), (4, 3)], 2)
    assert a == b == ((2, 0), (0, 3))


@st.composite
def column_sets(draw):
    """Integer columns, followed by up to two integer combinations of them
    so that rank-deficient sets come up often."""
    n = draw(st.integers(1, 4))
    cols = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
        k, l = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        cols.append(tuple(k * x + l * y for x, y in zip(a, b)))
    return n, cols


def sympy_hnf_columns(cols, n):
    h = sympy_hnf(sympy.Matrix([[c[i] for c in cols] for i in range(n)]))
    return [tuple(int(x) for x in h.col(j)) for j in range(h.cols)]


def test_column_lattice_hnf_differs_from_sympy_in_convention():
    cols = [(4, 6, 0), (2, 2, 2)]
    assert sympy_hnf_columns(cols, 3) == cols
    assert column_lattice_hnf(cols, 3) == ((2, 0, 6), (0, 2, -4))


@settings(max_examples=200, deadline=None)
@given(column_sets())
def test_column_lattice_hnf_against_sympy(case):
    # the two normal forms differ in convention, so compare the lattices
    # they span, then normalise sympy's basis
    n, cols = case
    ours = column_lattice_hnf(cols, n)
    theirs = sympy_hnf_columns(cols, n)
    for basis, others in ((ours, theirs), (theirs, ours)):
        for v in others:
            assert fraction_sublattice_coords(list(basis), v) is not None
    assert column_lattice_hnf(theirs, n) == ours


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [[draw(st.integers(-30, 30)) for _ in range(cols)]
            for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_snf_contract(matrix):
    snf = smith_normal_form(matrix)
    assert mat_mul(mat_mul(as_lists(snf.U), as_lists(snf.S)),
                   as_lists(snf.V)) == matrix
    assert abs(mat_det(snf.U)) == 1
    assert abs(mat_det(snf.V)) == 1
    d = snf.diagonal
    for i in range(len(d) - 1):
        if d[i] == 0:
            assert d[i + 1] == 0
        elif d[i + 1]:
            assert d[i + 1] % d[i] == 0
    for i, row in enumerate(snf.S):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    # kernel really is the kernel, and spans a saturated sublattice
    f = LatticeMap.from_rows(matrix)
    kb = kernel_basis(f)
    for b in kb:
        assert all(x == 0 for x in f.apply(b))
    if kb:
        assert is_saturated(kb)


def test_inverse_rejects_non_unimodular_and_singular():
    assert mat_inverse_unimodular([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    for matrix in ([[2, 0], [0, 1]], [[1, 1], [1, 1]], [[0, 0], [0, 0]]):
        with pytest.raises(ArithmeticError):
            mat_inverse_unimodular(matrix)


def test_inverse_check_survives_optimised_python():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("from toricfiber.intlinalg import mat_inverse_unimodular\n"
            "print(mat_inverse_unimodular([[2, 0], [0, 1]]))")
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 1 and res.stdout == ""
    assert "ArithmeticError: matrix is not unimodular" in res.stderr


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def lattice_matrices(draw, square=False):
    """Integer matrices up to 6 x 6; some rows are integer combinations of
    others, so rank-deficient matrices come up often."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            k, j = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m.append([k * x + j * y for x, y in zip(a, b)])
        else:
            m.append([draw(st.integers(-12, 12)) for _ in range(cols)])
    return m


@settings(max_examples=300, deadline=None)
@given(lattice_matrices())
def test_snf_matches_sympy_and_carries_its_inverses(matrix):
    snf = smith_normal_form(matrix)
    theirs = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
    assert list(snf.diagonal) == [abs(theirs[i, i]) for i in
                                  range(min(theirs.shape))]
    assert mat_mul(mat_mul(snf.U, snf.S), snf.V) == matrix
    assert mat_mul(snf.U, snf.Uinv) == identity(len(matrix))
    assert mat_mul(snf.V, snf.Vinv) == identity(len(matrix[0]))


@settings(max_examples=200, deadline=None)
@given(lattice_matrices(square=True))
def test_mat_det_matches_sympy(matrix):
    assert mat_det(matrix) == sympy.Matrix(matrix).det()


@settings(max_examples=300, deadline=None)
@given(lattice_matrices())
def test_mat_rank_matches_sympy(matrix):
    assert mat_rank(matrix) == sympy.Matrix(matrix).rank()


def test_mat_rank_of_deficient_and_empty_matrices():
    assert mat_rank([]) == 0
    assert mat_rank([[0, 0], [0, 0]]) == 0
    # a zero first column: the pivots sit in later columns
    assert mat_rank([[0, 2, 4], [0, 1, 2], [0, 3, 7]]) == 2
    assert mat_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert mat_det([[1, 2], [2, 4]]) == 0


def test_vdot_and_mat_vec_reject_unequal_lengths():
    assert vdot((1, -2, 3), (4, 5, 6)) == 12 and vdot((), ()) == 0
    assert mat_vec([[1, 2, 3], [0, 1, 0]], (1, 1, 1)) == (6, 1)
    assert mat_vec([], (1, 2)) == () and mat_vec([[], []], ()) == (0, 0)
    for a, b in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((1,), ())):
        with pytest.raises(ValueError):
            vdot(a, b)
    # a row longer than the vector used to be cut short: [[1, 2, 3]] (1, 1)
    # gave (3,)
    for a in ([[1, 2, 3]], [[1, 2], [1]], [[1, 2], []]):
        with pytest.raises(ValueError):
            mat_vec(a, (1, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sublattice_coords_match_the_fraction_solve(picks):
    n = picks.draw(st.integers(1, 5))
    k = picks.draw(st.integers(0, n))
    vec = st.tuples(*[st.integers(-5, 5)] * n)
    basis = picks.draw(st.lists(vec, min_size=k, max_size=k))
    assume(smith_normal_form([list(b) for b in basis] or [[0]]).rank == k
           or not basis)
    coords = SublatticeCoords.of(basis)
    b_cols = [[b[i] for b in basis] for i in range(n)]
    if basis:
        assert mat_mul(coords.left_inverse, b_cols) == \
            [[coords.scale * x for x in row] for row in identity(k)]
    c = picks.draw(st.tuples(*[st.integers(-4, 4)] * k))
    on = lin_comb(c, basis, n)
    half = tuple(Fraction(x, 2) for x in on)
    for x in (on, picks.draw(vec), half, tuple(x + 1 for x in on)):
        expected = fraction_sublattice_coords(basis, x)
        assert in_sublattice_coords(basis, x) == expected
        assert coords(x) == expected
    assert coords(on) == c


class FractionBuilt(Exception):
    pass


def test_integer_paths_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise FractionBuilt(args)

    monkeypatch.setattr(intlinalg, "Fraction", no_fraction)
    m = FanMap(data.projection(), data.total_fan(), data.base_fan())
    assert len(m.flattening_stratification()) == 33
    assert m.is_fibration().is_fibration
    chart = SubspaceChart((1, 1, 1), SublatticeCoords.of(((1, 1, 0),
                                                          (0, 1, 0))))
    assert chart.to_chart((2, 5, 1)) == (1, 3)
    for label in CATALOG_RAYS:
        assert identify_surface(catalog_fan(label)) == label
