"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from toricfiber.intlinalg import mat_vec, smith_normal_form, vadd
from toricfiber.polytopes import Polytope


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
