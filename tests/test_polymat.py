import random

import pytest

from facto.fields import QQ, GF
from facto.poly import Polynomial
from facto.polymat import (
    GradedMatrix,
    NoSolution,
    PolyMatrix,
    diagonal,
    kernel_basis,
    snf,
    solve_right,
)
from reference import (
    Violation,
    from_ints,
    from_poly,
    graded_check,
    homothety,
    try_solve_right,
)

F5 = GF(5)


def P(field, *ints):
    return from_ints(field, ints)


def M(field, grid):
    return PolyMatrix(field, [[P(field, *e) for e in row] for row in grid])


def x_pow(field, k):
    return Polynomial.monomial(field, k)


def check_snf(a):
    u, d, v = snf(a)
    assert u @ a @ v == d
    assert u.det().is_unit()
    assert v.det().is_unit()
    diag = diagonal(d)
    # off-diagonal zero
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j].is_zero()
    # monic divisibility chain
    for p, q in zip(diag, diag[1:]):
        if p.is_zero():
            assert q.is_zero()
        else:
            assert p.leading() == a.field.one
            assert p.divides(q)
    return u, d, v


def test_snf_unit_pivot():
    a = M(QQ, [[(0, 1), (0,)], [(1,), (0, 1)]])  # [[x,0],[1,x]]
    _, d, _ = check_snf(a)
    assert diagonal(d) == [P(QQ, 1), P(QQ, 0, 0, 1)]


def test_snf_zero_matrix():
    a = PolyMatrix.zero(QQ, 2, 3)
    u, d, v = snf(a)
    assert d.is_zero()
    assert u == PolyMatrix.identity(QQ, 2)
    assert v == PolyMatrix.identity(QQ, 3)


def test_snf_single_entry():
    a = M(QQ, [[(0, 0, 1)]])
    _, d, _ = check_snf(a)
    assert diagonal(d) == [P(QQ, 0, 0, 1)]


def random_poly(field, rng, max_deg):
    return Polynomial(
        field,
        [field.from_int(rng.randint(-4, 4)) for _ in range(rng.randint(0, max_deg + 1))],
    )


def random_matrix(field, rng, max_dim=5, max_deg=4):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return PolyMatrix(
        field,
        [[random_poly(field, rng, max_deg) for _ in range(cols)] for _ in range(rows)],
    )


@pytest.mark.parametrize("field", [QQ, F5])
def test_snf_random(field):
    rng = random.Random(12)
    for _ in range(60):
        check_snf(random_matrix(field, rng, max_dim=4, max_deg=3))


def test_solve_right_scalar():
    a = M(QQ, [[(0, 1)]])
    b = M(QQ, [[(0, 0, 1)]])
    x = solve_right(a, b)
    assert x == M(QQ, [[(0, 1)]])


def test_solve_right_no_solution():
    a = M(QQ, [[(0, 1)]])
    b = M(QQ, [[(1,)]])
    with pytest.raises(NoSolution):
        solve_right(a, b)
    assert try_solve_right(a, b) is None


def test_solve_right_triangular():
    a = M(QQ, [[(0, 1), (0,)], [(1,), (0, 1)]])
    b = PolyMatrix.scalar(QQ, 2, P(QQ, 0, 0, 1))
    x = solve_right(a, b)
    assert a @ x == b


@pytest.mark.parametrize("field", [QQ, F5])
def test_solve_right_random_consistent(field):
    rng = random.Random(7)
    for _ in range(40):
        a = random_matrix(field, rng, max_dim=3, max_deg=2)
        x0 = PolyMatrix(
            field,
            [
                [random_poly(field, rng, 2) for _ in range(2)]
                for _ in range(a.cols)
            ],
        )
        b = a @ x0
        x = solve_right(a, b)
        assert a @ x == b


def test_kernel_antidiagonal():
    a = M(QQ, [[(0, 1), (0, 1)]])  # [x, x]
    k = kernel_basis(a)
    assert k.cols == 1
    assert (a @ k).is_zero()


def test_kernel_injective_square():
    a = M(QQ, [[(0, 1), (0,)], [(1,), (0, 1)]])
    assert kernel_basis(a).cols == 0


def test_kernel_monomial_row():
    a = M(QQ, [[(0, 0, 1), (0, 0, 0, 1)]])  # [x^2, x^3]
    k = kernel_basis(a)
    assert k.cols == 1
    assert (a @ k).is_zero()
    # membership of [x, -1]
    v = M(QQ, [[(0, 1)], [(-1,)]])
    assert try_solve_right(k, v) is not None


@pytest.mark.parametrize("field", [QQ, F5])
def test_kernel_rank_nullity_random(field):
    from facto.polymat import rank_over_fractions

    rng = random.Random(3)
    for _ in range(30):
        a = random_matrix(field, rng, max_dim=4, max_deg=2)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert rank_over_fractions(a) + k.cols == a.cols


def test_graded_identity_and_homothety():
    g = homothety(QQ, [0], 1)
    assert graded_check(g) is True
    assert g.src_degs == (1,) and g.tgt_degs == (0,)
    g2 = homothety(QQ, [1], 1)
    prod = g @ g2
    assert prod.mat == PolyMatrix.scalar(QQ, 1, P(QQ, 0, 0, 1))
    assert graded_check(prod) is True


def test_graded_violation():
    m = M(QQ, [[(1, 1)]])  # 1 + x is not homogeneous
    with pytest.raises(ValueError, match=r"entry \(0, 0\) not homogeneous of degree 1"):
        from_poly(m, [1], [0])
    with pytest.raises(ValueError, match="degree vector length mismatch"):
        from_poly(m, [1, 1], [0])
    v = graded_check(m, [1], [0])
    assert isinstance(v, Violation)
    assert v.position == (0, 0)
    assert v.expected_degree == 1


def test_graded_block_product():
    # [[x,0],[0,x^2]] * [[x^2,0],[0,x]] = x^3 I
    a = from_poly(M(QQ, [[(0, 1), (0,)], [(0,), (0, 0, 1)]]), [3, 3], [2, 1])
    b = from_poly(M(QQ, [[(0, 0, 1), (0,)], [(0,), (0, 1)]]), [5, 4], [3, 3])
    prod = a @ b
    assert prod.mat == PolyMatrix.scalar(QQ, 2, P(QQ, 0, 0, 0, 1))
    assert graded_check(prod) is True


def test_graded_mul_identity():
    a = from_poly(M(QQ, [[(0, 0, 1)]]), [2], [0])
    i = GradedMatrix.identity(QQ, [2])
    assert (a @ i) == a


def test_graded_mul_requires_matching_degs():
    a = homothety(QQ, [0], 1)
    b = homothety(QQ, [5], 1)
    with pytest.raises(ValueError):
        a @ b


def test_det_random_matches_snf_rank():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = PolyMatrix(
            F5, [[random_poly(F5, rng, 2) for _ in range(n)] for _ in range(n)]
        )
        from facto.polymat import rank_over_fractions

        assert (not a.det().is_zero()) == (rank_over_fractions(a) == n)


def test_matrix_json_round_trip():
    a = M(F5, [[(0, 1), (2,)], [(0,), (3, 0, 1)]])
    assert PolyMatrix.from_json(F5, a.to_json()) == a
    g = from_poly(M(QQ, [[(0, 0, 1)]]), [2], [0])
    g2 = GradedMatrix.from_json(QQ, g.to_json())
    assert g2 == g
