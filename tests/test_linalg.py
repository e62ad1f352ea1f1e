import random

import pytest

from facto.fields import GF, QQ
from facto.linalg import mat_mul, rref, solve


def _solve_column(field, a, b):
    """Reference: one right-hand side, one elimination (free unknowns 0)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(field, [a[i][:] + [b[i]] for i in range(rows)])
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_solve_equals_the_per_column_solves(field):
    """Each column of X is the single-column answer; None iff some column
    is inconsistent.  Low-rank a and right-hand sides partly in its column
    space give both outcomes."""
    rng = random.Random(37)

    def matrix(rows, cols):
        return [[field.from_int(rng.randrange(-2, 3)) for _ in range(cols)]
                for _ in range(rows)]

    outcomes = set()
    for _ in range(300):
        rows, cols, width = rng.randrange(1, 6), rng.randrange(0, 6), rng.randrange(0, 4)
        k = rng.randrange(0, 4)
        a = mat_mul(field, matrix(rows, k), matrix(k, cols)) if k and cols else matrix(rows, cols)
        b = mat_mul(field, a, matrix(cols, width)) if cols and width else matrix(rows, width)
        if rng.random() < 0.5:
            b = [[field.add(x, y) for x, y in zip(rb, rn)]
                 for rb, rn in zip(b, matrix(rows, width))]
        got = solve(field, a, b)
        columns = [_solve_column(field, a, [row[j] for row in b]) for j in range(width)]
        outcomes.add(got is None)
        if any(col is None for col in columns):
            assert got is None
        else:
            assert got == [[col[i] for col in columns] for i in range(cols)]
    assert outcomes == {True, False}


def test_solve_zero_shapes():
    F = GF(5)
    # no rows: every X solves, width from `cols`
    assert solve(F, [], [], cols=3) == [[], [], []]
    assert solve(F, [], []) == []
    # no columns: solvable iff b = 0
    assert solve(F, [[], []], [[0], [0]]) == []
    assert solve(F, [[], []], [[0], [1]]) is None
    assert solve(F, [[1, 0], [0, 0]], [[2, 3], [0, 0]]) == [[2, 3], [0, 0]]
    assert solve(F, [[1, 0], [0, 0]], [[], []]) == [[], []]
