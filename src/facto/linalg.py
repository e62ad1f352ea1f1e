"""Dense exact linear algebra over a scalar field.

Plain list-of-list matrices with entries in a `fields.Field`.  Everything
here is small and desk-scale; no attempt at asymptotic cleverness.
"""

from __future__ import annotations

from .fields import Field


def zeros(field: Field, rows: int, cols: int):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field: Field, n: int):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field: Field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if field.is_zero(c):
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] = field.add(oi[j], field.mul(c, bk[j]))
    return out


def mat_vec(field: Field, a, v):
    return [
        _dot(field, row, v)
        for row in a
    ]


def combination(field: Field, coeffs, mats, rows: int, cols: int):
    """sum_i coeffs[i] * mats[i] as a rows x cols matrix (zero coefficients
    are skipped, so no mats and the empty combination give zeros)."""
    out = zeros(field, rows, cols)
    for c, m in zip(coeffs, mats):
        if field.is_zero(c):
            continue
        for orow, mrow in zip(out, m):
            orow[:] = [field.add(a, field.mul(c, b)) for a, b in zip(orow, mrow)]
    return out


def scatter(field: Field, rows: int, cols: int, positions, values):
    """The rows x cols matrix with `values` at `positions`, 0 elsewhere."""
    out = [[field.zero] * cols for _ in range(rows)]
    for (r, c), v in zip(positions, values):
        out[r][c] = v
    return out


def _dot(field: Field, row, v):
    s = field.zero
    for c, x in zip(row, v):
        if not field.is_zero(c) and not field.is_zero(x):
            s = field.add(s, field.mul(c, x))
    return s


def rref(field: Field, mat):
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field: Field, mat) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(field, mat)[1])


def nullspace(field: Field, mat, cols: int | None = None):
    """Basis of the right kernel, as a list of column vectors."""
    if not mat:
        n = cols or 0
        return [unit_vector(field, n, i) for i in range(n)]
    n = len(mat[0])
    red, pivots = rref(field, mat)
    piv_set = set(pivots)
    basis = []
    for free in range(n):
        if free in piv_set:
            continue
        v = [field.zero] * n
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(red[r][free])
        basis.append(v)
    return basis


def unit_vector(field: Field, n: int, i: int):
    v = [field.zero] * n
    v[i] = field.one
    return v


def solve(field: Field, a, b, cols: int | None = None):
    """One solution X of a X = b, or None if some column of b is not in
    the column space of a.  The columns of b are the right-hand sides;
    `cols` is the width of a when a has no rows.  Free unknowns are 0, and
    a consistent system pivots only in a's columns, so each column of X is
    the solution of its own right-hand side alone."""
    n = len(a[0]) if a else cols or 0
    red, pivots = rref(field, [list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(field, n, len(b[0]) if b else 0)
    for r, c in enumerate(pivots):
        x[c] = red[r][n:]
    return x


class Echelon:
    """Incremental row space: add vectors, track independence."""

    def __init__(self, field: Field):
        self.field = field
        self.rows = []       # reduced rows
        self.pivots = []     # pivot index per row

    def reduce(self, v):
        F = self.field
        v = v[:]
        for row, p in zip(self.rows, self.pivots):
            if not F.is_zero(v[p]):
                f = v[p]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        F = self.field
        v = self.reduce(v)
        p = next((i for i, x in enumerate(v) if not F.is_zero(x)), None)
        if p is None:
            return False
        inv = F.inv(v[p])
        v = [F.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            if not F.is_zero(row[p]):
                f = row[p]
                self.rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def contains(self, v) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(v))

    @property
    def dim(self) -> int:
        return len(self.rows)
