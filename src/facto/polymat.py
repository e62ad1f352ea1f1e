"""Matrices over k[x]: graded maps, and the ungraded toolkit with SNF.

A `GradedMatrix` is a degree-0 map of graded free modules.  Entry (j, i)
is a scalar multiple of x^(src_degs[i] - tgt_degs[j]), so the map is a
scalar k-matrix plus the two degree vectors, and composition, injectivity
and division by an injective square map (`GradedMatrix.solve`) are k-linear
algebra on the scalars.  Its one constructor takes exactly that,
`GradedMatrix(field, coeffs, src_degs, tgt_degs)`, unchecked; `from_json`
checks input from outside, and `.mat` is the polynomial view.

`PolyMatrix` is a dense matrix of `Polynomial` entries, for input that is
not graded.  Its toolkit (`snf`, `solve_right`, `kernel_basis`,
`rank_over_fractions`, Bareiss `det`) works over k[x] and serves the tests
as the reference for the graded path; they convert a homogeneous
PolyMatrix to a GradedMatrix in `tests/reference.py` (`from_poly`).  In the
library its one caller is `endo._charpoly`, the `det` of t - b, which
`endo` forms over Q only.
"""

from __future__ import annotations

from . import linalg
from .fields import Field, FieldError
from .poly import Polynomial


class NoSolution(Exception):
    """A x = B has no solution over k[x]."""


class InexactDivision(Exception):
    """Bareiss elimination met a division with a remainder, which exact
    arithmetic rules out: an implementation bug."""


def expect_json(data, kind, what: str):
    """data if it is a JSON object (kind=dict) or array (kind=list), else
    a TypeError naming `what`."""
    if not isinstance(data, kind):
        name = "object" if kind is dict else "array"
        raise TypeError(f"{what}: expected a JSON {name}, "
                        f"got {type(data).__name__}")
    return data


def declared_int(data, key, default):
    """data[key] if the JSON object declares it, else `default`; a TypeError
    when the declared value is not a JSON integer (a JSON true is no 1)."""
    value = data.get(key, default)
    if key in data and type(value) is not int:
        raise TypeError(f"declared {key} {value!r} is not an integer")
    return value


class PolyMatrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.field != field:
                    raise FieldError("entry field mismatch")

    # constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "PolyMatrix":
        z = Polynomial.zero(field)
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "PolyMatrix":
        z, o = Polynomial.zero(field), Polynomial.one(field)
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, field: Field, n: int, poly: Polynomial) -> "PolyMatrix":
        z = Polynomial.zero(field)
        return cls(field, [[poly if i == j else z for j in range(n)] for i in range(n)])

    # arithmetic --------------------------------------------------------

    def _check_same(self, other: "PolyMatrix"):
        self.field.check(other.field)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.field,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.field, [[-p for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.cols} vs {other.rows}")
        z = Polynomial.zero(self.field)
        out = [[z] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.entries[i][k]
                if a.is_zero():
                    continue
                for j in range(other.cols):
                    b = other.entries[k][j]
                    if not b.is_zero():
                        out[i][j] = out[i][j] + a * b
        return PolyMatrix(self.field, out)

    def scale(self, poly: Polynomial) -> "PolyMatrix":
        return PolyMatrix(self.field, [[poly * p for p in row] for row in self.entries])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return PolyMatrix(self.field, [r1 + r2 for r1, r2 in zip(self.entries, other.entries)])

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return PolyMatrix(self.field, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(repr(p) for p in row) for row in self.entries)
        return f"PolyMatrix({self.rows}x{self.cols}: [{body}])"

    # determinant -------------------------------------------------------

    def det(self) -> Polynomial:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return Polynomial.one(self.field)
        m = [list(row) for row in self.entries]
        sign = 1
        prev = Polynomial.one(self.field)
        for k in range(n - 1):
            if m[k][k].is_zero():
                pr = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
                if pr is None:
                    return Polynomial.zero(self.field)
                m[k], m[pr] = m[pr], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                    q, r = num.divrem(prev)
                    if not r.is_zero():
                        raise InexactDivision("Bareiss division left a remainder")
                    m[i][j] = q
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return -d if sign < 0 else d

    # serialization -----------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, field: Field, data) -> "PolyMatrix":
        entries = [
            [Polynomial.from_json(field, p) for p in row] for row in data["entries"]
        ]
        m = cls(field, entries)
        if (m.rows != declared_int(data, "rows", m.rows)
                or m.cols != declared_int(data, "cols", m.cols)):
            raise ValueError("declared shape does not match entries")
        return m


# Smith normal form ------------------------------------------------------


def snf(a: PolyMatrix):
    """Smith normal form: returns (U, D, V) with U a V = D.

    U, V are unimodular (determinant a nonzero scalar); D is diagonal with
    monic entries satisfying d_1 | d_2 | ...  Pivoting picks the nonzero
    entry of minimal degree, preferring units, which keeps coefficient
    growth over Q in check.
    """
    field = a.field
    m = [list(row) for row in a.entries]
    rows, cols = a.rows, a.cols
    u = [list(r) for r in PolyMatrix.identity(field, rows).entries]
    v = [list(r) for r in PolyMatrix.identity(field, cols).entries]

    def row_op(i, j, q):
        # row_i -= q * row_j
        m[i] = [mi - q * mj for mi, mj in zip(m[i], m[j])]
        u[i] = [ui - q * uj for ui, uj in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for r in range(rows):
            m[r][i] = m[r][i] - q * m[r][j]
        for r in range(cols):
            v[r][i] = v[r][i] - q * v[r][j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def scale_row(i, c):
        m[i] = [p.scale(c) for p in m[i]]
        u[i] = [p.scale(c) for p in u[i]]

    t = 0
    while t < min(rows, cols):
        # locate minimal-degree nonzero entry in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                p = m[i][j]
                if p.is_zero():
                    continue
                if best is None or p.degree < m[best[0]][best[1]].degree:
                    best = (i, j)
                    if p.degree == 0:
                        break
            if best is not None and m[best[0]][best[1]].degree == 0:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(bi, t)
        if bj != t:
            swap_cols(bj, t)

        while True:
            pivot = m[t][t]
            # clear column
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t].is_zero():
                    continue
                q, r = m[i][t].divrem(pivot)
                row_op(i, t, q)
                if not r.is_zero():
                    swap_rows(i, t)
                    dirty = True
                    break
            if dirty:
                continue
            # clear row
            for j in range(t + 1, cols):
                if m[t][j].is_zero():
                    continue
                q, r = m[t][j].divrem(pivot)
                col_op(j, t, q)
                if not r.is_zero():
                    swap_cols(j, t)
                    dirty = True
                    break
            if dirty:
                continue
            break

        # enforce divisibility: pivot must divide the trailing block
        pivot = m[t][t]
        offender = None
        if not pivot.is_unit():
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if not pivot.divides(m[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            # fold the offending row into row t and redo this pivot
            m[t] = [a_ + b_ for a_, b_ in zip(m[t], m[offender])]
            u[t] = [a_ + b_ for a_, b_ in zip(u[t], u[offender])]
            continue

        if not field.is_zero(field.sub(pivot.leading(), field.one)):
            scale_row(t, field.inv(pivot.leading()))
        t += 1

    return (
        PolyMatrix(field, u),
        PolyMatrix(field, m),
        PolyMatrix(field, v),
    )


def diagonal(d: PolyMatrix):
    return [d.entries[i][i] for i in range(min(d.rows, d.cols))]


def rank_over_fractions(a: PolyMatrix) -> int:
    _, d, _ = snf(a)
    return sum(1 for p in diagonal(d) if not p.is_zero())


def solve_right(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Solve A X = B over k[x]; raises NoSolution if none exists.

    Uses U A V = D: with C = U B, solve D Y = C entrywise and set X = V Y.
    Free coordinates are set to zero.  When A has full column rank the
    solution is unique.
    """
    a._check_same(b)
    if a.rows != b.rows:
        raise ValueError("row count mismatch between A and B")
    field = a.field
    u, d, v = snf(a)
    c = u @ b
    z = Polynomial.zero(field)
    y = [[z] * b.cols for _ in range(a.cols)]
    diag = diagonal(d)
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else z
        for j in range(b.cols):
            cij = c.entries[i][j]
            if di.is_zero():
                if not cij.is_zero():
                    raise NoSolution(f"inconsistent row {i}")
            else:
                q, r = cij.divrem(di)
                if not r.is_zero():
                    raise NoSolution(f"entry ({i},{j}) not divisible by invariant factor")
                if i < a.cols:
                    y[i][j] = q
    return v @ PolyMatrix(field, y)


def kernel_basis(a: PolyMatrix) -> PolyMatrix:
    """Columns form a k[x]-basis of ker(A); empty (cols x 0) if injective."""
    u, d, v = snf(a)
    diag = diagonal(d)
    idx = [i for i in range(a.cols) if i >= len(diag) or diag[i].is_zero()]
    return PolyMatrix(a.field, [[row[i] for i in idx] for row in v.entries])


# graded matrices --------------------------------------------------------


class GradedMatrix:
    """Degree-0 map of graded free modules: src ⊕S(-a_i) -> tgt ⊕S(-b_j).

    Such a map is diag(x^-b) C diag(x^a) for a k-matrix C, so it is stored
    as C (`coeffs`, one row per target generator) and the two degree
    vectors: entry (j, i) is coeffs[j][i] * x^(a_i - b_j), and
    coeffs[j][i] is 0 wherever a_i < b_j.

    The JSON form is {"rows", "cols", "entries", "src_degs", "tgt_degs"},
    with each entry a polynomial coefficient array (`Polynomial.to_json`):
    c * x^e is e zeros followed by c, and 0 is [].  It is read and written
    on the scalars; "cols" counts the source generators, so a map with no
    rows keeps its width.
    """

    __slots__ = ("field", "coeffs", "src_degs", "tgt_degs")

    def __init__(self, field: Field, coeffs, src_degs, tgt_degs):
        """The map with scalar matrix `coeffs`, unchecked: the caller
        guarantees that coeffs[j][i] is 0 wherever src_degs[i] <
        tgt_degs[j] (`from_json` checks input from outside)."""
        self.field = field
        self.coeffs = tuple(map(tuple, coeffs))
        self.src_degs = tuple(src_degs)
        self.tgt_degs = tuple(tgt_degs)

    @property
    def mat(self) -> PolyMatrix:
        """The polynomial matrix of the map, built on every access."""
        F = self.field
        return PolyMatrix(F, [
            [Polynomial.monomial(F, a - b, c) for a, c in zip(self.src_degs, row)]
            for b, row in zip(self.tgt_degs, self.coeffs)
        ])

    @classmethod
    def identity(cls, field: Field, degs) -> "GradedMatrix":
        return cls(field, linalg.identity(field, len(degs)), degs, degs)

    @classmethod
    def zero(cls, field: Field, src_degs, tgt_degs) -> "GradedMatrix":
        return cls(field, linalg.zeros(field, len(tgt_degs), len(src_degs)), src_degs, tgt_degs)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if other.tgt_degs != self.src_degs:
            raise ValueError(
                f"degree vector mismatch: {other.tgt_degs} vs {self.src_degs}"
            )
        F = self.field
        F.check(other.field)
        if other.coeffs:
            coeffs = linalg.mat_mul(F, self.coeffs, other.coeffs)
        else:
            coeffs = linalg.zeros(F, len(self.tgt_degs), len(other.src_degs))
        return GradedMatrix(F, coeffs, other.src_degs, self.tgt_degs)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.src_degs != other.src_degs or self.tgt_degs != other.tgt_degs:
            raise ValueError("degree vector mismatch in sum")
        F = self.field
        F.check(other.field)
        coeffs = [[F.add(a, b) for a, b in zip(r1, r2)]
                  for r1, r2 in zip(self.coeffs, other.coeffs)]
        return GradedMatrix(F, coeffs, self.src_degs, self.tgt_degs)

    def scale(self, c) -> "GradedMatrix":
        F = self.field
        coeffs = [[F.mul(c, a) for a in row] for row in self.coeffs]
        return GradedMatrix(F, coeffs, self.src_degs, self.tgt_degs)

    def __neg__(self) -> "GradedMatrix":
        return self.scale(self.field.neg(self.field.one))

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def shift(self, t: int) -> "GradedMatrix":
        """Apply the grade shift functor: same entries, degrees bumped by t."""
        return GradedMatrix(self.field, self.coeffs, [a + t for a in self.src_degs],
                            [b + t for b in self.tgt_degs])

    def hstack(self, other: "GradedMatrix") -> "GradedMatrix":
        """[self | other]: the map from the sum of both sources."""
        if self.tgt_degs != other.tgt_degs:
            raise ValueError("target degree mismatch in hstack")
        coeffs = [r1 + r2 for r1, r2 in zip(self.coeffs, other.coeffs)]
        return GradedMatrix(self.field, coeffs, self.src_degs + other.src_degs, self.tgt_degs)

    def vstack(self, other: "GradedMatrix") -> "GradedMatrix":
        """[self ; other]: the map into the sum of both targets."""
        if self.src_degs != other.src_degs:
            raise ValueError("source degree mismatch in vstack")
        return GradedMatrix(self.field, self.coeffs + other.coeffs, self.src_degs,
                            self.tgt_degs + other.tgt_degs)

    def direct_sum(self, other: "GradedMatrix") -> "GradedMatrix":
        F = self.field
        top = self.hstack(GradedMatrix.zero(F, other.src_degs, self.tgt_degs))
        bot = GradedMatrix.zero(F, self.src_degs, other.tgt_degs).hstack(other)
        return top.vstack(bot)

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for row in self.coeffs for c in row)

    def is_injective(self) -> bool:
        """Injective over S iff C has full column rank."""
        return linalg.rank(self.field, self.coeffs) == len(self.src_degs)

    def solve(self, b: "GradedMatrix") -> "GradedMatrix":
        """The graded X with self @ X == b: X's scalars are C^-1 B, from one
        `linalg.rref` of [C | B].  self is C between two diagonal matrices
        of powers of x, so a square self is injective iff C is invertible,
        and then X is unique.  NoSolution if the targets differ, C is not
        square and invertible, or C^-1 B is nonzero where X's degrees allow
        no entry."""
        F, n = self.field, len(self.src_degs)
        F.check(b.field)
        red, pivots = linalg.rref(F, [r + s for r, s in zip(self.coeffs, b.coeffs)])
        if self.tgt_degs != b.tgt_degs or len(red) != n or pivots != list(range(n)):
            raise NoSolution("the divisor is not square and injective, or the targets differ")
        x = [row[n:] for row in red]
        for a, row in zip(self.src_degs, x):
            for s, c in zip(b.src_degs, row):
                if s < a and not F.is_zero(c):
                    raise NoSolution("the dividend does not factor through the divisor")
        return GradedMatrix(F, x, b.src_degs, self.src_degs)

    def is_iso(self) -> bool:
        """Invertible over S: det C != 0 and equal degree multisets."""
        return sorted(self.src_degs) == sorted(self.tgt_degs) and self.is_injective()

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.field == other.field
            and self.coeffs == other.coeffs
            and self.src_degs == other.src_degs
            and self.tgt_degs == other.tgt_degs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs, self.src_degs, self.tgt_degs))

    def __repr__(self):
        return f"GradedMatrix({self.src_degs} -> {self.tgt_degs}, {self.coeffs})"

    def to_json(self):
        F = self.field
        enc, zero = F.to_json, F.zero
        pad = enc(zero)
        entries = [[[pad] * (a - b) + [enc(c)] if c != zero else []
                    for a, c in zip(self.src_degs, row)]
                   for b, row in zip(self.tgt_degs, self.coeffs)]
        return {
            "rows": len(entries),
            "cols": len(self.src_degs),
            "entries": entries,
            "src_degs": list(self.src_degs),
            "tgt_degs": list(self.tgt_degs),
        }

    @classmethod
    def from_json(cls, field: Field, data) -> "GradedMatrix":
        """Read the JSON form, the check on input from outside: a
        non-array entry (FieldError), a ragged or misdeclared shape, degree
        vectors of the wrong length, an entry that is not a monomial of
        degree a_i - b_j (ValueError), and a degree or a declared "rows" or
        "cols" that is not an integer (TypeError) are rejected.  A map with
        no rows takes its width from "cols", or else from "src_degs"."""
        expect_json(data, dict, "graded matrix")
        parse, zero = field.parse, field.zero
        rows = []
        for row in data["entries"]:
            out = []
            for p in row:
                if not isinstance(p, list):
                    raise FieldError(
                        f"polynomial JSON must be a coefficient array, got {p!r}")
                cs = [parse(c) for c in p]
                while cs and cs[-1] == zero:
                    cs.pop()
                out.append(cs)
            rows.append(out)
        cols = len(rows[0]) if rows else declared_int(data, "cols", None)
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix")
        if (len(rows) != declared_int(data, "rows", len(rows))
                or cols != declared_int(data, "cols", cols)):
            raise ValueError("declared shape does not match entries")
        src_degs, tgt_degs = data["src_degs"], data["tgt_degs"]
        if cols is None:
            cols = len(src_degs)
        if len(src_degs) != cols or len(tgt_degs) != len(rows):
            raise ValueError("degree vector length mismatch")
        coeffs = []
        for j, (b, row) in enumerate(zip(tgt_degs, rows)):
            out = []
            for i, (a, cs) in enumerate(zip(src_degs, row)):
                want = a - b
                if cs and (len(cs) != want + 1 or any(c != zero for c in cs[:-1])):
                    raise ValueError(
                        f"entry {(j, i)} not homogeneous of degree {want}")
                out.append(cs[-1] if cs else zero)
            coeffs.append(out)
        if any(type(a) is not int for degs in (src_degs, tgt_degs) for a in degs):
            raise TypeError("graded matrix degrees must be integers")
        return cls(field, coeffs, src_degs, tgt_degs)
