"""Endomorphism algebras, isomorphisms and stable homs on scalar matrices.

Every map reaches this module as one square k-matrix, the generator
matrix of the component that fixes it: f^l's scalars for a factorization
map (`factorizations._top_basis`), the top component's block matrix for
a chain map (`chains._top_basis`), and a stabilizer element's head in
the census (`census._local_stabilizer`).  Each category solves its Hom
spaces on that component (`factorizations._hom_rows`,
`chains._top_rows`) and pre-checks an iso search by its fingerprint;
nothing here knows which category a map came from.  A hom basis
(`_top_basis`) is the nullspace of that system: the fixing component of
the basis that every commuting square, solved on all components with the
unknowns in component order, gives, as a free unknown of that system's
RREF lies in the fixing component and its nullspace vectors set one such
unknown to 1 and the others to 0.

Why the generator matrix decides, between objects of equal fingerprints:
- Ordered by degree, a degree-0 map's generator matrix is block
  triangular, with its head (the map on top/x*top, the entries between
  generators of equal degree) on the diagonal: gen_t -> c x^(s_t - s_u)
  gen_u needs s_t >= s_u.  Equal fingerprints make the blocks square.
- Block products equal composition modulo the strictly degree-raising
  part (s_t > s_u), a nilpotent ideal; f -> f^l and f -> f^top embed
  End(X) as an algebra, and the maps with phi X <= xX, whose heads
  vanish, form a nilpotent ideal of End(X).
- So a map is an iso iff its head is (Nakayama, as the dimensions
  agree) iff its generator matrix is invertible.  Each x^i X /
  x^(i+1) X is a quotient of the top X/xX, so a map and its generator
  matrix have the same eigenvalues in k, minus each of which both are
  nilpotent, or both invertible; and an algebra is nilpotent iff its
  image modulo a nilpotent ideal is.  So `is_local` gives the same
  verdicts, and raises NonSplitEndomorphism in the same cases, on the
  generator matrices as on the realization or on all components.

By Fitting's lemma an endomorphism of a finite-dimensional object is
nilpotent, invertible, or splits X as Im(phi^n) + Ker(phi^n) with both
parts nonzero; so X is indecomposable iff End(X) is local (Krull-Schmidt).
In all three categories the stable hom space is Hom(X, Y) modulo
p o Hom(X, P) for a projective cover p: P ->> Y; each category takes it
in closed form, by such a rank or a count, with no basis and no cover,
and a table of them with each object's walks taken once (`stable_hom_table`).

Eigenvalues come from `_charpoly`, the Bareiss determinant of t - b and
the one runtime caller of `PolyMatrix.det`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt, lcm

from . import linalg
from .fields import Field
from .poly import Polynomial, poly_gcd
from .polymat import PolyMatrix


class NonSplitEndomorphism(Exception):
    """An endomorphism with no eigenvalue in k, where the rest of the basis
    does not decide either.

    End(X) may then be local with a residue field larger than k, or X may
    split along an eigenvalue outside k.  The locality test does not guess.
    """


def _fitting_power(field: Field, a):
    """a^N for the least power of two N >= n (n x n input): a is nilpotent
    iff a^N = 0, invertible iff a^N is, and otherwise Im a^N + Ker a^N is a
    nonzero split."""
    e = 1
    while e < len(a):
        a, e = linalg.mat_mul(field, a, a), 2 * e
    return a


def _charpoly(field: Field, b) -> Polynomial:
    """det(t - b), the Bareiss determinant of t - b over k[t]."""
    t, zero = Polynomial.x(field), Polynomial.zero(field)
    return PolyMatrix(field, [[(t if i == j else zero) - Polynomial(field, [v])
                               for j, v in enumerate(row)]
                              for i, row in enumerate(b)]).det()


def _divisors(n: int):
    """Positive divisors of n != 0, found by trial division up to 10^6:
    all of them unless |n| > 10^12, and only true ones."""
    n = abs(n)
    small = [d for d in range(1, min(isqrt(n), 10**6) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _rational_roots(chi: Polynomial):
    """The distinct rational roots of chi that the rational root theorem
    finds (every one, unless a coefficient is too large to factor)."""
    F = chi.field
    den = lcm(*(c.denominator for c in chi.coeffs))
    ints = [int(c * den) for c in chi.coeffs]
    low = next(k for k, c in enumerate(ints) if c)  # chi = t^low * rest
    roots = [F.zero] if low else []
    ints = ints[low:]
    for q in _divisors(ints[-1]):
        for r in _divisors(ints[0]):
            for cand in (Fraction(r, q), Fraction(-r, q)):
                if cand not in roots and sum(
                        c * cand**k for k, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return roots


def _eigenvalue_part(field: Field, chi: Polynomial) -> Polynomial:
    """The monic product of (t - lambda) over the distinct roots lambda of
    chi in k: gcd(chi, t^p - t) over F_p, the rational roots over Q."""
    p = getattr(field, "p", 0)
    if not p:
        out = Polynomial.one(field)
        for lam in _rational_roots(chi):
            out = out * Polynomial(field, [field.neg(lam), field.one])
        return out
    t = Polynomial.x(field)
    power, base, e = Polynomial.one(field), t % chi, p
    while e:
        if e & 1:
            power = power * base % chi
        base = base * base % chi
        e >>= 1
    rest = power - t
    return poly_gcd(chi, rest) if not rest.is_zero() else chi.monic()


_SPLITS = "splits"


def _minus_eigenvalue(field: Field, b, lam):
    """b - lam if it is nilpotent, _SPLITS if it is singular otherwise (a
    Fitting split), None if it is invertible (lam is no eigenvalue)."""
    n = len(b)
    c = [[field.sub(v, lam) if i == j else v for j, v in enumerate(row)]
         for i, row in enumerate(b)]
    top = _fitting_power(field, c)
    if all(field.is_zero(v) for row in top for v in row):
        return c
    if linalg.rank(field, top) < n:
        return _SPLITS
    return None


def _nilpotent_part(field: Field, b):
    """b - lambda for the only eigenvalue lambda of b in k; _SPLITS when b
    splits X; None when b has no eigenvalue in k.

    In a local algebra b - lambda is a unit or lies in the nilpotent
    radical, so b has at most one eigenvalue in k and b minus it is
    nilpotent; a second eigenvalue, or a singular b - lambda that is not
    nilpotent, gives a Fitting split.  The candidates tr(b)/n (unless
    char k divides n) and 0 are tried first; only when both are units are
    the eigenvalues taken from the characteristic polynomial (tr(b)/n also
    finds the eigenvalue of 10^7 + N, too large for `_divisors`).
    """
    n = len(b)
    p = getattr(field, "p", 0)
    candidates = [field.zero]
    if not (p and n % p == 0):
        trace = field.zero
        for i in range(n):
            trace = field.add(trace, b[i][i])
        mean = field.div(trace, field.from_int(n))
        if not field.is_zero(mean):
            candidates.insert(0, mean)
    for lam in candidates:
        c = _minus_eigenvalue(field, b, lam)
        if c is not None:
            return c
    roots = _eigenvalue_part(field, _charpoly(field, b))
    if roots.degree > 1:
        return _SPLITS
    if roots.degree == 1:
        return _minus_eigenvalue(field, b, field.neg(roots.coeffs[0]))
    return None


def _span(field: Field, mats):
    """An echelon basis (flattened) of the span of n x n matrices."""
    ech = linalg.Echelon(field)
    for a in mats:
        ech.add([c for row in a for c in row])
    return ech.rows


def _generates_nilpotent_algebra(field: Field, gens, n: int) -> bool:
    """The algebra generated by gens is nilpotent iff products of n vanish.

    Walks the spans P_1 = span(gens), P_{k+1} = span(P_k * gens) up to
    P_n, the span of all products of n generators.
    """
    layer = _span(field, gens)
    for _ in range(n - 1):
        if not layer:
            break
        mats = [[flat[i * n:(i + 1) * n] for i in range(n)] for flat in layer]
        layer = _span(field, [linalg.mat_mul(field, a, g)
                              for a in mats for g in gens])
    return not layer


def is_local(field: Field, basis) -> bool:
    """True iff the algebra of n x n matrices that `basis` generates with
    the identity is local; a k-basis of End(X) generates End(X).

    Exact when it returns: False comes with a Fitting split of some basis
    element (a singular, non-nilpotent b - lambda, or two eigenvalues in
    k) or with nilpotent parts that generate a non-nilpotent algebra; True
    with an algebra k*1 + J for a nilpotent ideal J.  The zero algebra (no
    basis, or n = 0) is not local.  Raises NonSplitEndomorphism only when
    some basis element has no eigenvalue in k and the rest do not decide.
    """
    if not basis or not basis[0]:
        return False
    nilpotent, undecided = [], False
    for b in basis:
        c = _nilpotent_part(field, b)
        if c is _SPLITS:
            return False
        if c is None:
            undecided = True
        else:
            nilpotent.append(c)
    # in a local algebra every nilpotent element lies in the radical
    if not _generates_nilpotent_algebra(field, nilpotent, len(basis[0])):
        return False
    if undecided:
        raise NonSplitEndomorphism(
            "an endomorphism has no eigenvalue in k and the others do not "
            "decide whether End(X) is local"
        )
    return True


_PRIMES = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _is_iso(field: Field, m) -> bool:
    return linalg.rank(field, m) == len(m)


def search_iso(field: Field, mats) -> bool:
    """True if some k-combination of the hom basis `mats`, one square
    k-matrix per map, is an isomorphism.

    Each map is given by the generator matrix of the component that fixes
    it; after the caller's fingerprint pre-check a map is an isomorphism
    iff that matrix is invertible (see the module docstring).  Tries
    single basis vectors, small deterministic weights, then 64 random
    combinations from one fixed stream (random.Random(0)), then every
    combination when p^|mats| <= 4096.  True is always exact; an empty
    basis gives False.

    When the target Y of Hom(X, Y) has a local End(Y), False is exact too
    and the single basis vectors already decide.  Proof: if phi: X -> Y
    is an isomorphism, every map is g o phi for a g in End(Y), and it is
    an isomorphism iff g is a unit, i.e. g is not in the radical J.  So
    the non-isomorphisms form the proper subspace J o phi, which cannot
    hold a whole k-basis of Hom(X, Y): some basis vector is an
    isomorphism, for any basis.  For other targets False can miss an iso
    over Q or a larger field.
    """
    if not mats:
        return False
    n = len(mats[0])

    def iso(weights):
        cs = [field.from_int(w) for w in weights]
        return _is_iso(field, linalg.combination(field, cs, mats, n, n))

    if any(_is_iso(field, m) for m in mats):
        return True
    # small deterministic weights: one evaluation point, never exact (over Q
    # diag(1,0), diag(-1/2,0), diag(0,1) meet them in the singular diag(0,3))
    if iso(_PRIMES[:len(mats)] + [1] * max(0, len(mats) - len(_PRIMES))):
        return True
    rng = random.Random(0)
    p = getattr(field, "p", 0)
    hi = p if p else 1009
    if any(iso([rng.randrange(hi) for _ in mats]) for _ in range(64)):
        return True
    if p and p ** len(mats) <= 4096:
        return any(iso(ws) for ws in itertools.product(range(p), repeat=len(mats)))
    return False


def stable_hom_table(objs, walk, stable_dim):
    """[[stable_dim(x, y, (walk(x), walk(y))) for y in objs] for x in objs],
    with walk(x) taken once per object and the diagonal first: where x's
    stable End is 0, x's identity factors through a projective, and so does
    every map into or out of x, so its row and column are 0 with no solve."""
    walks = [walk(x) for x in objs]
    ends = [stable_dim(x, x, (w, w)) for x, w in zip(objs, walks)]
    return [[ends[i] if i == j else stable_dim(x, y, (v, w)) if ends[i] and ends[j] else 0
             for j, (y, w) in enumerate(zip(objs, walks))]
            for i, (x, v) in enumerate(zip(objs, walks))]
