"""Endomorphism algebras as algebras of scalar matrices.

Both categories hand their maps over as scalar matrices: a k-basis of
End(X) becomes a list of n x n matrices through a faithful realization
(the block diagonal of a map's components), so composition is the matrix
product and an endomorphism is invertible iff its matrix is.  Nothing here
knows which category the matrices came from.

By Fitting's lemma an endomorphism of a finite-dimensional object is
nilpotent, invertible, or splits X as Im(phi^n) + Ker(phi^n) with both
parts nonzero; so X is indecomposable iff End(X) is local (Krull-Schmidt).
"""

from __future__ import annotations

import itertools
import random

from . import linalg
from .fields import Field


class NonSplitEndomorphism(Exception):
    """An endomorphism that is not scalar plus nilpotent, yet no tested
    power of it splits X.

    Its eigenvalues are not in k, or not among the tried candidates: End(X)
    may be local with a residue field larger than k, or X may split along
    an eigenvalue the test did not try.  The locality test does not guess.
    """


def _fitting_power(field: Field, a):
    """a^N for the least power of two N >= n (n x n input): a is nilpotent
    iff a^N = 0, invertible iff a^N is, and otherwise Im a^N + Ker a^N is a
    nonzero split."""
    e = 1
    while e < len(a):
        a, e = linalg.mat_mul(field, a, a), 2 * e
    return a


def _nilpotent_part(field: Field, b):
    """b - lambda for the eigenvalue lambda of b in k, or None if b splits.

    The candidates are tr(b)/n and 0, or every element of F_p when char k
    divides n.  Raises NonSplitEndomorphism when no candidate decides.
    """
    n = len(b)
    p = getattr(field, "p", 0)
    if p and n % p == 0:
        candidates = [field.from_int(c) for c in range(p)]
    else:
        trace = field.zero
        for i in range(n):
            trace = field.add(trace, b[i][i])
        candidates = [field.div(trace, field.from_int(n)), field.zero]
    for lam in candidates:
        c = [[field.sub(v, lam) if i == j else v for j, v in enumerate(row)]
             for i, row in enumerate(b)]
        top = _fitting_power(field, c)
        if all(field.is_zero(v) for row in top for v in row):
            return c
        if linalg.rank(field, top) < n:
            return None
    raise NonSplitEndomorphism(
        "an endomorphism is neither scalar plus nilpotent nor split by "
        "a tested eigenvalue"
    )


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
    element or with nilpotent parts that generate a non-nilpotent algebra;
    True with an algebra k*1 + J for a nilpotent ideal J.  The zero algebra
    (no basis, or n = 0) is not local.  Raises NonSplitEndomorphism when a
    basis element is not scalar plus nilpotent and no tested power of it
    splits.
    """
    if not basis or not basis[0]:
        return False
    nilpotent = []
    for b in basis:
        c = _nilpotent_part(field, b)
        if c is None:
            return False
        nilpotent.append(c)
    return _generates_nilpotent_algebra(field, nilpotent, len(basis[0]))


_PRIMES = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def search_iso(field: Field, basis, zero, seed: int = 0) -> bool:
    """True if some k-combination of the hom `basis` is an isomorphism.

    Maps need `+`, `scale` and `is_iso`; `zero` is the zero map of the same
    hom space.  Tries single basis vectors, small deterministic weights,
    then 64 seeded random combinations, then every combination when
    p^|basis| <= 4096.  False can miss an iso over Q or a larger field.
    """
    def combo(weights):
        h = zero
        for w, g in zip(weights, basis):
            if w:
                h = h + g.scale(field.from_int(w))
        return h

    if any(g.is_iso() for g in basis):
        return True
    # deterministic small-prime weights (exact over Q, usually enough mod p)
    weights = _PRIMES[:len(basis)] + [1] * max(0, len(basis) - len(_PRIMES))
    if combo(weights).is_iso():
        return True
    rng = random.Random(seed)
    p = getattr(field, "p", 0)
    hi = p if p else 1009
    for _ in range(64):
        if combo([rng.randrange(hi) for _ in basis]).is_iso():
            return True
    if p and p ** len(basis) <= 4096:
        return any(combo(ws).is_iso()
                   for ws in itertools.product(range(p), repeat=len(basis)))
    return False
