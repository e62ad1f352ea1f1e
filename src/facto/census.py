"""Desk-scale census: classify both sides and verify the equivalence.

Every census object is a flag V_1 <= ... <= V_k of x-stable graded
subspaces of one top module T.  Factorizations are flags in the free
cover T = R^m(degs_l) of X^l: the preimage in S^m of such a flag is a
chain of free submodules containing x^d S^m, which is exactly a graded
factorization up to isomorphism.  Chains of monomorphisms are flags in
their top module T.  Every flag object is shifted to minimum degree 0.
A listed subspace V of T is its RREF pieces {s: the RREF of V_s in the
coordinates of T_s, a tuple of row tuples}, canonical and hashable, with
x as the shift blocks of `modules._shifts`, from its listing
(`stable_graded_subspaces`) to its flag stabilizers and the members'
submodules; no ambient vector or matrix of T is built.

Indecomposability is decided on the flag, before any object is built:
X is indecomposable iff End(X) is local (Fitting's lemma), End(X) is the
flag's stabilizer A in End(T) up to a nilpotent ideal, and A is local iff
its image in End(T/xT) is, as the maps into xT form an ideal I with
I^d = 0 (see `_local_stabilizer`).  A flag that the projection onto some
summands of T stabilizes is not listed (`_subspace_flags`).  On a top
with at least two generators each other flag costs one nullspace, and
each distinct head basis of the top one locality test on g x g matrices
(g generators of T); on a top with one generator every flag is local.

Split tops are skipped (`_splits`): on them every flag is, up to an
automorphism of T, stabilized by an idempotent other than 0 and 1, so no
flag object is indecomposable.  Two rules find them:
- touching intervals.  Let the degree intervals [s, s+e-1] of the
  summands R/x^e(-s) of T (e = d for a free one) fall into two nonempty
  groups A, B sharing at most the degree t, with A's ends at most t and
  B's starts at least t.  Every T_s with s != t lies in T_A or T_B.  In
  T_t, A contributes socles x^(e_a-1) gen_a (a space S) and B generators
  (a space H).  The maps gen_b -> gen_b + sum u_ab x^(e_a-1) gen_a are
  R-linear, as x kills what they add, and act on T_t alone, as
  (s, h) -> (s + u h, h) for u: H -> S.  A member V moves to
  (V n T_A) + (V n T_B) iff (-u h, h) lies in V_t for each h in
  pi_H V_t, which fixes u on pi_H V_t modulo V_t n S.  Along the flag
  pi_H V_t and V_t n S grow, so a choice for one member also serves each
  later member on that member's pi_H V_t, and u is extended member by
  member.  Then the projection onto T_A stabilizes the moved flag.
- homogeneous tops.  Let T = N^n with N = R/x^e(-s), n >= 2.  A member
  is sum_i x^i gen (x) W_i with W_0 <= ... <= W_(e-1) <= k^n, so a flag of
  `length` members is a representation of the poset [length] x [e] by
  subspaces of k^n.  When min(length, e) <= 2 that poset is a union of at
  most two chains, and two chains of subspaces have a common adapted
  basis (Bruhat decomposition).  GL_n(k) <= Aut(T) moves it to the
  coordinate basis, where the projection onto one copy of N stabilizes
  the flag.  At width 3 this fails: l=3, d=3 has indecomposable flags on
  R^2.
So the census clamps the window: the sorted intervals of a top of
minimum degree 0 that does not split start at 0 and then each below the
largest end before it, at most E - 1 where [0, E] is their union.  So
its starts are at most max(dim - 2, 0) for a chain top (E < dim), and at
most (m - 1) max(d - 2, 0) for a factorization top (sorted, they grow by
at most d - 2).

Flags are listed up to the torus of T, one per orbit (`_subspace_flags`),
which keeps the first flag of each iso class.  Only the flags that pass are
built, with one submodule of the top per listed space (for a
factorization, then its preimage in S^m), and deduplicated with the iso
tests: these are `enumerate_factorizations` and `enumerate_chains`.  The
census drops the projective classes last: the factorizations whose stable
End, their diagonal entry of the stable hom table, is 0, and the chains
with only free objects.  Both properties are iso-invariant and
deduplication keeps the first member of each class, so this gives the
classes of building and deduplicating every flag object first.  Between
indecomposables the iso tests are exact (see `endo.search_iso`), so the
census passes its seed nowhere.  The kept classes of the two sides are
matched under cok; an unmatched chain class is checked on its top.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg
from .chains import (
    MonoChain,
    _chain_fingerprint,
    chain_hom_dim,
    chain_iso_test,
    chain_projective_test,
    chain_stable_hom_table,
)
from .endo import is_local
from .factorizations import (
    Factorization,
    _fac_fingerprint,
    fac_hom_dim_mod_nu_l,
    fac_iso_test,
    fac_stable_hom_table,
)
from .fields import PrimeField
from .functors import cok, flag_factorization, span_preimage_inclusion
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    _shifts,
    hom_positions,
    lift,
    submodule,
)


class MatchFailure(Exception):
    """A census invariant failed (flag construction, the bijection or the
    hom table): an implementation bug."""


@dataclass(frozen=True)
class Bounds:
    """m: max factorization rank; dim: max module dimension; window: max
    generator degree of the top object (minimum is normalized to 0)."""

    m: int
    dim: int
    window: int

    def __post_init__(self):
        if self.m < 0 or self.dim < 0 or self.window < 0:
            raise ValueError("bounds must be nonnegative")

    @classmethod
    def parse(cls, text: str) -> "Bounds":
        vals = {}
        for part in text.split(","):
            key, _, num = part.partition("=")
            if key.strip() not in ("m", "dim", "window") or not num.strip().isdigit():
                raise ValueError(f"bad bounds component {part!r}")
            if key.strip() in vals:
                raise ValueError(f"bounds repeat {key.strip()!r}")
            vals[key.strip()] = int(num)
        missing = {"m", "dim", "window"} - set(vals)
        if missing:
            raise ValueError(f"bounds missing {sorted(missing)}")
        return cls(**vals)

    def to_json(self):
        return {"m": self.m, "dim": self.dim, "window": self.window}


# subspace enumeration over a finite field ------------------------------------


def _field_elements(field):
    """The elements of F_p, lazily: a census over a large p must not hold
    them all when no subspace has a free entry."""
    if not isinstance(field, PrimeField):
        raise ValueError("census enumeration requires a finite prime field")
    return range(field.p)


def _primitive_root(field):
    """The least generator omega of the units of F_p = `field`: no
    omega^((p-1)/q) is 1, q over the primes dividing p - 1 (1 for p = 2)."""
    p = len(_field_elements(field))
    n, primes = p - 1, set()
    for q in range(2, math.isqrt(p) + 1):
        while n % q == 0:
            primes.add(q)
            n //= q
    primes |= {n} - {1}  # what is left of p - 1 is 1 or a prime
    return next(w for w in range(1, p) if all(pow(w, (p - 1) // q, p) != 1 for q in primes))


# the most subspaces of one F^n that a census lists; the largest bounds in
# use list 42,176 (F_5^5, d=5, l=2)
MAX_SUBSPACES = 10 ** 5
# the largest top dimension (m*d for factorizations, dim for chains) and flag
# length l that a census accepts; the largest in use are 15 and 3
MAX_CENSUS_SIZE = 64


def _check_census_size(*sizes):
    """ValueError, before any enumeration, when one of the (name, size)
    pairs exceeds MAX_CENSUS_SIZE."""
    for name, size in sizes:
        if size > MAX_CENSUS_SIZE:
            raise ValueError(f"{name} = {size} is larger than the census "
                             f"accepts ({MAX_CENSUS_SIZE})")


def _all_subspaces(field, n, elements):
    """Bases (as row lists) of every subspace of F^n, via unique RREFs.

    Raises ValueError, before listing any, when there are more than
    MAX_SUBSPACES: their number is the sum of the Gaussian binomials
    [n, r]_q over r, q = |F|."""
    q, count, binom = len(elements), 0, 1
    for r in range(n + 1):
        count += binom
        binom = binom * (q ** (n - r) - 1) // (q ** (r + 1) - 1)
    if count > MAX_SUBSPACES:
        raise ValueError(f"F_{q}^{n} has {count} subspaces, more than the "
                         f"census lists ({MAX_SUBSPACES})")
    out = [[]]
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            # product() turns `elements` into a tuple: call it only when
            # there is something to fill in
            for vals in (itertools.product(elements, repeat=len(free))
                         if free else [()]):
                rows = [[field.zero] * n for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                out.append(rows)
    return out


def _subspaces_containing(field, n, lower, elements):
    """All subspaces of F^n containing span(lower)."""
    ech = linalg.Echelon(field)
    for v in lower:
        ech.add(v)
    base = [list(v) for v in ech.rows]
    pivots = set(ech.pivots)
    free_cols = [j for j in range(n) if j not in pivots]
    out = []
    for quot in _all_subspaces(field, len(free_cols), elements):
        vecs = [list(v) for v in base]
        for qv in quot:
            w = [field.zero] * n
            for idx, j in enumerate(free_cols):
                w[j] = qv[idx]
            vecs.append(w)
        out.append(vecs)
    return out


def stable_graded_subspaces(field, top: RModule):
    """All x-stable graded subspaces of the realization of `top`.

    Each is returned as its RREF pieces {s: the RREF of V_s in the
    coordinates of T_s, a tuple of row tuples}, with no empty piece: equal
    subspaces give equal values.  Enumeration walks the degree pieces
    upward, at each level listing the subspaces containing the x-image of
    the level below (x: `modules._shifts`); each level choice is reduced
    once, and every subspace below it shares that piece.
    """
    elements = _field_elements(field)
    dims = [(s, len(idx)) for s, idx in top.pieces().items()]
    shifts = _shifts(top)
    results = []

    def rec(li, lower, chosen):
        if li == len(dims):
            results.append(chosen)
            return
        s, n = dims[li]
        x = shifts.get(s)
        for local in _subspaces_containing(field, n, lower, elements):
            piece = local and tuple(map(tuple, linalg.rref(field, local)[0]))
            nxt = [linalg.mat_vec(field, x, v) for v in piece] if x is not None else []
            rec(li + 1, nxt, {**chosen, s: piece} if piece else chosen)

    rec(0, [], {})
    del rec  # no closure cycle keeps the spaces alive
    return results


# flags of x-stable subspaces ----------------------------------------------------


def _owners(top: RModule):
    """{s: the summand owning each coordinate of T_s} for T = `top`."""
    return {s: [top.basis[k][0] for k in idx] for s, idx in top.pieces().items()}


def _supports(field, owner, space):
    """The supports of the rows of the pieces `space`: bitmasks of the
    summands owning their nonzero coordinates, at most one each (`_owners`)."""
    return {sum(1 << owner[s][c] for c, a in enumerate(row) if not field.is_zero(a))
            for s, rows in space.items() for row in rows}


def _join(part, supports):
    """The partition `part` of the summands (a sorted tuple of disjoint
    bitmasks) joined with the sets `supports`: each merges the blocks it
    meets."""
    for sup in supports:
        hit = [b for b in part if b & sup]  # disjoint: their sum is their union
        part = tuple(sorted([b for b in part if b not in hit] + [sum(hit)]))
    return part


def _torus_orbits(field, top: RModule, spaces, omega):
    """least(P) for the torus of T = `top`, its scalings of the summands by
    units, on `spaces` (RREF pieces); None when it fixes them all (omega = 1
    over F_2, or one summand).  least(P) maps each space to the least index
    in its orbit under the scalings constant on the blocks of P (bitmasks),
    which scaling one block but the last by omega generates; that moves no
    pivot, so it takes an RREF row r to r times omega on the block, over its
    pivot entry."""
    if omega == 1 or len(top.summands) < 2:
        return None
    owner, units = _owners(top), (omega, field.inv(omega))
    index = {tuple(p.items()): i for i, p in enumerate(spaces)}

    def image(i, block):
        out = []
        for s, rows in spaces[i].items():
            inside = [block >> t & 1 for t in owner[s]]
            pivots = [inside[next(c for c, a in enumerate(row) if not field.is_zero(a))]
                      for row in rows]
            out.append((s, tuple(tuple(a if inside[c] == v else field.mul(a, units[v])
                                       for c, a in enumerate(row))
                                 for row, v in zip(rows, pivots))))
        return index[tuple(out)]

    @functools.cache
    def least(part):
        low = {}
        for i in range(len(spaces)):
            todo = [i]
            for k in todo:  # the orbit of i as it grows, unless it is done
                if k not in low:
                    low[k] = i
                    todo += [image(k, block) for block in part[:-1]]
        return low

    return least


def _subspace_flags(field, spaces, length, top: RModule | None = None,
                    omega=None):
    """Index tuples of all weakly increasing chains V_0 <= ... <= V_{length-1}
    of the graded subspaces `spaces`, given by their RREF pieces
    (`stable_graded_subspaces`), in lexicographic order.

    Containment is tested only when a flag goes one level deeper, so flags
    of length 1 test none.  V <= W iff V_s <= W_s in every degree s, so
    each pair of pieces is compared once: pieces of equal dimension by
    their RREFs, a smaller one by rank.

    Given their module `top`, each prefix carries the partition P of the
    summands of T = top that its members' RREF row supports generate
    (`_join`, from singletons; `_supports`).  A scaling tau of the
    summands has tau V = V iff tau r is a multiple of r for each RREF row r
    of V, so the scalings fixing the prefix are those constant on the
    blocks of P.  Two things read P:
    - the torus: only the lex-least flag of each torus orbit is listed,
      each member least in its orbit under the scalings constant on the
      blocks of P (`_torus_orbits`, omega from `_primitive_root`; omega = 1
      prunes none).  An orbit lies in one iso class, so each class keeps
      its first flag.
    - splitting: a flag whose P has more than one block is not listed.  For
      S a union of some blocks but not all, the projection pi_S onto those
      summands fixes or kills each RREF row, so it maps each member into
      itself: pi_S, a degree-0 idempotent of End(T) other than 0 and 1,
      lies in the flag's stabilizer, which is not local, and the flag
      object decomposes.  Conversely, if pi_S V_s <= V_s, the RREFs of
      pi_S V_s and pi_{S^c} V_s together are reduced, so they are the RREF
      of V_s: every S with pi_S stabilizing the flag is a union of blocks.
      This is the idempotent of `_splits` read on the flag itself, with
      no automorphism of T applied first.
    """

    @functools.cache
    def piece_in(a, b):
        return a == b or (len(a) < len(b) and linalg.rank(field, b + a) == len(b))

    def contains(i, j):
        return all(s in spaces[j] and piece_in(a, spaces[j][s])
                   for s, a in spaces[i].items())

    owner = top and _owners(top)
    join = functools.cache(lambda part, j: _join(part, _supports(field, owner, spaces[j])))
    least = length and top and _torus_orbits(field, top, spaces,
                                             omega or _primitive_root(field))

    def rec(start_ok, acc, part):
        if len(acc) == length:
            if part is None or len(part) < 2:
                yield tuple(acc)
            return
        deeper = len(acc) + 1 < length
        low = least(part) if least and len(part) > 1 else None
        for j in start_ok:
            if low is None or low[j] == j:
                yield from rec([k for k in start_ok if contains(j, k)]
                               if deeper else [], acc + [j], part and join(part, j))

    yield from rec(range(len(spaces)), [], top and tuple(1 << t for t in range(len(top.summands))))
    del rec  # no closure cycle keeps the spaces alive


def _generators(field, shifts, space):
    """{s: the members of the basis of V_s that are not in (xV)_s plus the
    members before them} for an x-stable V given by its pieces `space` (x:
    the shift blocks `shifts`): a k-complement of xV in V, so R-generators
    of V (graded Nakayama: x is nilpotent)."""
    out = {}
    for s, vecs in space.items():
        ech = linalg.Echelon(field)
        x = shifts.get(s - 1)
        for v in space.get(s - 1, ()) if x is not None else ():
            ech.add(linalg.mat_vec(field, x, v))
        out[s] = [v for v in vecs if ech.add(v)]
    return out


def _local_stabilizer(field, top: RModule, spaces):
    """is_indecomposable(flag) for flags of `spaces` (RREF pieces) in
    T = `top`: whether
    the stabilizer A = {phi in End(T) : phi V <= V for V in the flag} is
    a local algebra.

    End(T) has the elementary basis gen_t -> x^(s_t - s_u) gen_u at the
    positions (u, t) of `modules.hom_positions`, and such a map has at
    most one entry in a degree piece T_s: a 1 at (the coordinate of
    summand u, the coordinate of summand t), when both reach s
    (`_owners`).  Each V gives one block of conditions q . phi v = 0 on
    the basis coefficients, for v among the R-generators of V in degree s
    (`_generators`) and q in the annihilator of V_s in T_s: phi commutes
    with x, so phi V <= V iff phi maps them into V, and phi v lies in
    T_s.  So the coefficient of the map at (u, t) is q[r] v[c] at its
    entry (r, c), and 0 where it has none.  A block is built when a flag
    first uses V; a flag's A is the nullspace of its stacked blocks.  The
    annihilator of a piece is solved once per (degree, piece) of a top, as
    the listed spaces share their pieces.

    Locality is decided on the image of A in End(T/xT).  The maps with
    phi T <= xT form a two-sided ideal I with I^d = 0, and an algebra is
    local iff its quotient by a nilpotent ideal is, so A is iff
    A / (A n I) is.  The image of the elementary map gen_t ->
    x^(s_t - s_u) gen_u is the matrix unit (u, t) if s_u = s_t and 0
    otherwise, so each vector of A gives its g x g head directly (g
    generators of T).  `endo.is_local` also reaches the same verdict on
    each element as on T: each x^i T / x^(i+1) T is a quotient of T/xT,
    so phi and its head have the same eigenvalues in k, phi - lambda is
    nilpotent iff its head is, and an algebra of such elements is
    nilpotent iff its image is (its d-th power lies in I^d = 0).  So keep
    raises NonSplitEndomorphism iff is_local on A raises it.  The census
    calls keep only on the flags that `_subspace_flags` lists given the
    top, a subset of all flags in the same order with no split flag among
    them, so it raises in at most the cases where testing every flag
    object would.

    The heads are fixed by the nullspace coefficients at `units`, and
    is_local is a function of its input, so keep calls it once per tuple
    of those coefficients: an exact memo, one per top.

    Why A is End(X) of the flag object X up to a nilpotent ideal:
    - chains: every structure map of X is a mono into the top, so a chain
      map is fixed by its top component, and an endomorphism of the top
      is one iff it maps each V_i into itself.  End(X) is the stabilizer.
    - factorizations: X^0 <= ... <= X^(l-1) are the preimages in S^m of
      the flag and X^l = S^m, all included in S^m, so a map is fixed by
      its component on S^m; a graded endomorphism of S^m is one iff its
      reduction mod x^d stabilizes the flag.  Every endomorphism of
      top = S^m / x^d S^m lifts to S^m, so End(X) -> stabilizer is onto,
      and its kernel is the maps with entries in x^d S.  They form a
      nilpotent ideal: a product of k of them has entries in x^(kd) S,
      and a degree-0 entry x^e between generator degrees a, b has
      e = b - a, so it is 0 once kd exceeds the spread of the degrees.
    The zero top has no generators: its flag object is not indecomposable.
    A top with one generator has End(T/xT) = k, onto which every
    stabilizer maps (it holds the identity): every flag is local, and keep
    accepts it with no block built and nothing solved.
    """
    if len(top.summands) == 1:
        return lambda flag: True
    F = field
    positions, owner = hom_positions(top, top), _owners(top)
    # {s: the entry (r, c) of each basis map in T_s, or None}
    entries = {}
    for s, own in owner.items():
        coord = {t: c for c, t in enumerate(own)}
        entries[s] = [(coord[u], coord[t]) if u in coord and t in coord else None
                      for u, t in positions]
    degs = [s for _, s in top.summands]
    units = [k for k, (u, t) in enumerate(positions) if degs[u] == degs[t]]
    g, cells = len(degs), [positions[k] for k in units]
    shifts = _shifts(top)
    blocks, decided, annihilators = {}, {}, {}

    def block(i):
        if i not in blocks:
            ech = linalg.Echelon(F)
            space = spaces[i]
            for s, gens in _generators(F, shifts, space).items():
                key = s, space[s]
                if key not in annihilators:
                    annihilators[key] = linalg.nullspace(F, space[s], cols=len(owner[s]))
                annihilator = annihilators[key]
                for v in gens:
                    for q in annihilator:
                        ech.add([F.zero if rc is None else F.mul(q[rc[0]], v[rc[1]])
                                 for rc in entries[s]])
            blocks[i] = ech.rows
        return blocks[i]

    def keep(flag):
        rows = [row for i in dict.fromkeys(flag) for row in block(i)]
        key = tuple(tuple(c[k] for k in units)
                    for c in linalg.nullspace(F, rows, cols=len(positions)))
        if key not in decided:
            decided[key] = is_local(F, [linalg.scatter(F, g, g, cells, c)
                                        for c in key])
        return decided[key]

    return keep


def _splits(top: RModule, length: int) -> bool:
    """Whether no flag object with `length` members on `top` is
    indecomposable, by one of two rules (see the module docstring): the
    summands' degree intervals fall into two groups sharing at most one
    degree, or top = N^n with n >= 2 and min(length, dim N) <= 2."""
    spans = sorted((s, s + e - 1) for e, s in top.summands)
    touching = any(lo >= max(hi for _, hi in spans[:i]) for i, (lo, _) in enumerate(spans) if i)
    homogeneous = len(set(top.summands)) == 1 < len(top.summands)
    return touching or (homogeneous and min(length, top.summands[0][0]) <= 2)


def _flag_objects(cfg: HypersurfaceConfig, tops, length: int, build):
    """build(cfg, top, spaces)(flag), shifted to minimum degree 0, for the
    flags (index tuples) of `length` x-stable graded subspaces `spaces`
    (`stable_graded_subspaces`) of each top module in the stream `tops`
    that `_subspace_flags` lists given the top (one per torus orbit, none
    split by a summand projection) and whose stabilizer in End(top) is
    local (`_local_stabilizer`); split tops (`_splits`) are skipped."""
    F = cfg.field
    omega = _primitive_root(F) if length else None
    for top in tops:
        if _splits(top, length):
            continue
        spaces = stable_graded_subspaces(F, top) if length else []
        flags = filter(_local_stabilizer(F, top, spaces),
                       _subspace_flags(F, spaces, length, top, omega))
        make = build(cfg, top, spaces)
        for flag in flags:
            x = make(flag)
            yield x.shift(-x.min_degree())


def _fac_build(cfg: HypersurfaceConfig, top: RModule, spaces):
    """flag -> its flag factorization, on the free top R^m: each listed
    space's submodule, taken once, gives its preimage in S^m
    (`span_preimage_inclusion`)."""
    include = functools.cache(
        lambda i: span_preimage_inclusion(cfg, submodule(top, spaces[i])))
    return lambda flag: flag_factorization(cfg, [include(i) for i in flag])


def _chain_build(cfg: HypersurfaceConfig, top: RModule, spaces):
    """flag -> its flag chain; each listed space's submodule, taken once."""
    include = functools.cache(lambda i: submodule(top, spaces[i]))
    return lambda flag: _flag_chain(cfg, top, [include(i) for i in flag])


# factorization enumeration -----------------------------------------------------


def _sorted_degree_vectors(m, window):
    """Weakly decreasing vectors of length m in [0, window] with min 0."""
    return [vec[::-1] for vec in itertools.combinations_with_replacement(
        range(window + 1), m) if vec[:1] in ((), (0,))]


def _fac_tops(cfg: HypersurfaceConfig, m_max: int, window: int):
    """The free R-cover R^m(degs_l) of X^l for every rank m up to m_max and
    every degree vector degs_l over [0, window] normalized to minimum 0."""
    for m in range(m_max + 1):
        for degs_l in _sorted_degree_vectors(m, window):
            yield RModule.free(cfg, list(degs_l))


def _dedup(objs, fingerprint, iso):
    """The first member of each iso class of `objs`, in order; `iso` is
    only asked about pairs with equal fingerprints."""
    groups, kept = {}, []
    for obj in objs:
        reps = groups.setdefault(fingerprint(obj), [])
        if not any(iso(obj, rep) for rep in reps):
            reps.append(obj)
            kept.append(obj)
    return kept


def enumerate_factorizations(cfg: HypersurfaceConfig, l: int, m_max: int,
                             window: int):
    """The indecomposable (l+1)-factor factorizations up to iso and shift,
    within bounds: each class appears once, as its first flag factorization.
    Only local flags of unsplit tops are built (see the module docstring),
    so the window is clamped to what those reach.  ValueError when m_max*d
    or l exceeds MAX_CENSUS_SIZE."""
    _check_census_size(("m*d", m_max * cfg.d), ("l", l))
    window = min(window, max(m_max - 1, 0) * max(cfg.d - 2, 0))
    return _dedup(_flag_objects(cfg, _fac_tops(cfg, m_max, window), l, _fac_build),
                  _fac_fingerprint, fac_iso_test)


# chain enumeration -----------------------------------------------------------


def _top_modules(cfg: HypersurfaceConfig, dim_max: int, window: int):
    """Sorted summand lists with total dimension <= dim_max, degrees in the
    window; includes the zero module.  The order is depth first, so a top
    comes after its shift to minimum degree 0."""
    types = [(e, s) for e in range(1, min(cfg.d, dim_max) + 1)
             for s in range(window + 1)]
    out = []

    def rec(start, left, acc):
        out.append(RModule(cfg, acc))
        for i in range(start, len(types)):
            e, s = types[i]
            if e <= left:
                rec(i, left - e, acc + [types[i]])

    rec(0, dim_max, [])
    return out


def _flag_chain(cfg: HypersurfaceConfig, top: RModule, incls) -> MonoChain:
    """The chain of submodules V_1 >-> ... >-> V_{l-1} >-> top, given by
    their inclusions `incls` into top (`modules.submodule`): each map is
    the lift of one inclusion through the next (`modules.lift`)."""
    incls = incls + [ModuleMap.identity(top)]
    maps = []
    for i0, i1 in zip(incls, incls[1:]):
        maps.append(lift(i1, i0))
        if maps[-1] is None:
            raise MatchFailure("flag member does not factor")
    return MonoChain(cfg, [i.src for i in incls], maps)


def enumerate_chains(cfg: HypersurfaceConfig, l: int, dim_max: int,
                     window: int):
    """The indecomposable chains of l-1 monos up to iso and shift, top
    dimension <= dim_max, top generator degrees over [0, window]: each class
    appears once, as its first flag chain.  Only local flags of unsplit tops
    of minimum degree 0 are built, with the window clamped to what those
    reach; a top of minimum degree s > 0 repeats its shift by -s.
    ValueError when dim_max or l exceeds MAX_CENSUS_SIZE."""
    _check_census_size(("dim", dim_max), ("l", l))
    window = min(window, max(dim_max - 2, 0))
    tops = [t for t in _top_modules(cfg, dim_max, window) if t.min_degree() == 0]
    return _dedup(_flag_objects(cfg, tops, l - 1, _chain_build),
                  _chain_fingerprint, chain_iso_test)


# the census itself ------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    d: int
    l: int
    field_name: str
    bounds: Bounds
    fac_classes: list
    chain_classes: list
    matching: list  # (fac index, chain index) pairs
    fac_hom_table: list
    chain_hom_table: list

    def to_json(self):
        return {
            "d": self.d,
            "l": self.l,
            "field": self.field_name,
            "bounds": self.bounds.to_json(),
            "fac_classes": [x.to_json() for x in self.fac_classes],
            "chain_classes": [u.to_json() for u in self.chain_classes],
            "matching": [list(p) for p in self.matching],
            "fac_hom_table": self.fac_hom_table,
            "chain_hom_table": self.chain_hom_table,
        }

    def to_table(self) -> str:
        lines = [
            f"census  d={self.d}  l={self.l}  field={self.field_name}  "
            f"bounds(m={self.bounds.m}, dim={self.bounds.dim}, "
            f"window={self.bounds.window})",
            f"factorization classes: {len(self.fac_classes)}",
            f"chain classes:         {len(self.chain_classes)}",
            f"matched pairs:         {len(self.matching)}",
        ]
        for i, j in self.matching:
            x = self.fac_classes[i]
            u = self.chain_classes[j]
            degs = " | ".join(
                ",".join(str(s) for s in x.degs(k)) for k in range(x.l + 1)
            )
            objs = " >-> ".join(
                "+".join(f"R/x^{e}({-s})" for e, s in o.summands) or "0"
                for o in u.objects
            )
            lines.append(f"  fac[{i}] degs [{degs}]  <->  chain[{j}] {objs}")
        lines.append("stable hom table (factorization side = chain side):")
        for row in self.fac_hom_table:
            lines.append("  " + " ".join(f"{v:2d}" for v in row))
        return "\n".join(lines)


def _reconstruction_in_bounds(v: MonoChain, bounds: Bounds) -> bool:
    """Whether reconstruct(v), shifted to minimum degree 0, is in bounds,
    read off v's top U^l: reconstruct builds on its minimal free cover, so
    the rank is its number of summands, and X^l has its generator degrees,
    which are also the object's lowest degrees."""
    degs = [s for _, s in v.objects[-1].summands]
    return (len(degs) <= bounds.m
            and max(degs, default=0) - min(degs, default=0) <= bounds.window)


def _match(canon, chains, bounds: Bounds):
    """The (fac index, chain index) pairs of the classes whose canonical
    cok `canon[i]` is isomorphic to `chains[j]`; MatchFailure on a cok that
    matches twice or not at all in bounds, on a chain class hit twice, and
    on an unmatched chain class whose reconstruction is in bounds.
    chain_iso_test is False between chains of different fingerprints, so
    only equal fingerprints are tested."""
    candidates, matching, taken = {}, [], {}
    for j, v in enumerate(chains):
        candidates.setdefault(_chain_fingerprint(v), []).append(j)
    for i, u in enumerate(canon):
        hits = [j for j in candidates.get(_chain_fingerprint(u), ())
                if chain_iso_test(u, chains[j])]
        if len(hits) > 1:
            raise MatchFailure(f"fac class {i}: cok matches chains {hits}")
        if not hits:
            top = u.objects[-1]
            if top.dim <= bounds.dim and all(s <= bounds.window for _, s in top.summands):
                raise MatchFailure(f"fac class {i}: cok in bounds but not in the chain census")
            continue
        j = hits[0]
        if j in taken:
            raise MatchFailure(f"fac classes {taken[j]} and {i} both map to chain class {j}")
        taken[j] = i
        matching.append((i, j))
    for j, v in enumerate(chains):
        if j not in taken and _reconstruction_in_bounds(v, bounds):
            raise MatchFailure(f"chain class {j}: reconstruction in bounds but unmatched")
    return matching


def class_census(cfg: HypersurfaceConfig, l: int, bounds: Bounds,
                 seed: int = 0) -> CensusReport:
    """Classify both sides, match them under cok, compare stable hom tables.

    Classes are indecomposable nonprojective objects up to iso and shift.
    The two sides are `enumerate_factorizations` and `enumerate_chains`,
    which build only the flags whose stabilizer in End(top) is local (see
    `_local_stabilizer`).  The census keeps the nonprojective classes: the
    factorizations with a nonzero diagonal entry in their stable hom table
    (`fac_stable_hom_table`) and the chains with a non-free object; matches
    them under cok; and compares the kept table with that of the cok
    images (`chain_stable_hom_table`).  Every
    iso test has an indecomposable target, so deduplication and matching
    are exact (see `endo.search_iso`): `seed` is accepted, for the CLI's
    `--seed`, and passed nowhere.  A class may stay unmatched only when its
    partner falls outside the given bounds; any other mismatch raises
    MatchFailure.  Raises NonSplitEndomorphism when an object's
    indecomposability is undecided over k (see `endo.is_local`),
    FactorizationError when a flag does not give a factorization
    (`functors.flag_factorization`; the CLI maps both to exit 2), and
    ValueError (exit 1), before any enumeration, when m*d, dim or l exceeds
    MAX_CENSUS_SIZE, or when one F^n has more than MAX_SUBSPACES subspaces
    to list.
    """
    _check_census_size(("m*d", bounds.m * cfg.d), ("dim", bounds.dim), ("l", l))
    facs = enumerate_factorizations(cfg, l, bounds.m, bounds.window)
    table = fac_stable_hom_table(facs)
    keep = [i for i, row in enumerate(table) if row[i]]
    facs, fac_table = [facs[i] for i in keep], [[table[i][j] for j in keep] for i in keep]
    chains = [u for u in enumerate_chains(cfg, l, bounds.dim, bounds.window)
              if not chain_projective_test(u)]

    coks = [cok(x) for x in facs]
    matching = _match([u.shift(-u.min_degree()) for u in coks], chains, bounds)
    chain_table = chain_stable_hom_table(coks)
    if fac_table != chain_table:
        raise MatchFailure(f"stable hom tables differ: {fac_table} vs {chain_table}")
    return CensusReport(
        d=cfg.d,
        l=l,
        field_name=repr(cfg.field),
        bounds=bounds,
        fac_classes=facs,
        chain_classes=chains,
        matching=matching,
        fac_hom_table=fac_table,
        chain_hom_table=chain_table,
    )


# hom-dimension comparison ------------------------------------------------------


def hom_dim_compare(x: Factorization, y: Factorization):
    """(lhs, rhs, equal): dim Hom in Fac modulo nu^l-objects
    (`fac_hom_dim_mod_nu_l`) vs dim Hom of the cokernels."""
    lhs, rhs = fac_hom_dim_mod_nu_l(x, y), chain_hom_dim(cok(x), cok(y))
    return lhs, rhs, lhs == rhs
