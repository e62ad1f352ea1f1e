"""Desk-scale census: classify both sides and verify the equivalence.

Every census object is a flag V_1 <= ... <= V_k of x-stable graded
subspaces of one top module T.  Factorizations are flags in the free
cover T = R^m(degs_l) of X^l: the preimage in S^m of such a flag is a
chain of free submodules containing x^d S^m, which is exactly a graded
factorization up to isomorphism.  Chains of monomorphisms are flags in
their top module T.  Every flag object is shifted to minimum degree 0.

Indecomposability is decided on the flag, before any object is built:
X is indecomposable iff End(X) is local (Fitting's lemma), End(X) is the
flag's stabilizer A in End(T) up to a nilpotent ideal, and A is local iff
its image in End(T/xT) is, as the maps into xT form an ideal I with
I^d = 0 (see `_local_stabilizer`).  Each flag costs one nullspace, and
each distinct head basis of a top one locality test on g x g matrices (g
generators of T).  Split tops are skipped (`_splits`): if the degree
intervals [s, s+e-1] of the summands R/x^e(-s) of T (e = d for a free
one) fall into two nonempty groups A, B sharing no degree, each T_s lies
in T_A or T_B, so a graded x-stable V is (V n T_A) + (V n T_B).  Then
the projection onto T_A, an idempotent other than 0 and 1, stabilizes
every flag: no flag object on T is indecomposable.  Only the flags that
pass are built and deduplicated with the iso tests; the projective
classes are dropped last.  Both properties are iso-invariant and
deduplication keeps the first member of each class, so this gives the
classes of building and deduplicating every flag object first.  Between
indecomposables the iso tests are exact (see `endo.search_iso`), so the
result does not depend on a seed.  The kept classes of the two sides are
matched under cok.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import linalg
from .chains import (
    MonoChain,
    chain_hom_basis,
    chain_iso_test,
    chain_projective_test,
    chain_stable_hom_dim,
)
from .endo import is_local, stable_dim
from .factorizations import (
    Factorization,
    adjunction_transport,
    fac_hom_basis,
    fac_iso_test,
    fac_projective_test,
    fac_stable_hom_dim,
)
from .fields import PrimeField
from .functors import cok, reconstruct
from .functors import flag_factorization as _flag_factorization
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    hom_basis,
    realization_to_module,
    subspace_realization,
)
from .polymat import GradedMatrix


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


# the most subspaces of one F^n that a census lists; the largest bounds in
# use list 42,176 (F_5^5, d=5, l=2)
MAX_SUBSPACES = 10 ** 5


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


def stable_graded_subspaces(field, degs, xmat):
    """All x-stable homogeneous subspaces of a graded realization.

    Returned as lists of ambient vectors; enumeration walks the degrees
    upward, at each level listing the subspaces containing the x-image of
    the level below.
    """
    elements = _field_elements(field)
    by_deg = {}
    for i, s in enumerate(degs):
        by_deg.setdefault(s, []).append(i)
    levels = sorted(by_deg)
    results = []

    def rec(li, lower, chosen):
        if li == len(levels):
            results.append([v for level in chosen for v in level])
            return
        cols = by_deg[levels[li]]
        n = len(cols)
        lower_local = [[v[c] for c in cols] for v in lower]
        for local in _subspaces_containing(field, n, lower_local, elements):
            ambient = []
            for lv in local:
                w = [field.zero] * len(degs)
                for idx, c in enumerate(cols):
                    w[c] = lv[idx]
                ambient.append(w)
            nxt = []
            if li + 1 < len(levels) and levels[li + 1] == levels[li] + 1:
                nxt = [linalg.mat_vec(field, xmat, w) for w in ambient]
            rec(li + 1, nxt, chosen + [ambient])

    rec(0, [], [])
    del rec  # no closure cycle keeps the spaces alive
    return results


# flags of x-stable subspaces ----------------------------------------------------


def _subspace_flags(field, spaces, length, degs):
    """Index tuples of all weakly increasing chains V_0 <= ... <= V_{length-1}
    of `spaces`, homogeneous subspaces of a space with basis degrees
    `degs`, in lexicographic order.

    Containment is tested only when a flag goes one level deeper, so flags
    of length 1 test none, and row-reduced only when dim V_s <= dim W_s in
    every degree s, as V <= W needs (the bases' vectors are homogeneous).
    """
    dims = [Counter(degs[next(c for c, a in enumerate(v) if not field.is_zero(a))]
                    for v in vecs) for vecs in spaces]
    echs, inside = {}, {}

    def contains(i, j):
        if (i, j) not in inside:
            ok = dims[i] <= dims[j]
            if ok:
                if j not in echs:
                    echs[j] = linalg.Echelon(field)
                    for v in spaces[j]:
                        echs[j].add(v)
                ok = all(echs[j].contains(v) for v in spaces[i])
            inside[(i, j)] = ok
        return inside[(i, j)]

    def rec(start_ok, acc):
        if len(acc) == length:
            yield tuple(acc)
            return
        deeper = len(acc) + 1 < length
        for j in start_ok:
            yield from rec([k for k in start_ok if contains(j, k)]
                           if deeper else [], acc + [j])

    yield from rec(range(len(spaces)), [])
    del rec  # no closure cycle keeps the spaces alive


def _generators(field, xmat, vecs):
    """The members of the basis `vecs` of an x-stable V that are not in
    xV plus the members before them: a k-complement of xV in V, so R-
    generators of V (graded Nakayama: x is nilpotent)."""
    ech = linalg.Echelon(field)
    for v in vecs:
        ech.add(linalg.mat_vec(field, xmat, v))
    return [v for v in vecs if ech.add(v)]


def _local_stabilizer(field, top: RModule, spaces):
    """is_indecomposable(flag) for flags of `spaces` in T = `top`: whether
    the stabilizer A = {phi in End(T) : phi V <= V for V in the flag} is
    a local algebra.

    hom_basis(T, T) is elementary (see `modules.hom_basis`) and computed
    once.  Each V gives one block of conditions q . phi v = 0 on the basis
    coefficients, for q in the annihilator of V and v among the
    R-generators of V (`_generators`): phi commutes with x, so phi V <= V
    iff phi maps them into V.  A block is built when a flag first uses V;
    a flag's A is the nullspace of its stacked blocks.

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
    nilpotent iff its image is (its d-th power lies in I^d = 0).  So
    NonSplitEndomorphism is raised in exactly the same cases.

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
    """
    F = field
    homs = hom_basis(top, top)
    # the few nonzero realization entries (r, c, a) of each basis map
    entries = [[(r, c, a) for r, row in enumerate(f.realization())
                for c, a in enumerate(row) if not F.is_zero(a)] for f in homs]
    degs = [s for _, s in top.summands]
    units = [(k, u, t) for k, f in enumerate(homs)
             for u, row in enumerate(f.blocks) for t, c in enumerate(row)
             if not F.is_zero(c) and degs[u] == degs[t]]
    g, cells = len(degs), [(u, t) for _, u, t in units]
    xm = top.x_matrix()
    blocks, decided = {}, {}

    def block(i):
        if i not in blocks:
            ech = linalg.Echelon(F)
            annihilator = linalg.nullspace(F, spaces[i], cols=top.dim)
            for v in _generators(F, xm, spaces[i]):
                images = [[(r, F.mul(a, v[c])) for r, c, a in ent
                           if not F.is_zero(v[c])] for ent in entries]
                for q in annihilator:  # q . phi_j v for every basis map
                    row = []
                    for image in images:
                        acc = F.zero
                        for r, b in image:
                            acc = F.add(acc, F.mul(q[r], b))
                        row.append(acc)
                    ech.add(row)
            blocks[i] = ech.rows
        return blocks[i]

    def keep(flag):
        rows = [row for i in dict.fromkeys(flag) for row in block(i)]
        key = tuple(tuple(c[k] for k, _, _ in units)
                    for c in linalg.nullspace(F, rows, cols=len(homs)))
        if key not in decided:
            decided[key] = is_local(F, [linalg.scatter(F, g, g, cells, c)
                                        for c in key])
        return decided[key]

    return keep


def _splits(top: RModule) -> bool:
    """Whether the summands' degree intervals fall into two groups sharing
    no degree, so that no flag object on `top` is indecomposable."""
    spans = sorted((s, s + e - 1) for e, s in top.summands)
    return any(lo > max(hi for _, hi in spans[:i])
               for i, (lo, _) in enumerate(spans) if i)


def _flag_objects(cfg: HypersurfaceConfig, tops, length: int, build,
                  local_only: bool = False):
    """build(cfg, key, flag), shifted to minimum degree 0, for every flag
    of `length` x-stable graded subspaces of each top in `tops`, a stream
    of (key, top module) pairs; with local_only, only for the flags whose
    stabilizer in End(top) is local (see `_local_stabilizer`), skipping
    split tops (`_splits`)."""
    F = cfg.field
    for key, top in tops:
        if local_only and _splits(top):
            continue
        degs = top.basis_degrees()
        spaces = stable_graded_subspaces(F, degs, top.x_matrix()) if length else []
        flags = _subspace_flags(F, spaces, length, degs)
        if local_only:
            flags = filter(_local_stabilizer(F, top, spaces), flags)
        for flag in flags:
            x = build(cfg, key, [spaces[i] for i in flag])
            yield x.shift(-x.min_degree())


# factorization enumeration -----------------------------------------------------


def _sorted_degree_vectors(m, window):
    """Weakly decreasing vectors of length m in [0, window] with min 0."""
    if m == 0:
        return [()]
    out = []
    for vec in itertools.combinations_with_replacement(range(window + 1), m):
        if vec[0] == 0:
            out.append(tuple(reversed(vec)))
    return out


def _fac_tops(cfg: HypersurfaceConfig, m_max: int, window: int):
    """(degs_l, free R-cover of X^l) for every rank up to m_max and every
    degree vector over [0, window] normalized to minimum 0."""
    for m in range(m_max + 1):
        for degs_l in _sorted_degree_vectors(m, window):
            yield degs_l, RModule.free(cfg, list(degs_l))


def _fac_fingerprint(x: Factorization):
    return tuple(tuple(sorted(x.degs(k))) for k in range(x.l + 1))


def _dedup(objs, fingerprint, iso):
    """The first member of each iso class of `objs`, in order; `iso` is
    only asked about pairs with equal fingerprints."""
    groups = {}
    kept = []
    for obj in objs:
        key = fingerprint(obj)
        reps = groups.setdefault(key, [])
        if any(iso(obj, rep) for rep in reps):
            continue
        reps.append(obj)
        kept.append(obj)
    return kept


def _classes(objs, fingerprint, iso, is_projective):
    """The nonprojective classes among the indecomposable `objs`, each as
    its first member: deduplicate, then drop projectives."""
    return [x for x in _dedup(objs, fingerprint, iso) if not is_projective(x)]


def _flag_factorizations(cfg: HypersurfaceConfig, l: int, m_max: int,
                         window: int):
    """Every flag factorization within bounds, shifted to minimum degree 0.

    Ranks run to m_max and the last degree vector over [0, window]
    normalized to minimum 0; every valid graded factorization with those
    invariants appears at least once.
    """
    return _flag_objects(cfg, _fac_tops(cfg, m_max, window), l,
                         _flag_factorization)


def enumerate_factorizations(cfg: HypersurfaceConfig, l: int, m_max: int,
                             window: int):
    """All (l+1)-factor factorizations up to iso and shift, within bounds:
    each class appears exactly once, as its first flag factorization."""
    return _dedup(_flag_factorizations(cfg, l, m_max, window),
                  _fac_fingerprint, fac_iso_test)


# chain enumeration -----------------------------------------------------------


def _top_modules(cfg: HypersurfaceConfig, dim_max: int, window: int):
    """Sorted summand lists with total dimension <= dim_max, degrees in the
    window; includes the zero module.  The order is depth first, so a top
    comes after its shift to minimum degree 0."""
    types = [(e, s) for e in range(1, cfg.d + 1) for s in range(window + 1)]
    out = []

    def rec(start, left, acc):
        out.append(RModule(cfg, acc))
        for i in range(start, len(types)):
            e, s = types[i]
            if e <= left:
                rec(i, left - e, acc + [types[i]])

    rec(0, dim_max, [])
    return out


def _flag_chain(cfg: HypersurfaceConfig, top: RModule, flag) -> MonoChain:
    """The chain of submodules V_1 >-> ... >-> V_{l-1} >-> top."""
    F = cfg.field
    degs, xm = top.basis_degrees(), top.x_matrix()
    pairs = []
    for vecs in flag:
        sdegs, sx, incl = subspace_realization(F, degs, xm, vecs)
        mod, to_real, _ = realization_to_module(cfg, sdegs, sx)
        pairs.append((mod, linalg.mat_mul(F, incl, to_real)))
    pairs.append((top, linalg.identity(F, top.dim)))
    maps = []
    for (m0, i0), (m1, i1) in zip(pairs, pairs[1:]):
        real = linalg.solve(F, i1, i0, cols=m1.dim)
        if real is None:
            raise MatchFailure("flag member does not factor")
        maps.append(ModuleMap.from_realization(m0, m1, real))
    return MonoChain(cfg, [m for m, _ in pairs], maps)


def _chain_fingerprint(u: MonoChain):
    return tuple(obj.sorted_summands() for obj in u.objects)


def _flag_chains(cfg: HypersurfaceConfig, l: int, dim_max: int, window: int):
    """Every flag chain of l-1 monos with top dimension <= dim_max and top
    generator degrees over [0, window], shifted to minimum degree 0."""
    tops = _top_modules(cfg, dim_max, window)
    return _flag_objects(cfg, ((t, t) for t in tops), l - 1, _flag_chain)


def enumerate_chains(cfg: HypersurfaceConfig, l: int, dim_max: int,
                     window: int):
    """All chains of l-1 monos up to iso and shift, top dimension <= dim_max
    and top generator degrees over [0, window] normalized to minimum 0."""
    return _dedup(_flag_chains(cfg, l, dim_max, window), _chain_fingerprint,
                  chain_iso_test)


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


def _chain_in_bounds(u: MonoChain, bounds: Bounds) -> bool:
    top = u.objects[-1]
    if top.dim > bounds.dim:
        return False
    return all(s <= bounds.window for _, s in top.summands)


def _fac_in_bounds(x: Factorization, bounds: Bounds) -> bool:
    if x.m > bounds.m:
        return False
    return all(s <= bounds.window for s in x.degs(x.l))


def class_census(cfg: HypersurfaceConfig, l: int, bounds: Bounds,
                 seed: int = 0) -> CensusReport:
    """Classify both sides, match them under cok, compare stable hom tables.

    Classes are indecomposable nonprojective objects up to iso and shift.
    Each side enumerates flags of x-stable subspaces of its top objects
    (the free R-covers R^m(degs_l), and the chain tops of minimum degree
    0) and keeps a flag only when its stabilizer in End(top) is local,
    which holds iff the flag object is indecomposable (see
    `_local_stabilizer`).  Only those flags are built into objects; they
    are deduplicated (keeping the first of each class) and then the
    projectives are dropped.  Every iso test has an indecomposable
    target, so deduplication and matching are exact: `seed` is passed on
    to the iso search but does not change the result.  A class may stay
    unmatched only when its partner falls outside the given bounds; any
    other mismatch raises MatchFailure.  Raises NonSplitEndomorphism when
    an object's indecomposability is undecided over k (see
    `endo.is_local`), FactorizationError when a flag does not give a
    factorization (`functors.flag_factorization`; the CLI maps both to
    exit 2), and ValueError when one F^n has more than MAX_SUBSPACES
    subspaces to list (exit 1).
    """
    facs = _classes(
        _flag_objects(cfg, _fac_tops(cfg, bounds.m, bounds.window), l,
                      _flag_factorization, local_only=True),
        _fac_fingerprint, fac_iso_test, fac_projective_test)
    # a top of minimum degree s > 0 only repeats the flags of its shift by
    # -s, which _top_modules lists before it
    tops = [t for t in _top_modules(cfg, bounds.dim, bounds.window)
            if t.min_degree() == 0]
    chains = _classes(
        _flag_objects(cfg, ((t, t) for t in tops), l - 1, _flag_chain,
                      local_only=True),
        _chain_fingerprint, chain_iso_test, chain_projective_test)

    coks = [cok(x) for x in facs]
    canon = [u.shift(-u.min_degree()) for u in coks]
    matching = []
    taken = {}
    for i, u in enumerate(canon):
        hits = [j for j, v in enumerate(chains) if chain_iso_test(u, v, seed=seed)]
        if len(hits) > 1:
            raise MatchFailure(f"fac class {i}: cok matches chains {hits}")
        if not hits:
            if _chain_in_bounds(u, bounds):
                raise MatchFailure(
                    f"fac class {i}: cok in bounds but not in the chain census"
                )
            continue
        j = hits[0]
        if j in taken:
            raise MatchFailure(
                f"fac classes {taken[j]} and {i} both map to chain class {j}"
            )
        taken[j] = i
        matching.append((i, j))
    for j, v in enumerate(chains):
        if j in taken:
            continue
        x = reconstruct(v)
        x = x.shift(-x.min_degree())
        if _fac_in_bounds(x, bounds):
            raise MatchFailure(
                f"chain class {j}: reconstruction in bounds but unmatched"
            )

    n = len(facs)
    fac_table = [[fac_stable_hom_dim(facs[i], facs[j]) for j in range(n)]
                 for i in range(n)]
    chain_table = [[chain_stable_hom_dim(coks[i], coks[j]) for j in range(n)]
                   for i in range(n)]
    if fac_table != chain_table:
        raise MatchFailure(
            f"stable hom tables differ: {fac_table} vs {chain_table}"
        )
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
    """(lhs, rhs, equal): Hom in Fac modulo nu^l-objects vs Hom of cokernels.

    Maps factoring through a nu^l object are exactly those factoring
    through the counit nu^l(Y^0) -> Y.
    """
    F = x.cfg.field

    def counit(y):
        j = adjunction_transport(
            "nu_l_left", y, GradedMatrix.identity(F, y.degs(0)), forward=False
        )
        return j.src, j

    lhs = stable_dim(F, fac_hom_basis, counit, x, y)
    rhs = len(chain_hom_basis(cok(x), cok(y)))
    return lhs, rhs, lhs == rhs
