"""(l+1)-factor graded matrix factorizations of x^d.

A `Factorization` holds square injective GradedMatrices A^0..A^{l-1}
together with the unique closing map A^l satisfying
(A^{l-1} ... A^0) * A^l = x^d * I.  The integer `twist` records an overall
degree-shift power so that rotating l+1 times is observably the shift
functor; `rot_phase` tracks where in the rotation cycle the object sits.

The maps X^0 -> X^1 -> ... -> X^l -> tau X^0 form a cycle, and every
structure map of the trivial factorizations nu^k is a composite around
it (`_around`): the zigzag identities, the units and counits of the
nu-adjunctions, the projective cover and the injective hull, whose
blocks are these composites.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .endo import hom_space, is_local, search_iso, stable_dim
from .fields import Field
from .modules import HypersurfaceConfig
from .polymat import GradedMatrix


class FactorizationError(Exception):
    """A construction that should give a valid factorization or map did not."""


@dataclass(frozen=True)
class Invalid:
    reason: str

    def __bool__(self):
        return False


class Factorization:
    """Valid factorization; use fac_validate to construct from raw maps."""

    __slots__ = ("cfg", "l", "maps", "closing", "twist", "rot_phase")

    def __init__(self, cfg, maps, closing, twist=0, rot_phase=0):
        self.cfg = cfg
        self.l = len(maps)
        self.maps = tuple(maps)  # A^0 .. A^{l-1}
        self.closing = closing   # A^l : X^l -> tau X^0
        self.twist = twist
        self.rot_phase = rot_phase % (self.l + 1)

    @property
    def m(self) -> int:
        return len(self.maps[0].src_degs)

    def degs(self, k: int):
        """Generator degrees of X^k, k in 0..l."""
        if k < self.l:
            return self.maps[k].src_degs
        return self.maps[self.l - 1].tgt_degs

    def all_degs(self):
        return [list(self.degs(k)) for k in range(self.l + 1)]

    def is_zero(self) -> bool:
        return self.m == 0

    def min_degree(self):
        return min((s for k in range(self.l + 1) for s in self.degs(k)), default=0)

    def shift(self, t: int) -> "Factorization":
        return Factorization(
            self.cfg,
            [a.shift(t) for a in self.maps],
            self.closing.shift(t),
            self.twist,
            self.rot_phase,
        )

    def direct_sum(self, other: "Factorization") -> "Factorization":
        if other.cfg != self.cfg or other.l != self.l:
            raise ValueError("shape mismatch")
        if other.twist != self.twist:
            raise ValueError("twist mismatch")
        return Factorization(
            self.cfg,
            [a.direct_sum(b) for a, b in zip(self.maps, other.maps)],
            self.closing.direct_sum(other.closing),
            self.twist,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Factorization)
            and self.cfg == other.cfg
            and self.maps == other.maps
            and self.closing == other.closing
            and self.twist == other.twist
        )

    def __repr__(self):
        return (
            f"Factorization(l={self.l}, m={self.m}, twist={self.twist}, "
            f"maps={list(self.maps)})"
        )

    def to_json(self):
        return {
            "d": self.cfg.d,
            "l": self.l,
            "m": self.m,
            "twist": self.twist,
            "degs": self.all_degs(),
            "maps": [a.to_json() for a in self.maps],
        }

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data):
        if data.get("d", cfg.d) != cfg.d:
            raise ValueError("factorization d does not match config")
        maps = [GradedMatrix.from_json(cfg.field, a) for a in data["maps"]]
        out = fac_validate(maps, cfg, twist=data.get("twist", 0))
        if isinstance(out, Invalid):
            raise ValueError(f"invalid factorization: {out.reason}")
        return out


def prefix(x: Factorization, j: int) -> GradedMatrix:
    """A^{j-1} ... A^0 : X^0 -> X^j (identity for j = 0)."""
    return between(x, 0, j)


def between(x: Factorization, a: int, b: int) -> GradedMatrix:
    """A^{b-1} ... A^a : X^a -> X^b for 0 <= a <= b <= l."""
    g = GradedMatrix.identity(x.cfg.field, x.degs(a))
    for k in range(a, b):
        g = x.maps[k] @ g
    return g


def _around(x: Factorization, a: int, b: int) -> GradedMatrix:
    """The composite X^a -> X^b going forward around the cycle.

    For a <= b <= l it is A^{b-1}..A^a.  For b < a it goes once round,
    tau(A^{b-1}..A^0) A^l A^{l-1}..A^a, into tau X^b; b = a + l + 1 names
    the full loop X^a -> tau X^a, the left side of the zigzag identity.
    """
    if b < a:
        b += x.l + 1
    if b <= x.l:
        return between(x, a, b)
    return prefix(x, b - x.l - 1).shift(-x.cfg.d) @ x.closing @ between(x, a, x.l)


def fac_validate(maps, cfg: HypersurfaceConfig, twist: int = 0):
    """Build a Factorization from A^0..A^{l-1}, or report why it fails."""
    F = cfg.field
    if type(twist) is not int:
        return Invalid(f"twist {twist!r} is not an integer")
    if not maps:
        return Invalid("need at least one map")
    for k, a in enumerate(maps):
        if len(a.src_degs) != len(a.tgt_degs):
            return Invalid(f"NonSquare {k}")
    for k in range(len(maps) - 1):
        if maps[k].tgt_degs != maps[k + 1].src_degs:
            return Invalid(f"DegreeChainMismatch {k}")
    for k, a in enumerate(maps):
        if not a.is_injective():
            return Invalid(f"NonMonic {k}")
    product = maps[0]
    for a in maps[1:]:
        product = a @ product
    # (A^{l-1}..A^0) A^l = x^d I: the scalars of A^l invert the product's,
    # and A^l : X^l -> tau X^0, as tau lowers degree vectors by d
    inverse = linalg.invert(F, [list(row) for row in product.coeffs])
    src, tgt = maps[-1].tgt_degs, [s - cfg.d for s in maps[0].src_degs]
    for b, row in zip(tgt, inverse):
        for a, c in zip(src, row):
            if a < b and not F.is_zero(c):
                return Invalid("NoClosing")
    closing = GradedMatrix.from_coeffs(F, inverse, src, tgt)
    return Factorization(cfg, maps, closing, twist)


def fac_build(maps, cfg: HypersurfaceConfig, what: str) -> Factorization:
    """fac_validate(maps, cfg) for maps that a construction guarantees to
    be valid; FactorizationError naming `what` if they are not."""
    out = fac_validate(maps, cfg)
    if not isinstance(out, Factorization):
        raise FactorizationError(f"{what} is invalid: {out.reason}")
    return out


@dataclass(frozen=True)
class ZigzagViolation:
    k: int

    def __bool__(self):
        return False


def omega_map(field: Field, src_degs, d: int) -> GradedMatrix:
    """x^d * I as the map X -> tau X: the identity with degrees dropped by d."""
    return GradedMatrix.from_coeffs(
        field, linalg.identity(field, len(src_degs)), src_degs, [s - d for s in src_degs]
    )


def zigzag_check(x: Factorization):
    """omega_{X^k} = tau(A^{k-1}..A^0) A^l A^{l-1}..A^k, the loop around
    the cycle at k, for every k."""
    for k in range(x.l):
        if _around(x, k, k + x.l + 1) != omega_map(x.cfg.field, x.degs(k), x.cfg.d):
            return ZigzagViolation(k)
    return True


def nu(cfg: HypersurfaceConfig, l: int, k: int, degs) -> Factorization:
    """Trivial factorization nu^k(A) on the free module with given degrees."""
    if not (0 <= k <= l):
        raise ValueError("k out of range")
    F = cfg.field
    maps = []
    cur = list(degs)
    for j in range(l):
        if j == k:
            maps.append(omega_map(F, cur, cfg.d))
            cur = [s - cfg.d for s in cur]
        else:
            maps.append(GradedMatrix.identity(F, cur))
    return fac_build(maps, cfg, "nu")


def rotate(x: Factorization, inverse: bool = False) -> Factorization:
    """Theta(X) = (X^1, ..., X^l, tau X^0); Theta^{l+1} = tau (twist + 1)."""
    d = x.cfg.d
    if not inverse:
        maps = list(x.maps[1:]) + [x.closing]
        closing = x.maps[0].shift(-d)  # tau(A^0)
        phase, twist = x.rot_phase + 1, x.twist
        if phase == x.l + 1:
            # a full cycle applied tau once: renormalize degrees, log the twist
            phase, twist = 0, twist + 1
            maps = [a.shift(d) for a in maps]
            closing = closing.shift(d)
        return Factorization(x.cfg, maps, closing, twist, phase)
    maps = [x.closing.shift(d)] + list(x.maps[:-1])  # tau^{-1}(A^l)
    closing = x.maps[-1]
    phase, twist = x.rot_phase - 1, x.twist
    if phase < 0:
        phase, twist = x.l, twist - 1
        maps = [a.shift(-d) for a in maps]
        closing = closing.shift(-d)
    return Factorization(x.cfg, maps, closing, twist, phase)


def contract(x: Factorization) -> Factorization:
    """gamma(X) = (X^0 -> X^l by the full composite), same closing; l = 1."""
    return Factorization(x.cfg, [prefix(x, x.l)], x.closing, x.twist)


# morphisms -------------------------------------------------------------------


class FacMap:
    """Componentwise graded maps f^0..f^l with commuting squares."""

    __slots__ = ("src", "tgt", "components")

    def __init__(self, src: Factorization, tgt: Factorization, components,
                 check: bool = True):
        if src.l != tgt.l:
            raise ValueError("shape mismatch")
        self.src = src
        self.tgt = tgt
        self.components = tuple(components)
        if len(self.components) != src.l + 1:
            raise ValueError("need l+1 components")
        if check:
            for j in range(src.l):
                lhs = tgt.maps[j] @ self.components[j]
                rhs = self.components[j + 1] @ src.maps[j]
                if lhs != rhs:
                    raise ValueError(f"square {j} does not commute")
            # the closing square follows from the others; check it anyway
            lhs = self.components[0].shift(-src.cfg.d) @ src.closing
            rhs = tgt.closing @ self.components[src.l]
            if lhs != rhs:
                raise FactorizationError(
                    "closing square broken despite commuting squares")

    @classmethod
    def identity(cls, x: Factorization) -> "FacMap":
        F = x.cfg.field
        comps = [GradedMatrix.identity(F, x.degs(k)) for k in range(x.l + 1)]
        return cls(x, x, comps, check=False)

    @classmethod
    def zero(cls, src: Factorization, tgt: Factorization) -> "FacMap":
        F = src.cfg.field
        comps = [
            GradedMatrix.zero(F, src.degs(k), tgt.degs(k))
            for k in range(src.l + 1)
        ]
        return cls(src, tgt, comps, check=False)

    def __matmul__(self, other: "FacMap") -> "FacMap":
        return FacMap(
            other.src, self.tgt,
            [f @ g for f, g in zip(self.components, other.components)],
            check=False,
        )

    def __add__(self, other: "FacMap") -> "FacMap":
        return FacMap(
            self.src, self.tgt,
            [f + g for f, g in zip(self.components, other.components)],
            check=False,
        )

    def scale(self, c) -> "FacMap":
        return FacMap(
            self.src, self.tgt, [f.scale(c) for f in self.components], check=False
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def is_iso(self) -> bool:
        return all(f.is_iso() for f in self.components)

    def scalars(self):
        """The components as k-matrices: the scalars of each f^j."""
        return [f.coeffs for f in self.components]

    def __eq__(self, other):
        return (
            isinstance(other, FacMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.components == other.components
        )

    def to_json(self):
        return {"components": [f.to_json() for f in self.components]}


# hom spaces ------------------------------------------------------------------


def _hom_positions(x: Factorization, y: Factorization):
    """Admissible monomial positions (row, col) of each component of a map
    x -> y: the entries where the source degree reaches the target's."""
    out = []
    for j in range(x.l + 1):
        xd, yd = x.degs(j), y.degs(j)
        out.append([])
        for r, t in enumerate(yd):
            for c, s in enumerate(xd):
                if s >= t:
                    out[-1].append((r, c))
    return out


def _hom_slots(x: Factorization, y: Factorization):
    """The positions of `_hom_positions` as (j, row, col) triples."""
    return [(j, r, c) for j, pos in enumerate(_hom_positions(x, y)) for r, c in pos]


def _facmap_to_vector(f: FacMap, slots):
    return [f.components[j].coeffs[r][c] for j, r, c in slots]


def fac_hom_basis(x: Factorization, y: Factorization):
    """k-basis of Hom(x, y): the commuting squares B^j f^j = f^{j+1} A^j,
    solved coefficientwise on the admissible positions (`endo.hom_space`),
    so the maps are built without re-checking their squares."""
    if x.cfg != y.cfg or x.l != y.l:
        raise ValueError("shape mismatch")
    F = x.cfg.field
    degs = [(x.degs(j), y.degs(j)) for j in range(x.l + 1)]
    unknowns = _hom_positions(x, y)
    squares = [(b.coeffs, a.coeffs,
                itertools.product(range(len(b.tgt_degs)), range(len(a.src_degs))))
               for a, b in zip(x.maps, y.maps)]
    return [FacMap(x, y, [
        GradedMatrix.from_coeffs(F, linalg.scatter(F, len(yd), len(xd), pos, vals), xd, yd)
        for (xd, yd), pos, vals in zip(degs, unknowns, sol)], check=False)
        for sol in hom_space(F, unknowns, squares)]


# adjunction transports ---------------------------------------------------------


def adjunction_transport(which: str, x: Factorization, data, k: int = None,
                         forward: bool = True):
    """The three adjunctions of the trivial factorizations, both directions.

    which = "nu_l_left":  Hom(nu^l(A), X) = Hom(A, X^0);       g <-> g^0
    which = "nu_k_left":  Hom(nu^{k-1}(A), X) = Hom(tau A, X^k); g <-> g^k
    which = "nu_k_right": Hom(X^k, B) = Hom(X, nu^k(B));        g^k <-> g

    Forward take a FacMap and return a GradedMatrix; backward take a
    GradedMatrix h and compose it with the composites around the cycle
    (`_around`) out of, or into, position k.
    """
    d = x.cfg.d
    l = x.l
    if which == "nu_l_left":
        if forward:
            return data.components[0]
        h = data  # A -> X^0
        comps = [_around(x, 0, j) @ h for j in range(l + 1)]
        return FacMap(nu(x.cfg, l, l, h.src_degs), x, comps)
    if which == "nu_k_left":
        if k is None or not (1 <= k <= l):
            raise ValueError("need k in 1..l")
        if forward:
            return data.components[k]
        h = data  # tau A -> X^k
        comps = [_around(x, k, j) @ h for j in range(l + 1)]
        # before position k, nu^{k-1}(A) is A: take the maps into tau X^j back
        comps[:k] = [g.shift(d) for g in comps[:k]]
        return FacMap(nu(x.cfg, l, k - 1, [s + d for s in h.src_degs]), x, comps)
    if which == "nu_k_right":
        if k is None or not (0 <= k <= l):
            raise ValueError("need k in 0..l")
        if forward:
            return data.components[k]
        h = data  # X^k -> B
        # past position k, nu^k(B) is tau B
        comps = [(h if j <= k else h.shift(-d)) @ _around(x, j, k)
                 for j in range(l + 1)]
        return FacMap(x, nu(x.cfg, l, k, h.tgt_degs), comps)
    raise ValueError(f"unknown adjunction {which!r}")


# nu-resolutions -----------------------------------------------------------------


class NuResolution(NamedTuple):
    middle: Factorization     # the trivial-sum object
    map: FacMap               # epic middle -> X, or monic X -> middle
    complement: Factorization  # kernel (epic side) / cokernel (monic side)
    complement_map: FacMap    # inclusion into / projection from middle


def fac_projective_cover(x: Factorization):
    """(P, p): P = nu^l(X^0) + sum_k nu^{k-1}(tau^{-1} X^k) and the epi
    p: P ->> X whose summands are the counits of the nu-adjunctions.

    The block of p^j on summand k is the composite X^k -> X^j around the
    cycle (`_around`), taken back by tau^{-1} when k > j.  The counits are
    the block columns of p, so its one check covers all their squares.
    """
    d, l = x.cfg.d, x.l
    summands = [nu(x.cfg, l, l, x.degs(0))] + [
        nu(x.cfg, l, k - 1, [s + d for s in x.degs(k)]) for k in range(1, l + 1)]
    middle = functools.reduce(Factorization.direct_sum, summands)
    comps = [functools.reduce(GradedMatrix.hstack, [
        _around(x, k, j) if k <= j else _around(x, k, j).shift(d) for k in range(l + 1)])
        for j in range(l + 1)]
    return middle, FacMap(middle, x, comps)


def _injective_hull(x: Factorization):
    """(I, i): I = sum_k nu^k(X^k) and the mono i: X >-> I whose block from
    X^j to summand k is the composite X^j -> X^k around the cycle (the
    units of the nu_k_right adjunctions)."""
    l = x.l
    middle = functools.reduce(Factorization.direct_sum,
                              [nu(x.cfg, l, k, x.degs(k)) for k in range(l + 1)])
    comps = [functools.reduce(GradedMatrix.vstack, [_around(x, j, k) for k in range(l + 1)])
             for j in range(l + 1)]
    return middle, FacMap(x, middle, comps)


def _slots(middle: Factorization, m: int, j: int):
    """(s, s_row, t, r) at position j of a nu-resolution's middle: the
    inclusion of slot j (summand j's copy of X^j, generators j*m ..
    j*m + m - 1) and the projection onto it, then the inclusion of the
    other slots and the projection onto them (r t = id, r s = 0)."""
    F = middle.cfg.field
    degs = middle.degs(j)
    mine = range(j * m, (j + 1) * m)
    out = ()
    for idx in (mine, [i for i in range(len(degs)) if i not in mine]):
        sub = [degs[i] for i in idx]
        incl = [[F.one if r == i else F.zero for i in idx] for r in range(len(degs))]
        proj = [[F.one if c == i else F.zero for c in range(len(degs))] for i in idx]
        out += (GradedMatrix.from_coeffs(F, incl, sub, degs),
                GradedMatrix.from_coeffs(F, proj, degs, sub))
    return out


def nu_resolution(x: Factorization, side: str = "epic") -> NuResolution:
    """Lemma-style termwise split resolution by trivial factorizations.

    side="epic":  the projective cover nu^l(X^0) + sum_k nu^{k-1}(tau^{-1}
                  X^k) ->> X, plus its kernel.
    side="monic": the injective hull X >-> sum_k nu^k(X^k), plus its
                  cokernel.

    At position j the structure map is the identity on slot j (`_slots`),
    so the complement is read off the other slots by a projection, with
    phi the middle's maps:
    - kernel: i_j = t - s p^j t, and the kernel maps are r phi^j i_j, the
      unique psi with phi^j i_j = i_{j+1} psi, as r i_{j+1} = id;
    - cokernel: q_j = r - r m^j s_row, and the cokernel maps are
      q_{j+1} phi^j t, as q_j t = id.
    """
    if side not in ("epic", "monic"):
        raise ValueError("side must be 'epic' or 'monic'")
    middle, f = fac_projective_cover(x) if side == "epic" else _injective_hull(x)
    sel = [_slots(middle, x.m, j) for j in range(x.l + 1)]
    if side == "epic":
        incl = [t - s @ (f.components[j] @ t) for j, (s, _, t, _) in enumerate(sel)]
        ker = fac_build([r @ middle.maps[j] @ incl[j]
                         for j, (_, _, _, r) in enumerate(sel[1:])], x.cfg, "kernel")
        return NuResolution(middle, f, ker, FacMap(ker, middle, incl))
    proj = [r - (r @ f.components[j]) @ s_row for j, (_, s_row, _, r) in enumerate(sel)]
    cok = fac_build([proj[j + 1] @ middle.maps[j] @ t
                     for j, (_, _, t, _) in enumerate(sel[:-1])], x.cfg, "cokernel")
    return NuResolution(middle, f, cok, FacMap(middle, cok, proj))


def termwise_split_check(res: NuResolution, side: str) -> bool:
    """The SES mono >-> middle ->> epi is termwise split exact: epi mono = 0
    and, at each position, epi has the section as a right inverse and
    [section | mono] is an iso; the section is the inclusion of slot j
    (epic side) or of the other slots (monic side)."""
    if side == "epic":
        x, mono, epi = res.map.tgt, res.complement_map, res.map
    else:
        x, mono, epi = res.map.src, res.map, res.complement_map
    if not (epi @ mono).is_zero():
        return False
    for j in range(res.middle.l + 1):
        s, _, t, _ = _slots(res.middle, x.m, j)
        section, e = (s if side == "epic" else t), epi.components[j]
        if (e @ section != GradedMatrix.identity(x.cfg.field, e.tgt_degs)
                or not section.hstack(mono.components[j]).is_iso()):
            return False
    return True


# stable homs --------------------------------------------------------------------


def fac_stable_hom_dim(x: Factorization, y: Factorization) -> int:
    """dim Hom(x, y) modulo maps factoring through projectives."""
    return stable_dim(x.cfg.field, fac_hom_basis, fac_projective_cover, x, y)


def fac_projective_test(x: Factorization) -> bool:
    """x is projective iff its identity dies in the stable category."""
    return fac_stable_hom_dim(x, x) == 0


# isomorphism and indecomposability -----------------------------------------------


def fac_iso_test(x: Factorization, y: Factorization, seed: int = 0) -> bool:
    """True iff x and y are isomorphic in Fac (twist ignored)."""
    if x.cfg != y.cfg or x.l != y.l:
        return False
    if x.m != y.m:
        return False
    for k in range(x.l + 1):
        if sorted(x.degs(k)) != sorted(y.degs(k)):
            return False
    if x.is_zero():
        return True
    return search_iso(x.cfg.field, [f.scalars() for f in fac_hom_basis(x, y)],
                      seed)


def fac_is_indecomposable(x: Factorization) -> bool:
    """x is nonzero and End(x) is local (see endo.is_local)."""
    if x.is_zero():
        return False
    F = x.cfg.field
    return is_local(F, [linalg.block_diagonal(F, f.scalars())
                        for f in fac_hom_basis(x, x)])
