import random

import pytest

from facto.chains import (
    ChainMap,
    MonoChain,
    chain_hom_basis,
    chain_iso_test,
    chain_projective_cover,
    chain_projective_test,
    chain_stable_hom_dim,
    chain_validate,
    iota_embed,
    mu_trivial,
)
from facto.census import MatchFailure, _flag_chain
from facto.fields import GF, QQ
from facto.linalg import Echelon
from facto.modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    hom_basis,
    is_mono_epi,
    lift,
    projective_cover,
    submodule,
)
from reference import realization, scalars


def cfg(d, field=QQ):
    return HypersurfaceConfig(d, field)


def incl_k_in_R2(c):
    """k(1) >-> R/(x^2)(0): the socle inclusion, for d >= 2."""
    k1 = RModule(c, [(1, 1)])
    r2 = RModule(c, [(2, 0)])
    f = ModuleMap(k1, r2, [[c.field.one]])
    return MonoChain(c, [k1, r2], [f])


# -- validation ----------------------------------------------------------------


def test_single_object_chain():
    c = cfg(2)
    u = MonoChain(c, [RModule(c, [(1, 0)])], [])
    assert chain_validate(u) is True
    assert u.length == 1


def test_identity_chain_valid():
    c = cfg(2)
    m = RModule(c, [(2, 0)])
    u = MonoChain(c, [m, m], [ModuleMap.identity(m)])
    assert chain_validate(u) is True


def test_zero_map_from_nonzero_invalid():
    c = cfg(2)
    m = RModule(c, [(1, 0)])
    with pytest.raises(ValueError):
        MonoChain(c, [m, m], [ModuleMap.zero(m, m)])
    v = chain_validate(MonoChain(c, [m, m], [ModuleMap.zero(m, m)], check=False))
    assert not v and v.index == 0


def test_socle_inclusion_valid():
    u = incl_k_in_R2(cfg(2))
    assert chain_validate(u) is True


# -- trivial chains -------------------------------------------------------------


def test_mu_trivial_shapes():
    c = cfg(2)
    a = RModule(c, [(2, 0)])
    u = mu_trivial(a, 1, 2)
    assert u.objects[0].is_zero() and u.objects[1] == a
    v = mu_trivial(a, 2, 2)
    assert v.objects == (a, a)
    w = mu_trivial(RModule(c, [(1, 0)]), 2, 3)
    assert w.objects[0].is_zero() and not w.objects[1].is_zero()
    for ch in (u, v, w):
        assert chain_validate(ch) is True


def test_iota_embed():
    c = cfg(2)
    a = RModule(c, [(2, 0)])
    u = mu_trivial(a, 1, 2)
    v = iota_embed(u)
    assert v.length == 3
    assert v.objects[0].is_zero()
    assert chain_validate(v) is True
    assert v == mu_trivial(a, 1, 3)


# -- projectivity ---------------------------------------------------------------


def test_projective_test_trivial_free():
    c = cfg(2)
    r = RModule.free(c, [0])
    assert chain_projective_test(mu_trivial(r, 2, 2))
    assert chain_projective_test(mu_trivial(r, 1, 2))
    k = RModule(c, [(1, 0)])
    assert not chain_projective_test(mu_trivial(k, 2, 2))


def test_projective_test_socle_inclusion():
    # k(1) >-> R/(x^2)(0): top object free, bottom not -> not projective.
    # (multiplication-by-x maps between frees are never mono over R, and any
    # genuine mono between frees splits since R is self-injective.)
    c = cfg(2)
    u = incl_k_in_R2(c)
    assert not chain_projective_test(u)


def test_projective_cover_random():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for d in (2, 3):
            c = cfg(d, field)
            for _ in range(10):
                u = random_chain(c, rng, length=rng.randrange(1, 4))
                p_chain, p = chain_projective_cover(u)
                assert chain_projective_test(p_chain)
                from facto.modules import is_mono_epi

                for f in p.parts:
                    assert is_mono_epi(f)[1]  # componentwise epi


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_projective_cover_is_the_sum_of_trivial_chains(field):
    """Component k of P holds the free covers of U^0 .. U^k in order, each
    mono is the inclusion of the prefix, and p^k is epi and is q^k on the
    last block."""
    rng = random.Random(71)
    F = field
    for d in (1, 2, 3):
        c = cfg(d, field)
        chains = [MonoChain.zero(c, n) for n in range(1, 5)]
        chains += [random_chain(c, rng, rng.randrange(1, 5), max_summands=3)
                   for _ in range(12)]
        for u in chains:
            p_chain, p = chain_projective_cover(u)
            assert p_chain.length == p.src.length == u.length and p.tgt is u
            gens = []
            for k, (obj, f) in enumerate(zip(p_chain.objects, p.parts)):
                prev = len(gens)
                gens += [(d, s) for _, s in u.objects[k].summands]
                assert obj.summands == tuple(gens), (u, k)
                if k:
                    assert p_chain.maps[k - 1].blocks == tuple(
                        tuple(F.one if r == t else F.zero for t in range(prev))
                        for r in range(len(gens))), (u, k)
                assert f.src == obj and f.tgt == u.objects[k]
                assert is_mono_epi(f)[1], (u, k)
                assert (tuple(row[prev:] for row in f.blocks)
                        == projective_cover(u.objects[k])[1].blocks), (u, k)


def random_chain(c, rng, length=2, max_summands=2):
    """Random valid chain built by stacking random monos onto submodules."""
    from facto.modules import map_ker_cok_im

    # pick a top module, then random submodule chain via kernels of random maps
    def random_module():
        return RModule(
            c,
            [
                (rng.randrange(1, c.d + 1), rng.randrange(0, 3))
                for _ in range(rng.randrange(0, max_summands + 1))
            ],
        )

    top = random_module()
    objs = [top]
    incls = []
    for _ in range(length - 1):
        cur = objs[0]
        tgt = random_module()
        basis = hom_basis(cur, tgt)
        if basis:
            f = basis[0]
            for g in basis[1:]:
                f = f + g.scale(c.field.from_int(rng.randrange(-2, 3)))
            (ker, incl), _, _ = map_ker_cok_im(f)
        else:
            ker, incl = cur, ModuleMap.identity(cur)
        objs.insert(0, ker)
        incls.insert(0, incl)
    return MonoChain(c, objs, incls)


# -- hom spaces -------------------------------------------------------------------


def test_chain_hom_contains_identity():
    c = cfg(2)
    u = incl_k_in_R2(c)
    basis = chain_hom_basis(u, u)
    ident = ChainMap.identity(u)
    # identity is in the span: check dims and membership via iso search
    assert len(basis) >= 1
    assert chain_iso_test(u, u)
    span = Echelon(c.field)
    for f in basis:
        span.add([x for m in scalars(f) for row in m for x in row])
    assert span.contains([x for m in scalars(ident) for row in m for x in row])


def test_chain_hom_rejects_different_lengths():
    c = cfg(2, GF(5))
    u = incl_k_in_R2(c)
    for v in (iota_embed(u), MonoChain.zero(c, 3), MonoChain.zero(c, 1)):
        with pytest.raises(ValueError, match="chain lengths differ"):
            chain_hom_basis(u, v)
        with pytest.raises(ValueError, match="chain lengths differ"):
            chain_stable_hom_dim(u, v)


def test_chain_hom_zero_target():
    c = cfg(2)
    u = incl_k_in_R2(c)
    z = MonoChain.zero(c, 2)
    assert chain_hom_basis(u, z) == []


def test_chain_hom_mu_alignment():
    c = cfg(2)
    k = RModule(c, [(1, 0)])
    u = mu_trivial(k, 1, 2)  # 0 >-> k
    v = mu_trivial(k, 2, 2)  # k = k
    basis = chain_hom_basis(u, v)
    assert len(basis) == 1


# -- stable homs -------------------------------------------------------------------


def test_stable_hom_vanishes_on_projectives():
    rng = random.Random(5)
    c = cfg(2, GF(5))
    r = RModule.free(c, [0])
    proj = mu_trivial(r, 2, 2)
    for _ in range(10):
        u = random_chain(c, rng, length=2)
        assert chain_stable_hom_dim(u, proj) == 0
        assert chain_stable_hom_dim(proj, u) == 0


def test_stable_hom_additive():
    rng = random.Random(9)
    c = cfg(3, GF(5))
    for _ in range(5):
        u = random_chain(c, rng, length=2)
        v = random_chain(c, rng, length=2)
        w = random_chain(c, rng, length=2)
        lhs = chain_stable_hom_dim(u.direct_sum(v), w)
        rhs = chain_stable_hom_dim(u, w) + chain_stable_hom_dim(v, w)
        assert lhs == rhs


def test_stable_hom_socle():
    # d=2: stable End of mu_2(k) is nonzero (k not projective)
    c = cfg(2)
    k = RModule(c, [(1, 0)])
    u = mu_trivial(k, 2, 2)
    assert chain_stable_hom_dim(u, u) >= 1


# -- isomorphism --------------------------------------------------------------------


def test_iso_reflexive_and_shift_sensitive():
    c = cfg(2, GF(5))
    u = incl_k_in_R2(c)
    assert chain_iso_test(u, u)
    assert not chain_iso_test(u, u.shift(1))


def test_iso_rejects_different_modules():
    c = cfg(2)
    k = RModule(c, [(1, 0)])
    r = RModule.free(c, [0])
    assert not chain_iso_test(mu_trivial(k, 2, 2), mu_trivial(r, 2, 2))


def test_iso_direct_sum_reorder():
    c = cfg(2, GF(5))
    a = mu_trivial(RModule(c, [(1, 0)]), 2, 2)
    b = mu_trivial(RModule.free(c, [0]), 1, 2)
    assert chain_iso_test(a.direct_sum(b), b.direct_sum(a))


def test_iso_distinguishes_socle_from_sum():
    # (k(1) >-> R/(x^2)) is NOT iso to (k(1) >-> k(1) + k(0))... the latter
    # is not even a valid comparison since objects differ; instead compare
    # two non-isomorphic chains with the same objects:
    # u: k(1) >-> R2 socle inclusion; v: 0-map forbidden, so use
    # w = mu-style chain k(1) >-> k(1) + R2/(socle)? Simplest same-object
    # distinct chains need l >= 2 with summand mixing; covered by census tests.
    c = cfg(2, GF(5))
    u = incl_k_in_R2(c)
    assert chain_iso_test(u, u)


def socle_or_side(c, side):
    """k(1) >-> R/(x^2) + k(1), into the socle of R/(x^2) (side 0) or onto
    the summand k(1) (side 1): two chains on the same objects, with
    cokernels k + k(1) and R/(x^2), so not isomorphic; d >= 2."""
    F = c.field
    k1, top = RModule(c, [(1, 1)]), RModule(c, [(2, 0), (1, 1)])
    blocks = [[F.one], [F.zero]] if side == 0 else [[F.zero], [F.one]]
    return MonoChain(c, [k1, top], [ModuleMap(k1, top, blocks)])


def test_chain_json_round_trip():
    c = cfg(2, GF(5))
    u = incl_k_in_R2(c)
    assert MonoChain.from_json(c, u.to_json()) == u


# -- oracles for the generator-coordinate hom basis and projectivity -----------


def _chain_hom_basis_by_realizations(u, v):
    """Reference: one equation per realization entry of v.maps[i] f^i -
    f^{i+1} u.maps[i], from realization products."""
    from facto.linalg import combination, mat_mul, nullspace

    F = u.cfg.field
    comp_bases = [hom_basis(a, b) for a, b in zip(u.objects, v.objects)]
    offsets = [0]
    for b in comp_bases:
        offsets.append(offsets[-1] + len(b))
    total = offsets[-1]
    if total == 0:
        return []
    reals = [[realization(g) for g in basis] for basis in comp_bases]
    rows = []
    for i in range(u.length - 1):
        n_rows, n_cols = v.objects[i + 1].dim, u.objects[i].dim
        if n_rows * n_cols == 0:
            continue
        after, before = realization(v.maps[i]), realization(u.maps[i])
        cols = [mat_mul(F, after, g) for g in reals[i]]
        cols += [[[F.neg(c) for c in row] for row in mat_mul(F, g, before)]
                 for g in reals[i + 1]]
        for r in range(n_rows):
            for c in range(n_cols):
                row = [F.zero] * total
                row[offsets[i]:offsets[i + 2]] = [m[r][c] for m in cols]
                rows.append(row)
    out = []
    for sol in nullspace(F, rows, cols=total):
        parts = []
        for i, basis in enumerate(comp_bases):
            a, b = u.objects[i], v.objects[i]
            blocks = combination(F, sol[offsets[i]:offsets[i + 1]],
                                 [g.blocks for g in basis],
                                 len(b.summands), len(a.summands))
            parts.append(ModuleMap(a, b, blocks, check=False))
        out.append(ChainMap(u, v, parts))
    return out


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_chain_hom_basis_equals_the_realization_equations(field):
    """The block equations give the same ChainMaps in the same order."""
    rng = random.Random(41)
    sizes = []
    for d in (1, 2, 3):
        c = cfg(d, field)
        for _ in range(25):
            length = rng.randrange(1, 4)
            u, v = random_chain(c, rng, length), random_chain(c, rng, length)
            got = chain_hom_basis(u, v)
            assert got == _chain_hom_basis_by_realizations(u, v), (u, v)
            sizes.append(len(got))
    assert max(sizes) >= 3 and 0 in sizes


def _projective_by_split_monos(u):
    """Reference: every object free and every mono with a free cokernel."""
    from facto.modules import map_ker_cok_im

    return (all(m.is_free() for m in u.objects)
            and all(map_ker_cok_im(f)[1][0].is_free() for f in u.maps))


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_projective_test_equals_the_split_definition(field):
    """On random chains and on sums of trivial chains on free modules, with
    both verdicts occurring."""
    rng = random.Random(43)
    verdicts = []
    for d in (1, 2, 3):
        c = cfg(d, field)
        for _ in range(20):
            length = rng.randrange(1, 4)
            chains = [random_chain(c, rng, length)]
            trivial = [mu_trivial(RModule.free(c, [rng.randrange(0, 3)]),
                                  rng.randrange(1, length + 1), length)
                       for _ in range(rng.randrange(1, 4))]
            for t in trivial[1:]:
                trivial[0] = trivial[0].direct_sum(t)
            chains += [trivial[0], trivial[0].direct_sum(chains[0])]
            for u in chains:
                verdicts.append(chain_projective_test(u))
                assert verdicts[-1] == _projective_by_split_monos(u), u
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def _chain_hom_basis_by_block_products(u, v):
    """Reference: one equation per generator block of v.maps[i] f^i -
    f^{i+1} u.maps[i], read off the normalized block products with the
    elementary basis maps."""
    from facto.linalg import combination, nullspace

    F = u.cfg.field
    comp_bases = [hom_basis(a, b) for a, b in zip(u.objects, v.objects)]
    offsets = [0]
    for b in comp_bases:
        offsets.append(offsets[-1] + len(b))
    total = offsets[-1]
    if total == 0:
        return []
    rows = []
    for i in range(u.length - 1):
        cols = [(v.maps[i] @ g).blocks for g in comp_bases[i]]
        cols += [(-(g @ u.maps[i])).blocks for g in comp_bases[i + 1]]
        for r in range(len(v.objects[i + 1].summands)):
            for c in range(len(u.objects[i].summands)):
                row = [F.zero] * total
                row[offsets[i]:offsets[i + 2]] = [m[r][c] for m in cols]
                rows.append(row)
    out = []
    for sol in nullspace(F, rows, cols=total):
        parts = []
        for i, basis in enumerate(comp_bases):
            a, b = u.objects[i], v.objects[i]
            blocks = combination(F, sol[offsets[i]:offsets[i + 1]],
                                 [g.blocks for g in basis],
                                 len(b.summands), len(a.summands))
            parts.append(ModuleMap(a, b, blocks, check=False))
        out.append(ChainMap(u, v, parts))
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_chain_hom_basis_equals_the_block_product_equations(field):
    """The same ChainMaps in the same order as the block products give,
    on chains whose monos send a generator into x gen_q (d >= 2), where
    a product with an elementary map can leave the target's survival
    range."""
    rng = random.Random(47)
    sizes = []
    for d in (2, 3, 4):
        c = cfg(d, field)
        for _ in range(20):
            length = rng.randrange(2, 4)
            u = random_chain(c, rng, length, max_summands=3)
            v = random_chain(c, rng, length, max_summands=3)
            for a, b in ((u, v), (v, u), (u, u)):
                got = chain_hom_basis(a, b)
                assert got == _chain_hom_basis_by_block_products(a, b), (a, b)
                sizes.append(len(got))
    assert max(sizes) >= 6 and 0 in sizes


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_lift_through_a_mono_undoes_composition(field):
    """lift(g, g f) = f for the consecutive monos f, g of random chains;
    the identity of the top lifts through the mono into it iff that mono
    is onto; and a flag member that does not lie in the next one stops
    the census's flag chain."""
    rng = random.Random(53)
    onto = []
    for d in (2, 3, 4):
        c = cfg(d, field)
        for _ in range(10):
            f, g = random_chain(c, rng, 3, max_summands=3).maps
            assert lift(g, g @ f) == f
            onto.append(is_mono_epi(g)[1])
            assert (lift(g, ModuleMap.identity(g.tgt)) is None) is not onto[-1]
    assert set(onto) == {True, False}
    c = cfg(2, field)
    top = RModule(c, [(2, 0)])
    socle = submodule(top, {1: [[field.one]]})  # x R inside R = k[x]/(x^2)
    assert _flag_chain(c, top, [socle]).objects == (socle.src, top)
    with pytest.raises(MatchFailure, match="does not factor"):
        _flag_chain(c, top, [ModuleMap.identity(top), socle])
