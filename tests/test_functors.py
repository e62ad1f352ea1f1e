import random

import pytest

from facto.census import enumerate_factorizations
from facto.chains import (
    ChainMap,
    MonoChain,
    chain_hom_basis,
    chain_iso_test,
    mu_trivial,
)
from facto.factorizations import (
    FacMap,
    _cover_rows,
    fac_hom_basis,
    fac_stable_hom_dim,
    fac_walks,
    nu,
    zigzag_check,
)
from facto.fields import GF, QQ
from facto.functors import (
    cok,
    cok_exactness_check,
    induced_cok_map,
    jq_sequence,
    reconstruct,
    to_ldiagram,
)
from facto.linalg import nullspace, rank
from facto.modules import HypersurfaceConfig, ModuleMap, RModule
from facto.randgen import (
    random_chain,
    random_factorization,
    random_split_ses,
    rank1_factorization,
)
from reference import module_iso, scalars


def cfg(d, field=QQ):
    return HypersurfaceConfig(d, field)


# -- cok ------------------------------------------------------------------------


def test_cok_rank1():
    c = cfg(3)
    for i in (1, 2):
        x = rank1_factorization(c, [i])
        chain = cok(x)
        assert chain.length == 1
        assert chain.objects[0].summands == ((i, -i),)


def test_cok_nu_l_zero_chain():
    c = cfg(2)
    x = nu(c, 2, 2, [0, 1])
    chain = cok(x)
    assert chain.is_zero()


def test_cok_nu_0_constant_free_chain():
    c = cfg(2)
    x = nu(c, 2, 0, [0])
    chain = cok(x)
    # U^k = cok(x^2: S(0) -> tau S(0)) = R(-2)-style free module for all k
    assert chain.length == 2
    assert all(m.is_free() and m.dim == 2 for m in chain.objects)
    assert chain_iso_test(chain, mu_trivial(chain.objects[1], 2, 2))


def test_cok_additive():
    rng = random.Random(21)
    c = cfg(2, GF(5))
    for _ in range(5):
        x = random_factorization(c, 2, rng, m_max=2)
        y = random_factorization(c, 2, rng, m_max=2)
        lhs = cok(x.direct_sum(y))
        rhs = cok(x).direct_sum(cok(y))
        assert chain_iso_test(lhs, rhs)


def test_cok_intermediate_quotients():
    # cok(U^j >-> U^k) = cok(X^j >-> X^k) for the chain vs matrix composites
    from facto.factorizations import between
    from facto.modules import map_ker_cok_im, presentation_cokernel

    rng = random.Random(23)
    c = cfg(3, GF(5))
    for _ in range(5):
        x = random_factorization(c, 2, rng, m_max=2)
        chain = cok(x)
        # j=1 < k=2 (1-based chain positions)
        f = chain.maps[0]
        _, (cok_chain, _), _ = map_ker_cok_im(f)
        mod = presentation_cokernel(between(x, 1, 2), c)[0].tgt
        assert module_iso(cok_chain, mod)


# -- jq sequence -------------------------------------------------------------------


def test_jq_on_nu_l():
    c = cfg(2)
    x = nu(c, 1, 1, [0])
    j, q, chain = jq_sequence(x)
    assert chain.is_zero()
    assert all(f.is_zero() for f in q)


def test_jq_on_xx():
    c = cfg(2)
    x = rank1_factorization(c, [1])
    j, q, chain = jq_sequence(x)  # exactness asserted inside
    assert chain.length == 2
    assert chain.objects[0].is_zero()
    assert chain.objects[1].summands == ((1, -1),)


def test_jq_random():
    rng = random.Random(31)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d, GF(5))
        for _ in range(8):
            x = random_factorization(c, l, rng)
            jq_sequence(x)  # must not raise


# -- L-diagram ----------------------------------------------------------------------


def test_ldiagram_xx():
    c = cfg(2)
    x = rank1_factorization(c, [1])
    ld = to_ldiagram(x)
    assert ld.validate(c)
    assert ld.iota == x.maps[0]
    assert ld.rho.tgt.summands == ((1, -1),)


def test_ldiagram_nu_l():
    c = cfg(2)
    x = nu(c, 1, 1, [0])
    ld = to_ldiagram(x)
    assert ld.validate(c)
    assert ld.chain.is_zero()


def test_ldiagram_random():
    rng = random.Random(37)
    c = cfg(3, GF(5))
    for _ in range(10):
        x = random_factorization(c, 2, rng)
        assert to_ldiagram(x).validate(c)


# -- reconstruct ----------------------------------------------------------------------


def test_reconstruct_k_module():
    from facto.chains import MonoChain

    c = cfg(2)
    k = RModule(c, [(1, 0)])
    u = MonoChain(c, [k], [])
    x = reconstruct(u)
    assert x.l == 1 and x.m == 1
    # X^0 = (x) inside S(0): the (x, x) factorization
    assert x.maps[0].mat.entries[0][0].degree == 1
    assert chain_iso_test(cok(x), u)


def test_reconstruct_zero_chain():
    from facto.chains import MonoChain

    c = cfg(2)
    u = MonoChain.zero(c, 2)
    x = reconstruct(u)
    assert x.m == 0
    assert cok(x).is_zero()


def test_reconstruct_free_chain():
    c = cfg(2)
    r = RModule.free(c, [0])
    u = mu_trivial(r, 2, 2)
    x = reconstruct(u)
    assert chain_iso_test(cok(x), u)


def test_round_trip_a_random():
    rng = random.Random(41)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d, GF(5))
        for _ in range(10):
            u = random_chain(c, l, rng)
            x = reconstruct(u)
            assert zigzag_check(x) is True
            assert chain_iso_test(cok(x), u)


def test_round_trip_b_stable_probe():
    rng = random.Random(43)
    c = cfg(2, GF(5))
    probes = [nu(c, 1, 0, [0]), rank1_factorization(c, [1]),
              rank1_factorization(c, [1], deg0=1)]
    for _ in range(5):
        x = random_factorization(c, 1, rng)
        y = reconstruct(cok(x))
        for b in probes:
            assert fac_stable_hom_dim(x, b) == fac_stable_hom_dim(y, b)


# -- exactness of cok ---------------------------------------------------------------------


def test_cok_exactness_plain_sum():
    rng = random.Random(47)
    c = cfg(2, GF(5))
    i, p = random_split_ses(c, 1, rng, tries=0)  # forces plain direct sum
    assert cok_exactness_check(i, p)


def test_cok_exactness_random():
    rng = random.Random(53)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d, GF(5))
        for _ in range(8):
            i, p = random_split_ses(c, l, rng)
            assert cok_exactness_check(i, p)


def test_cok_exactness_malformed():
    rng = random.Random(59)
    c = cfg(2, GF(5))
    i, p = random_split_ses(c, 1, rng)
    i2, _ = random_split_ses(c, 1, rng)
    if i2.tgt != p.src:
        with pytest.raises(ValueError):
            cok_exactness_check(i2, p)


# -- reconstruct against its map_ker_cok_im version ------------------------------


# -- cok on morphisms ---------------------------------------------------------


def _census_homs(d, l, field=GF(5), m=2, window=2):
    """(classes, homs): the factorization classes over `field` at (d, l)
    within rank m and `window`, projectives included, and homs[i, j] the
    fac_hom_basis maps from class i to class j with their induced cok
    maps."""
    classes = enumerate_factorizations(cfg(d, field), l, m, window)
    homs = {}
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            homs[i, j] = [(f, induced_cok_map(f)) for f in fac_hom_basis(x, y)]
    return classes, homs


@pytest.mark.parametrize("d, l, pairs, p, m, window", [
    (3, 2, 121, 5, 2, 2), (3, 3, 784, 5, 2, 2), (4, 2, 441, 2, 3, 3),
    (2, 2, 36, 5, 2, 2), (3, 1, 16, 5, 1, 3), (3, 2, 121, 2, 3, 3)],
    ids=["3-2-121", "3-3-784", "4-2-441-GF(2)", "2-2-36", "3-1-16", "3-2-121-GF(2)"])
def test_cok_maps_are_chain_maps_that_span_the_chain_homs(d, l, pairs, p, m, window):
    """cok of each basis map between two classes is a checked ChainMap of
    their cok chains, and these images span every chain hom between them:
    over F_5 with m=2, window=2 (m=1, window=3 at l=1), and at (d, l) =
    (4, 2) and (3, 2) over F_2 with m=3, window=3.  The kernel of cok on Hom(X, Y), read on component l, is the
    span of the maps through the nu^l counit that hom_dim_compare takes."""
    F = GF(p)
    classes, homs = _census_homs(d, l, F, m, window)
    assert len(homs) == pairs
    coks = [cok(x) for x in classes]
    walks = [fac_walks(x) for x in classes]
    killed = 0
    for (i, j), maps in homs.items():
        images = [ChainMap(coks[i], coks[j], parts) for _, parts in maps]
        basis = chain_hom_basis(coks[i], coks[j])
        rows = [[c for m in scalars(h) for row in m for c in row]
                for h in images + basis]
        assert rank(F, rows[:len(images)]) == rank(F, rows) == len(basis), (i, j)
        # the combinations of the basis maps that cok sends to 0
        kernel = nullspace(F, [list(col) for col in zip(*rows[:len(images)])], len(maps))
        flat = [[c for row in f.components[-1].coeffs for c in row] for f, _ in maps]
        kernel = [[sum((F.mul(a, v[n]) for a, v in zip(k, flat)), F.zero)
                   for n in range(len(flat[0]))] for k in kernel]
        counit = _cover_rows(classes[i], classes[j], (walks[i], walks[j]), 0)
        assert rank(F, kernel) == rank(F, counit) == rank(F, kernel + counit), (i, j)
        killed += bool(kernel)
    assert killed


def test_cok_is_a_functor_on_the_census_classes():
    """cok(id) = id, and cok(g f) = cok g cok f over every composable pair
    of basis maps between the classes at d=3, l=2 over F_5."""
    classes, homs = _census_homs(3, 2)
    for x in classes:
        assert induced_cok_map(FacMap.identity(x)) == [
            ModuleMap.identity(m) for m in cok(x).objects]
    composed = 0
    for (i, j), maps in homs.items():
        for k in range(len(classes)):
            for f, cf in maps:
                for g, cg in homs[j, k]:
                    assert induced_cok_map(g @ f) == [b @ a for b, a in zip(cg, cf)]
                    composed += 1
    assert composed > 100


# the census workload's censuses (F_5) and Ringel-Schmidt d=3 over F_2
COK_CENSUSES = [(2, 2, 5, 2, 2), (2, 3, 5, 2, 2), (1, 2, 5, 1, 2), (1, 3, 5, 1, 3),
                (1, 4, 5, 1, 4), (2, 3, 2, 3, 3)]


def _assert_cok_is_the_quotient_version(x):
    """cok(x) has the objects of `cok_by_quotient(x)`, and the maps phi_k
    with p_k = phi_k o p_ref_k between their projections are module isos
    that form a checked ChainMap: the two chains are isomorphic."""
    from facto.functors import _cokernels
    from facto.modules import is_mono_epi
    from reference import cok_by_quotient, factor_through

    refs, want = cok_by_quotient(x)
    got = cok(x)
    assert got.objects == want.objects
    phis = [factor_through(ref, p) for ref, (p, _) in zip(refs, _cokernels(x))]
    assert all(is_mono_epi(phi) == (True, True) for phi in phis)
    ChainMap(want, got, phis)


@pytest.mark.parametrize("l, d, p, m, window", COK_CENSUSES,
                         ids=[f"l{l}-d{d}-F{p}" for l, d, p, _, _ in COK_CENSUSES])
def test_cok_is_the_quotient_version_on_the_census_classes(l, d, p, m, window):
    """cok by graded elimination is chain-isomorphic to cok through the
    realization's quotient on every factorization class, projectives
    included."""
    classes = enumerate_factorizations(cfg(d, GF(p)), l, m, window)
    assert len(classes) > 2
    for x in classes:
        _assert_cok_is_the_quotient_version(x)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_cok_is_the_quotient_version_on_random_factorizations(field):
    """The same on random factorizations with d <= 4 and l <= 3, and on
    direct sums of two of them."""
    rng = random.Random(61)
    for d in (1, 2, 3, 4):
        for l in (1, 2, 3):
            x, y = (random_factorization(cfg(d, field), l, rng, m_max=2) for _ in range(2))
            for z in (x, y, x.direct_sum(y)):
                _assert_cok_is_the_quotient_version(z)


def test_cokernels_take_no_quotient_and_no_graded_solve(monkeypatch):
    """presentation_cokernel, cok, induced_cok_map and to_ldiagram build no
    realization quotient, complement or Jordan form and solve no graded
    system: those functions and `GradedMatrix.solve` raise wherever facto
    holds them, and the calls still give the chains they gave before."""
    import sys

    from facto.factorizations import prefix
    from facto.modules import presentation_cokernel
    from facto.polymat import GradedMatrix

    rng = random.Random(67)
    xs = [random_factorization(cfg(d, field), l, rng) for d, l, field in
          ((2, 1, QQ), (3, 2, GF(5)), (4, 3, GF(2)), (3, 3, GF(3)))]
    maps = [FacMap.identity(x) for x in xs]
    want = [cok(x) for x in xs]

    def refuse(*args, **kwargs):
        raise AssertionError("the cokernels took a quotient or a graded solve")

    names = {"quotient", "complement", "jordan"}
    for name, mod in list(sys.modules.items()):
        if name.startswith("facto"):
            for attr in names & set(vars(mod)):
                monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(GradedMatrix, "solve", refuse)
    assert [cok(x) for x in xs] == want
    for x, f in zip(xs, maps):
        assert [presentation_cokernel(prefix(x, k), x.cfg)[0].tgt
                for k in range(1, x.l + 1)] == list(cok(x).objects)
        assert induced_cok_map(f) == [ModuleMap.identity(m) for m in cok(x).objects]
        assert to_ldiagram(x).chain == cok(x)


def _reconstruct_by_cokernels(u):
    """Reference: X^k is the preimage of ker(U^l ->> cok(U^k -> U^l)) under
    the cover p, taken from map_ker_cok_im (X^0: the kernel of p)."""
    from facto.factorizations import fac_build
    from facto.functors import span_preimage_inclusion
    from facto.linalg import mat_mul
    from facto.modules import ModuleMap, map_ker_cok_im, projective_cover, submodule
    from facto.polymat import GradedMatrix
    from reference import graded_solve, homogeneous_kernel, realization, split

    c, F, l = u.cfg, u.cfg.field, u.length
    top = u.objects[-1]
    degs_l = [s for _, s in top.summands]
    _, p = projective_cover(top)
    free = RModule.free(c, degs_l)
    fdegs = free.basis_degrees()
    inclusions = []
    for k in range(l):
        if k == 0:
            quot_proj = realization(p)
        else:
            comp = ModuleMap.identity(u.objects[k - 1])
            for i in range(k - 1, l - 1):
                comp = u.maps[i] @ comp
            _, (_, proj), _ = map_ker_cok_im(comp)
            quot_proj = mat_mul(F, realization(proj), realization(p))
        inclusions.append(span_preimage_inclusion(c, submodule(
            free, split(F, fdegs, homogeneous_kernel(F, fdegs, quot_proj)))))
    inclusions.append(GradedMatrix.identity(F, degs_l))
    maps = [graded_solve(inclusions[k + 1], inclusions[k]) for k in range(l)]
    return fac_build(maps, c, "reconstruction")


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_reconstruct_equals_the_cokernel_version(field):
    """Same to_json on random chains of lengths 1-3 and on zero chains."""
    rng = random.Random(47)
    for d in (1, 2, 3, 4):
        c = cfg(d, field)
        chains = [MonoChain.zero(c, length) for length in (1, 2, 3)]
        chains += [random_chain(c, rng.randrange(1, 4), rng) for _ in range(20)]
        for u in chains:
            assert (reconstruct(u).to_json()
                    == _reconstruct_by_cokernels(u).to_json()), u


def test_flag_factorization_rejects_a_member_outside_the_next():
    """X^0 = S does not lie in X^1 = xS: FactorizationError, which the CLI
    maps to exit 2, and not the solver's NoSolution; in the other order
    the same members build a factorization.  A singular member, first or
    later, is refused with FactorizationError too."""
    from facto.factorizations import FactorizationError
    from facto.functors import flag_factorization
    from facto.polymat import GradedMatrix

    F = GF(5)
    c = cfg(2, F)
    s, xs = (GradedMatrix(F, [[F.one]], [t], [0]) for t in (0, 1))
    with pytest.raises(FactorizationError, match="does not lie in the next"):
        flag_factorization(c, [s, xs])
    assert flag_factorization(c, [xs, s]).degs(0) == (1,)
    zero = GradedMatrix.zero(F, [0], [0])
    for members in ([xs, zero], [zero, s], [zero]):
        with pytest.raises(FactorizationError):
            flag_factorization(c, members)


# -- preimage generators against the Jordan tops ------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_span_preimage_inclusion_equals_the_jordan_tops(field):
    """The same inclusion on kernels of random maps out of a free module
    and images of random maps into one."""
    from facto.functors import span_preimage_inclusion
    from facto.modules import ModuleMap, hom_basis, submodule
    from facto.randgen import random_module
    from reference import (_preimage_by_jordan_tops, homogeneous_kernel,
                           realization, split)

    rng = random.Random(67)
    proper = 0
    for _ in range(40):
        c = cfg(rng.randrange(1, 5), field)
        degs_l = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 4))]
        free, other = RModule.free(c, degs_l), random_module(c, rng, 3)
        maps = []
        for a, b in ((free, other), (other, free)):
            f = ModuleMap.zero(a, b)
            for g in hom_basis(a, b):
                f = f + g.scale(field.from_int(rng.randrange(-2, 3)))
            maps.append(f)
        spans = [homogeneous_kernel(field, free.basis_degrees(), realization(maps[0])),
                 [list(col) for col in zip(*realization(maps[1]))]]
        for kvecs in spans:
            got = span_preimage_inclusion(
                c, submodule(free, split(field, free.basis_degrees(), kvecs)))
            assert got == _preimage_by_jordan_tops(c, degs_l, kvecs), (degs_l, kvecs)
            proper += not got.is_iso()
    assert proper > 10


# -- the module layer works on degree pieces --------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_normal_forms_never_build_the_ambient_x_operator(field):
    """submodule, map_ker_cok_im, presentation_cokernel, cok and
    reconstruct read x off the summands as shift blocks between degree
    pieces: RModule has no ambient x_matrix, which would raise
    AttributeError, and they give the same outputs on repeated calls."""
    from facto.factorizations import prefix
    from facto.modules import (
        ModuleMap,
        hom_basis,
        map_ker_cok_im,
        presentation_cokernel,
        submodule,
    )
    from reference import realization, split

    rng = random.Random(73)
    cases = []
    for d, l in ((2, 2), (3, 2), (3, 3), (4, 1)):
        c = cfg(d, field)
        x, u = random_factorization(c, l, rng), random_chain(c, l, rng)
        a, b = RModule.free(c, [0, 1]), RModule(c, [(d, 0), (1, 2)])
        f = ModuleMap.zero(a, b)
        for g in hom_basis(a, b):
            f = f + g.scale(field.from_int(rng.randrange(1, 4)))
        image = split(field, b.basis_degrees(), [list(col) for col in zip(*realization(f))])
        cases += [(lambda b=b, v=image: submodule(b, v)),
                  (lambda f=f: map_ker_cok_im(f)),
                  (lambda x=x: [presentation_cokernel(prefix(x, k), x.cfg)
                                for k in range(1, x.l + 1)]),
                  (lambda x=x: cok(x)), (lambda u=u: reconstruct(u))]
    want = [case() for case in cases]
    assert [case() for case in cases] == want
