import random

import pytest

from facto.chains import chain_composites
from facto.fields import GF, QQ
from facto.linalg import identity, mat_mul, mat_vec, nullspace, rank, rref, solve
from facto.modules import (
    HypersurfaceConfig,
    ModuleMap,
    NotAnnihilated,
    RealizationError,
    RModule,
    decompose,
    hom_basis,
    is_mono_epi,
    map_ker_cok_im,
    preimage,
    presentation_cokernel,
    projective_cover,
    realization_to_module,
    stable_hom_dim,
    submodule,
)
from facto.pieces import ambient, jordan
from facto.poly import Polynomial
from facto.polymat import GradedMatrix, PolyMatrix
from facto.randgen import random_chain
from reference import (
    bar_p_epic,
    factor_through,
    from_ints,
    from_poly,
    from_realization,
    graded_solve,
    homogeneous_components,
    homogeneous_kernel,
    jordan_by_kernels,
    lift_along_epi,
    module_from_presentation,
    module_iso,
    map_ker_cok_im_by_quotient,
    preimage_by_annihilator,
    presentation_cokernel_by_quotient,
    quotient,
    quotient_realization,
    realization,
    scalars,
    split,
    subspace_realization,
    x_matrix,
)


def cfg(d, field=QQ):
    return HypersurfaceConfig(d, field)


def graded(field, entries, src_degs, tgt_degs):
    rows = [[from_ints(field, e) if isinstance(e, list) else e for e in row] for row in entries]
    return from_poly(PolyMatrix(field, rows), src_degs, tgt_degs)


def x_power(field, k):
    return Polynomial.monomial(field, k)


# -- construction and realization ------------------------------------------


def test_zero_module():
    m = RModule.zero(cfg(2))
    assert m.dim == 0 and m.is_zero() and m.is_free()
    assert hom_basis(m, m) == []
    assert stable_hom_dim(m, m) == 0


def test_realization_shape():
    m = RModule(cfg(3), [(2, 0), (3, -1)])
    assert m.dim == 5
    assert m.basis_degrees() == [0, 1, -1, 0, 1]
    x = x_matrix(m)
    # x is nilpotent with x^3 = 0 and x^2 != 0
    F = QQ
    x2 = mat_mul(F, x, x)
    x3 = mat_mul(F, x2, x)
    assert any(not F.is_zero(c) for row in x2 for c in row)
    assert all(F.is_zero(c) for row in x3 for c in row)


def test_socle_length_bounds():
    with pytest.raises(ValueError):
        RModule(cfg(2), [(3, 0)])


# -- module_from_presentation -----------------------------------------------


def test_presentation_scalar_xd():
    # cok(x^d: S(-d) -> S) = R itself
    c = cfg(3)
    a = graded(QQ, [[[0, 0, 0, 1]]], [3], [0])
    m = module_from_presentation(a, c)
    assert m.summands == ((3, 0),)


def test_presentation_diag():
    c = cfg(3)
    a = graded(
        QQ,
        [[[0, 1], []], [[], [0, 0, 1]]],
        [1, 2],
        [0, 0],
    )
    m = module_from_presentation(a, c)
    assert sorted(m.summands) == [(1, 0), (2, 0)]


def test_presentation_change_of_basis_invariance():
    # conjugating the presentation by unimodular graded matrices keeps the
    # normal form
    c = cfg(2, GF(5))
    F = GF(5)
    a = graded(F, [[[0, 1], [0, 2]], [[], [0, 1]]], [1, 1], [0, 0])
    m1 = module_from_presentation(a, c)
    u = graded(F, [[[1], [2]], [[], [1]]], [0, 0], [0, 0])
    b = from_poly(u.mat @ a.mat, a.src_degs, a.tgt_degs)
    m2 = module_from_presentation(b, c)
    assert module_iso(m1, m2)


def test_presentation_not_annihilated():
    c = cfg(2)
    a = graded(QQ, [[[0, 0, 0, 1]]], [3], [0])  # cok has x^2 != 0
    with pytest.raises(NotAnnihilated):
        module_from_presentation(a, c)


def test_presentation_with_unit_column():
    # [1] presents the zero module
    c = cfg(2)
    a = graded(QQ, [[[1]]], [0], [0])
    m = module_from_presentation(a, c)
    assert m.is_zero()


# -- decompose ---------------------------------------------------------------


def random_conjugated_module(c, rng, max_summands=3):
    F = c.field
    summands = [
        (rng.randrange(1, c.d + 1), rng.randrange(-2, 3))
        for _ in range(rng.randrange(1, max_summands + 1))
    ]
    m = RModule(c, summands)
    return m


def test_decompose_recovers_normal_form():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for d in (2, 3):
            c = cfg(d, field)
            for _ in range(15):
                m = random_conjugated_module(c, rng)
                summands, _ = decompose(field, d, m.basis_degrees(), x_matrix(m))
                assert tuple(summands) == m.sorted_summands()


# -- maps ---------------------------------------------------------------------


def test_hom_dim_examples():
    # Hom(R/(x^2), R/(x)) has dim 1 (send gen to gen)
    c = cfg(3)
    m = RModule(c, [(2, 0)])
    n = RModule(c, [(1, 0)])
    assert len(hom_basis(m, n)) == 1
    # Hom(R/(x), R/(x^2)) = multiples of x: gen -> c*x*gen needs degree shift,
    # so in degree 0 only via s-difference: here dim is 0
    assert len(hom_basis(n, m)) == 0
    # ... but with the right twist it appears
    n1 = RModule(c, [(1, 1)])
    assert len(hom_basis(n1, m)) == 1


def test_hom_end_free():
    c = cfg(2)
    p = RModule.free(c, [0, 0])
    assert len(hom_basis(p, p)) == 4


def test_map_validation():
    c = cfg(3)
    m = RModule(c, [(1, 0)])
    n = RModule(c, [(3, 0)])
    # gen of order 1 cannot map to gen of order 3 with nonzero scalar:
    # x * image must vanish but x * gen != 0
    with pytest.raises(ValueError):
        ModuleMap(m, n, [[QQ.one]])
    # negative twist is rejected
    m1 = RModule(c, [(1, 0)])
    n1 = RModule(c, [(1, 1)])
    with pytest.raises(ValueError):
        ModuleMap(m1, n1, [[QQ.one]])


def test_compose_identity():
    c = cfg(2)
    m = RModule(c, [(2, 0), (1, 1)])
    i = ModuleMap.identity(m)
    assert (i @ i) == i


def test_ker_cok_im():
    c = cfg(2)
    m = RModule(c, [(2, 0)])
    n = RModule(c, [(1, 0)])
    _, p = projective_cover(n)  # p: R(0) -> R/(x)(0)
    assert p.src == m
    (ker, incl), (cok, proj), im = map_ker_cok_im(p)
    assert ker.summands == ((1, 1),)  # (x)/(x^2) = k(-1)
    assert cok.is_zero()
    assert im.summands == ((1, 0),)
    mono, epi = is_mono_epi(incl)
    assert mono and not epi
    mono, epi = is_mono_epi(p)
    assert not mono and epi
    # incl really lands in the kernel
    assert (p @ incl).is_zero()


def test_ker_cok_random_rank_nullity():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        c = cfg(3, field)
        for _ in range(20):
            m = random_conjugated_module(c, rng)
            n = random_conjugated_module(c, rng)
            basis = hom_basis(m, n)
            if not basis:
                continue
            f = basis[0]
            for g in basis[1:]:
                f = f + g.scale(field.from_int(rng.randrange(-2, 3)))
            (ker, incl), (cok, proj), im = map_ker_cok_im(f)
            assert ker.dim + im.dim == m.dim
            assert cok.dim == n.dim - im.dim
            assert (f @ incl).is_zero()
            assert (proj @ f).is_zero()


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_mono_and_epi_on_socles_and_heads_equal_the_rank_verdicts(field):
    """is_mono_epi reads one generator matrix on the socles and one on the
    heads; the oracle is the k-rank of the map on the degree pieces against
    both dimensions.  Inputs: random combinations of hom_basis (of the
    identity's too), their kernel inclusions and cokernel projections,
    zero modules included, for d = 1..5."""
    from facto.modules import rank as module_rank

    rng, seen = random.Random(89), {}
    for d in range(1, 6):
        c = cfg(d, field)
        for _ in range(25):
            a, b = (RModule(c, [(rng.randrange(1, d + 1), rng.randrange(-1, 3))
                                for _ in range(rng.randrange(0, 4))]) for _ in range(2))
            f = _random_map(rng, a, b)
            (_, incl), (_, proj), _ = map_ker_cok_im(f)
            for g in (f, incl, proj, ModuleMap.identity(a) + _random_map(rng, a, a)):
                rk = module_rank(g)
                want = (rk == g.src.dim, rk == g.tgt.dim)
                assert is_mono_epi(g) == want, g
                kind = "zero" if g.src.is_zero() or g.tgt.is_zero() else want
                seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 5 and min(seen.values()) > 10, seen


def _ker_cok_im_inputs(field, rng):
    """Random R-linear maps between modules of at most 3 summands, zero
    modules included, for d = 1..4, each with the kernel's inclusion (a
    mono), the cokernel's projection (an epi), the projective cover of its
    target and the identity of its source."""
    for d in range(1, 5):
        c = cfg(d, field)
        for _ in range(12):
            a, b = (RModule(c, [(rng.randrange(1, d + 1), rng.randrange(-1, 3))
                                for _ in range(rng.randrange(0, 4))]) for _ in range(2))
            f = _random_map(rng, a, b)
            (_, incl), (_, proj), _ = map_ker_cok_im_by_quotient(f)
            yield from (f, incl, proj, projective_cover(b)[1], ModuleMap.identity(a))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_ker_cok_im_by_elimination_equals_the_quotient_version(field):
    """map_ker_cok_im against the realization version
    (`map_ker_cok_im_by_quotient`): the same kernel inclusion, cokernel
    and image, and a projection p = phi o p_ref for a module iso phi, with
    p o f = 0; zero modules, monos, epis and isos included.  A map that is
    not R-linear is refused as not x-stable."""
    F, rng = field, random.Random(83)
    kinds = {}
    for f in _ker_cok_im_inputs(field, rng):
        (ker, incl), (cok, proj), im = map_ker_cok_im(f)
        (ker_ref, incl_ref), (cok_ref, proj_ref), im_ref = map_ker_cok_im_by_quotient(f)
        assert (ker, incl, cok, im) == (ker_ref, incl_ref, cok_ref, im_ref), f
        phi = factor_through(proj_ref, proj)
        assert is_mono_epi(phi) == (True, True) and phi @ proj_ref == proj
        assert proj.src == f.tgt and (proj @ f).is_zero()
        kind = "zero" if f.src.is_zero() or f.tgt.is_zero() else is_mono_epi(f)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) > 5 and len(kinds) == 5, kinds
    refused = 0
    for _ in range(200):
        c = cfg(rng.randrange(2, 5), field)
        a, b = (RModule(c, [(rng.randrange(1, c.d + 1), rng.randrange(-1, 3))
                            for _ in range(rng.randrange(1, 3))]) for _ in range(2))
        g = ModuleMap(a, b, [[F.from_int(rng.randrange(0, 3)) if st >= su else F.zero
                              for _, st in a.summands] for _, su in b.summands],
                      check=False)
        if not g.commutes_with_x():
            with pytest.raises(RealizationError, match="x-stable"):
                map_ker_cok_im(g)
            refused += 1
    assert refused > 10


def test_stable_hom_examples():
    # d = 2: stable End of k = R/(x) is 1-dimensional (End = k, nothing
    # factors through a free module in degree 0... actually p: R -> k gives
    # the identity a factorization iff k is projective, which it is not)
    c = cfg(2)
    k0 = RModule(c, [(1, 0)])
    assert stable_hom_dim(k0, k0) == 1
    # free modules are stably zero
    p = RModule.free(c, [0])
    assert stable_hom_dim(p, p) == 0
    assert stable_hom_dim(k0, p) == 0
    assert stable_hom_dim(p, k0) == 0


def test_stable_hom_factoring():
    # d = 3: degree-0 endos of R/(x^2) are the scalars; none factors through
    # a free module (no degree-0 map R/(x^2) -> R exists), so stable End = End
    c = cfg(3)
    m = RModule(c, [(2, 0)])
    assert len(hom_basis(m, m)) == 1
    assert stable_hom_dim(m, m) == 1
    # the twisted hom x: R/(x^2)(0) -> R/(x^2)(-1) factors through R(-1),
    # so it dies stably
    n = RModule(c, [(2, -1)])
    assert len(hom_basis(m, n)) == 1
    assert stable_hom_dim(m, n) == 0


def _syzygy(m):
    """Omega m, the kernel of m's projective cover: Omega R/x^e(-s) is
    R/x^(d-e)(-s-e), and 0 when e = d."""
    d = m.cfg.d
    return RModule(m.cfg, [(d - e, s + e) for e, s in m.summands if e < d])


def test_stable_homs_satisfy_serre_duality():
    """dim stable Hom(X, Y) = dim stable Hom(Y, S X) for the Serre functor
    S = Omega nu, nu the shift <1 - d> (D R = R(d - 1)); <t> is
    RModule.shift(t).  Every pair of single summands R/x^e(-s) with
    d = 1..6 and s in [-3, 3], then random sums of up to 3 summands."""
    nonzero = 0
    for d in range(1, 7):
        c = cfg(d, GF(2))
        singles = [RModule(c, [(e, s)]) for e in range(1, d + 1) for s in range(-3, 4)]
        for x in singles:
            sx = _syzygy(x).shift(1 - d)
            for y in singles:
                dim = stable_hom_dim(x, y)
                assert dim == stable_hom_dim(y, sx), (x, y)
                nonzero += dim > 0
    assert nonzero > 400
    rng = random.Random(89)
    for _ in range(200):
        c = cfg(rng.randrange(1, 7), GF(2))
        x, y = (RModule(c, [(rng.randrange(1, c.d + 1), rng.randrange(-3, 4))
                            for _ in range(rng.randrange(0, 4))]) for _ in range(2))
        assert stable_hom_dim(x, y) == stable_hom_dim(y, _syzygy(x).shift(1 - c.d)), (x, y)


def test_lift_along_epi():
    c = cfg(2)
    n = RModule(c, [(1, 0)])
    p_mod, p = projective_cover(n)
    # maps out of a free module lift along any epi
    f = p  # P -> n
    g = lift_along_epi(p, f)
    assert g is not None
    assert (p @ g) == f
    # the identity of the non-projective n has no lift
    assert lift_along_epi(p, ModuleMap.identity(n)) is None
    # same shape, but asked as a section of p itself: Hom(k, R) = 0 in
    # degree 0, so the identity of k does not lift through a map k -> R
    assert hom_basis(n, p_mod) == []


def test_no_lift():
    # d = 2: identity of k does not lift along x: R(-1) -> R followed by proj?
    # cleaner: epi R(-1) -> k(-1), map k(0)->k(-1) impossible; use
    # p: R -> k and f = id_k, which DOES lift (see above). For a failing
    # case take q: k(1) -> k(1)? Instead: epi with source missing the degree.
    c = cfg(2)
    k0 = RModule(c, [(1, 0)])
    k1 = RModule(c, [(1, 1)])
    # epi from k1 onto... there is no epi k1 -> k0; use direct test of solve:
    z = ModuleMap.zero(k1, k0)
    # f = id_k0 cannot factor through z
    assert lift_along_epi(z, ModuleMap.identity(k0)) is None


def test_bar_p_epic_matches_projective_cover():
    c = cfg(3)
    m = RModule(c, [(2, 0), (1, 2)])
    p1, f1 = bar_p_epic(m)
    p2, f2 = projective_cover(m)
    assert p1 == p2 and f1 == f2
    _, epi = is_mono_epi(f1)
    assert epi


def test_direct_sum_maps():
    c = cfg(2)
    m = RModule(c, [(1, 0)])
    n = RModule(c, [(2, 0)])
    f = ModuleMap.identity(m).direct_sum(ModuleMap.identity(n))
    assert f == ModuleMap.identity(m.direct_sum(n))


def test_json_round_trip():
    c = cfg(3, GF(5))
    m = RModule(c, [(2, 0), (3, -1)])
    assert RModule.from_json(c, m.to_json()) == m
    basis = hom_basis(m, m)
    f = basis[0]
    assert ModuleMap.from_json(c, f.to_json()) == f


def test_presentation_cokernel_projection():
    # projection intertwines x on the free cover and on the normal form
    c = cfg(2, GF(5))
    F = GF(5)
    a = graded(F, [[[0, 1], [0, 2]], [[], [0, 1]]], [1, 1], [0, 0])
    p, _ = presentation_cokernel(a, c)
    m, proj = p.tgt, realization(p)
    free = RModule.free(c, [0, 0])
    lhs = mat_mul(F, proj, x_matrix(free))
    rhs = mat_mul(F, x_matrix(m), proj)
    assert lhs == rhs
    assert rank(F, proj) == m.dim


def _presentation_cokernel_by_closing(a, c):
    """Reference: the quotient of the free cover by the columns of a mod x^d
    closed under x one vector at a time."""
    from facto.linalg import identity, mat_vec
    from facto.polymat import NoSolution

    F, d = c.field, c.d
    omega = GradedMatrix(F, identity(F, len(a.tgt_degs)),
                         [t + d for t in a.tgt_degs], a.tgt_degs)
    try:
        graded_solve(a, omega)
    except NoSolution:
        raise NotAnnihilated("x^d does not factor through the presentation")
    free = RModule.free(c, a.tgt_degs)
    fdegs, fx = free.basis_degrees(), x_matrix(free)
    closed = []
    for col, s in enumerate(a.src_degs):
        w = [F.zero] * (len(a.tgt_degs) * d)
        for j, t in enumerate(a.tgt_degs):
            if 0 <= s - t < d:
                w[j * d + s - t] = a.coeffs[j][col]
        for _ in range(d):
            if all(F.is_zero(v) for v in w):
                break
            closed.append(w)
            w = mat_vec(F, fx, w)
    qdegs, qx, proj_mat = quotient_realization(F, fdegs, fx, closed)
    mod, to_real = realization_to_module(c, qdegs, qx)
    return mod, solve(F, to_real, proj_mat)


def _presentation_inputs(field):
    """(config, presentation) pairs over `field` for d = 1..4: random graded
    maps, each also with x^d * I beside it, so that x^d kills its cokernel,
    and the leading composites of random factorizations."""
    from facto.factorizations import prefix
    from facto.randgen import random_factorization

    rng = random.Random(53)
    for d in (1, 2, 3, 4):
        c = cfg(d, field)
        inputs = []
        for _ in range(25):
            src = [rng.randrange(-1, 4) for _ in range(rng.randrange(0, 4))]
            tgt = [rng.randrange(-2, 3) for _ in range(rng.randrange(1, 4))]
            coeffs = [[field.from_int(rng.randrange(0, 4)) if s >= t else field.zero
                       for s in src] for t in tgt]
            a = GradedMatrix(field, coeffs, src, tgt)
            # with x^d * I beside it, the cokernel is killed by x^d
            omega = GradedMatrix(field, identity(field, len(tgt)),
                                 [t + d for t in tgt], tgt)
            inputs += [a, a.hstack(omega)]
        for l in (1, 2, 3):
            x = random_factorization(c, l, rng)
            inputs += [prefix(x, k) for k in range(1, l + 1)]
        yield from ((c, a) for a in inputs)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_presentation_cokernel_equals_the_closing_loop(field):
    """The same (module, projection), and NotAnnihilated in the same cases,
    on random graded maps and on the leading composites of factorizations:
    the quotient of the realization (`presentation_cokernel_by_quotient`)
    against its columns closed under x one vector at a time."""
    raised = []
    for c, a in _presentation_inputs(field):
        try:
            want = _presentation_cokernel_by_closing(a, c)
        except NotAnnihilated:
            with pytest.raises(NotAnnihilated):
                presentation_cokernel_by_quotient(a, c)
            raised.append(True)
            continue
        p = presentation_cokernel_by_quotient(a, c)
        assert (p.tgt, realization(p)) == want, a
        raised.append(False)
    assert raised.count(True) > 10 and raised.count(False) > 50


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_presentation_cokernel_by_elimination_equals_the_quotient(field):
    """On the same inputs, the graded elimination gives the quotient's
    module and raises NotAnnihilated in the same cases.  Its projection p
    has the quotient's kernel in every degree, so p = phi o p_ref for a
    module iso phi; and its blocks times the section M are the identity
    on the cokernel's generators."""
    F = field
    raised = []
    for c, a in _presentation_inputs(field):
        try:
            ref = presentation_cokernel_by_quotient(a, c)
        except NotAnnihilated:
            with pytest.raises(NotAnnihilated):
                presentation_cokernel(a, c)
            raised.append(True)
            continue
        p, m = presentation_cokernel(a, c)
        assert (p.src, p.tgt) == (ref.src, ref.tgt), a
        got, want = p.pieces(), ref.pieces()
        assert got.keys() == want.keys()
        for s, idx in p.src.pieces().items():
            kernels = [rref(F, nullspace(F, piece[s], cols=len(idx)))[0]
                       for piece in (got, want)]
            assert kernels[0] == kernels[1], (a, s)
        phi = factor_through(ref, p)
        assert is_mono_epi(phi) == (True, True)
        assert phi @ ref == p
        assert ModuleMap(p.tgt, p.tgt, mat_mul(F, p.blocks, m)) == ModuleMap.identity(p.tgt)
        raised.append(False)
    assert raised.count(True) > 10 and raised.count(False) > 50


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_summand_lengths_are_the_valuations_of_the_invariant_factors(field):
    """The multiset of the cokernel's summand lengths is that of the x-adic
    valuations, at least 1, of the invariant factors that `polymat.snf`
    finds over k[x]: on random homogeneous presentations with x^d * I
    beside them, whose rank is then full, and on the leading composites
    of random factorizations."""
    from facto.factorizations import prefix
    from facto.polymat import snf
    from facto.randgen import random_factorization

    rng = random.Random(59)
    checked = set()
    for d in (1, 2, 3, 4):
        c = cfg(d, field)
        inputs = []
        for _ in range(15):
            n = rng.randrange(1, 4)
            src = [rng.randrange(0, 4) for _ in range(rng.randrange(0, 4))]
            tgt = [rng.randrange(-1, 3) for _ in range(n)]
            coeffs = [[field.from_int(rng.randrange(0, 4)) if s >= t else field.zero
                       for s in src] for t in tgt]
            omega = GradedMatrix(field, identity(field, n), [t + d for t in tgt], tgt)
            inputs.append(GradedMatrix(field, coeffs, src, tgt).hstack(omega))
        for l in (1, 2, 3):
            x = random_factorization(c, l, rng)
            inputs += [prefix(x, k) for k in range(1, l + 1)]
        for a in inputs:
            _, diag, _ = snf(a.mat)
            factors = [diag.entries[i][i] for i in range(min(diag.rows, diag.cols))]
            assert len(factors) == diag.rows and all(f.is_monomial() for f in factors)
            lengths = sorted(e for e, _ in presentation_cokernel(a, c)[0].tgt.summands)
            assert lengths == sorted(f.degree for f in factors if f.degree), a
            checked.add(tuple(lengths))
    assert len(checked) > 10


@pytest.mark.parametrize("summand", [[1.7, True], [1, True], [True, 0],
                                     [2.0, 0], ["1", 0], [1, None]])
def test_from_json_rejects_non_integer_summands(summand):
    c = cfg(2, GF(5))
    with pytest.raises(TypeError):
        RModule.from_json(c, {"summands": [[1, 0], summand]})


# broken realizations raise RealizationError, which is no ValueError -----------


def test_non_homogeneous_vector_is_rejected():
    F = GF(5)
    with pytest.raises(RealizationError, match="homogeneous"):
        homogeneous_components(F, [0, 1], [[1, 1]])


def test_operator_not_nilpotent_of_order_d_is_rejected():
    F = GF(5)
    with pytest.raises(RealizationError, match="nilpotent"):
        decompose(F, 2, [0, 0], [[1, 0], [0, 1]])
    # nilpotent of order 3 > d = 2
    x = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(RealizationError, match="nilpotent"):
        realization_to_module(cfg(2, F), [0, 1, 2], x)


def test_operator_that_keeps_degrees_is_rejected():
    # x e0 = e1 with both in degree 0: nilpotent, but not graded
    with pytest.raises(RealizationError, match="fill"):
        decompose(GF(5), 2, [0, 0], [[0, 0], [1, 0]])


def test_span_that_is_not_x_stable_is_rejected():
    F = GF(5)
    m = RModule(cfg(2, F), [(2, 0)])
    with pytest.raises(RealizationError, match="x-stable"):
        subspace_realization(F, m.basis_degrees(), x_matrix(m), [[1, 0]])


def test_unchecked_non_linear_map_is_rejected_by_ker_cok():
    # gen -> gen from R/x into R/x^2 is not R-linear: its image is not
    # x-stable
    c = cfg(2, GF(5))
    g = ModuleMap(RModule(c, [(1, 0)]), RModule(c, [(2, 0)]), [[1]],
                  check=False)
    with pytest.raises(RealizationError, match="x-stable"):
        map_ker_cok_im(g)
    assert not issubclass(RealizationError, ValueError)


# -- hom_basis against the commuting linear system ---------------------------


def _hom_basis_by_linear_system(m, n):
    """Reference: the nullspace of x_n R - R x_m = 0 over the degree-matching
    entries R[i][j] of the realization, each solution read back as a map."""
    F = m.cfg.field
    mdegs, ndegs = m.basis_degrees(), n.basis_degrees()
    unknowns = [(i, j) for i in range(n.dim) for j in range(m.dim)
                if ndegs[i] == mdegs[j]]
    if not unknowns:
        return []
    uidx = {p: k for k, p in enumerate(unknowns)}
    xm, xn = x_matrix(m), x_matrix(n)
    rows = []
    for i in range(n.dim):
        for j in range(m.dim):
            row = [F.zero] * len(unknowns)
            touched = False
            for k in range(n.dim):
                if not F.is_zero(xn[i][k]) and (k, j) in uidx:
                    row[uidx[(k, j)]] = F.add(row[uidx[(k, j)]], xn[i][k])
                    touched = True
            for k in range(m.dim):
                if not F.is_zero(xm[k][j]) and (i, k) in uidx:
                    row[uidx[(i, k)]] = F.sub(row[uidx[(i, k)]], xm[k][j])
                    touched = True
            if touched:
                rows.append(row)
    out = []
    for sol in nullspace(F, rows, cols=len(unknowns)):
        real = [[F.zero] * m.dim for _ in range(n.dim)]
        for (i, j), val in zip(unknowns, sol):
            real[i][j] = val
        out.append(from_realization(m, n, real))
    return out


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_hom_basis_equals_the_linear_system(field):
    """The closed-form basis is the linear system's, map for map and in the
    same order, on random pairs with d = 1..5, the zero module included."""
    rng = random.Random(29)
    empty = 0
    for d in range(1, 6):
        c = cfg(d, field)

        def module():
            return RModule(c, [(rng.randrange(1, d + 1), rng.randrange(-2, 4))
                               for _ in range(rng.randrange(0, 4))])

        pairs = [(RModule.zero(c), module()), (module(), RModule.zero(c))]
        pairs += [(module(), module()) for _ in range(40)]
        for m, n in pairs:
            got = hom_basis(m, n)
            assert [f.blocks for f in got] == [
                f.blocks for f in _hom_basis_by_linear_system(m, n)], (m, n)
            assert all(f.commutes_with_x() for f in got)
            empty += not got
    assert empty > 10  # pairs with no maps occur, not only zero modules


# -- module maps in generator coordinates against the realization ---------------


def _commutes_by_realization(f):
    """Reference: x_tgt R = R x_src on the realization."""
    F = f.src.cfg.field
    r = realization(f)
    return mat_mul(F, x_matrix(f.tgt), r) == mat_mul(F, r, x_matrix(f.src))


def _compose_by_realization(g, f):
    """Reference: the realization product, read back through the checked
    from_realization (a product through the zero module is the zero map)."""
    if g.src.is_zero():
        return ModuleMap.zero(f.src, g.tgt)
    F = g.src.cfg.field
    return from_realization(
        f.src, g.tgt, mat_mul(F, realization(g), realization(f)))


def _random_map(rng, m, n):
    """A random combination of hom_basis(m, n): an R-linear map."""
    F = m.cfg.field
    out = ModuleMap.zero(m, n)
    for g in hom_basis(m, n):
        out = out + g.scale(F.from_int(rng.randrange(-2, 3)))
    return out


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_module_maps_equal_the_realization_oracle(field):
    """commutes_with_x is the realization test, on random blocks that are
    often not R-linear; g @ f is the realization product, pieces() the
    realization's degree blocks and from_pieces their inverse, on random
    maps; zero modules included."""
    rng = random.Random(31)
    verdicts, nonzero, rejected = set(), 0, 0
    for d in range(1, 5):
        c = cfg(d, field)

        def module():
            return RModule(c, [(rng.randrange(1, d + 1), rng.randrange(-1, 3))
                               for _ in range(rng.randrange(0, 4))])

        for _ in range(40):
            a, b, e = module(), module(), module()
            # any block that a degree-0 map may carry, R-linear or not
            blocks = [[field.from_int(rng.randrange(0, 3)) if st >= su else field.zero
                       for _, st in a.summands] for _, su in b.summands]
            f = ModuleMap(a, b, blocks, check=False)
            assert f.commutes_with_x() == _commutes_by_realization(f), f
            verdicts.add(f.commutes_with_x())
            f, g = _random_map(rng, a, b), _random_map(rng, b, e)
            assert g @ f == _compose_by_realization(g, f), (g, f)
            nonzero += not (g @ f).is_zero()
            assert f.pieces() == _pieces_by_realization(f), f
            assert ModuleMap.from_pieces(a, b, f.pieces()) == f
            rejected += _changed_entries_are_rejected(f)
    assert verdicts == {True, False} and nonzero > 5
    assert rejected > 10


def test_an_endomorphism_reads_its_module_pieces_once(monkeypatch):
    m = RModule(cfg(3), [(3, 0), (2, 1), (1, 1), (2, 2)])
    calls = []
    pieces = RModule.pieces
    monkeypatch.setattr(RModule, "pieces", lambda n: calls.append(n) or pieces(n))
    assert scalars(ModuleMap.identity(m)) == [
        identity(m.cfg.field, len(ks)) for ks in pieces(m).values()]
    assert len(calls) == 1


def _pieces_by_realization(f):
    """Reference: the degree-s blocks of the realization, for each degree s
    of the source, with no rows where the target has no degree s."""
    sdegs, tdegs, real = f.src.basis_degrees(), f.tgt.basis_degrees(), realization(f)
    return {s: [[real[r][c] for c, sc in enumerate(sdegs) if sc == s]
                for r, tr in enumerate(tdegs) if tr == s]
            for s in sorted(set(sdegs))}


def _changed_entries_are_rejected(f):
    """from_pieces rejects pieces with one entry changed in a column
    x^i gen_t, i >= 1, which block recovery does not read; from_realization
    rejects a realization with one entry changed off the degree blocks.
    Returns the number of changed inputs tried."""
    F = f.src.cfg.field
    tried = 0
    spieces = f.src.pieces()
    for s, block in f.pieces().items():
        cols = [c for c, k in enumerate(spieces[s]) if f.src.basis[k][1] >= 1]
        if block and cols:
            bad = [row[:] for row in block]
            bad[0][cols[0]] = F.add(bad[0][cols[0]], F.one)
            with pytest.raises(ValueError):
                ModuleMap.from_pieces(f.src, f.tgt, {**f.pieces(), s: bad})
            tried += 1
    sdegs, tdegs = f.src.basis_degrees(), f.tgt.basis_degrees()
    off = [(r, c) for r, tr in enumerate(tdegs)
           for c, sc in enumerate(sdegs) if tr != sc]
    if off:
        r, c = off[0]
        bad = [row[:] for row in realization(f)]
        bad[r][c] = F.one
        with pytest.raises(ValueError):
            from_realization(f.src, f.tgt, bad)
        tried += 1
    return tried


# -- submodules and quotients ----------------------------------------------------


def _random_spans(field, rng, count, summands=3):
    """(module, vecs): the kernel in the source and the image in the target
    of random combinations of hom_basis maps between random modules of at
    most `summands` summands."""
    for _ in range(count):
        c = cfg(rng.randrange(1, 5), field)
        a, b = (RModule(c, [(rng.randrange(1, c.d + 1), rng.randrange(-1, 3))
                            for _ in range(rng.randrange(0, summands + 1))])
                for _ in range(2))
        f = _random_map(rng, a, b)
        yield a, homogeneous_kernel(field, a.basis_degrees(), realization(f))
        yield b, [list(col) for col in zip(*realization(f))]


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_submodule_and_quotient_of_kernels_and_images(field):
    """submodule(m, V) is a mono onto V from the normal form of V's
    realization; quotient(m, V) is an epi with kernel V."""
    rng = random.Random(61)
    proper = 0
    for m, vecs in _random_spans(field, rng, 60):
        dim = rank(field, vecs)
        incl = submodule(m, split(field, m.basis_degrees(), vecs))
        sdegs, sx, _ = subspace_realization(field, m.basis_degrees(), x_matrix(m), vecs)
        assert incl.src == realization_to_module(m.cfg, sdegs, sx)[0]
        assert incl.tgt == m and is_mono_epi(incl)[0]
        cols = [list(col) for col in zip(*realization(incl))]
        assert rank(field, cols + vecs) == rank(field, cols) == dim, (m, vecs)
        proj = quotient(m, split(field, m.basis_degrees(), vecs))
        assert proj.src == m and is_mono_epi(proj)[1]
        assert proj.tgt.dim == m.dim - dim
        kernel = homogeneous_kernel(field, m.basis_degrees(), realization(proj))
        assert rank(field, kernel + vecs) == len(kernel) == dim, (m, vecs)
        proper += 0 < dim < m.dim
    assert proper > 20


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_preimage_is_the_kernel_of_the_cokernel_projection(field):
    """preimage(g), the kernel of the free cover P ->> cok g, is exactly the
    submodule of P that the annihilator preimage under the cover spans, on
    random, zero and identity maps and on the composites of random chains."""
    rng = random.Random(38)
    maps = []
    for _ in range(40):
        c = cfg(rng.randrange(1, 5), field)
        a, b = (RModule(c, [(rng.randrange(1, c.d + 1), rng.randrange(-1, 3))
                            for _ in range(rng.randrange(0, 4))])
                for _ in range(2))
        maps += [_random_map(rng, a, b), ModuleMap.zero(a, b), ModuleMap.identity(b)]
        maps += chain_composites(random_chain(c, rng.randrange(1, 4), rng, 3))[:-1]
    proper = 0
    for g in maps:
        cover, p = projective_cover(g.tgt)
        got = preimage(g)
        assert got == submodule(cover, preimage_by_annihilator(p, g)), g
        proper += 0 < got.src.dim < cover.dim
    assert proper > 30


def _random_realizations(field, rng, count, summands=3):
    """(cfg, degs, x): the ambient realizations of the x-stable subspaces
    and quotients of `_random_spans`."""
    for m, vecs in _random_spans(field, rng, count, summands):
        degs, x = m.basis_degrees(), x_matrix(m)
        yield m.cfg, *subspace_realization(field, degs, x, vecs)[:2]
        yield m.cfg, *quotient_realization(field, degs, x, vecs)[:2]


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_normal_forms_take_no_kernel_and_invert_nothing(field, monkeypatch):
    """The Jordan decomposition forms no power of x and takes no kernel:
    realization_to_module calls no nullspace or mat_mul, and on the
    rank-1 free module at d=1000 jordan calls nothing but mat_vec, at most
    d times: once per shift block, so its cost is linear in d."""
    import facto.modules as modules

    reals = list(_random_realizations(field, random.Random(67), 40))
    calls = {}

    def counted(name):
        f = getattr(modules.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("nullspace", "mat_mul", "mat_vec"):
        monkeypatch.setattr(modules.linalg, name, counted(name))
    for c, degs, x in reals:
        mod, to_real = realization_to_module(c, degs, x)
        assert mod.dim == len(degs) == len(to_real)
    assert sum(len(degs) > 2 for _, degs, _ in reals) > 10
    assert not {"nullspace", "mat_mul"} & set(calls), calls
    assert calls["mat_vec"] > 0

    d = 1000
    calls.clear()
    summands, to_real = jordan(field, d, {s: 1 for s in range(d)},
                               {s: [[field.one]] for s in range(d - 1)})
    assert summands == [(d, 0)]
    assert all(to_real[s] == [[field.one]] for s in range(d))
    assert set(calls) == {"mat_vec"} and calls["mat_vec"] <= d, calls


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_jordan_agrees_with_the_kernels_of_powers(field):
    """On random x-stable submodules and quotients, the sweep finds the
    summands of the Jordan decomposition by kernels of powers of x, and its
    columns are Jordan chains: x takes each column to the next one of its
    chain and kills the last, and they are a basis of every piece."""
    rng = random.Random(79)
    tried = proper = 0
    for c, degs, x in _random_realizations(field, rng, 150, summands=6):
        _, dims, shifts = ambient(field, degs, x, c.d)
        summands, to_real = jordan(field, c.d, dims, shifts)
        assert summands == jordan_by_kernels(field, c.d, dims, shifts)[0], (degs, x)
        at, cols = dict.fromkeys(dims, 0), []
        for e, s in summands:
            cols.append([at[s + i] for i in range(e)])
            for i in range(e):
                at[s + i] += 1
        for (e, s), chain in zip(summands, cols):
            for i, k in enumerate(chain):
                col = [row[k] for row in to_real[s + i]]
                image = mat_vec(field, shifts[s + i], col) if s + i in shifts else []
                want = ([row[chain[i + 1]] for row in to_real[s + i + 1]] if i + 1 < e
                        else [field.zero] * len(image))
                assert image == want, (degs, x)
        for s, n in dims.items():
            assert at[s] == n == rank(field, to_real[s]), (degs, x)
        tried += 1
        proper += len(summands) > 1 and len(set(summands)) > 1
    assert tried >= 600 and proper > 100
