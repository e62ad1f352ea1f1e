import itertools
import random

import pytest

import facto.chains
import facto.endo
import facto.factorizations
from facto.census import (
    Bounds,
    class_census,
    enumerate_chains,
    enumerate_factorizations,
    hom_dim_compare,
)
from facto.chains import (
    MonoChain,
    _chain_fingerprint,
    _top_basis,
    chain_hom_basis,
    chain_hom_dim,
    chain_is_indecomposable,
    chain_iso_test,
    chain_projective_cover,
    chain_projective_test,
    chain_stable_hom_dim,
    chain_stable_hom_table,
    mu_trivial,
)
from facto.endo import (
    _SPLITS,
    NonSplitEndomorphism,
    _charpoly,
    _nilpotent_part,
    _rational_roots,
    is_local,
    search_iso,
)
from facto.factorizations import (
    _fac_fingerprint,
    fac_hom_basis,
    fac_hom_dim,
    fac_is_indecomposable,
    fac_iso_test,
    fac_projective_cover,
    fac_stable_hom_dim,
    fac_stable_hom_table,
    nu,
)
from facto.functors import cok
from facto.fields import GF, QQ
from facto.linalg import combination, identity, rank as matrix_rank
from facto.modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    hom_basis,
    projective_cover,
    rank,
    stable_hom_dim,
)
from facto.randgen import random_chain, random_factorization, random_module
from reference import (
    _flag_chains,
    _flag_factorizations,
    block_diagonal,
    module_iso,
    nilpotent_part_by_charpoly,
    nu_l_counit,
    realization,
    scalars,
    stable_dim,
)
from test_chains import _chain_hom_basis_by_block_products
from test_factorizations import _fac_hom_basis_by_slots

FIELDS = [QQ, GF(2), GF(5)]


def mat(field, rows):
    return [[field.from_int(c) for c in row] for row in rows]


def unit(field, n, i, j):
    return mat(field, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def jordan(field, n, lam):
    """lam on the diagonal, 1 just above it."""
    return mat(field, [[lam if r == c else int(c == r + 1) for c in range(n)]
                       for r in range(n)])


# hand-built algebras ---------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_of_two_fields_is_not_local(field):
    assert not is_local(field, [unit(field, 2, 0, 0), unit(field, 2, 1, 1)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dual_numbers_are_local(field):
    assert is_local(field, [identity(field, 2), unit(field, 2, 0, 1)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_full_matrix_algebra_is_not_local(field):
    basis = [unit(field, 2, i, j) for i in range(2) for j in range(2)]
    assert not is_local(field, basis)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nilpotent_generators_of_a_non_nilpotent_algebra(field):
    # E12 and E21 are nilpotent, but E12 E21 = E11 is an idempotent
    basis = [identity(field, 2), unit(field, 2, 0, 1), unit(field, 2, 1, 0)]
    assert not is_local(field, basis)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [2, 5])
def test_eigenvalue_search_when_char_divides_n(field, n):
    # tr/n is undefined over F_2 at n = 2 and over F_5 at n = 5
    lam = 3 if n == 5 else 1
    j = jordan(field, n, lam)
    assert is_local(field, [identity(field, n), j])
    split = [row[:] for row in j]
    split[0][0] = split[0][1] = field.zero  # eigenvalues 0 and lam
    assert not is_local(field, [identity(field, n), split])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_residue_field_larger_than_k_is_not_guessed(field):
    # k[i] with i^2 = -1 is a field extension of Q and of F_3
    rot = mat(field, [[0, -1], [1, 0]])
    with pytest.raises(NonSplitEndomorphism):
        is_local(field, [identity(field, 2), rot])


def test_rotation_over_f2_is_local():
    # t^2 + 1 = (t + 1)^2 over F_2: one eigenvalue, found by the search
    F = GF(2)
    assert is_local(F, [identity(F, 2), mat(F, [[0, 1], [1, 0]])])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_objects_are_not_indecomposable(field):
    assert not is_local(field, [])
    assert not is_local(field, [[]])
    c = HypersurfaceConfig(2, field)
    assert not chain_is_indecomposable(MonoChain.zero(c, 2))
    assert not fac_is_indecomposable(nu(c, 2, 0, []))


# the wrappers ----------------------------------------------------------------


def _modules(c, max_summands=3, dim_max=6, degrees=range(3)):
    types = [(e, s) for e in range(1, c.d + 1) for s in degrees]
    for k in range(1, max_summands + 1):
        for combo in itertools.combinations_with_replacement(types, k):
            if sum(e for e, _ in combo) <= dim_max:
                yield RModule(c, combo)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_classical_l1_classification(field):
    """A module is indecomposable iff it is one cyclic summand R/x^e(s)."""
    for d in range(1, 5):
        c = HypersurfaceConfig(d, field)
        for m in _modules(c):
            u = MonoChain(c, [m], [])
            assert chain_is_indecomposable(u) == (len(m.summands) == 1), m


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_random_factorizations_split_into_their_rank_1_pieces(field):
    """random_factorization conjugates a sum of m rank-1 pieces, so it is
    indecomposable iff m = 1."""
    rng = random.Random(1)
    for _ in range(40):
        d, l = rng.choice([(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
        x = random_factorization(HypersurfaceConfig(d, field), l, rng)
        assert fac_is_indecomposable(x) == (x.m == 1)


def test_sums_of_criterion_2_pool_members_decompose():
    """A sum of two indecomposable pool members (the old split search's
    candidates) is decomposable, at every pair of shifts."""
    c = HypersurfaceConfig(2, GF(5))
    facs = [x for x in enumerate_factorizations(c, 2, 2, 2)
            if fac_is_indecomposable(x)]
    chains = [u for u in enumerate_chains(c, 2, 3, 2)
              if chain_is_indecomposable(u)]
    assert facs and chains
    for s, t in itertools.product(range(3), repeat=2):
        for a, b in itertools.product(facs, repeat=2):
            assert not fac_is_indecomposable(a.shift(s).direct_sum(b.shift(t)))
        for a, b in itertools.product(chains, repeat=2):
            assert not chain_is_indecomposable(a.shift(s).direct_sum(b.shift(t)))


def _summary(rep):
    return (len(rep.fac_classes), len(rep.chain_classes), len(rep.matching),
            rep.fac_hom_table, rep.chain_hom_table)


@pytest.mark.parametrize("d, fields", [(2, [GF(2), GF(3)]), (3, [GF(2)])])
def test_census_agrees_across_fields(d, fields):
    bounds = Bounds(m=2, dim=3, window=2)
    ref = _summary(class_census(HypersurfaceConfig(d, GF(5)), 2, bounds))
    for field in fields:
        assert _summary(class_census(HypersurfaceConfig(d, field), 2, bounds)) == ref


# eigenvalues from the characteristic polynomial --------------------------------


def test_two_rational_eigenvalues_split():
    # tr/n = 3/2 and 0 are no eigenvalues of diag(1, 2); 1 and 2 are
    assert not is_local(QQ, [identity(QQ, 2), mat(QQ, [[1, 0], [0, 2]])])


def test_two_eigenvalues_in_a_large_prime_field_split():
    F = GF(1000003)
    assert not is_local(F, [mat(F, [[2, 0], [0, 3]])])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_one_eigenvalue_off_the_fast_candidates(field):
    # diag(1, 1, 4): tr/n = 2 and 0 are units, so lambda comes from chi
    block = mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert is_local(field, [identity(field, 3), block])
    split = mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 4]])
    assert not is_local(field, [identity(field, 3), split])


def test_two_eigenvalues_when_char_divides_n():
    # over F_3 at n = 3 only 0 is tried before chi = (t - 1)^2 (t - 2)
    F = GF(3)
    assert not is_local(F, [identity(F, 3), mat(F, [[1, 0, 0], [0, 1, 0],
                                                    [0, 0, 2]])])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_undecided_element_does_not_hide_a_split(field):
    # the rotation has no eigenvalue in k, but E12 and E21 are nilpotent
    # parts that generate M_2(k), which is not local
    rot = mat(field, [[0, -1], [1, 0]])
    assert not is_local(field, [rot, unit(field, 2, 0, 1), unit(field, 2, 1, 0)])


def _principal_minor_charpoly(field, b):
    """det(t - b) with the coefficient of t^(n-k) equal to (-1)^k times the
    sum of the k x k principal minors of b, each by the Leibniz formula:
    the oracle, which shares no elimination with the determinant."""
    n = len(b)

    def minor(idx):
        total = field.zero
        for perm in itertools.permutations(range(len(idx))):
            inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
            term = field.from_int((-1) ** inversions)
            for r, c in enumerate(perm):
                term = field.mul(term, b[idx[r]][idx[c]])
            total = field.add(total, term)
        return total

    coeffs = [field.zero] * (n + 1)
    for k in range(n + 1):
        e = field.zero
        for idx in itertools.combinations(range(n), k):
            e = field.add(e, minor(idx))
        coeffs[n - k] = field.neg(e) if k % 2 else e
    return tuple(coeffs)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(1000003), QQ], ids=repr)
def test_charpoly_equals_determinant_oracle(field):
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        # sparse entries give zero minors and zero coefficients
        b = [[field.from_int(rng.choice([0, 0, 0, 1, -1, rng.randrange(-9, 10)]))
              for _ in range(n)] for _ in range(n)]
        assert _charpoly(field, b).coeffs == _principal_minor_charpoly(field, b)


def test_trace_candidate_finds_an_eigenvalue_the_divisors_miss():
    """10^7 + N at n = 2 has chi = (t - 10^7)^2, whose constant 10^14 is
    past the trial division of `_divisors`; tr(b)/n = 10^7 decides."""
    b = jordan(QQ, 2, 10**7)
    assert _rational_roots(_charpoly(QQ, b)) == []
    assert is_local(QQ, [b])


PRIME_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(1000003), GF(2**31 - 1)]


def _conjugate(field, b, rng):
    """b conjugated by 2n random elementary matrices I + a e_ij, i != j."""
    n = len(b)
    b = [row[:] for row in b]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = field.from_int(rng.randrange(-3, 4))
        b[i] = [field.add(u, field.mul(a, v)) for u, v in zip(b[i], b[j])]
        for row in b:
            row[j] = field.sub(row[j], field.mul(a, row[i]))
    return b


def _block_diagonal(field, blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[field.zero] * n for _ in range(n)], 0
    for b in blocks:
        for r, row in enumerate(b):
            out[at + r][at:at + len(b)] = row
        at += len(b)
    return out


def _eigenvalue_block(field, n, lam, rng):
    """lam + N for a random strictly upper triangular N."""
    return [[field.from_int(lam if r == c else rng.randrange(-2, 3) if c > r else 0)
             for c in range(n)] for r in range(n)]


def _companion(field, coeffs):
    """The companion matrix of t^k + coeffs[k-1] t^(k-1) + ... + coeffs[0]."""
    k = len(coeffs)
    return [[field.from_int(int(r == c + 1)) for c in range(k - 1)]
            + [field.from_int(-coeffs[r])] for r in range(k)]


def _irreducible_quadratic(field):
    """[c0, c1] with t^2 + c1 t + c0 irreducible over k."""
    p = getattr(field, "p", 0)
    if p in (0, 2):
        return [1, p // 2]
    return [-next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1), 0]


def _companion_blocks(field, n, rng):
    """Companion matrices of random monic polynomials of degree 2 or 3
    (irreducible ones among them), and a 1 x 1 block when one is left."""
    blocks, size = [], 0
    while size < n:
        k = min(rng.choice([2, 3]), n - size)
        blocks.append(_companion(field, [rng.randrange(-9, 10) for _ in range(k)]))
        size += k
    return _block_diagonal(field, blocks)


def _eigenvalue_cases(field, seed):
    """Matrices of every shape `_nilpotent_part` tells apart, n = 1..6, and
    small bases of them with the identity for `is_local`."""
    rng = random.Random(seed)
    mats = {n: [] for n in range(1, 7)}
    for n, _ in itertools.product(range(1, 7), range(2)):
        k = rng.randrange(1, n) if n > 1 else 1
        mats[n] += [_conjugate(field, b, rng) for b in (
            _eigenvalue_block(field, n, rng.randrange(-9, 10), rng),
            _eigenvalue_block(field, n, 0, rng),
            _eigenvalue_block(field, n, 10**7, rng),
            _block_diagonal(field, [_eigenvalue_block(field, k, rng.randrange(-9, 10), rng),
                                    _eigenvalue_block(field, n - k, rng.randrange(9), rng)]),
            _companion_blocks(field, n, rng),
            _block_diagonal(field, [_companion(field, _irreducible_quadratic(field))]
                            * (n // 2) + [_companion_blocks(field, n % 2, rng)] * (n % 2)),
            [[field.from_int(rng.randrange(-9, 10)) for _ in range(n)] for _ in range(n)],
            # over Q only tr(b)/n finds the eigenvalue 10^7 beside 10^7 +- 3
            _block_diagonal(field, [_eigenvalue_block(field, 1, 10**7 + 3, rng),
                                    _eigenvalue_block(field, 1, 10**7 - 3, rng),
                                    _eigenvalue_block(field, n - 2, 10**7, rng)])
            if n > 2 else _eigenvalue_block(field, n, 10**7, rng),
        )]
    bases = [[identity(field, n)] + rng.sample(ms, rng.randint(1, 2))
             for n, ms in mats.items() for _ in range(3)]
    # lam + N gives a local algebra; an irreducible companion block
    # repeated (n even) has no eigenvalue in k, and its algebra is undecided
    bases += [[identity(field, n), b] for n, ms in mats.items()
              for b in ms[::8] + ms[5::8]]
    return [b for ms in mats.values() for b in ms], bases


def _outcome(local, field, basis):
    try:
        return local(field, basis)
    except NonSplitEndomorphism:
        return NonSplitEndomorphism


@pytest.mark.parametrize("field", PRIME_FIELDS + [QQ], ids=repr)
def test_nilpotent_part_equals_the_charpoly_oracle(field, monkeypatch):
    """The matrix-power path returns what the earlier characteristic
    polynomial path returned, matrix for matrix, and `is_local` gives the
    same verdicts; every outcome occurs on every field."""
    mats, bases = _eigenvalue_cases(field, 48)
    kinds = set()
    for b in mats:
        got = _nilpotent_part(field, b)
        assert got == nilpotent_part_by_charpoly(field, b), b
        kinds.add(got if got is _SPLITS or got is None else "nilpotent")
    got = [_outcome(is_local, field, basis) for basis in bases]
    monkeypatch.setattr(facto.endo, "_nilpotent_part", nilpotent_part_by_charpoly)
    assert got == [_outcome(is_local, field, basis) for basis in bases]
    assert kinds == {"nilpotent", _SPLITS, None}
    assert {True, False, NonSplitEndomorphism} <= set(got)


def _no_charpoly(field, b):
    raise AssertionError("characteristic polynomial over a prime field")


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_no_characteristic_polynomial_over_a_prime_field(field, monkeypatch):
    _, bases = _eigenvalue_cases(field, 48)
    verdicts = [_outcome(is_local, field, basis) for basis in bases]
    monkeypatch.setattr(facto.endo, "_charpoly", _no_charpoly)
    assert [_outcome(is_local, field, basis) for basis in bases] == verdicts


def test_ringel_schmidt_census_takes_no_characteristic_polynomial(monkeypatch):
    monkeypatch.setattr(facto.endo, "_charpoly", _no_charpoly)
    rep = class_census(HypersurfaceConfig(3, GF(2)), 2, Bounds(m=3, dim=6, window=3))
    assert len(rep.chain_classes) == len(rep.fac_classes) == len(rep.matching) == 8


def test_every_raw_criterion_2_flag_object_decides():
    """Raw flag objects include decomposable ones whose endomorphisms have
    eigenvalues other than tr/n and 0; every one gets an answer."""
    c = HypersurfaceConfig(2, GF(5))
    facs = list(_flag_factorizations(c, 2, 2, 2))
    chains = list(_flag_chains(c, 2, 3, 2))
    assert len(facs) > 100 and len(chains) > 100
    assert any(fac_is_indecomposable(x) for x in facs)
    assert not all(fac_is_indecomposable(x) for x in facs)
    assert any(chain_is_indecomposable(u) for u in chains)
    assert not all(chain_is_indecomposable(u) for u in chains)


# the shared iso search and stable hom quotient ---------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_search_iso_on_matrix_lists(field):
    # a map is one square matrix; the empty combination is no iso
    assert not search_iso(field, [])

    def blocks(*bs):
        return block_diagonal(field, [mat(field, b) for b in bs])

    ident = blocks([[1, 0], [0, 1]], [[1]])
    nil = blocks([[0, 1], [0, 0]], [[0]])
    assert search_iso(field, [nil, ident])
    assert search_iso(field, [ident])
    # every combination of nilpotent matrices is singular
    assert not search_iso(field, [nil, blocks([[0, 1], [0, 0]], [[0]]),
                                  blocks([[0, 0], [0, 0]], [[0]])])
    assert not search_iso(field, [jordan(field, 3, 0)])
    # no basis matrix is invertible, but their sum is
    first, second = blocks([[1, 0], [0, 0]], [[1]]), blocks([[0, 0], [0, 1]], [[0]])
    assert not any(matrix_rank(field, m) == 3 for m in (first, second))
    assert search_iso(field, [first, second])
    # neither a basis matrix nor the weights 1, 2, 3 give an iso, as
    # diag(1, 0) + 2 diag(-1/2, 0) + 3 diag(0, 1) = diag(0, 3) (over F_2 the
    # weights are 1, 0, 1, and the 3 x 3 analogue sums to diag(1, 1, 0));
    # only the random stage finds the sum of the first two, the identity
    if field == GF(2):
        mats = [mat(field, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                mat(field, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
                mat(field, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])]
    else:
        half = field.neg(field.inv(field.from_int(2)))
        mats = [mat(field, [[1, 0], [0, 0]]), [[half, field.zero], [field.zero, field.zero]],
                mat(field, [[0, 0], [0, 1]])]
    n = len(mats[0])
    weighted = combination(field, [field.from_int(w) for w in (1, 2, 3)], mats, n, n)
    assert all(matrix_rank(field, m) < n for m in mats + [weighted])
    assert search_iso(field, mats)


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_module_stable_hom_equals_length_1_chains(field):
    """The closed form of modules.stable_hom_dim equals the length-1 chains'
    and the explicit cover's on random modules, and the explicit cover's on
    every pair of modules with at most 2 summands (e, s), e <= d, s <= 2,
    d <= 4."""
    def by_cover(m, n):
        return stable_dim(field, hom_basis, projective_cover, m, n)

    rng = random.Random(23)
    for _ in range(100):
        cfg = HypersurfaceConfig(rng.choice([2, 3, 4]), field)
        m = random_module(cfg, rng, max_summands=3)
        n = random_module(cfg, rng, max_summands=3)
        as_chain = chain_stable_hom_dim(MonoChain(cfg, [m], []),
                                        MonoChain(cfg, [n], []))
        assert stable_hom_dim(m, n) == as_chain == by_cover(m, n)
    dims = []
    for d in range(1, 5):
        cfg = HypersurfaceConfig(d, field)
        cyclic = [(e, s) for e in range(1, d + 1) for s in range(3)]
        modules = [RModule(cfg, summands) for k in range(3)
                   for summands in itertools.combinations_with_replacement(cyclic, k)]
        for m, n in itertools.product(modules, repeat=2):
            dims.append(stable_hom_dim(m, n))
            assert dims[-1] == by_cover(m, n), (m, n)
    assert len(dims) == 12_190 and len(set(dims)) > 3


def _chain_verdicts(pairs):
    """Iso, indecomposability and stable hom verdicts on chain pairs, and
    the stable homs between their objects."""
    return ([chain_iso_test(u, v) for u, v in pairs],
            [chain_is_indecomposable(u) for u, _ in pairs],
            [chain_stable_hom_dim(u, v) for u, v in pairs],
            [stable_hom_dim(a, b) for u, v in pairs
             for a in u.objects for b in v.objects])


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_piece_scalars_decide_as_the_ambient_realization(field, monkeypatch):
    """Iso and indecomposability read off the block matrices of the top
    components, and stable hom dimensions and ranks read off the degree
    pieces of module maps, equal the same computations on the ambient
    realization matrices (the reference `realization`): on 60
    random chains, on the criterion-2 census classes (l = 2, dim <= 3,
    window 2, d = 2, 3; not over Q, which the census does not enumerate),
    on sums u + v against v + u, and on the maps of their hom bases."""
    rng = random.Random(97)
    chains = [random_chain(HypersurfaceConfig(d, field), l, rng)
              for d, l in [(2, 2), (3, 2), (3, 3), (4, 2)] for _ in range(15)]
    if field is not QQ:
        for d in (2, 3):
            chains += enumerate_chains(HypersurfaceConfig(d, field), 2, 3, 2)
    pairs = [(u, v) for u, v in zip(chains, chains[1:] + chains[:1])
             if u.cfg == v.cfg and u.length == v.length]
    pairs += [(u.direct_sum(v), v.direct_sum(u)) for u, v in pairs[-8:]]
    pairs += [(u, u) for u in chains]
    maps = [g for u, v in pairs for f in chain_hom_basis(u, v) for g in f.parts]
    maps += [f for u, _ in pairs for f in u.maps]
    verdicts = _chain_verdicts(pairs)
    assert any(verdicts[0]) and not all(verdicts[0])
    assert any(verdicts[2]) and any(verdicts[3])
    ranks = [rank(f) for f in maps]
    assert ranks == [matrix_rank(field, realization(f)) for f in maps]
    assert len(set(ranks)) > 2
    monkeypatch.setattr("facto.chains._top_basis", lambda u, v, walks: [
        realization(ModuleMap(u.objects[-1], v.objects[-1], blocks, check=False))
        for blocks in _top_basis(u, v, walks)])
    assert _chain_verdicts(pairs) == verdicts


# iso and locality on the one component that fixes a map -----------------------


def _outcome(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except NonSplitEndomorphism as exc:
        return type(exc)


def _fac_reference(x, y):
    """(iso, indecomposable) read on every component of the slot-equation
    basis: search_iso and is_local on the block diagonal of all l+1
    components."""
    F = x.cfg.field
    same = all(sorted(x.degs(k)) == sorted(y.degs(k)) for k in range(x.l + 1))
    iso = same and (x.is_zero() or search_iso(
        F, [block_diagonal(F, scalars(f)) for f in _fac_hom_basis_by_slots(x, y)]))
    return iso, not x.is_zero() and _outcome(is_local, F, [
        block_diagonal(F, scalars(f)) for f in _fac_hom_basis_by_slots(x, x)])


def _chain_reference(u, v):
    """The same on every component of the block-product basis."""
    F = u.cfg.field
    same = all(module_iso(a, b) for a, b in zip(u.objects, v.objects))
    iso = same and (u.is_zero() or search_iso(
        F, [block_diagonal(F, scalars(f)) for f in _chain_hom_basis_by_block_products(u, v)]))
    return iso, not u.is_zero() and _outcome(is_local, F, [
        block_diagonal(F, scalars(f)) for f in _chain_hom_basis_by_block_products(u, u)])


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_verdicts_on_the_fixing_component_equal_the_all_component_ones(field):
    """fac_iso_test, fac_is_indecomposable, chain_iso_test and
    chain_is_indecomposable, which read only component l or the top, give
    the verdicts of search_iso and is_local on every component of the
    oracle bases: on random objects, their sums x + y, y + x and x + x, and
    the cok images of the factorizations, at five (d, l) shapes; and, but
    over Q, where the census enumerates nothing, on distinct flag
    factorizations (l = 2, d = 3, m <= 2, window 1) of the same degrees and
    their cok images of the same normal forms, which only the search tells
    apart."""
    rng = random.Random(43)
    fac_pairs, chain_pairs = [], []
    if field is not QQ:
        facs = list(_flag_factorizations(HypersurfaceConfig(3, field), 2, 2, 1))
        for pairs, objs, key in [(fac_pairs, facs, _fac_fingerprint),
                                 (chain_pairs, [cok(x) for x in facs], _chain_fingerprint)]:
            same = [(a, b) for a, b in itertools.combinations(objs, 2)
                    if a != b and key(a) == key(b)]
            pairs += rng.sample(same, min(len(same), 150))
    for d, l in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]:
        c = HypersurfaceConfig(d, field)
        x, y = (random_factorization(c, l, rng, m_max=2) for _ in range(2))
        u, v = (random_chain(c, l, rng, max_summands=3) for _ in range(2))
        facs = [x, y, x.direct_sum(y), y.direct_sum(x), x.direct_sum(x)]
        chains = [u, v, u.direct_sum(v), v.direct_sum(u), u.direct_sum(u)]
        chains += [cok(z) for z in facs]
        fac_pairs += itertools.product(facs, repeat=2)
        chain_pairs += itertools.product(chains, repeat=2)
    fac_verdicts = [(fac_iso_test(a, b), _outcome(fac_is_indecomposable, a)) for a, b in fac_pairs]
    chain_verdicts = [(chain_iso_test(a, b), _outcome(chain_is_indecomposable, a))
                      for a, b in chain_pairs]
    assert fac_verdicts == [_fac_reference(a, b) for a, b in fac_pairs]
    assert chain_verdicts == [_chain_reference(a, b) for a, b in chain_pairs]
    for verdicts in (fac_verdicts, chain_verdicts):
        assert {iso for iso, _ in verdicts} == {True, False}
        assert {True, False} <= {local for _, local in verdicts}


# stable homs in closed form against the explicit projective covers ------------


def _fac_dims(x, y):
    """((dim Hom by rank, stable dim in closed form, hom_dim_compare's left
    side), (dim Hom by a basis, stable dim by the explicit cover, by the
    nu^l counit)) of factorizations x, y."""
    F = x.cfg.field
    return ((fac_hom_dim(x, y), fac_stable_hom_dim(x, y), hom_dim_compare(x, y)[0]),
            (len(fac_hom_basis(x, y)), stable_dim(F, fac_hom_basis, fac_projective_cover, x, y),
             stable_dim(F, fac_hom_basis, nu_l_counit, x, y)))


def _chain_dims(u, v):
    """The same for chains u, v, with no counit."""
    return ((chain_hom_dim(u, v), chain_stable_hom_dim(u, v)),
            (len(chain_hom_basis(u, v)),
             stable_dim(u.cfg.field, chain_hom_basis, chain_projective_cover, u, v)))


def _assert_agree(dims):
    """Each closed form equals its reference (a hom dim its basis length, a
    stable dim the explicit cover's), and some stable dims are 0 and some
    are not."""
    for closed, reference in dims:
        assert closed == reference
    assert {bool(closed[1]) for closed, _ in dims} == {True, False}


# the census workload's censuses (F_5), Ringel-Schmidt d=3 over F_2, and
# l=3, d=3 over F_5, where component l carries a quarter of the unknowns
CENSUS_CLASSES = [(2, 2, 5, Bounds(m=2, dim=3, window=2)),
                  (2, 3, 5, Bounds(m=2, dim=3, window=2)),
                  (1, 2, 5, Bounds(m=1, dim=2, window=2)),
                  (1, 3, 5, Bounds(m=1, dim=3, window=3)),
                  (1, 4, 5, Bounds(m=1, dim=4, window=4)),
                  (2, 3, 2, Bounds(m=3, dim=6, window=3)),
                  (3, 3, 5, Bounds(m=2, dim=3, window=2))]


@pytest.mark.parametrize("l, d, p, bounds", CENSUS_CLASSES,
                         ids=[f"l{l}-d{d}-F{p}" for l, d, p, _ in CENSUS_CLASSES])
def test_stable_homs_of_census_classes_equal_the_explicit_covers(l, d, p, bounds):
    """fac_stable_hom_dim and chain_stable_hom_dim equal endo.stable_dim
    on the explicit projective covers, and fac_hom_dim and chain_hom_dim
    the lengths of the hom bases: on every ordered pair of the enumerated
    classes, projective ones included, and of the cok images of the
    factorization classes, on which the census's chain table is taken."""
    c = HypersurfaceConfig(d, GF(p))
    facs = enumerate_factorizations(c, l, bounds.m, bounds.window)
    chains = enumerate_chains(c, l, bounds.dim, bounds.window) + [cok(x) for x in facs]
    assert any(chain_projective_test(u) for u in chains)
    _assert_agree([_fac_dims(x, y) for x, y in itertools.product(facs, repeat=2)])
    _assert_agree([_chain_dims(u, v) for u, v in itertools.product(chains, repeat=2)])


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_stable_homs_of_random_objects_equal_the_explicit_covers(field):
    """The same on random factorizations and chains of six (d, l) shapes,
    on direct sums on either side and on each object with itself."""
    rng = random.Random(41)
    fac_dims, chain_dims = [], []
    for d, l in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        c = HypersurfaceConfig(d, field)
        for _ in range(6):
            x, y, z = (random_factorization(c, l, rng, m_max=2) for _ in range(3))
            fac_dims += [_fac_dims(x, y), _fac_dims(x.direct_sum(z), y),
                         _fac_dims(y, x.direct_sum(z)), _fac_dims(x, x)]
            u, v, w = (random_chain(c, l, rng) for _ in range(3))
            chain_dims += [_chain_dims(u, v), _chain_dims(u.direct_sum(w), v),
                           _chain_dims(v, u.direct_sum(w)), _chain_dims(u, u)]
    _assert_agree(fac_dims)
    _assert_agree(chain_dims)


# the census's stable hom tables against the pairwise dims ---------------------


def _assert_table(objs, table, dim):
    """table(objs) is dim on every ordered pair of objs, and some of its
    diagonal entries are 0 and some are not."""
    expect = [[dim(a, b) for b in objs] for a in objs]
    assert table(objs) == expect
    assert {bool(row[i]) for i, row in enumerate(expect)} == {True, False}
    return expect


def _count_calls(monkeypatch, module, name):
    """A list that grows by one on each call of module.name."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("l, d, p, bounds", CENSUS_CLASSES[:6],
                         ids=[f"l{l}-d{d}-F{p}" for l, d, p, _ in CENSUS_CLASSES[:6]])
def test_stable_hom_tables_of_census_classes_equal_the_pairwise_dims(l, d, p, bounds,
                                                                     monkeypatch):
    """fac_stable_hom_table and chain_stable_hom_table equal
    fac_stable_hom_dim and chain_stable_hom_dim on every ordered pair: of
    the enumerated classes, projective ones included, and of the cok
    images of the factorization classes.  Each table takes each object's
    walks once, and solves the diagonal and only the pairs of objects
    whose stable Ends are nonzero."""
    c = HypersurfaceConfig(d, GF(p))
    facs = enumerate_factorizations(c, l, bounds.m, bounds.window)
    chains = enumerate_chains(c, l, bounds.dim, bounds.window) + [cok(x) for x in facs]
    for objs, table, dim, module, walk, solve in [
            (facs, fac_stable_hom_table, fac_stable_hom_dim, facto.factorizations,
             "fac_walks", "_modulo_cover"),
            (chains, chain_stable_hom_table, chain_stable_hom_dim, facto.chains,
             "chain_walks", "_stable_dim")]:
        expect = _assert_table(objs, table, dim)
        walks, solves = _count_calls(monkeypatch, module, walk), _count_calls(
            monkeypatch, module, solve)
        assert table(objs) == expect
        assert len(walks) == len(objs)
        kept = sum(1 for i, row in enumerate(expect) if row[i])
        assert len(solves) == len(objs) + kept * (kept - 1)
        monkeypatch.undo()


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_stable_hom_tables_of_random_and_trivial_objects_equal_the_pairwise_dims(field):
    """The same on random factorizations and chains of five (d, l) shapes,
    with the trivial objects nu^k(S(-s)) and mu_n of free and non-free
    modules, and sums of a random object with a trivial one."""
    rng = random.Random(45)
    for d, l in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]:
        c = HypersurfaceConfig(d, field)
        xs = [random_factorization(c, l, rng, m_max=2) for _ in range(4)]
        xs += [nu(c, l, k, [rng.randrange(3)]) for k in range(l + 1)]
        xs += [xs[0].direct_sum(xs[-1]), xs[-2].direct_sum(xs[1])]
        us = [random_chain(c, l, rng) for _ in range(4)]
        us += [mu_trivial(a, n, l) for n in range(1, l + 1)
               for a in (RModule(c, [(d, rng.randrange(3))]), random_module(c, rng))]
        us += [us[0].direct_sum(us[-2]), us[-1].direct_sum(us[1])]
        _assert_table(xs, fac_stable_hom_table, fac_stable_hom_dim)
        _assert_table(us, chain_stable_hom_table, chain_stable_hom_dim)
