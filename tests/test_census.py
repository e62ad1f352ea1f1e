import random

import pytest

from facto.census import (
    Bounds,
    _all_subspaces,
    class_census,
    enumerate_chains,
    enumerate_factorizations,
    hom_dim_compare,
    stable_graded_subspaces,
)
from facto.chains import chain_is_indecomposable, chain_projective_test
from facto.factorizations import (
    fac_is_indecomposable,
    fac_projective_test,
    nu,
)
from facto.fields import GF, QQ
from facto.modules import HypersurfaceConfig, RModule
from facto.randgen import random_factorization, rank1_factorization


def cfg(d, field=GF(5)):
    return HypersurfaceConfig(d, field)


def test_bounds_parse():
    b = Bounds.parse("m=1,dim=3,window=3")
    assert (b.m, b.dim, b.window) == (1, 3, 3)
    with pytest.raises(ValueError):
        Bounds.parse("m=1,dim=3")
    with pytest.raises(ValueError):
        Bounds.parse("m=1,dim=x,window=2")


def test_all_subspaces_counts():
    F2, F5 = GF(2), GF(5)
    assert len(_all_subspaces(F2, 2, [F2.from_int(i) for i in range(2)])) == 5
    assert len(_all_subspaces(F5, 2, [F5.from_int(i) for i in range(5)])) == 8


def test_stable_subspaces_of_cyclic():
    c = cfg(2)
    r = RModule.free(c, [0])
    spaces = stable_graded_subspaces(c.field, r.basis_degrees(), r.x_matrix())
    # 0, the socle, and R itself
    assert sorted(len(v) for v in spaces) == [0, 1, 2]


def test_enumerate_factorizations_d2_l1():
    c = cfg(2)
    facs = enumerate_factorizations(c, 1, 1, 0)
    nonzero = [x for x in facs if not x.is_zero()]
    # (x, x), (x^2, 1), (1, x^2) up to shift
    assert len(nonzero) == 3
    assert sorted(x.maps[0].mat.entries[0][0].degree for x in nonzero) == [0, 1, 2]


def test_enumerate_factorizations_d3_l1():
    c = cfg(3)
    facs = enumerate_factorizations(c, 1, 1, 0)
    assert len([x for x in facs if not x.is_zero()]) == 4


def test_enumerate_factorizations_needs_finite_field():
    with pytest.raises(ValueError):
        enumerate_factorizations(cfg(2, QQ), 1, 1, 0)


def test_enumerate_chains_d2_l1():
    c = cfg(2)
    chains = enumerate_chains(c, 1, 2, 0)
    # 0, k, k^2, R
    assert len(chains) == 4


def test_census_classical():
    for d in (2, 3, 4):
        c = cfg(d)
        rep = class_census(c, 1, Bounds(m=1, dim=d, window=d))
        assert len(rep.fac_classes) == d - 1
        assert len(rep.chain_classes) == d - 1
        assert len(rep.matching) == d - 1
        assert rep.fac_hom_table == rep.chain_hom_table
        assert rep.to_table()
        assert rep.to_json()["matching"]


def test_census_l2_d2():
    c = cfg(2)
    rep = class_census(c, 2, Bounds(m=2, dim=2, window=2))
    assert rep.matching
    # every chain class within bounds got hit
    hit = {j for _, j in rep.matching}
    assert hit == set(range(len(rep.chain_classes)))


def test_hom_dim_compare_fixed():
    c = cfg(2)
    x = rank1_factorization(c, [1])
    lhs, rhs, ok = hom_dim_compare(x, x)
    assert ok and lhs == rhs
    y = nu(c, 1, 1, [0])
    lhs, rhs, ok = hom_dim_compare(x, y)
    assert ok and lhs == 0 and rhs == 0


def test_hom_dim_compare_random():
    rng = random.Random(61)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d)
        for _ in range(6):
            x = random_factorization(c, l, rng, m_max=2)
            y = random_factorization(c, l, rng, m_max=2)
            lhs, rhs, ok = hom_dim_compare(x, y)
            assert ok, (lhs, rhs)


def _classes_by_dedup_first(c, l, bounds):
    """The class lists as deduplicating every flag object first gives them."""
    facs = [x for x in enumerate_factorizations(c, l, bounds.m, bounds.window)
            if fac_is_indecomposable(x) and not fac_projective_test(x)]
    chains = [u for u in enumerate_chains(c, l, bounds.dim, bounds.window)
              if chain_is_indecomposable(u) and not chain_projective_test(u)]
    return [x.to_json() for x in facs], [u.to_json() for u in chains]


@pytest.mark.parametrize("d, field", [(2, GF(5)), (2, GF(2)), (3, GF(2))],
                         ids=repr)
def test_census_classes_equal_dedup_first_oracle(d, field):
    """Filtering flag objects by End(X) before dedup keeps the same
    classes, in the same order, as filtering the deduplicated lists."""
    c = cfg(d, field)
    bounds = Bounds(m=2, dim=3, window=2)
    rep = class_census(c, 2, bounds)
    assert _classes_by_dedup_first(c, 2, bounds) == (
        rep.to_json()["fac_classes"], rep.to_json()["chain_classes"])


@pytest.mark.parametrize("d", [2, 3])
def test_census_does_not_depend_on_the_seed(d):
    c, bounds = cfg(d), Bounds(m=2, dim=3, window=2)
    assert (class_census(c, 2, bounds, seed=0).to_json()
            == class_census(c, 2, bounds, seed=7).to_json())
