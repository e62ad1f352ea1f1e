import random

import pytest

import facto.factorizations
from facto.factorizations import (
    Factorization,
    FactorizationError,
    fac_validate,
    zigzag_check,
)
from facto.fields import GF, QQ
from facto.modules import HypersurfaceConfig
from facto.randgen import random_factorization, rank1_factorization
from reference import random_factorization_by_parts


@pytest.mark.parametrize("p", [2, 3])
def test_random_factorizations_over_small_fields_validate(p):
    rng = random.Random(p)
    for d, l in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]:
        cfg = HypersurfaceConfig(d, GF(p))
        for _ in range(100):
            x = random_factorization(cfg, l, rng)
            again = fac_validate(list(x.maps), cfg)
            assert isinstance(again, Factorization)
            assert again.closing == x.closing
            assert zigzag_check(x) is True


def test_rank1_powers_beyond_d_raise_a_typed_error():
    cfg = HypersurfaceConfig(2, GF(5))
    with pytest.raises(FactorizationError, match="NoClosing"):
        rank1_factorization(cfg, [2, 1])
    # not a ValueError, which the census command reads as bad input
    assert not issubclass(FactorizationError, ValueError)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_random_factorization_equals_the_sum_of_rank1_parts(field):
    """Building the sum's identity-scalar maps directly draws the same
    numbers in the same order, and gives the conjugated sum of validated
    rank-1 parts."""
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        for d in range(1, 6):
            cfg = HypersurfaceConfig(d, field)
            for l in (1, 2, 3):
                x = random_factorization(cfg, l, rng)
                assert x == random_factorization_by_parts(cfg, l, ref), (seed, d, l)
                assert rng.getstate() == ref.getstate()


def test_random_factorization_validates_once(monkeypatch):
    """One draw is one fac_validate call: the conjugated maps', and no
    validation of the rank-1 parts."""
    calls = []
    validate = facto.factorizations.fac_validate

    def counting(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(facto.factorizations, "fac_validate", counting)
    rng = random.Random(5)
    for d, l in [(2, 1), (3, 2), (4, 3)]:
        for _ in range(20):
            calls.clear()
            random_factorization(HypersurfaceConfig(d, GF(5)), l, rng)
            assert len(calls) == 1
