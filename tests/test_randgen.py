import random

import pytest

from facto.factorizations import (
    Factorization,
    FactorizationError,
    fac_validate,
    zigzag_check,
)
from facto.fields import GF
from facto.modules import HypersurfaceConfig
from facto.randgen import random_factorization, rank1_factorization


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
