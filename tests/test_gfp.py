import pytest

from liesupp.gfp import MODULUS_LIMIT, ModulusTooLargeError, NotPrimeError, PrimeField


@pytest.mark.parametrize("p", [1, 4, 6, 9, 15])
def test_composite_modulus_rejected(p):
    with pytest.raises(NotPrimeError):
        PrimeField(p)


def test_modulus_limit():
    assert PrimeField(2097143).p == 2097143  # largest prime below the limit
    for p in (MODULUS_LIMIT, 2097169, 2**61 - 1):
        # refused before the primality test, which never ends near 2^61
        with pytest.raises(ModulusTooLargeError):
            PrimeField(p)
