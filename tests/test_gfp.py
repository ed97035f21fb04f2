import pytest

from liesupp.gfp import MODULUS_LIMIT, ModulusTooLargeError, NotPrimeError, PrimeField


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    for a in F.elements():
        for b in F.elements():
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in F.elements():
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_examples():
    assert PrimeField(3).add(2, 2) == 1
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(2).neg(1) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_involution(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.mul(F.inv(a), a) == 1
        assert F.inv(F.inv(a)) == a


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_is_square():
    assert PrimeField(2).is_square(1)
    assert not PrimeField(3).is_square(2)
    assert PrimeField(7).is_square(2)  # 3^2 = 9 = 2


def test_char2_everything_is_a_square():
    # Frobenius is bijective in characteristic 2
    F = PrimeField(2)
    assert all(F.is_square(a) for a in F.elements())


@pytest.mark.parametrize("p", [1, 4, 6, 9, 15])
def test_composite_modulus_rejected(p):
    with pytest.raises(NotPrimeError):
        PrimeField(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_is_square_matches_table_of_squares(p):
    squares = {(x * x) % p for x in range(p)}
    F = PrimeField(p)
    assert all(F.is_square(a) == (a % p in squares) for a in range(-p, 2 * p))


def test_modulus_limit():
    assert PrimeField(2097143).p == 2097143  # largest prime below the limit
    for p in (MODULUS_LIMIT, 2097169, 2**61 - 1):
        # refused before the primality test, which never ends near 2^61
        with pytest.raises(ModulusTooLargeError):
            PrimeField(p)
