from fractions import Fraction
from math import comb, factorial, prod

import pytest

import oracles
from fracheat import enumerate_compositions, weight_A
from fracheat.simplex import simplex_integral

# Exact rational anchors, zero tolerance.
ANCHORS = [
    ((1, (1,)), Fraction(1, 6)),
    ((2, (2,)), Fraction(1, 12)),
    ((3, (3,)), Fraction(1, 20)),
    ((1, (1, 0)), Fraction(1, 24)),
    ((1, (0, 1)), Fraction(1, 24)),
    ((2, (1, 1)), Fraction(1, 60)),
    ((2, (2, 0)), Fraction(1, 60)),
    ((2, (0, 2)), Fraction(1, 60)),
]


@pytest.mark.parametrize("args,expected", ANCHORS)
def test_weight_anchor_values(args, expected):
    n, ell = args
    assert weight_A(n, ell) == expected


@pytest.mark.parametrize("k", range(2, 7))
def test_zero_order_weight_is_inverse_factorial(k):
    ell = tuple([0] * (k - 1))
    assert weight_A(0, ell) == Fraction(1, factorial(k))


def test_weight_depends_only_on_order_and_arity():
    # the multinomial front factor exactly cancels the simplex volume's
    # factorial product, leaving n! / (n+k)! for every composition; the
    # iterated Beta product derives the same value independently
    for n in range(0, 6):
        for k in range(2, 7):
            expected = Fraction(factorial(n), factorial(n + k))
            for ell in enumerate_compositions(n, k - 1):
                assert weight_A(n, ell) == expected == oracles.weight_beta(n, ell)


def test_composition_enumeration_count_and_order():
    for n in range(0, 7):
        for slots in range(1, 6):
            comps = list(enumerate_compositions(n, slots))
            assert len(comps) == comb(n + slots - 1, slots - 1)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == n and len(c) == slots for c in comps)
            assert comps == sorted(comps)


def test_simplex_integral_pure_rational():
    assert simplex_integral((1,)) == Fraction(1, 6)
    assert simplex_integral((0, 0)) == Fraction(1, 6)  # ordered 3-simplex volume
    assert simplex_integral((2, 1)) == Fraction(2, 720)
    for n in range(0, 5):
        for slots in (1, 2, 3, 4):
            for ell in enumerate_compositions(n, slots):
                # the factorial closed form must agree with the Beta-product oracle
                assert simplex_integral(ell) == oracles.simplex_integral_beta(ell)
                assert simplex_integral(ell) == Fraction(
                    prod(factorial(p) for p in ell), factorial(n + slots + 1)
                )


def test_weights_match_the_beta_oracle_for_every_composition():
    # what the --weights table prints: n < 4, 2 <= k <= 5, all compositions
    rows = [(n, ell) for n in range(4) for k in range(2, 6) for ell in enumerate_compositions(n, k - 1)]
    assert len(rows) == sum(comb(n + k - 2, k - 2) for n in range(4) for k in range(2, 6))
    for n, ell in rows:
        assert weight_A(n, ell) == oracles.weight_beta(n, ell)
        assert weight_A(n, ell) == factorial(n) * simplex_integral(ell) / prod(factorial(p) for p in ell)


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        weight_A(-1, (0,))
    with pytest.raises(ValueError):
        weight_A(2, (1,))  # composition does not sum to n
    with pytest.raises(ValueError):
        weight_A(0, (1, -1))  # sums to n, but a part is negative
    with pytest.raises(ValueError):
        weight_A(0, ())
    with pytest.raises(ValueError):
        simplex_integral(())
    with pytest.raises(ValueError):
        simplex_integral((2, -1))
    with pytest.raises(ValueError):
        list(enumerate_compositions(1, 0))
