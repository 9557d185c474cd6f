"""Exact combinatorial weights for the expansion coefficients.

A(n, l) is the weight attached to a composition l = (l_1, ..., l_{k-1}) of n
(nonnegative parts summing to n) in the order-(n + k) coefficient:

    A(n, l) = multinomial(n; l) * int_{I_k} prod_i (lam_i - lam_{i+1})^{l_i}

where I_k = {1 >= lam_1 >= ... >= lam_{k-1} >= lam_k = 0} with the first
k - 1 coordinates integrated.  In gap coordinates that is a Dirichlet
integral, prod_i l_i! / (n + k)!, so A(n, l) = n!/(n + k)! for every
composition, in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .sampling import _check_count

__all__ = [
    "enumerate_compositions",
    "weight_A",
]


def enumerate_compositions(n: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n into `slots` nonnegative parts, lexicographic: the (n + 1)^slots part tuples filtered."""
    if _check_count("n", n) < 0 or _check_count("slots", slots) < 1:
        raise ValueError("need n >= 0 and slots >= 1")
    return tuple(ell for ell in product(range(n + 1), repeat=slots) if sum(ell) == n)


def weight_A(n: int, ell: tuple[int, ...]) -> Fraction:
    """A(n, l) = multinomial(n; l) * int_{I_k} prod_i (lam_i - lam_{i+1})^{l_i} = n!/(n + k)!, exact."""
    n = _check_count("n", n)
    if len(ell) == 0 or min(_check_count(f"ell[{i}]", part) for i, part in enumerate(ell)) < 0:
        raise ValueError(f"composition {ell} must have at least one part, all nonnegative")
    if sum(ell) != n:
        raise ValueError(f"composition {ell} does not sum to {n}")
    return Fraction(factorial(n), factorial(n + len(ell) + 1))
