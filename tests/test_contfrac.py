"""Tests for the continued-fraction layer: expansion, evaluation, and the
derived weight/minor sequences."""

import math

import pytest

from lensmilnor import (
    CFExpansion,
    InvalidInputError,
    LensSpace,
    as_expansion,
    cf_invariants,
    expand,
    q_squared_is_one,
)

from verification import is_palindromic, per_pair_cache_mismatches, signed_minors


def test_expand_examples():
    assert tuple(expand(12, 7)) == (2, 4, 2)
    assert tuple(expand(28, 15)) == (2, 8, 2)
    assert tuple(expand(6, 1)) == (6,)
    assert tuple(expand(17, 7)) == (3, 2, 4)
    assert tuple(expand(209, 56)) == (4, 4, 4, 4)
    assert tuple(expand(180, 47)) == (4, 6, 8)
    assert tuple(expand(34, 7)) == (5, 7)
    assert tuple(expand(56, 15)) == (4, 4, 4)
    assert tuple(expand(41, 24)) == (2, 4, 2, 4)
    # q = p - 1 gives the all-2 chain of length p - 1
    assert tuple(expand(7, 6)) == (2,) * 6
    assert tuple(expand(2, 1)) == (2,)


def test_evaluate_examples():
    assert as_expansion([2, 3, 2]).fraction == LensSpace(8, 5)
    assert as_expansion([2, 4]).fraction == LensSpace(7, 4)
    assert as_expansion([2, 2, 4]).fraction == LensSpace(10, 7)
    assert as_expansion([4, 4]).fraction == LensSpace(15, 4)
    assert as_expansion([6]).fraction == LensSpace(6, 1)
    assert as_expansion((2,) * 9).fraction == LensSpace(10, 9)


def test_expand_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        expand(4, 2)  # not coprime
    with pytest.raises(InvalidInputError):
        expand(5, 0)
    with pytest.raises(InvalidInputError):
        expand(5, 5)
    with pytest.raises(InvalidInputError):
        expand(5, 7)  # q > p
    with pytest.raises(InvalidInputError):
        expand(-5, 2)
    with pytest.raises(InvalidInputError):
        LensSpace(6, 3)


def test_expansion_rejects_bad_coefficients():
    with pytest.raises(InvalidInputError):
        CFExpansion(())
    with pytest.raises(InvalidInputError):
        CFExpansion((2, 1, 2))
    with pytest.raises(InvalidInputError):
        CFExpansion((0,))
    with pytest.raises(InvalidInputError):
        CFExpansion((2, -4, 2))
    with pytest.raises(InvalidInputError):
        as_expansion([3, 1])
    assert as_expansion([2, 5]).coeffs == (2, 5)
    assert as_expansion(CFExpansion((3,))).coeffs == (3,)


def test_invariants_single_coefficient():
    inv = cf_invariants([6])
    assert inv.mu == (1,)
    assert inv.p == 6
    assert signed_minors([6]) == (1, -6)


def test_invariants_examples():
    inv = cf_invariants([2, 4, 2])
    assert inv.mu == (1, 2, 7)
    assert signed_minors([2, 4, 2]) == (1, -2, 7, -12)
    assert inv.p == 12

    inv = cf_invariants([2, 3, 2])
    assert inv.mu == (1, 2, 5)
    assert signed_minors([2, 3, 2])[-1] == -8
    assert inv.p == 8

    inv = cf_invariants([4, 4, 4, 4])
    assert inv.p == 209


def test_invariant_identities_exhaustive():
    # Against the signed minors Delta of verification.signed_minors:
    # mu increasing, |Delta[n]| = p, Delta[i] = (-1)^i mu_{i+1},
    # sign(Delta[i]) = (-1)^i, and folding the coefficients inverts expand.
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            assert CFExpansion(exp.coeffs).fraction == exp.fraction == LensSpace(p, q)
            assert len(exp) < p
            inv = cf_invariants(exp)
            delta = signed_minors(exp)
            n = len(exp)
            assert len(inv.mu) == n
            assert all(inv.mu[i] < inv.mu[i + 1] for i in range(n - 1))
            assert inv.p == exp.fraction.p == abs(delta[n]) == p
            # inv.mu[i] is the (i+1)-th weight, so this is Delta[i] = (-1)^i mu_{i+1}
            for i in range(n):
                assert delta[i] == (-1) ** i * inv.mu[i]
            for i in range(n + 1):
                sign = 1 if delta[i] > 0 else -1
                assert sign == (-1) ** i


def test_kept_values_are_not_fields():
    # invariants and fraction are kept on the instance, outside the
    # fields: equality and the hash see only the coefficients.
    warm = expand(41, 24)
    assert warm.invariants.p == 41
    assert warm.fraction == LensSpace(41, 24)
    cold = CFExpansion((2, 4, 2, 4))
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert cf_invariants(cold) is cf_invariants(cold)
    assert cold.fraction is cold.fraction
    # sum(a_i - 2), kept once computed
    assert warm.extremal_sum == cold.extremal_sum == 4
    assert vars(cold)["extremal_sum"] == 4


def test_per_pair_caches_match_fresh_values():
    assert per_pair_cache_mismatches(200) == []


def test_reversal_duality():
    # Reversing the expansion of p/q yields the expansion of p/q' with
    # q q' = 1 mod p.
    for p in range(2, 151):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            q_inv = pow(q, -1, p)
            assert tuple(expand(p, q_inv)) == tuple(exp)[::-1]


def test_palindrome_examples():
    assert is_palindromic([2, 4, 2])
    assert is_palindromic([5])
    assert not is_palindromic([2, 8])
    assert q_squared_is_one(12, 7)
    assert q_squared_is_one(28, 15)
    assert q_squared_is_one(209, 56)
    assert not q_squared_is_one(180, 47)
    assert not q_squared_is_one(7, 4)


def test_palindrome_law_exhaustive():
    for p in range(2, 151):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            assert is_palindromic(expand(p, q)) == q_squared_is_one(p, q)


def test_chain_length_can_reach_p_minus_1():
    exp = expand(300, 299)
    assert len(exp) == 299
    assert set(exp.coeffs) == {2}
    inv = cf_invariants(exp)
    assert inv.p == 300
    assert inv.mu == tuple(range(1, 300))
