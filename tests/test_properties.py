"""Property tests: continued fractions of 50-digit fractions and the group
axioms of small isometry groups, on inputs drawn by hypothesis.

hypothesis is a test-only dependency (the `test` extra in
pyproject.toml); without it this module is skipped.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from lensmilnor import (
    CFExpansion,
    IntersectionLattice,
    LensSpace,
    cf_invariants,
    expand,
    orthogonal_group,
)
from lensmilnor.contfrac import continuants, q_squared_is_one
from verification import identity, is_isometry_dense, matmul, negate, signed_minors

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def coprime_pairs(draw):
    """(p, q) with 0 < q < p <= 10^50 coprime: a convergent of a regular
    continued fraction [c_0; c_1, ...] with drawn quotients, by the
    classical + recurrence, not by the negative-regular code under test.
    Quotients up to 60 keep the expansion to a few thousand
    coefficients, where q = p - 1 would have p - 1."""
    length = draw(st.integers(1, 120))  # every magnitude, not mostly small p
    quotients = draw(st.lists(st.integers(1, 60), min_size=length, max_size=length))
    (p, p_before), (q, q_before) = (1, 0), (0, 1)
    for c in quotients:
        if c * p + p_before > 10**50:
            break
        p, p_before = c * p + p_before, p
        q, q_before = c * q + q_before, q
    assume(q < p)  # only the quotients [1] give p = q = 1
    return p, q


@PROPERTY
@given(coprime_pairs())
def test_expansions_fold_back_to_their_fraction(pair):
    p, q = pair
    exp = expand(p, q)
    assert exp.fraction == LensSpace(p, q)
    assert CFExpansion(exp.coeffs).fraction == LensSpace(p, q)


@PROPERTY
@given(coprime_pairs())
def test_continuants_are_the_minors_and_end_in_p(pair):
    p, q = pair
    exp = expand(p, q)
    k = continuants(exp.coeffs)
    assert k == [abs(d) for d in signed_minors(exp)]
    assert all(a < b for a, b in zip(k, k[1:]))
    assert k[-1] == p
    inv = cf_invariants(exp)
    assert (*inv.mu, inv.p) == tuple(k)


@PROPERTY
@given(coprime_pairs())
def test_reversed_expansion_is_that_of_the_inverse_of_q(pair):
    # The forward continuants end in (q', p) with q q' = 1 mod p, and the
    # reversed expansion is the expansion of p/q', whose continuants end
    # in (q, p): the fact behind q_squared_is_one.
    p, q = pair
    c = expand(p, q).coeffs
    q_inv = continuants(c)[-2]
    assert (q * q_inv - 1) % p == 0
    assert continuants(c[::-1])[-2:] == [q, p]
    assert expand(p, q_inv).coeffs == c[::-1]
    assert q_squared_is_one(p, q) == (c == c[::-1])


@PROPERTY
@given(st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple))
def test_completed_groups_satisfy_the_group_axioms(diag):
    group = orthogonal_group(IntersectionLattice(diag))
    assume(group.complete)
    elements = set(group)
    one = identity(len(diag))
    assert one in elements and negate(one) in elements
    for g in group:
        assert is_isometry_dense(diag, g)
        products = {matmul(g, h) for h in group}
        assert products <= elements
        assert one in products  # g has its inverse in the group
