"""Laws that hold for every model, tested on seeded generated models.

Expected values come from the factors' own tables, never from the code
under test run on the product.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc.functors import HH, LoopContext

from models import even_sphere, free_cdga, odd_sphere, rescaled, tensor

# (kind, degree): odd spheres, and even spheres with dy = x^2.  Degree 1 is
# left out: its barred generator has degree 0, so HH is not finite there.
SPHERES = [(odd_sphere, 3), (odd_sphere, 5), (even_sphere, 2),
           (even_sphere, 4)]


def hh_weights(model, cutoff, rng):
    """{degree: {weight: dim}} of HH for a rescaled copy of the model."""
    table = HH(LoopContext(free_cdga(rescaled(model, rng)), cutoff))
    assert all(table.certified(n) for n in table.degrees)
    return {n: table.weights(n) for n in table.degrees}


def convolution(left, right, cutoff):
    """Per-weight Kunneth: HH^n_w of a product from its two factors."""
    out = {}
    for n in range(cutoff + 1):
        acc = Counter()
        for n1 in range(n + 1):
            for w1, d1 in left[n1].items():
                for w2, d2 in right[n - n1].items():
                    acc[w1 + w2] += d1 * d2
        out[n] = dict(acc)
    return out


def assert_kunneth(spheres, cutoff, seed):
    rng = random.Random(seed)
    factors = [kind(degree, str(i)) for i, (kind, degree) in enumerate(spheres)]
    expected = hh_weights(factors[0], cutoff, rng)
    for f in factors[1:]:
        expected = convolution(expected, hh_weights(f, cutoff, rng), cutoff)
    assert hh_weights(tensor(*factors), cutoff, rng) == expected


@given(st.lists(st.sampled_from(SPHERES), min_size=2, max_size=2),
       st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_hh_kunneth_per_weight(spheres, seed):
    assert_kunneth(spheres, 6, seed)


@pytest.mark.slow
@given(st.lists(st.sampled_from(SPHERES), min_size=2, max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hh_kunneth_per_weight_deep(spheres, seed):
    assert_kunneth(spheres, 10, seed)
