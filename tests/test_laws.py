"""Laws that hold for every model, tested on seeded generated models.

Expected values come from the factors' own tables, never from the code
under test run on the product.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc.functors import (
    CH,
    HH,
    PH,
    SH,
    LoopContext,
    audits,
    euler_series,
)

from models import (
    brute_form,
    even_sphere,
    free_cdga,
    odd_sphere,
    projective_space,
    rescaled,
    tensor,
)
from oracles import BruteAlgebra, cohomology_dims
from periodic import PH_periodic

# (kind, degree): odd spheres, and even spheres with dy = x^2.  Degree 1 is
# left out: its barred generator has degree 0, so HH is not finite there.
SPHERES = [(odd_sphere, 3), (odd_sphere, 5), (even_sphere, 2),
           (even_sphere, 4)]
# (kind, n): CP^n with dy = x^(n+1); CP^1 is the sphere (even_sphere, 2)
PROJECTIVE = [(projective_space, 2), (projective_space, 3)]


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


@given(st.sampled_from(PROJECTIVE), st.sampled_from(SPHERES + PROJECTIVE),
       st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_hh_kunneth_per_weight_with_a_projective_factor(cp, other, seed):
    assert_kunneth([cp, other], 8, seed)


@pytest.mark.slow
@given(st.lists(st.sampled_from(SPHERES + PROJECTIVE), min_size=2,
                max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hh_kunneth_per_weight_deep(spheres, seed):
    assert_kunneth(spheres, 10, seed)


def rows(algebra, cutoff):
    """{(functor, degree): (certified, total, weights)} of HH, CH, PH, SH."""
    ctx = LoopContext(algebra, cutoff)
    out = {}
    for functor in (HH, CH, PH, SH):
        table = functor(ctx)
        for n in table.degrees:
            out[(functor.__name__, n)] = (table.certified(n), table.total(n),
                                          table.weights(n))
    return out


def assert_certified_rows_stable(spheres, cutoff, seed):
    rng = random.Random(seed)
    algebra = free_cdga(rescaled(tensor(*[
        kind(degree, str(i)) for i, (kind, degree) in enumerate(spheres)]),
        rng))
    low, high = rows(algebra, cutoff), rows(algebra, cutoff + 2)
    certified = [key for key, (ok, _, _) in low.items() if ok]
    assert any(name == "HH" for name, _ in certified)
    for key in certified:
        assert high[key][1:] == low[key][1:], key


@given(st.lists(st.sampled_from(SPHERES), min_size=2, max_size=2),
       st.integers(0, 2**32 - 1), st.sampled_from([4, 6]))
@settings(max_examples=12, deadline=None)
def test_certified_rows_stable_under_a_larger_cutoff(spheres, seed, cutoff):
    assert_certified_rows_stable(spheres, cutoff, seed)


# SH rows of these products are first certified near cutoff 10 (the base
# vanishing window of LoopContext.base_bound), so only the deep run sees them.
@pytest.mark.slow
@given(st.lists(st.sampled_from(SPHERES), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_certified_rows_stable_under_a_larger_cutoff_deep(spheres, seed):
    assert_certified_rows_stable(spheres, 12, seed)


# Products where some degree 2w >= 2 carries both cohomology and
# coboundaries; the top degree of each base is at most 8.
SH0_PRODUCTS = {
    "s2xs2": [(even_sphere, 2)] * 2,
    "s2xs2xs2": [(even_sphere, 2)] * 3,
    "s2xs2xs3": [(even_sphere, 2), (even_sphere, 2), (odd_sphere, 3)],
    "s2xcp2": [(even_sphere, 2), (projective_space, 2)],
}


@pytest.mark.parametrize("name", sorted(SH0_PRODUCTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_sh0_is_the_even_base_cohomology(name, seed):
    # In the cone's long exact sequence SH^0(w) is H^(2w) of the base, so
    # dim SH^0 sums the even Betti numbers, here from the oracle's dense
    # elimination on the base
    cutoff = 8
    model = rescaled(tensor(*[kind(degree, str(i)) for i, (kind, degree)
                              in enumerate(SH0_PRODUCTS[name])]),
                     random.Random(seed))
    betti = cohomology_dims(BruteAlgebra(*brute_form(model)), cutoff + 1)
    sh = SH(LoopContext(free_cdga(model), cutoff))
    assert sh.total(0) == sum(betti[0::2])


def ph_against_periodic(spheres, cutoff, seed):
    """The number of rows that PH and PH_periodic both certify, after
    checking that they agree in each of them.  PH is read off the CH table
    and PH_periodic sums the periodic bands; neither is built from the
    other."""
    rng = random.Random(seed)
    ctx = LoopContext(free_cdga(rescaled(tensor(*[
        kind(degree, str(i)) for i, (kind, degree) in enumerate(spheres)]),
        rng)), cutoff)
    ph, periodic = PH(ctx), PH_periodic(ctx)
    both = [n for n in ph.degrees if ph.certified(n) and periodic.certified(n)]
    for n in both:
        assert ph.weights(n) == periodic.weights(n), n
        assert ph.total(n) == periodic.total(n), n
    return len(both)


@given(st.lists(st.sampled_from(SPHERES + PROJECTIVE), min_size=1,
                max_size=2),
       st.integers(0, 2**32 - 1), st.sampled_from([6, 8]))
@settings(max_examples=30, deadline=None)
def test_ph_equals_ph_periodic_where_both_certify(spheres, seed, cutoff):
    ph_against_periodic(spheres, cutoff, seed)


# Both sides certify a row only once the base cohomology vanishes on a top
# window (LoopContext.base_bound); through cutoff 8 these models get there.
@pytest.mark.parametrize("spheres", [[(odd_sphere, 3)], [(even_sphere, 2)],
                                     [(even_sphere, 2), (even_sphere, 2)]])
@pytest.mark.parametrize("seed", [0, 1])
def test_ph_equals_ph_periodic_on_certified_rows(spheres, seed):
    assert ph_against_periodic(spheres, 8, seed) == 9


@pytest.mark.slow
@given(st.lists(st.sampled_from(SPHERES + PROJECTIVE), min_size=2,
                max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_ph_equals_ph_periodic_where_both_certify_deep(spheres, seed):
    ph_against_periodic(spheres, 12, seed)


def chi_h(model, cutoff):
    """{weight: {"value", "certified"}} of chiH for the model."""
    return euler_series(LoopContext(free_cdga(model), cutoff))["chiH"]


def euler_product(left, right, w):
    """sum over i of chiH_A(i) chiH_B(w - i) from the factors' series, or
    None when a term is not known.  A term is known when both of its
    coefficients are certified, or when one is a certified zero: every
    weight slice of these models has finite cohomology, so the other
    factor is a finite number."""
    total = 0
    for i in range(w + 1):
        a, b = left.get(i), right.get(w - i)
        if a is None or b is None:
            return None
        if a["certified"] and b["certified"]:
            total += a["value"] * b["value"]
        elif not any(x["certified"] and x["value"] == 0 for x in (a, b)):
            return None
    return total


def assert_euler_multiplies(spheres, cutoff, seed):
    """The certified chiH coefficients of the product that its factors'
    series determine, after checking each against them."""
    rng = random.Random(seed)
    a, b = [rescaled(kind(degree, str(i)), rng)
            for i, (kind, degree) in enumerate(spheres)]
    left, right = chi_h(a, cutoff), chi_h(b, cutoff)
    compared = {}
    for w, row in chi_h(tensor(a, b), cutoff).items():
        expected = euler_product(left, right, w)
        if row["certified"] and expected is not None:
            assert row["value"] == expected, w
            compared[w] = expected
    return compared


@given(st.lists(st.sampled_from(SPHERES + PROJECTIVE), min_size=2,
                max_size=2),
       st.integers(0, 2**32 - 1), st.sampled_from([6, 8]))
@settings(max_examples=20, deadline=None)
def test_euler_series_multiplies(spheres, seed, cutoff):
    assert_euler_multiplies(spheres, cutoff, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_euler_series_multiplies_on_s2_times_s2(seed):
    # chiH(0) is the Euler characteristic of H(S^2 x S^2), 2 * 2
    compared = assert_euler_multiplies([(even_sphere, 2), (even_sphere, 2)],
                                       8, seed)
    assert compared[0] == 4


def assert_check_passes(spheres, cutoff, seed):
    """Every audit of check passes on a rescaled product, except the SH
    identity, which has no certified SH row this low (see
    test_certified_rows_stable_under_a_larger_cutoff_deep) and skips."""
    rng = random.Random(seed)
    algebra = free_cdga(rescaled(tensor(*[
        kind(degree, str(i)) for i, (kind, degree) in enumerate(spheres)]),
        rng))
    records = audits(LoopContext(algebra, cutoff))
    assert [(r.name, r.status) for r in records
            if r.status != "pass"] == [("SH dimension identity", "skipped")]


@pytest.mark.parametrize("seed", [0, 1])
def test_check_passes_on_s2_s2_s3(seed):
    assert_check_passes([(even_sphere, 2), (even_sphere, 2), (odd_sphere, 3)],
                        6, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_check_passes_on_s2_cubed(seed):
    assert_check_passes([(even_sphere, 2)] * 3, 8, seed)
