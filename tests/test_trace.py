import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreykit.cli import TRACE_PRESETS
from morreykit.growth import SpaceParams, power
from morreykit.gridfn import (_block_mean, _expand, level_side,
                              random_bandlimited, rychkov_pair)
from morreykit.norms import CoeffField, _cell_fields, seq_norm
from morreykit.trace import (TraceProblem, extend_coeff, extension_bound,
                             trace_bound_I, trace_bound_II, trace_coeff,
                             trace_function, _touching_slices)
from morreykit.verify import coeff_corpus


def _problem(n=2, q=1.0, r=2.0, s=1.5, variant="N"):
    return TraceProblem(SpaceParams(q=q, r=r, s=s, phi=power(1.0, n),
                                    variant=variant, n=n))


def test_problem_validation():
    with pytest.raises(ValueError):
        TraceProblem(SpaceParams(q=1.0, r=2.0, s=2.0, phi=power(1.0),
                                 variant="N", n=1))
    # s must exceed 1/q + (n-1)(1/min(1,q) - 1)
    with pytest.raises(ValueError):
        _problem(s=0.9)
    prob = _problem(s=1.5)
    assert prob.threshold == pytest.approx(1.0)
    assert prob.star.n == 1
    assert prob.star.s == pytest.approx(0.5)


def test_threshold_uses_r_for_E_variant():
    # E-variant with r = 1/2: w = 1/2, threshold = 1/q + (n-1)
    prob = TraceProblem(SpaceParams(q=2.0, r=0.5, s=2.0, phi=power(2.0, 2),
                                    variant="E", n=2))
    assert prob.threshold == pytest.approx(1.5)


def test_touching_slices():
    assert _touching_slices(0) == (0,)
    assert _touching_slices(-2) == (0,)
    assert _touching_slices(1) == (0, 1)
    assert _touching_slices(3) == (0, 7)


def test_trace_coeff_brute_force():
    # brute-force index scan over the touching slabs m_n in {0, 2^j - 1}
    prob = _problem()
    rng = np.random.default_rng(0)
    levels = {j: rng.standard_normal((1 << j,) * 2) for j in range(0, 4)}
    lam = CoeffField(2, levels)
    tl = trace_coeff(lam, prob)
    for j in range(0, 4):
        side = 1 << j
        for m0 in range(side):
            want = sum(lam.levels[j][m0, mn] for mn in set([0, side - 1]))
            assert tl.levels[j][m0] == pytest.approx(want)


def test_trace_coeff_zero_and_dim_check():
    prob = _problem()
    assert trace_bound_I(CoeffField(2, {}), prob) == 0.0
    assert trace_bound_II(CoeffField(2, {}), prob) == 0.0
    with pytest.raises(ValueError):
        trace_coeff(CoeffField(3, {}), prob)
    with pytest.raises(ValueError):
        extend_coeff(CoeffField(2, {}), prob)


# (n, preset) -> float.hex of trace_bound_I on a seeded sparse field, as the
# per-level _split_blocks(...).mean() computed it; presets B and D are
# below their trace threshold in n = 3
TRACE_I_PINS = {
    (2, "A"): "0x1.459e2076e9172p-4", (2, "B"): "0x1.0eda9c00d58f5p-5",
    (2, "C"): "0x1.c252a0933234fp-5", (2, "D"): "0x1.19ce0a37eecf0p-3",
    (3, "A"): "0x1.357866af36ec5p-2", (3, "C"): "0x1.acf1fa7849924p-3",
}


@pytest.mark.parametrize("n,name", sorted(TRACE_I_PINS))
def test_trace_bound_I_pinned(n, name):
    lam = next(coeff_corpus(n, 6 if n == 2 else 4, 1, seed=9))
    prob = TraceProblem(TRACE_PRESETS[name](n))
    assert trace_bound_I(lam, prob).hex() == TRACE_I_PINS[n, name]


def _loop_bound_I(lam, problem):
    """trace_bound_I as two hand-written loops: per j0 a left fold of the
    weighted level terms from zeros, and a running max over j0."""
    star = problem.star
    q, s, phi = star.q, star.s, star.phi
    tl = trace_coeff(lam, problem)
    cl = tl.max_level
    fields = dict(_cell_fields(tl, cl))
    denom = seq_norm(lam, problem.params)
    if denom == 0:
        return 0.0
    side = level_side(cl)
    terms = {j: (2.0 ** (j * s) * S) ** q for j, S in fields.items()}
    best = 0.0
    for j0 in range(0, cl + 1):
        acc = np.zeros((side,) * star.n)
        for j, T in terms.items():
            if j >= j0:
                acc += T
        means = _block_mean(acc, side >> j0)
        best = max(best, phi(2.0 ** (-j0)) * float(means.max()) ** (1.0 / q))
    return best / denom


def _loop_bound_II(lam, problem):
    """trace_bound_II as a hand-written chain sum and running max."""
    star = problem.star
    q, s, phi = star.q, star.s, star.phi
    denom = seq_norm(lam, problem.params)
    if denom == 0:
        return 0.0
    cl = lam.max_level
    acc = np.zeros((level_side(cl),) * star.n)
    best = 0.0
    for j0 in range(0, cl + 1):
        if j0 in lam.levels:
            expanded = _expand(np.abs(lam.levels[j0][..., 0]), 1 << (cl - j0))
            acc = acc + (2.0 ** (j0 * s) * expanded) ** q
        best = max(best, phi(2.0 ** (-j0)) * float(acc.max()) ** (1.0 / q))
    return best / denom


def _valid_problem(n, name):
    try:
        return TraceProblem(TRACE_PRESETS[name](n))
    except ValueError:  # below the trace threshold in this dimension
        return None


PROBLEMS = {(n, name): _valid_problem(n, name)
            for n in (2, 3) for name in "ABCD"}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(k for k, v in PROBLEMS.items() if v)),
       depth=st.integers(0, 4), floor=st.sampled_from([0, -1, -3]),
       seed=st.integers(0, 2 ** 16))
def test_bounds_match_the_loops(key, depth, floor, seed):
    # the bounds build on norms' level weight, root and ell^inf rules; on
    # coefficient fields with and without homogeneous levels (j < 0) they
    # give the floats of the loops they replaced, bit for bit
    n = key[0]
    depth += 2 if n == 2 else 0  # a 3-D level has (2^depth)^3 cells
    lam = next(coeff_corpus(n, depth, 1, seed, floor=floor))
    prob = PROBLEMS[key]
    assert trace_bound_I(lam, prob).hex() == _loop_bound_I(lam, prob).hex()
    assert trace_bound_II(lam, prob).hex() == _loop_bound_II(lam, prob).hex()


def test_trace_extend_round_trip_exact():
    prob = _problem()
    rng = np.random.default_rng(1)
    mu = CoeffField(1, {j: rng.standard_normal((1 << j,))
                        + 1j * rng.standard_normal((1 << j,))
                        for j in range(0, 5)})
    back = trace_coeff(extend_coeff(mu, prob), prob)
    for j in mu.level_list():
        assert np.array_equal(back.levels[j], mu.levels[j])


def test_extension_plants_zero_slab():
    prob = _problem()
    mu = CoeffField(1, {1: np.array([1.0, 2.0])})
    ext = extend_coeff(mu, prob)
    assert np.allclose(ext.levels[1][:, 0], [1.0, 2.0])
    assert np.abs(ext.levels[1][:, 1]).max() == 0.0


def test_extension_bound_zero():
    prob = _problem()
    assert extension_bound(CoeffField(1, {}), prob) == 0.0


def test_bounds_positive_on_slab_field():
    prob = _problem()
    rng = np.random.default_rng(2)
    levels = {}
    for j in range(0, 5):
        side = 1 << j
        arr = np.zeros((side, side))
        arr[:, 0] = rng.lognormal(0, 1, side)
        levels[j] = arr
    lam = CoeffField(2, levels)
    assert trace_bound_I(lam, prob) > 0
    assert trace_bound_II(lam, prob) > 0


def test_homogeneous_levels_pass_through():
    prob = _problem()
    lam = CoeffField(2, {-1: 2.0, 1: np.ones((2, 2))})
    tl = trace_coeff(lam, prob)
    assert tl.levels[-1] == 2.0 + 0j
    mu = CoeffField(1, {-2: 1.5, 0: np.ones((1,))})
    ext = extend_coeff(mu, prob)
    assert ext.levels[-2] == 1.5 + 0j


def test_trace_function_matches_restriction():
    G = 64
    pair = rychkov_pair(1, n=2, G=G)
    f = random_bandlimited(2, G, 6, seed=3)
    tr, direct = trace_function(f, pair)
    assert np.abs(tr.samples - direct.samples).max() < 1e-10
    assert np.array_equal(direct.samples, f.samples[:, 0])


def test_trace_function_needs_n2():
    pair = rychkov_pair(1, n=1, G=64)
    with pytest.raises(ValueError):
        trace_function(random_bandlimited(1, 64, 6, seed=4), pair)
