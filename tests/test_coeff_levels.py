"""Coefficient levels: every level of a CoeffField is one complex array of
shape (level_side(j),)*n, whoever builds it, and the coefficient maps keep
their exact invariants over drawn fields.

The property tests draw n in {1, 2, 3}, levels from HOM_FLOOR up to a depth
of at most 4, and complex values whose magnitudes span several binades;
absent coefficients are +0.0.  (A -0.0 at a level j >= 1 comes back from
trace_coeff(extend_coeff(mu)) as +0.0, since the trace adds the zero slab
m_n = 2^j - 1 to the planted one: equal as numbers, not as bytes.)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreykit.decomp import atomic_analyze
from morreykit.growth import SpaceParams, loginv, power
from morreykit.gridfn import (HOM_FLOOR, level_side, random_bandlimited,
                              rychkov_pair)
from morreykit.norms import CoeffField, seq_norm
from morreykit.trace import TraceProblem, extend_coeff, trace_coeff
from morreykit.verify import coeff_corpus

INF = math.inf


def _assert_level_shapes(lam: CoeffField):
    for j, v in lam.levels.items():
        assert isinstance(v, np.ndarray) and v.dtype == np.complex128
        assert v.shape == (level_side(j),) * lam.n, (j, v.shape)


def _problem(n: int) -> TraceProblem:
    # trace preset A: s = 1.5 clears the threshold 1/q = 1 in every n
    return TraceProblem(SpaceParams(q=1.0, r=2.0, s=1.5, phi=power(1.0, n),
                                    variant="N", n=n))


def test_level_side():
    assert [level_side(j) for j in range(HOM_FLOOR, 4)] == \
        [1] * (1 - HOM_FLOOR) + [2, 4, 8]


def test_every_builder_gives_level_side_arrays():
    lam = CoeffField(2, {-2: 1.5 - 2j, 0: 3.0, 1: np.ones((2, 2))})
    _assert_level_shapes(lam)
    assert lam.levels[-2].tobytes() == np.array([[1.5 - 2j]]).tobytes()
    _assert_level_shapes(CoeffField.from_csv(lam.to_csv(), 2))
    prob = _problem(2)
    _assert_level_shapes(trace_coeff(lam, prob))
    _assert_level_shapes(extend_coeff(trace_coeff(lam, prob), prob))
    for fld in coeff_corpus(2, 2, 3, seed=1, floor=-3):
        assert fld.level_list() == list(range(-3, 3))
        _assert_level_shapes(fld)
    pair = rychkov_pair(1, n=1, G=32, homogeneous=True)
    hom, _ = atomic_analyze(random_bandlimited(1, 32, 4, seed=2,
                                               zero_mean=True), pair)
    assert min(hom.level_list()) == HOM_FLOOR
    _assert_level_shapes(hom)


def test_one_cell_level_rejects_more_cells():
    with pytest.raises(ValueError, match="shape"):
        CoeffField(1, {-1: [1.0, 2.0]})
    with pytest.raises(ValueError, match="shape"):
        CoeffField(2, {0: np.ones(1)})
    with pytest.raises(ValueError, match="shape"):
        CoeffField(1, {1: 2.0})  # a scalar fills a one-cell level only


@st.composite
def fields(draw):
    """A CoeffField in n in {1, 2, 3} dimensions with levels lo..depth,
    HOM_FLOOR <= lo <= depth <= 4."""
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4))
    lo = draw(st.integers(HOM_FLOOR, depth))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = {}
    for j in range(lo, depth + 1):
        shape = (level_side(j),) * n
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 2.0 ** rng.integers(-30, 31, shape)
        levels[j] = np.where(rng.random(shape) < density, z, 0)
    return CoeffField(n, levels)


@st.composite
def seq_params(draw, n):
    q = draw(st.sampled_from([0.5, 1.0, 2.5]))
    phi = draw(st.sampled_from([power(q, n), power(2.0 * q, n),
                                loginv(1.0, n)]))
    return SpaceParams(q=q, r=draw(st.sampled_from([0.5, 2.0, INF])),
                       s=draw(st.sampled_from([-0.5, 0.0, 1.0])), phi=phi,
                       variant=draw(st.sampled_from(["N", "E"])),
                       homogeneous=True, n=n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu=fields())
def test_trace_of_extension_is_identity(mu):
    prob = _problem(mu.n + 1)
    back = trace_coeff(extend_coeff(mu, prob), prob)
    assert back.n == mu.n and back.level_list() == mu.level_list()
    for j in mu.level_list():
        assert back.levels[j].tobytes() == mu.levels[j].tobytes(), j


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lam=fields())
def test_csv_round_trip_is_exact(lam):
    text = lam.to_csv()
    assert CoeffField.from_csv(text, lam.n).to_csv() == text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_seq_norm_unit_modulus_invariance(data):
    lam = data.draw(fields())
    params = data.draw(seq_params(lam.n))
    norm = seq_norm(lam, params)
    for c in (-1.0, 1j, -1j):  # |c z| = |z| exactly, so the norm is equal
        scaled = CoeffField(lam.n, {j: c * v for j, v in lam.levels.items()})
        assert seq_norm(scaled, params) == norm, c


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.integers(-8, 8))
def test_seq_norm_power_of_two_homogeneity(data, k):
    lam = data.draw(fields())
    params = data.draw(seq_params(lam.n))
    scaled = CoeffField(lam.n,
                        {j: 2.0 ** k * v for j, v in lam.levels.items()})
    assert seq_norm(scaled, params) == \
        pytest.approx(2.0 ** k * seq_norm(lam, params), rel=1e-12, abs=0.0)
