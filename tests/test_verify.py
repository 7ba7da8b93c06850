import json
import math
import tracemalloc

import numpy as np
import pytest

from morreykit.cli import _plain
from morreykit.growth import SpaceParams, power, powerlog
from morreykit.gridfn import make_bank
from morreykit.verify import (Report, coeff_corpus, counterexample_growth,
                              embedding_campaign, filter_invariance_campaign,
                              function_corpus, hardy_bound, hardy_campaign,
                              maximal_campaign, multiplier_campaign,
                              peetre_char_campaign, peetre_threshold,
                              trial_rng)

INF = math.inf


def test_report_stability_rule():
    rep = Report(name="x", constants={64: 1.0, 128: 1.2})
    assert rep.stable()  # 0.2/1.2 < 0.25
    rep.constants[256] = 2.0
    assert not rep.stable()  # compares the two largest keys only
    assert Report(name="y", constants={64: 1.0}).stable()
    assert Report(name="z", constants={64: 0.0, 128: 0.0}).stable()


def test_report_json():
    rep = Report(name="x", constants={64: np.float64(1.5)},
                 witness={"trial": np.int64(3)})
    d = json.loads(json.dumps(_plain(rep.to_dict()), allow_nan=False))
    assert d["constants"]["64"] == 1.5
    assert d["witness"]["trial"] == 3
    assert d["passed"] is True


def test_report_observe_keeps_first_witness_of_the_sup():
    rep = Report(name="x", constants={64: 0.0})
    rep.observe(64, 1.5, trial=0)
    rep.observe(64, 1.5, trial=1)  # a tie keeps the first witness
    rep.observe(64, 0.5, trial=2)
    assert rep.constants == {64: 1.5}
    assert rep.witness == {"trial": 0, "ratio": 1.5}
    rep.observe(64, 2.0, trial=3, level=1)
    rep.observe(64, math.nan, trial=4)  # a NaN never raises the sup
    assert rep.constants == {64: 2.0}
    assert rep.witness == {"trial": 3, "level": 1, "ratio": 2.0}


def test_trial_rng_deterministic_and_independent():
    a = trial_rng(5, 0).standard_normal(4)
    b = trial_rng(5, 0).standard_normal(4)
    c = trial_rng(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_function_corpus_resolution_consistent():
    # trial i is the same trigonometric polynomial at every resolution
    lo = function_corpus(1, 64, 3, seed=1, kmax=8)
    hi = function_corpus(1, 128, 3, seed=1, kmax=8)
    for f, g in zip(lo, hi):
        assert np.abs(f.samples - g.samples[::2]).max() < 1e-12


def test_coeff_corpus_shapes():
    fields = coeff_corpus(2, 3, 2, seed=2, floor=-2)
    for lam in fields:
        assert lam.level_list() == [-2, -1, 0, 1, 2, 3]
        assert lam.levels[3].shape == (8, 8)


def test_coeff_corpus_is_one_trial_at_a_time():
    # the embedding campaign holds one trial's field (and one expanded
    # level) at a time, so its peak does not grow with the trial count
    def peak(trials):
        tracemalloc.start()
        embedding_campaign(2, 2, 0.5, depth=6, trials=trials, n=2)
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return top

    peak(1)  # first-call allocations outside the campaign's own
    assert peak(40) < 1.5 * peak(2)


def test_hardy_bound_one_hot_oracle():
    # one-hot input: the output is a kernel column, whose ell^r norm the
    # geometric closed form dominates
    for delta in (0.25, 1.0):
        for r in (0.5, 1.0, 2.0, INF):
            idx = np.arange(64)
            kernel = 2.0 ** (-delta * np.abs(idx[:, None] - idx[None, :]))
            col = kernel[:, 32]
            if r == INF:
                col_norm = col.max()
            else:
                col_norm = float(np.sum(col ** r)) ** (1.0 / r)
            assert col_norm <= hardy_bound(delta, r) + 1e-9


def test_hardy_campaign_respects_bound():
    rep = hardy_campaign(0.5, 1.0, trials=50, seed=0)
    assert rep.passed
    assert rep.constants[64] <= rep.extra["bound"] + 1e-9
    with pytest.raises(ValueError):
        hardy_campaign(0.0, 1.0, trials=1)


def test_maximal_campaign_preconditions():
    with pytest.raises(ValueError):
        maximal_campaign(1.0, 2.0, power(4.0), 1, resolutions=(32,))
    with pytest.raises(ValueError):
        maximal_campaign(2.0, 1.0, power(4.0), 1, resolutions=(32,))


# maximal_campaign(2, 2, phi, 3, resolutions=[32, 64], seed=7), as float.hex,
# from the per-function maximal operator the stacked pass replaced
MAXIMAL_PINS = {
    "power": {
        "scalar": ("0x1.472ea7a826264p+0", "0x1.4b4728039ee26p+0"),
        "sup": ("0x1.0d62745f50d07p+0", "0x1.15ab91ec8b11ep+0"),
        "lr": ("0x1.3ea3551739709p+0", "0x1.437ef63d779b5p+0"),
        "constants": ("0x1.472ea7a826264p+0", "0x1.4b4728039ee26p+0"),
        "witness": (1, 64, "0x1.4b4728039ee26p+0")},
    "powerlog": {
        "scalar": ("0x1.2dc42ee428ee3p+0", "0x1.40ddfb6541b92p+0"),
        "sup": ("0x1.0d62745f50d07p+0", "0x1.15ab91ec8b11fp+0"),
        "lr": ("0x1.3ea3551739709p+0", "0x1.437ef63d779b6p+0"),
        "constants": ("0x1.3ea3551739709p+0", "0x1.437ef63d779b6p+0"),
        "witness": (2, 64, "0x1.40ddfb6541b92p+0")},
}


@pytest.mark.parametrize("family", sorted(MAXIMAL_PINS))
def test_maximal_campaign_pinned(family):
    phi = power(4.0) if family == "power" else powerlog(4.0, 1.0)
    rep = maximal_campaign(2.0, 2.0, phi, 3, resolutions=[32, 64], seed=7)
    pins = MAXIMAL_PINS[family]
    hexed = lambda d: tuple(d[G].hex() for G in (32, 64))
    for key in ("scalar", "sup", "lr"):
        assert hexed(rep.extra[key]) == pins[key], key
    assert hexed(rep.constants) == pins["constants"]
    trial, res, ratio = pins["witness"]
    assert rep.witness == {"trial": trial, "res": res,
                           "ratio": float.fromhex(ratio)}


@pytest.mark.parametrize("G", [0, 1, 2, 3, 48])
def test_maximal_campaign_rejects_bad_grid(G):
    with pytest.raises(ValueError, match=f"G={G}"):
        maximal_campaign(2.0, 2.0, power(4.0), 1, resolutions=(16, G))


def test_filter_invariance_band_inside_unit():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    G = 64
    corpus = function_corpus(1, G, 10, seed=3)
    rep = filter_invariance_campaign(make_bank(1, G), make_bank(1, G, "bump"),
                                     params, corpus)
    assert rep.trials == 10
    assert 0 < rep.extra["min"] <= rep.constants[G]


def test_filter_invariance_rejects_inadmissible_bank():
    # level 1 at half weight breaks the partition of unity (residual 0.5)
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    G = 64
    bad = make_bank(1, G)
    bad.profiles[1] = bad.profiles[1] * 0.5
    assert bad.admissible()["partition"] is False
    for banks in ((bad, make_bank(1, G, "bump")), (make_bank(1, G), bad)):
        with pytest.raises(ValueError, match="admissible"):
            filter_invariance_campaign(*banks, params,
                                       function_corpus(1, G, 2, seed=3))


def test_peetre_threshold_and_precondition():
    pN = SpaceParams(q=0.5, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    assert peetre_threshold(pN) == pytest.approx(1 / 0.5 + 1)
    pE = pN.with_(variant="E", r=0.25)
    assert peetre_threshold(pE) == pytest.approx(1 / 0.25 + 1)
    # NaN fails every comparison: it once passed, with constant 0.0
    for N in (peetre_threshold(pN), math.nan):
        with pytest.raises(ValueError, match="N must exceed"):
            peetre_char_campaign(pN, N, function_corpus(1, 32, 2, seed=4),
                                 make_bank(1, 32))


def test_peetre_char_lower_bound_exact():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    G = 64
    corpus = function_corpus(1, G, 5, seed=5)
    rep = peetre_char_campaign(params, peetre_threshold(params) + 1.0,
                               corpus, make_bank(1, G))
    assert rep.passed  # ratio >= 1 on every trial
    assert rep.extra["min"] >= 1.0 - 1e-12


# peetre_char_campaign on function_corpus(1, 256, 2, seed=11), as float.hex:
# variant -> (constant, min, witness trial); E runs on a homogeneous bank
PEETRE_PINS = {
    "N": ("0x1.3757194a24f5cp+0", "0x1.3731d535494c9p+0", 0),
    "E": ("0x1.24df7ba89231fp+0", "0x1.21db4d071dd31p+0", 1),
}


@pytest.mark.parametrize("variant", sorted(PEETRE_PINS))
def test_peetre_char_campaign_pinned(variant):
    hom = variant == "E"
    params = SpaceParams(q=1.0, r=2.0 if variant == "N" else INF, s=1.0,
                         phi=power(2.0), variant=variant, homogeneous=hom, n=1)
    corpus = function_corpus(1, 256, 2, seed=11, zero_mean=hom)
    rep = peetre_char_campaign(params, peetre_threshold(params) + 1.0, corpus,
                               make_bank(1, 256, homogeneous=hom))
    const, low, trial = PEETRE_PINS[variant]
    assert rep.passed and rep.trials == 2
    assert (rep.constants[256].hex(), rep.extra["min"].hex()) == (const, low)
    assert rep.witness == {"trial": trial, "ratio": float.fromhex(const)}


def test_multiplier_campaign():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    G = 64
    bank = make_bank(1, G)
    for nu in (1.0, math.nan):  # NaN once passed, with constant 0.0
        with pytest.raises(ValueError, match="multiplier threshold"):
            multiplier_campaign(params, function_corpus(1, G, 2, seed=4),
                                bank, nu=nu)
    rep = multiplier_campaign(params, function_corpus(1, G, 4, seed=6),
                              bank, nu=2.0, seed=0)
    assert rep.trials == 4
    assert 0 < rep.constants[G] < INF


def test_embedding_campaign():
    with pytest.raises(ValueError):
        embedding_campaign(2.0, 2.0, 3.0, depth=3)  # needs r < q
    rep = embedding_campaign(4.0, 2.0, 1.0, depth=4, trials=10, seed=0)
    assert 0 < rep.constants[4] < INF


def test_counterexample_precondition():
    with pytest.raises(ValueError):
        counterexample_growth(2.0, range(2, 5))


def test_counterexample_fails_closed_on_overflow():
    # the E-variant ell^r sum over levels overflows at r = 0.002: the
    # ratios are inf, and a NaN slope must not come back as a result
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"r=0\.002.*not finite"):
            counterexample_growth(0.002, range(2, 13))


# counterexample_growth(0.5, range(2, 9), exponent), as float.hex: the
# ratio per depth 2..8, then the slope fitted on depths 5..8
COUNTEREXAMPLE_PINS = {
    1.0: (("0x1.d20ae48fdf9d7p-2", "0x1.36aee498c4aefp+0",
           "0x1.d18aa318fe645p+0", "0x1.2e41171e5c332p+1",
           "0x1.7d668808258cep+1", "0x1.cad96568d91f0p+1",
           "0x1.0a0a0a1539c2ep+2"), "0x1.3495baef746c1p+0"),
    2.0: (("0x1.a835d0589b599p-2", "0x1.1acbc78a4effbp+0",
           "0x1.a7c11209f56b6p+0", "0x1.08d44a4e52f64p+1",
           "0x1.2763830b2e55fp+1", "0x1.3795ab3364626p+1",
           "0x1.3f88a483a8ee6p+1"), "0x1.9a65f77c5d082p-2"),
}


@pytest.mark.parametrize("exponent", sorted(COUNTEREXAMPLE_PINS))
def test_counterexample_growth_pinned(exponent):
    rep = counterexample_growth(0.5, range(2, 9), exponent)
    ratios, slope = COUNTEREXAMPLE_PINS[exponent]
    assert tuple(rep.constants[N].hex() for N in range(2, 9)) == ratios
    assert rep.extra["slope"].hex() == slope
    assert rep.extra["fit_range"] == [5, 8]
