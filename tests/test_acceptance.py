"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package: exact identities hold
to machine precision, inequality campaigns show zero violations, and every
empirical constant sits in a resolution-stable band (drift below 25% between
the two finest grids).  Configurations and seeds are frozen so the suite is
reproducible byte for byte.
"""

import itertools
import math

import numpy as np
import pytest

from morreykit.cli import TRACE_PRESETS
from morreykit.decomp import (QUARK_RHO, AtomSpec, MoleculeSpec,
                              atomic_analyze, band_decay_profile,
                              fit_decay_slopes, make_atom, make_molecule,
                              quark_analyze, quark_synthesize, synthesize,
                              validate_atom, validate_molecule)
from morreykit.dyadic import DyadicCube, box_mask, cube_mask, dilate
from morreykit.growth import (SpaceParams, check_nakai, dyadic_scales,
                              is_in_Gq, loginv, power, power_of, powerlog,
                              table)
from morreykit.gridfn import (GridFunction, hl_maximal, make_bank,
                              random_bandlimited, rychkov_pair, torus_dist_sq)
from morreykit.norms import (CoeffField, min_triangle_check, morrey_norm,
                             quark_norm, seq_norm, space_norm)
from morreykit.trace import (TraceProblem, extend_coeff, extension_bound,
                             trace_bound_I, trace_bound_II, trace_coeff,
                             trace_function)
from morreykit.verify import (counterexample_growth, filter_invariance_campaign,
                              function_corpus, hardy_campaign,
                              maximal_campaign, peetre_char_campaign,
                              peetre_threshold, trial_rng)

INF = math.inf

STABILITY = 0.25  # max relative drift between the two finest resolutions


def drift(a, b):
    return abs(a - b) / max(a, b)


# ---------------------------------------------------------------------------
# shared coefficient corpora for the trace bounds

def slab_corpus(n, depth, count, seed, hom=False):
    """Mass on the two slabs touching the last-coordinate hyperplane."""
    out = []
    for i in range(count):
        rng = trial_rng(seed, i)
        levels = {j: rng.lognormal(0, 1) for j in range(-4, 0)} if hom else {}
        for j in range(0, depth + 1):
            side = 1 << j
            arr = np.zeros((side,) * n)
            for mn in ({0} if j == 0 else {0, side - 1}):
                arr[..., mn] = rng.lognormal(0, 1, (side,) * (n - 1))
            levels[j] = arr
        out.append(CoeffField(n, levels))
    return out


def chain_corpus(n, depth, count, seed, hom=False):
    """Constant unit mass along one ancestor chain hugging the hyperplane --
    the worst case for the chain-summation bound."""
    out = []
    for i in range(count):
        rng = trial_rng(seed, i)
        mfine = tuple(int(x) for x in rng.integers(0, 1 << depth, size=n - 1))
        levels = {j: 1.0 for j in range(-4, 0)} if hom else {}
        for j in range(0, depth + 1):
            side = 1 << j
            arr = np.zeros((side,) * n)
            arr[tuple(k >> (depth - j) for k in mfine) + (0,)] = 1.0
            levels[j] = arr
        out.append(CoeffField(n, levels))
    return out


def hyper_corpus(n, depth, count, seed, hom=False):
    """Sparse lognormal fields on the hyperplane, for the extension bound."""
    out = []
    for i in range(count):
        rng = trial_rng(seed, i)
        levels = {j: rng.lognormal(0, 1) for j in range(-4, 0)} if hom else {}
        for j in range(0, depth + 1):
            side = 1 << j
            levels[j] = (rng.lognormal(0, 1, (side,) * (n - 1))
                         * (rng.random((side,) * (n - 1)) < 0.3))
        out.append(CoeffField(n - 1, levels))
    return out


# ---------------------------------------------------------------------------
# 1. exact identities

def test_indicator_norm_identity_exact():
    # ||chi_Q|| = phi(side) for 50 cubes x 4 growth families; the table
    # family must itself lie in the admissible class for every q probed
    n, G = 2, 256
    fams = [power(2, n), powerlog(2, 1.0, n), loginv(1.0, n),
            table({j: 2.0 ** (j / 2.0) * (1 + abs(j)) ** -0.1
                   for j in range(-10, 1)}, n)]
    qs = (0.5, 1.0, 2.0)
    for q in qs:
        for phi in fams:
            assert is_in_Gq(phi, q, dyadic_scales(-8, 0))
    rng = np.random.default_rng(0)
    for i in range(50):
        j = int(rng.integers(0, 6))
        m = tuple(int(x) for x in rng.integers(0, 1 << j, size=n))
        Q = DyadicCube(j, m)
        chi = GridFunction(n, cube_mask(Q, G).astype(np.complex128))
        phi = fams[i % 4]
        ref = phi(Q.side)
        assert abs(morrey_norm(chi, qs[i % 3], phi) - ref) <= 1e-12 * ref


def test_power_identity_exact():
    # || |f|^u || = (|| |f| ||_{u q, phi^{1/u}})^u, 100 functions x 3 powers
    n, G, q = 2, 256, 1.0
    phi = power(2, n)
    for i in range(100):
        f = random_bandlimited(n, G, 12, seed=[30, i])
        a = GridFunction(n, np.abs(f.samples))
        for u in (0.5, 2.0, 3.0):
            lhs = morrey_norm(GridFunction(n, a.samples ** u), q, phi)
            rhs = morrey_norm(a, u * q, power_of(phi, 1.0 / u)) ** u
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_trace_extend_identity_exact():
    # tracing an extension returns the input field bit for bit
    prob = TraceProblem(TRACE_PRESETS["A"](2))
    for i in range(100):
        rng = trial_rng(40, i)
        mu = CoeffField(1, {j: rng.standard_normal((1 << j,))
                            for j in range(0, 6)})
        back = trace_coeff(extend_coeff(mu, prob), prob)
        for j in mu.level_list():
            assert np.array_equal(back.levels[j], mu.levels[j])


# ---------------------------------------------------------------------------
# 2. quasi-triangle inequalities

def test_min_triangle_morrey_1000_pairs():
    fails = 0
    for q in (0.5, 1.0, 2.0):
        p = SpaceParams(q=q, r=2.0, s=1.0, phi=power(2, 1), variant="N", n=1)
        for i in range(334):
            rng = trial_rng(17, i)
            f = GridFunction(1, rng.lognormal(0, 1, 64))
            g = GridFunction(1, rng.lognormal(0, 1, 64))
            lhs, rhs = min_triangle_check(f, g, "morrey", p)
            fails += lhs > rhs + 1e-9
    assert fails == 0


def test_min_triangle_space_and_seq_1000_pairs():
    bank = make_bank(1, 64)
    combos = list(itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0)))
    fails = trials = 0
    for q, r in combos:
        p = SpaceParams(q=q, r=r, s=1.0, phi=power(2, 1), variant="N", n=1)
        for i in range(112):
            rng = trial_rng(18, i)
            f = GridFunction(1, rng.lognormal(0, 1, 64))
            g = GridFunction(1, rng.lognormal(0, 1, 64))
            lhs, rhs = min_triangle_check(f, g, "space", p, bank)
            fails += lhs > rhs + 1e-9
            lam = CoeffField(1, {j: rng.lognormal(0, 1, (1 << j,))
                                 * (rng.random((1 << j,)) < 0.5)
                                 for j in range(0, 5)})
            mu = CoeffField(1, {j: rng.lognormal(0, 1, (1 << j,))
                                * (rng.random((1 << j,)) < 0.5)
                                for j in range(0, 5)})
            lhs, rhs = min_triangle_check(lam, mu, "seq", p)
            fails += lhs > rhs + 1e-9
            trials += 2
    assert trials >= 2000 and fails == 0


# ---------------------------------------------------------------------------
# 3. maximal function envelope on cube indicators

def test_maximal_envelope_and_comparability():
    for n, G in ((1, 256), (2, 64)):
        rng = np.random.default_rng(11)
        for _ in range(25):
            j = int(rng.integers(1, 5))
            m = tuple(int(x) for x in rng.integers(0, 1 << j, size=n))
            Q = DyadicCube(j, m)
            chi = cube_mask(Q, G)
            M = hl_maximal(GridFunction(n, chi.astype(np.complex128)))
            M = M.samples.real
            center, half = dilate(Q, 3.0)
            on3 = box_mask(center, half, G)
            # exact two-sided envelope on the tripled cube
            assert M[on3].min() >= 3.0 ** -n - 1e-12
            assert M[on3].max() <= 1.0 + 1e-12
            # global comparability to |Q| / (|Q| + |x - c(Q)|^n), slack 2x
            d = np.sqrt(torus_dist_sq(n, G))
            shift = [int(round(c * G)) for c in Q.center]
            dc = np.roll(d, shift, axis=tuple(range(n)))
            env = Q.volume / (Q.volume + dc ** n)
            ratio = M / env
            assert ratio.min() >= 9.0 ** -n / 2.0
            assert ratio.max() <= 4.0 ** n * 2.0


# ---------------------------------------------------------------------------
# 4. discrete Hardy inequality

def test_hardy_inequality_grid():
    for delta in (0.25, 0.5, 1.0):
        for r in (0.5, 1.0, 2.0, INF):
            rep = hardy_campaign(delta, r, trials=500, seed=0)
            assert not rep.failures
            assert rep.constants[64] <= rep.extra["bound"] + 1e-9


# ---------------------------------------------------------------------------
# 5. filter-bank invariance of the space norm

def _filter_band(params, n, resolutions, counts, seed=6, hom=False):
    band = {}
    for G, count in zip(resolutions, counts):
        corpus = function_corpus(n, G, count, seed=seed, zero_mean=hom)
        bA = make_bank(n, G, "partition", homogeneous=hom)
        bB = make_bank(n, G, "bump", homogeneous=hom)
        rep = filter_invariance_campaign(bA, bB, params, corpus)
        band[G] = (rep.extra["min"], rep.constants[G])
    return band


def test_filter_invariance_all_variants():
    for n, res, counts in ((1, (128, 256), (100, 100)),
                           (2, (64, 128), (40, 40))):
        for variant, r in (("N", 2.0), ("N", INF), ("E", 2.0), ("E", INF)):
            params = SpaceParams(q=1.0, r=r, s=1.0, phi=power(2, n),
                                 variant=variant, n=n)
            band = _filter_band(params, n, res, counts)
            (l1, h1), (l2, h2) = band[res[0]], band[res[1]]
            assert 0 < l1 and 0 < l2
            assert drift(h1, h2) < STABILITY, (n, variant, r, band)
            assert drift(l1, l2) < STABILITY, (n, variant, r, band)


# ---------------------------------------------------------------------------
# 6. vector-valued maximal inequality

def test_vector_maximal_stable():
    for phi in (power(4, 1), powerlog(4, 1.0, 1)):
        ok, eps, C = check_nakai(phi, dyadic_scales())
        assert ok and C < INF
        rep = maximal_campaign(2.0, 2.0, phi, trials=6,
                               resolutions=(128, 256), n=1, seed=3)
        assert all(0 < v < INF for v in rep.constants.values())
        assert rep.stable(STABILITY), rep.constants


# ---------------------------------------------------------------------------
# 7. atomic decomposition round trip

def _atomic_constants(n, resolutions, count, seed, hom=False):
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2, n), variant="N",
                         homogeneous=hom, n=n)
    coeff, synth = {}, {}
    for G in resolutions:
        pair = rychkov_pair(1, n=n, G=G, homogeneous=hom)
        bank = make_bank(n, G, homogeneous=hom)
        hi_c = hi_s = 0.0
        for f in function_corpus(n, G, count, seed=seed, zero_mean=hom):
            lam, patches = atomic_analyze(f, pair)
            rec = synthesize(lam, patches, G)
            assert (rec - f).l2() / f.l2() < 1e-8
            sn = seq_norm(lam, params)
            fn = space_norm(f, params, bank)
            hi_c = max(hi_c, sn / fn)
            hi_s = max(hi_s, fn / sn)
        coeff[G], synth[G] = hi_c, hi_s
    return coeff, synth


def test_atomic_round_trip_and_constants():
    for n, res, count in ((1, (128, 256), 50), (2, (64, 128), 20)):
        coeff, synth = _atomic_constants(n, res, count, seed=9)
        for d in (coeff, synth):
            a, b = d[res[0]], d[res[1]]
            assert drift(a, b) < STABILITY, (n, d)


# ---------------------------------------------------------------------------
# 8. band decay of atoms and molecules

def test_atom_band_decay_slopes():
    n, G, j = 1, 512, 5
    Q = DyadicCube(j, (13,))
    bank = make_bank(n, G)
    chi = GridFunction(n, cube_mask(Q, G).astype(np.complex128))
    mf = hl_maximal(chi).samples.real
    for K, L in ((1, -1), (2, 0), (2, 1)):
        a = make_atom(Q, AtomSpec(K, L), G, seed=1)
        assert validate_atom(a, Q, AtomSpec(K, L))["pass"]
        for P in (1.0, 0.5):
            prof = band_decay_profile(a, Q, bank, P, maximal_field=mf)
            hi, lo = fit_decay_slopes(prof, j)
            assert hi <= -K + 0.3, (K, L, P, hi)
            assert lo <= (L + 1 + n - P) + 0.3, (K, L, P, lo)


def test_molecule_band_decay_slopes():
    for n, G, j, m in ((1, 512, 5, (13,)), (2, 128, 3, (5, 2))):
        Q = DyadicCube(j, m)
        bank = make_bank(n, G)
        chi = GridFunction(n, cube_mask(Q, G).astype(np.complex128))
        mf = hl_maximal(chi).samples.real
        for K, L, N in ((1, -1, n + 1.2), (2, -1, n + 2.2)):
            for seed in range(8):
                b = make_molecule(Q, MoleculeSpec(K, L, N), G, seed=seed)
                assert validate_molecule(b, Q, MoleculeSpec(K, L, N))["pass"]
                prof = band_decay_profile(b, Q, bank, N, maximal_field=mf)
                hi, lo = fit_decay_slopes(prof, j)
                assert hi <= -K + 0.3, (n, K, L, seed, hi)
                assert lo <= (L + 1 + n - N) + 0.3, (n, K, L, seed, lo)


# ---------------------------------------------------------------------------
# 9. quark decomposition

def test_quark_residual_decay_rate():
    n, G = 1, 512
    bank = make_bank(n, G)
    f = random_bandlimited(n, G, 24, seed=12)
    resids = {}
    for cut in range(0, 4):
        q = quark_analyze(f, bank, cut)
        resids[cut] = (quark_synthesize(q, G) - f).l2() / f.l2()
    xs = np.array(sorted(resids), dtype=float)
    ys = np.log2([resids[c] for c in xs.astype(int)])
    A = np.vstack([xs, np.ones_like(xs)]).T
    slope = float(np.linalg.lstsq(A, ys, rcond=None)[0][0])
    # rho = 1, R = 0: at least half a binary digit gained per extra |beta|
    assert slope <= -(QUARK_RHO - 0.0 - 0.5), (resids, slope)


def test_quark_coefficient_constant_stable():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2, 1), variant="N", n=1)
    cs = {}
    for G in (512, 1024):
        hi = 0.0
        bank = make_bank(1, G)
        for i in range(10):
            f = random_bandlimited(1, G, 24, seed=[13, i])
            q = quark_analyze(f, bank, 2)
            den = max(np.abs(list(q.lam_norms.values())).max(), 1e-300)
            hi = max(hi, quark_norm(q, params) / den)
        cs[G] = hi
    assert drift(cs[512], cs[1024]) < STABILITY, cs


# ---------------------------------------------------------------------------
# 10. trace and extension bounds

def _trace_drifts(prob, hom=False):
    out = {}
    for label, corp, count, bound in (("I", slab_corpus, 8, trace_bound_I),
                                      ("II", chain_corpus, 2, trace_bound_II),
                                      ("ext", hyper_corpus, 8, extension_bound)):
        cs = {}
        seed = 5 if label == "ext" else 4
        for depth in (6, 8):
            cs[depth] = max(bound(lam, prob)
                            for lam in corp(2, depth, count, seed, hom=hom))
        out[label] = (cs, drift(cs[6], cs[8]))
    return out


def test_trace_bounds_stable_all_presets():
    for name, mk in TRACE_PRESETS.items():
        prob = TraceProblem(mk(2))
        for label, (cs, d) in _trace_drifts(prob).items():
            assert all(0 < v < INF for v in cs.values())
            assert d < STABILITY, (name, label, cs)


def test_trace_validator_rejects_bad_smoothness():
    with pytest.raises(ValueError):
        TraceProblem(TRACE_PRESETS["A"](2).with_(s=0.9))  # threshold is 1
    with pytest.raises(ValueError):
        TraceProblem(TRACE_PRESETS["D"](2).with_(s=1.4))  # threshold is 1.5


# ---------------------------------------------------------------------------
# 11. trace operator agrees with hyperplane restriction

def test_trace_function_agreement():
    G = 64
    pair = rychkov_pair(1, n=2, G=G)
    worst = 0.0
    for i in range(20):
        f = random_bandlimited(2, G, 8, seed=[20, i])
        tr, direct = trace_function(f, pair)
        worst = max(worst, float(np.abs(tr.samples - direct.samples).max()))
    assert worst < 1e-6, worst


# ---------------------------------------------------------------------------
# 12. sharpness of the logarithmic growth exponent

def test_counterexample_growth_slope():
    r = 0.5
    rep = counterexample_growth(r, range(2, 13))
    lo, hi = 1.0 / r - 1.0 - 0.15, 1.0 / r - 1.0 + 0.35
    assert lo <= rep.extra["slope"] <= hi, rep.extra
    # the corrected exponent 1/min(1,r) flattens the ratio
    flat = counterexample_growth(r, range(2, 13), exponent=1.0 / r)
    assert abs(flat.extra["slope"]) < 0.15, flat.extra


# ---------------------------------------------------------------------------
# 13. Peetre maximal characterization

def test_peetre_characterization_stable():
    params = SpaceParams(q=0.75, r=2.0, s=1.0, phi=power(2, 1),
                         variant="N", n=1)
    th = peetre_threshold(params)
    for N in (th + 0.5, th + 4.0):
        cs = {}
        for G in (128, 256):
            corpus = function_corpus(1, G, 12, seed=8)
            rep = peetre_char_campaign(params, N, corpus, make_bank(1, G))
            assert not rep.failures  # lower bound ratio >= 1 on every trial
            assert rep.extra["min"] >= 1.0 - 1e-12
            cs[G] = rep.constants[G]
        assert drift(cs[128], cs[256]) < STABILITY, (N, cs)


# ---------------------------------------------------------------------------
# 14. homogeneous variants of criteria 5, 7, 10

def test_homogeneous_filter_invariance():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2, 1), variant="N",
                         homogeneous=True, n=1)
    band = _filter_band(params, 1, (128, 256), (30, 30), seed=6, hom=True)
    (l1, h1), (l2, h2) = band[128], band[256]
    assert drift(h1, h2) < STABILITY and drift(l1, l2) < STABILITY, band


def test_homogeneous_atomic_round_trip():
    coeff, synth = _atomic_constants(1, (128, 256), 25, seed=7, hom=True)
    for d in (coeff, synth):
        assert drift(d[128], d[256]) < STABILITY, d


def test_homogeneous_trace_bounds():
    for name in ("A", "C"):
        prob = TraceProblem(TRACE_PRESETS[name](2).with_(homogeneous=True))
        for label, (cs, d) in _trace_drifts(prob, hom=True).items():
            assert all(0 < v < INF for v in cs.values())
            assert d < STABILITY, (name, label, cs)
