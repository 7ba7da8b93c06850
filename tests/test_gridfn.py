import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from morreykit import decomp, gridfn, verify
from morreykit.growth import SpaceParams, power
from morreykit.gridfn import (GridFunction, bands, centered_axis, hl_maximal,
                              kinf_grid, make_bank, peetre_maximal,
                              preset_function, radial_window,
                              random_bandlimited, rychkov_pair, smoothstep7,
                              sobolev_norm, tau_profile_bump, theta_profile,
                              theta_profile_bump, wavenumbers, _multi_indices,
                              _times_monomial)
from morreykit.norms import aggregate


def test_smoothstep7_endpoints_and_symmetry():
    assert smoothstep7(np.array([-1.0, 0.0]))[1] == 0.0
    assert smoothstep7(np.array([1.0, 2.0]))[0] == 1.0
    assert smoothstep7(np.array([0.5]))[0] == pytest.approx(0.5)
    t = np.linspace(0, 1, 101)
    v = smoothstep7(t)
    assert np.all(np.diff(v) >= 0)
    # odd symmetry about the midpoint
    assert np.allclose(v + v[::-1], 1.0)


def test_wavenumbers_layout():
    assert list(wavenumbers(8)) == [0, 1, 2, 3, -4, -3, -2, -1]
    u = kinf_grid(2, 8)
    assert u[0, 0] == 0 and u[4, 4] == 4 and u[1, 7] == 1


def test_spectrum_round_trip():
    f = random_bandlimited(2, 16, 4, seed=1)
    g = GridFunction.from_spectrum(2, f.spectrum())
    assert np.allclose(f.samples, g.samples)


def test_mode_spectrum_is_one_hot():
    G = 32
    f = preset_function("mode", 1, G)
    spec = f.spectrum()
    k = list(wavenumbers(G)).index(3)
    assert abs(spec[k] - 1.0) < 1e-12
    spec[k] = 0.0
    assert np.abs(spec).max() < 1e-12


def _preset_meshgrid(name, n, G):
    """gaussian, mode and chirp as preset_function built them before the
    products moved to _outer: n full coordinate grids from np.meshgrid."""
    x = [centered_axis(G)] * n
    mesh = np.meshgrid(*x, indexing="ij") if n > 1 else [x[0]]
    r2 = sum(m ** 2 for m in mesh)
    values = {"gaussian": lambda: np.exp(-40.0 * r2).astype(np.complex128),
              "mode": lambda: np.exp(2j * math.pi * sum(
                  (i + 3) * m for i, m in enumerate(mesh))),
              "chirp": lambda: np.exp(-30.0 * r2) * np.cos(40.0 * r2)}[name]
    return GridFunction(n, values()).samples


@pytest.mark.parametrize("n,G", [(1, 256), (2, 64), (3, 16), (1, 4), (2, 128)])
@pytest.mark.parametrize("name", ["gaussian", "mode", "chirp"])
def test_presets_match_meshgrid_form(name, n, G):
    want = _preset_meshgrid(name, n, G)
    got = preset_function(name, n, G).samples
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def test_integral_and_norms():
    G = 64
    f = GridFunction(1, np.full(G, 2.0 + 0j))
    assert f.l2() == pytest.approx(2.0)
    assert f.linf() == pytest.approx(2.0)


def test_bytes_and_json_round_trip():
    f = random_bandlimited(2, 8, 3, seed=5)
    assert np.array_equal(GridFunction.from_bytes(f.to_bytes()).samples,
                          f.samples)
    with pytest.raises(ValueError):
        GridFunction.from_bytes(b"nope" + f.to_bytes()[4:])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(2, np.zeros(8))  # rank mismatch
    with pytest.raises(ValueError):
        GridFunction(1, np.zeros(12))  # not a power of two


def test_zero_mean_preset():
    f = random_bandlimited(1, 64, 8, seed=2, zero_mean=True)
    assert abs(f.samples.mean()) < 1e-14


def test_partition_bank_admissible():
    for n, G in ((1, 64), (2, 32)):
        bank = make_bank(n, G)
        checks = bank.admissible()
        assert checks["tau_vanishes_at_0"]
        assert checks["theta_pos_on_Q2"]
        assert checks["tau_pos_on_Q2_minus_Q1"]
        assert checks["partition"]
        assert checks["partition_residual"] < 1e-12


def test_bump_bank_admissible():
    checks = make_bank(1, 64, kind="bump").admissible()
    assert checks["tau_vanishes_at_0"]
    assert checks["tau_pos_on_Q2_minus_Q1"]


def test_homogeneous_bank_levels():
    bank = make_bank(1, 64, homogeneous=True)
    assert list(bank.levels()) == list(range(-4, 5))
    assert bank.admissible()["partition"]


@pytest.mark.parametrize("hom", [False, True])
def test_tau_levels_drop_only_theta(hom):
    bank = make_bank(2, 32, homogeneous=hom)
    want = range(-4, 4) if hom else range(1, 4)
    assert list(bank.tau_levels()) == list(want)
    assert list(bank.levels()) == ([] if hom else [0]) + list(want)
    assert rychkov_pair(1, n=2, G=32, homogeneous=hom).levels == \
        list(bank.levels())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_join_blocks_inverts_split_blocks(n):
    G = 16
    a = np.arange(G ** n, dtype=float).reshape((G,) * n)
    for c in (1, 2, G // 2):
        assert np.array_equal(gridfn._join_blocks(gridfn._split_blocks(a, c)),
                              a)


@pytest.mark.parametrize("ufunc", [np.add, np.multiply, np.maximum])
def test_outer_matches_meshgrid(ufunc):
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        axes = [rng.standard_normal(4 + i) for i in range(n)]
        want = functools.reduce(ufunc, np.meshgrid(*axes, indexing="ij"))
        assert np.array_equal(gridfn._outer(ufunc, axes), want)


SHELL_GRIDS = [(1, 4), (1, 64), (1, 4096), (2, 4), (2, 8), (2, 32), (2, 256),
               (3, 16)]


def _full_grid_windows(n, G, kind, hom, floor=-4):
    """The bank windows evaluated on every grid point: the reference for the
    evaluation on |k|_inf shells."""
    u = kinf_grid(n, G)
    out = {}
    for j in range(floor if hom else 0, G.bit_length() - 2):
        if j == 0 and not hom:
            low = theta_profile if kind == "partition" else theta_profile_bump
            out[j] = low(u)
        elif kind == "partition":
            out[j] = theta_profile(u / 2.0 ** j) - theta_profile(u / 2.0 ** (j - 1))
        else:
            out[j] = tau_profile_bump(u / 2.0 ** j)
    return out


def _full_grid_admissible(n, G, kind, hom):
    """FilterBank.admissible() with theta and tau on every grid point."""
    u = kinf_grid(n, G)
    if kind == "partition":
        theta = theta_profile(u)
        tau = theta_profile(u) - theta_profile(2 * u)
    else:
        theta = theta_profile_bump(u)
        tau = tau_profile_bump(u)
    checks = {
        "tau_vanishes_at_0": bool(tau[(0,) * n] == 0.0),
        "theta_pos_on_Q2": bool(np.all(theta[u <= 2.0] > 0.0)),
        "tau_pos_on_Q2_minus_Q1": bool(np.all(tau[(u > 1.0) & (u <= 2.0)] > 0.0)),
    }
    if kind == "partition":
        total = sum(_full_grid_windows(n, G, kind, hom).values())
        mask = u > 0 if hom else np.ones(u.shape, dtype=bool)
        resid = float(np.max(np.abs(total[mask] - 1.0)))
        checks["partition_residual"] = resid
        checks["partition"] = resid < 1e-12
    return checks


@pytest.mark.parametrize("n,G", SHELL_GRIDS)
@pytest.mark.parametrize("kind", ["partition", "bump"])
@pytest.mark.parametrize("hom", [False, True])
def test_bank_windows_match_full_grid(n, G, kind, hom):
    bank = make_bank(n, G, kind, homogeneous=hom)
    want = _full_grid_windows(n, G, kind, hom)
    assert list(bank.profiles) == list(want)
    index = kinf_grid(n, G).astype(np.intp)
    for j, w in want.items():
        assert bank.profile(j)[index].tobytes() == w.tobytes()
    assert bank.admissible() == _full_grid_admissible(n, G, kind, hom)


def _full_grid_radial(profile, n, G):
    return profile(kinf_grid(n, G))


def _quark_output():
    f = random_bandlimited(2, 64, 4, seed=13)
    qlam = decomp.quark_analyze(f, make_bank(2, 64), 2)
    return qlam.to_csv()


def _multiplier_output():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0, 2), variant="N",
                         n=2)
    rep = verify.multiplier_campaign(params, verify.function_corpus(2, 32, 2, 6),
                                     make_bank(2, 32), nu=5.0, seed=3)
    return rep.constants, rep.extra, rep.witness


@pytest.mark.parametrize("module,output", [(decomp, _quark_output)])
def test_radial_windows_match_full_grid(monkeypatch, module, output):
    # quark_analyze's kappa gives the same bits on shells as on every grid
    # point
    got = output()
    monkeypatch.setattr(module, "radial_window", _full_grid_radial)
    assert output() == got


def _multiplier_ratio_full_grid(params, f, bank, nu, seed):
    """multiplier_campaign's ratio for one function by the full-grid
    formula: f's spectrum times window_j times H_(j) on every grid point,
    then one from_spectrum per level; None where the rhs vanishes."""
    n, G = params.n, bank.G
    N = verify.peetre_threshold(params) + 1.0
    coefs = np.random.default_rng(seed).standard_normal(4) \
        * [1.0, 0.5, 0.25, 0.125]
    Hprof = lambda u: 1.0 + sum(c * np.cos((k + 1) * u * math.pi / 4.0)
                                for k, c in enumerate(coefs))
    u = np.linspace(-8.0, 8.0, 256, endpoint=False)
    sob = sobolev_norm(GridFunction(n, functools.reduce(
        np.multiply.outer, [Hprof(u)] * n)), nu, spacing=16.0 / 256)
    spec = f.spectrum()
    index = kinf_grid(n, G).astype(np.intp)
    fields = {}
    for j in bank.tau_levels():
        mult = _full_grid_radial(lambda u: Hprof(u / 2.0 ** j), n, G)
        g = GridFunction.from_spectrum(
            n, spec * bank.profile(j)[index] * mult)
        fields[j] = gridfn._peetre_scan(np.abs(g.samples), j, N)
    plain = ((j, np.abs(b.samples))
             for j, b in bands(f, bank, bank.tau_levels()))
    rhs = sob * aggregate(plain, params)
    return None if rhs == 0 else aggregate(fields.items(), params) / rhs


@pytest.mark.parametrize("variant,r,n,G", [
    ("N", 2.0, 2, 32), ("E", math.inf, 1, 256), ("E", 1.0, 2, 16)])
def test_multiplier_matches_full_grid_formula(variant, r, n, G):
    # the multiplied shell profiles through bands give each trial's ratio
    # of the full-grid formula to 1e-14 relative
    params = SpaceParams(q=1.0, r=r, s=1.0, phi=power(2.0, n),
                         variant=variant, n=n)
    bank = make_bank(n, G)
    corpus = verify.function_corpus(n, G, 4, 6, kmax=G // 4) \
        + [GridFunction(n, np.ones((G,) * n))]  # rhs = 0: skipped
    for f in corpus:
        want = _multiplier_ratio_full_grid(params, f, bank, 5.0, 3)
        rep = verify.multiplier_campaign(params, [f], bank, nu=5.0, seed=3)
        if want is None:
            assert rep.trials == 0
        else:
            assert rep.trials == 1
            assert rep.constants[G] == pytest.approx(want, rel=1e-14)


def test_bank_holds_shell_profiles_only():
    # O(levels * G) floats: the full-grid windows at (2, 1024) held 72 MB,
    # and admissible() works on the shells too
    make_bank(2, 1024).admissible()  # first-call allocations outside ours
    tracemalloc.start()
    make_bank(2, 1024).admissible()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("G", [0, 1, 2, 3, 12, 48])
def test_bank_and_pair_reject_bad_grid_size(G):
    for build in (lambda: make_bank(1, G), lambda: rychkov_pair(1, n=1, G=G),
                  lambda: radial_window(theta_profile, 1, G)):
        with pytest.raises(ValueError, match=f"G={G} "):
            build()
    make_bank(1, 4)  # the smallest grid with a band level


def test_band_reproduces_lowpass_function():
    # Fourier support inside {theta == 1} (|k| <= 2) -> band 0 is the identity
    G = 64
    f = random_bandlimited(1, G, 2, seed=3)
    b0 = next(bands(f, make_bank(1, G), [0]))[1]
    assert np.abs(b0.samples - f.samples).max() < 1e-12


def test_bank_levels_partition_unity():
    G = 64
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 12, seed=4)
    total = sum(b.samples for _, b in bands(f, bank))
    assert np.abs(total - f.samples).max() < 1e-12 * f.linf()
    with pytest.raises(ValueError):
        bank.profile(99)


def test_hl_maximal_constant():
    f = GridFunction(1, np.full(32, -3.0 + 0j))
    M = hl_maximal(f)
    assert np.allclose(M.samples.real, 3.0)


def test_hl_maximal_dominates():
    f = random_bandlimited(2, 16, 4, seed=6)
    M = hl_maximal(f).samples.real
    assert np.all(M >= np.abs(f.samples) - 1e-12)


@pytest.mark.parametrize("n,G,digest", [
    (1, 4, "83bd39e450f91ffe10cd4929a6a2a06bced27abc8eca82b3c28b294a391e832e"),
    (1, 1024, "264ebfb839956c00c80bc9349e4340e40e12edcec7c1828e736f9f00d11a8a70"),
    (2, 32, "9353123f2a2119542af2927cd00c8f68e022903f98cb2863b2a415962edcaaa0"),
    (3, 8, "4ccf11b0046b871155dd9847201dc32c065eec9db075c7bb2d5cef1c23f718d5")])
def test_hl_maximal_pinned(n, G, digest):
    # SHA-256 of the samples, as the per-function level loop computed them
    # before the stacked core replaced it
    f = random_bandlimited(n, G, max(2, G // 8), seed=n)
    assert hashlib.sha256(hl_maximal(f).samples.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n,sizes", [(1, (4, 8, 64, 1024)),
                                     (2, (4, 16, 64)), (3, (4, 8, 16))])
def test_hl_stack_rows_match_hl_maximal(n, sizes):
    # each row of the stacked core is bit-identical to hl_maximal alone,
    # with one or two stack axes, on heavy-tailed and smooth inputs
    rng = np.random.default_rng(n)
    for G in sizes:
        a = np.concatenate([
            np.abs(np.stack([random_bandlimited(n, G, 2, seed=[G, t]).samples
                             for t in range(3)])),
            rng.lognormal(0.0, 2.0, (3,) + (G,) * n)
            * (rng.random((3,) + (G,) * n) < 0.3)])
        rows = np.stack([hl_maximal(GridFunction(n, x)).samples.real
                         for x in a])
        assert np.array_equal(gridfn._hl_stack(a, n), rows)
        assert np.array_equal(
            gridfn._hl_stack(a.reshape((2, 3) + a.shape[1:]), n),
            rows.reshape((2, 3) + a.shape[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_helpers_act_per_row(n):
    G, c = 16, 4
    a = np.random.default_rng(4).standard_normal((2, 3) + (G,) * n)
    means = gridfn._block_mean(a, c, n)
    assert means.shape == (2, 3) + (G // c,) * n
    for row in np.ndindex(2, 3):
        assert np.array_equal(means[row], gridfn._block_mean(a[row], c))
        assert np.array_equal(gridfn._expand(means, c, n)[row],
                              gridfn._expand(means[row], c))
        assert np.array_equal(gridfn._split_blocks(a, c, n)[row],
                              gridfn._split_blocks(a[row], c))


@pytest.mark.parametrize("n,sizes", [(1, (2, 4, 8, 64, 4096)),
                                     (2, (2, 4, 8, 16, 64)),
                                     (3, (2, 4, 8, 16))])
def test_block_sum_is_numpy_mean_order(n, sizes):
    # the written-out block sums are the sums numpy takes inside the mean of
    # the block view, byte for byte, for every c, with no, one or two stack
    # axes, on dense, subnormal, overflowing, sparse and all-zero fields
    rng = np.random.default_rng(n)
    for G in sizes:
        for stack in ((), (3,), (2, 3)):
            shape = stack + (G,) * n
            fields = [rng.lognormal(0.0, 2.0, shape),
                      rng.random(shape) * 1e-310,
                      rng.random(shape) * 1.7e308,
                      rng.lognormal(0.0, 2.0, shape) * (rng.random(shape) < 0.1),
                      np.zeros(shape)]
            for a, lev in itertools.product(fields, range(G.bit_length())):
                c = G >> lev
                with np.errstate(over="ignore"):
                    old = gridfn._split_blocks(a, c, n).mean(
                        axis=tuple(range(a.ndim, a.ndim + n)))
                    new = gridfn._block_mean(a, c, n)
                assert new.shape == old.shape
                assert new.tobytes() == old.tobytes(), (G, stack, c)


def test_peetre_maximal_dominates_band():
    G = 64
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 12, seed=8)
    split = dict(bands(f, bank, [1, 3]))
    for j, bj in split.items():
        P = peetre_maximal(bj, j, 4.0).samples.real
        assert np.all(P >= np.abs(bj.samples) - 1e-12)
    for N in (0.0, math.nan):  # a NaN order once gave all-NaN samples
        with pytest.raises(ValueError, match="N must be positive"):
            peetre_maximal(split[1], 1, N)


def test_peetre_maximal_constant_band():
    G = 32
    bank = make_bank(1, G)
    f = GridFunction(1, np.full(G, 1.0 + 0j))
    # theta == 1 at k = 0, so band 0 is the constant; max attained at y = x
    P = peetre_maximal(next(bands(f, bank, [0]))[1], 0, 3.0).samples.real
    assert np.allclose(P, 1.0)


def _full_peetre_scan(g, j, N):
    """max over every offset z of w(z) g(x - z), without pruning."""
    n, G = g.ndim, g.shape[0]
    w = (1.0 + 2.0 ** j * np.sqrt(gridfn.torus_dist_sq(n, G))) ** (-N)
    out = np.zeros_like(g)
    for z in np.ndindex(w.shape):
        np.maximum(out, w[z] * np.roll(g, z, axis=tuple(range(n))), out=out)
    return out


@pytest.mark.parametrize("n,G", [(1, 256), (2, 32)])
def test_peetre_scan_matches_full_scan(n, G):
    # the pruning bound is exact: skipped offsets cannot raise any value
    bank = make_bank(n, G)
    for seed in range(3):
        f = random_bandlimited(n, G, G // 8, seed=[15, seed])
        for j, bj in bands(f, bank, [1, 2, 3]):
            g = np.abs(bj.samples)
            for N in (2.5, 4.0):
                want = _full_peetre_scan(g, j, N)
                assert np.array_equal(peetre_maximal(bj, j, N).samples, want)


def _peetre_char_output():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0, 2), variant="N",
                         n=2)
    rep = verify.peetre_char_campaign(params, 5.0,
                                      verify.function_corpus(2, 32, 2, 6),
                                      make_bank(2, 32))
    return rep.constants, rep.extra, rep.witness


@pytest.mark.parametrize("module,output", [
    (gridfn, _peetre_char_output), (verify, _multiplier_output)])
def test_peetre_campaigns_match_full_scan(monkeypatch, module, output):
    # both campaigns run the one pruned scan, gridfn._peetre_scan
    got = output()
    monkeypatch.setattr(module, "_peetre_scan", _full_peetre_scan)
    assert output() == got


def _localized_field(n, G, seed):
    """exp(-|x - c| / 0.02) at a seeded grid point c: one cusp."""
    c = tuple(np.random.default_rng([17, seed]).integers(0, G, n))
    bump = np.exp(-np.sqrt(gridfn.torus_dist_sq(n, G)) / 0.02)
    return np.roll(bump, c, axis=tuple(range(n)))


def _spread_field(n, G, seed):
    """|f| of a band-limited trigonometric polynomial, many comparable
    peaks."""
    return np.abs(random_bandlimited(n, G, max(G // 8, 1),
                                     seed=[16, seed]).samples)


# (n, G, field, j, N) per path of _peetre_scan, which
# test_peetre_scan_takes_labelled_path asserts.  The block side is 64 in 1-D,
# 8 in 2-D and 4 in 3-D on large grids and shrinks on small ones
# (gridfn._block_side): (1, 4096) has 32, (1, 1024) 16, (2, 64) 4, (3, 16) 2,
# and b = 1 (no block phase) on G <= 8 in 1-D and G = 4 in 2-D and 3-D.  So a
# block grid has at least four blocks per axis, never G = 2b; the edge cases
# are the smallest grids with a block phase, (1, 16), (2, 8) and (3, 8).  The
# bound tables of (1, 4096) and (3, 16) span several batches.  Spread fields
# at moderate N take the block phase; the other paths need steeper weights.
_SCAN_PATHS = {
    "phase1-exit": [(1, 1024, _spread_field, 8, 32.0),
                    (1, 4096, _spread_field, 10, 8.0),
                    (2, 64, _spread_field, 4, 40.0)],
    "switch-global-no-estimate": [(1, 1024, _spread_field, 6, 56.0),
                                  (1, 4096, _spread_field, 8, 4.0),
                                  (2, 64, _spread_field, 3, 19.0)],
    "switch-global-estimated": [(1, 1024, _spread_field, 5, 64.0),
                                (1, 4096, _spread_field, 6, 6.0),
                                (2, 64, _spread_field, 1, 48.0),
                                (2, 32, _spread_field, 2, 26.0)],
    "block": [(1, 1024, _localized_field, 0, 3.0),
              (1, 1024, _localized_field, 3, 3.0),
              (1, 1024, _localized_field, 8, 3.0),
              (1, 1024, _spread_field, 0, 3.0),
              (1, 4096, _spread_field, 5, 3.0),
              (1, 128, _localized_field, 3, 3.0),
              (1, 16, _localized_field, 0, 3.0),
              (2, 64, _localized_field, 0, 5.0),
              (2, 64, _localized_field, 4, 5.0),
              (2, 64, _spread_field, 0, 5.0),
              (2, 16, _localized_field, 3, 5.0),
              (2, 8, _spread_field, 0, 5.0),
              (3, 16, _localized_field, 0, 7.0),
              (3, 16, _spread_field, 1, 7.0),
              (3, 8, _localized_field, 0, 7.0)],
    "tiny-grid": [(1, 4, _localized_field, 0, 3.0),
                  (1, 8, _spread_field, 2, 3.0),
                  (2, 4, _localized_field, 1, 5.0),
                  (3, 4, _localized_field, 0, 7.0)],
}


@pytest.mark.parametrize("path,case", [
    (path, case) for path, cases in _SCAN_PATHS.items() for case in cases],
    ids=lambda v: v if isinstance(v, str)
    else f"{v[0]}x{v[1]}-{v[2].__name__.split('_')[1]}-j{v[3]}")
def test_peetre_scan_paths_match_full_scan(path, case):
    # every path of the scan returns the unpruned max bit for bit
    n, G, field, j, N = case
    g = field(n, G, seed=3)
    assert np.array_equal(gridfn._peetre_scan(g, j, N),
                          _full_peetre_scan(g, j, N))


@pytest.mark.parametrize("n,G", [(1, 256), (2, 32), (3, 16)])
def test_block_scan_alone_matches_full_scan(n, G):
    # the block phase is exact on its own, from out = 0 (no phase-1 offset)
    # and from an out that is already the max (no pair is live)
    g = _spread_field(n, G, seed=3)
    want = _full_peetre_scan(g, 2, 5.0)
    w = (1.0 + 4.0 * np.sqrt(gridfn.torus_dist_sq(n, G))) ** -5.0
    for out in (np.zeros_like(g), want.copy()):
        assert gridfn._block_scan(w, g, out, gridfn._block_side(n, G), np.inf)
        assert out.tobytes() == want.tobytes()


def _scan_path(g, j, N, monkeypatch):
    """The path _peetre_scan takes on g, read off the return values of
    _block_scan and the number of phase-1 offsets (its rolls of g)."""
    n, G = g.ndim, g.shape[0]
    ran, rolls = [], [0]
    block_scan, roll = gridfn._block_scan, np.roll

    def counted_roll(*args, **kwargs):
        rolls[0] += 1
        return roll(*args, **kwargs)

    def spied_block_scan(*args):
        before = rolls[0]  # _block_scan's own rolls are not offsets
        ran.append(block_scan(*args))
        rolls[0] = before
        return ran[-1]

    monkeypatch.setattr(np, "roll", counted_roll)
    monkeypatch.setattr(gridfn, "_block_scan", spied_block_scan)
    gridfn._peetre_scan(g, j, N)
    monkeypatch.undo()
    b = gridfn._block_side(n, G)
    if b == 1:
        assert ran == []
        return "tiny-grid"
    if ran:
        return "block" if ran == [True] else "switch-global-estimated"
    # the switch offset: as many offsets as the cheapest block phase costs
    switch = (gridfn._GATHER_COST * G ** n * b ** n
              // (G ** n + gridfn._ROLL_OVERHEAD))
    return "switch-global-no-estimate" if rolls[0] > switch else "phase1-exit"


@pytest.mark.parametrize("path,case", [
    (path, case) for path, cases in _SCAN_PATHS.items() for case in cases],
    ids=lambda v: v if isinstance(v, str)
    else f"{v[0]}x{v[1]}-{v[2].__name__.split('_')[1]}-j{v[3]}")
def test_peetre_scan_takes_labelled_path(path, case, monkeypatch):
    n, G, field, j, N = case
    assert _scan_path(field(n, G, seed=3), j, N, monkeypatch) == path


def test_scan_paths_cover_block_edges():
    # a bound table too large for one batch, and for each n the smallest
    # grid with a block phase next to the largest without one
    block = {case[:2] for case in _SCAN_PATHS["block"]}
    tiny = {case[:2] for case in _SCAN_PATHS["tiny-grid"]}
    assert any((G // gridfn._block_side(n, G)) ** (2 * n) > gridfn._TABLE_CAP
               for n, G in block)
    for n in (1, 2, 3):
        G = next(G for G in (4, 8, 16, 32) if gridfn._block_side(n, G) > 1)
        assert (n, G) in block and (n, G // 2) in tiny


@pytest.mark.parametrize("n,G,j,N", [(2, 256, 3, 5.0), (1, 1 << 16, 6, 3.0)])
def test_peetre_scan_working_set(n, G, j, N):
    # phase 1 peaks at about 5 fields of G^n floats (w and its temporaries,
    # the offset order, out); the block phase adds its copies of g and out
    # in block order, and per batch a bound table, its live pairs and one
    # gather of at most _TABLE_CAP entries each.  A full table of all
    # (G/b)^(2n) = 2^20 block pairs would hold 8 MB alone.
    g = _localized_field(n, G, seed=3)
    gridfn._peetre_scan(g, j, N)  # first-call allocations outside ours
    tracemalloc.start()
    gridfn._peetre_scan(g, j, N)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * (8 * G ** n) + 2 * 8 * gridfn._TABLE_CAP


def test_sobolev_norm():
    G = 64
    assert sobolev_norm(GridFunction(1, np.zeros(G)), 2.0) == 0.0
    # window profile that is one-hot at the grid point with wavenumber 3
    onehot = np.zeros(G, dtype=np.complex128)
    onehot[3] = 1.0
    H = GridFunction(1, onehot)
    want = (1.0 + 9.0) ** 1.0  # (1 + |xi|^2)^{nu/2} at xi = 3, nu = 2
    assert sobolev_norm(H, 2.0) == pytest.approx(want)


def test_rychkov_pair_reproduces():
    for n, G in ((1, 128), (2, 32)):
        pair = rychkov_pair(1, n=n, G=G)
        f = random_bandlimited(n, G, G // 8, seed=11)
        assert pair.reproducing_residual(f) < 1e-12


def _stored_psi(pair):
    """The psi_j spectra rychkov_pair stored for every level before the
    pair formed them per level: conj(phi_j) over the denominator, which
    is 1 at the origin and psi_j 0 there when homogeneous."""
    D = sum(np.abs(pair.phi_spec[j]) ** 2 for j in pair.levels)
    origin = (0,) * pair.n
    if pair.homogeneous:
        D[origin] = 1.0
    stored = {}
    for j in pair.levels:
        stored[j] = np.conj(pair.phi_spec[j]) / D
        if pair.homogeneous:
            stored[j][origin] = 0.0
    return stored


@pytest.mark.parametrize("hom", [False, True])
@pytest.mark.parametrize("L", [0, 1, 2])
@pytest.mark.parametrize("n,G", [(1, 4096), (2, 256), (3, 32)])
def test_psi_matches_stored_spectra(n, G, L, hom):
    # psi(j) gives the bytes the stored spectra had, and the reproducing
    # residual keeps its float
    pair = rychkov_pair(L, n=n, G=G, homogeneous=hom)
    stored = _stored_psi(pair)
    for j in pair.levels:
        assert pair.psi(j).tobytes() == stored[j].tobytes(), j
    f = random_bandlimited(n, G, G // 8, seed=[18, n, L], zero_mean=hom)
    total = sum(stored[j] * pair.phi_spec[j] for j in pair.levels)
    spec = f.spectrum()
    if hom:
        spec[(0,) * n] = 0.0
    err = GridFunction.from_spectrum(n, (total - 1.0) * spec)
    want = err.l2() / max(f.l2(), 1e-300)
    assert pair.reproducing_residual(f).hex() == want.hex()


def test_rychkov_phi_moments_vanish():
    # Laplacian^L1 kills discrete moments up to order 2*L1 - 1 >= L exactly
    for L in (0, 1, 3):
        pair = rychkov_pair(L, n=1, G=128)
        for j in (1, 3, pair.levels[-1]):
            kern = GridFunction.from_spectrum(1, pair.phi_spec[j])
            x = centered_axis(kern.G)
            scale = np.abs(kern.samples).max()
            for beta in _multi_indices(1, L):
                v = _times_monomial(kern.samples, beta, [x]).sum() * kern.h
                assert abs(v) < 1e-10 * scale


def test_rychkov_phi_compact_support():
    pair = rychkov_pair(1, n=1, G=256)
    for j in (2, 4):
        kern = GridFunction.from_spectrum(1, pair.phi_spec[j]).samples
        half = pair.phi_half_cells[j]
        x = centered_axis(256)
        outside = np.abs(x) * 256 > half
        assert np.abs(kern[outside]).max() < 1e-12 * np.abs(kern).max()


def test_rychkov_homogeneous_ignores_constants():
    pair = rychkov_pair(1, n=1, G=128, homogeneous=True)
    f = random_bandlimited(1, 128, 10, seed=12, zero_mean=True)
    assert pair.reproducing_residual(f) < 1e-12
    assert pair.levels[0] == -4


def test_rychkov_validation():
    with pytest.raises(ValueError):
        rychkov_pair(-1)
