import math

import numpy as np
import pytest

from morreykit import decomp, gridfn, verify
from morreykit.growth import SpaceParams, power
from morreykit.gridfn import (FilterBank, GridFunction, band, centered_axis,
                              hl_maximal, kappa_profile, kinf_grid, make_bank,
                              peetre_maximal, powered_maximal, preset_function,
                              radial_window, random_bandlimited, rychkov_pair,
                              sample_expand, smoothstep7, sobolev_norm,
                              tau_profile_bump, theta_profile,
                              theta_profile_bump, wavenumbers, _multi_indices,
                              _times_monomial)


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


def test_integral_and_norms():
    G = 64
    f = GridFunction(1, np.full(G, 2.0 + 0j))
    assert f.integral() == pytest.approx(2.0)
    assert f.l2() == pytest.approx(2.0)
    assert f.linf() == pytest.approx(2.0)


def test_bytes_and_json_round_trip():
    f = random_bandlimited(2, 8, 3, seed=5)
    assert np.array_equal(GridFunction.from_bytes(f.to_bytes()).samples,
                          f.samples)
    g = GridFunction.from_json(f.to_json())
    assert np.allclose(g.samples, f.samples)
    with pytest.raises(ValueError):
        GridFunction.from_bytes(b"nope" + f.to_bytes()[4:])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(2, np.zeros(8))  # rank mismatch
    with pytest.raises(ValueError):
        GridFunction(1, np.zeros(12))  # not a power of two


def test_zero_mean_preset():
    f = random_bandlimited(1, 64, 8, seed=2, zero_mean=True)
    assert abs(f.integral()) < 1e-14


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


SHELL_GRIDS = [(1, 64), (1, 4096), (2, 32), (2, 256), (3, 16)]


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
    assert list(bank.windows) == list(want)
    for j, w in want.items():
        assert np.array_equal(bank.windows[j], w)
    assert bank.admissible() == _full_grid_admissible(n, G, kind, hom)


def _full_grid_radial(profile, n, G, index=None):
    return profile(kinf_grid(n, G))


def _sample_expand_output():
    f = random_bandlimited(2, 64, 7, seed=9)
    return sample_expand(f, kappa_profile, 4).samples


def _quark_output():
    f = random_bandlimited(2, 64, 4, seed=13)
    qlam = decomp.quark_analyze(f, decomp.QuarkGen(n=2), make_bank(2, 64), 2)
    return qlam.to_csv()


def _multiplier_output():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0, 2), variant="N",
                         n=2)
    rep = verify.multiplier_campaign(params, verify.function_corpus(2, 32, 2, 6),
                                     make_bank(2, 32), nu=5.0, seed=3)
    return rep.constants, rep.extra, rep.witness


@pytest.mark.parametrize("module,output", [
    (gridfn, _sample_expand_output), (decomp, _quark_output),
    (verify, _multiplier_output)])
def test_radial_windows_match_full_grid(monkeypatch, module, output):
    # sample_expand's and quark_analyze's kappa and the multiplier profile
    # give the same bits on shells as on every grid point
    got = output()
    monkeypatch.setattr(module, "radial_window", _full_grid_radial)
    want = output()
    if isinstance(got, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


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
    b0 = band(f, make_bank(1, G), 0)
    assert np.abs(b0.samples - f.samples).max() < 1e-12


def test_bank_levels_partition_unity():
    G = 64
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 12, seed=4)
    total = sum(band(f, bank, j).samples for j in bank.levels())
    assert np.abs(total - f.samples).max() < 1e-12 * f.linf()
    with pytest.raises(ValueError):
        bank.window(99)


def test_hl_maximal_constant():
    f = GridFunction(1, np.full(32, -3.0 + 0j))
    M = hl_maximal(f)
    assert np.allclose(M.samples.real, 3.0)


def test_hl_maximal_dominates():
    f = random_bandlimited(2, 16, 4, seed=6)
    M = hl_maximal(f).samples.real
    assert np.all(M >= np.abs(f.samples) - 1e-12)


def test_powered_maximal():
    f = random_bandlimited(1, 32, 6, seed=7)
    assert np.allclose(powered_maximal(f, 1.0).samples,
                       hl_maximal(f).samples)
    with pytest.raises(ValueError):
        powered_maximal(f, 0.0)


def test_peetre_maximal_dominates_band():
    G = 64
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 12, seed=8)
    for j in (1, 3):
        b = np.abs(band(f, bank, j).samples)
        P = peetre_maximal(f, bank, j, 4.0).samples.real
        assert np.all(P >= b - 1e-12)
    with pytest.raises(ValueError):
        peetre_maximal(f, bank, 1, 0.0)


def test_peetre_maximal_constant_band():
    G = 32
    bank = make_bank(1, G)
    f = GridFunction(1, np.full(G, 1.0 + 0j))
    # theta == 1 at k = 0, so band 0 is the constant; max attained at y = x
    P = peetre_maximal(f, bank, 0, 3.0).samples.real
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
        for j in (1, 2, 3):
            g = np.abs(band(f, bank, j).samples)
            for N in (2.5, 4.0):
                want = _full_peetre_scan(g, j, N)
                assert np.array_equal(peetre_maximal(f, bank, j, N).samples,
                                      want)


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


# (n, G, field, j, N) per path of _peetre_scan.  The block side is 64 in 1-D,
# 8 in 2-D and 4 in 3-D, so G = 4 and 8 never reach the block phase.
_SCAN_PATHS = {
    "phase1-exit": [(1, 1024, _spread_field, 8, 3.0),
                    (2, 64, _spread_field, 4, 5.0)],
    "switch-global-no-estimate": [(1, 1024, _spread_field, 6, 3.0),
                                  (2, 64, _spread_field, 3, 5.0)],
    "switch-global-estimated": [(1, 1024, _spread_field, 5, 3.0),
                                (2, 64, _spread_field, 1, 5.0),
                                (2, 32, _spread_field, 2, 5.0)],
    "block": [(1, 1024, _localized_field, 0, 3.0),
              (1, 1024, _localized_field, 3, 3.0),
              (1, 1024, _localized_field, 8, 3.0),
              (1, 1024, _spread_field, 0, 3.0),
              (1, 128, _localized_field, 3, 3.0),
              (2, 64, _localized_field, 0, 5.0),
              (2, 64, _localized_field, 4, 5.0),
              (2, 64, _spread_field, 0, 5.0),
              (2, 16, _localized_field, 3, 5.0),
              (3, 16, _localized_field, 0, 7.0)],
    "tiny-grid": [(1, 4, _localized_field, 0, 3.0),
                  (1, 8, _spread_field, 2, 3.0),
                  (2, 4, _localized_field, 1, 5.0),
                  (2, 8, _spread_field, 0, 5.0)],
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


def test_sample_expand_exact():
    G = 128
    nu = 4
    # keep |2 pi k| <= 3 * 2^nu: kmax = 7
    f = random_bandlimited(1, G, 7, seed=9)
    rec = sample_expand(f, kappa_profile, nu)
    assert np.abs(rec.samples - f.samples).max() < 1e-10 * f.linf()


def test_sample_expand_rejects_leaky_spectrum():
    f = random_bandlimited(1, 128, 40, seed=10)
    with pytest.raises(ValueError):
        sample_expand(f, kappa_profile, 4)


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
