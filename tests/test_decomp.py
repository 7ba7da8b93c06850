import functools
import hashlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreykit import decomp
from morreykit.dyadic import DyadicCube, cube_mask
from morreykit.decomp import (QUARK_RHO, TINY, AtomSpec, MoleculeSpec,
                              _differentiate, _patch_kernel, atomic_analyze,
                              band_decay_profile, fit_decay_slopes, make_atom,
                              make_molecule, quark_analyze, quark_synthesize,
                              round_trip, synthesize, validate_atom,
                              validate_molecule)
from morreykit.growth import SpaceParams, power
from morreykit.gridfn import (GridFunction, _along, _multi_indices, _outer,
                              _split_blocks, _times_monomial, bands,
                              centered_axis, coord_axis, level_side, make_bank,
                              random_bandlimited, rychkov_pair)
from morreykit.norms import CoeffField, QuarkCoeffs, quark_norm


def test_atom_spec_validation():
    with pytest.raises(ValueError):
        AtomSpec(K=-1, L=0)
    with pytest.raises(ValueError):
        AtomSpec(K=1, L=-2)
    AtomSpec(K=0, L=-1)  # no moment condition is fine


def test_molecule_spec_needs_decay():
    with pytest.raises(ValueError):
        MoleculeSpec(K=1, L=-1, N=1.5).validate_for(1)
    MoleculeSpec(K=1, L=-1, N=2.5).validate_for(1)


def test_make_atom_passes_validator():
    G = 256
    for K, L, j, m in ((1, -1, 2, (1,)), (2, 0, 3, (5,)), (2, 1, 4, (9,))):
        spec = AtomSpec(K, L)
        a = make_atom(DyadicCube(j, m), spec, G, seed=3)
        rep = validate_atom(a, DyadicCube(j, m), spec)
        assert rep["pass"], rep


def test_indicator_is_not_an_atom():
    # chi_Q is supported right but has no derivative bound
    G = 128
    Q = DyadicCube(2, (1,))
    chi = GridFunction(1, cube_mask(Q, G).astype(np.complex128))
    rep = validate_atom(chi, Q, AtomSpec(K=1, L=-1))
    assert rep["support_ok"]
    assert not rep["deriv_ok"]


def test_scaled_atom_fails_derivative_bound():
    G = 128
    Q = DyadicCube(2, (1,))
    a = make_atom(Q, AtomSpec(1, 0), G, seed=0)
    rep = validate_atom(GridFunction(1, 1.5 * a.samples), Q, AtomSpec(1, 0))
    assert not rep["deriv_ok"]


def test_atom_moments_vanish():
    G = 256
    Q = DyadicCube(3, (2,))
    a = make_atom(Q, AtomSpec(2, 1), G, seed=7)
    rep = validate_atom(a, Q, AtomSpec(2, 1))
    assert rep["moment_ok"] and rep["moment_worst"] < 1e-10


def test_compact_atom_is_a_molecule():
    # compact support sits under the decay envelope once rescaled by its
    # worst value on 3Q: the support reaches 2^j d = 2, envelope (1+2)^{-N}
    G = 128
    N = 3.0
    Q = DyadicCube(2, (1,))
    a = make_atom(Q, AtomSpec(1, -1), G, seed=1)
    scaled = GridFunction(1, a.samples / 3.0 ** N)
    rep = validate_molecule(scaled, Q, MoleculeSpec(K=1, L=-1, N=N))
    assert rep["deriv_ok"]


def test_make_molecule_passes_validator():
    for n, G, j, m in ((1, 256, 3, (5,)), (2, 64, 2, (1, 3))):
        spec = MoleculeSpec(K=1, L=-1, N=n + 1.5)
        b = make_molecule(DyadicCube(j, m), spec, G, seed=2)
        rep = validate_molecule(b, DyadicCube(j, m), spec)
        assert rep["pass"], rep


def test_slow_decay_fails_stricter_envelope():
    # a profile built for decay order N fails validation at order N + 2
    G = 256
    Q = DyadicCube(3, (5,))
    b = make_molecule(Q, MoleculeSpec(K=1, L=-1, N=2.2), G, seed=0)
    rep = validate_molecule(b, Q, MoleculeSpec(K=1, L=-1, N=4.2))
    assert not rep["deriv_ok"]


def test_atomic_analyze_zero_input():
    G = 64
    pair = rychkov_pair(1, n=1, G=G)
    lam, patches = atomic_analyze(GridFunction(1, np.zeros(G)), pair)
    for j in lam.level_list():
        assert np.abs(np.atleast_1d(lam.levels[j])).max() < 1e-200


def test_atomic_round_trip():
    for n, G in ((1, 128), (2, 32)):
        pair = rychkov_pair(1, n=n, G=G)
        f = random_bandlimited(n, G, G // 8, seed=5)
        lam, patches = atomic_analyze(f, pair)
        rec = synthesize(lam, patches, G)
        assert (rec - f).l2() / f.l2() < 1e-12


def _cubes(lam):
    """Every (j, m) of a coefficient field, by increasing j, then m."""
    for j in lam.level_list():
        for m in itertools.product(range(1 << max(j, 0)), repeat=lam.n):
            yield j, m


def _atom_grid(patches, j, m, n, G):
    """Atom (j, m) on the full grid: the synthesis of a one-hot field."""
    one_hot = np.zeros((1 << max(j, 0),) * n)
    one_hot[m] = 1.0
    return synthesize(CoeffField(n, {j: one_hot}), patches, G)


def _per_atom_synthesis(lam, patches, G):
    """sum_jm lam_jm a_jm, one wrapped-index add per atom.  Patch (j, m)
    starts one cube side before the cube."""
    n = lam.n
    out = np.zeros((G,) * n, dtype=np.complex128)
    for j, m in _cubes(lam):
        if j <= 0:
            out += lam.levels[j][m] * patches[j]
            continue
        c = G >> j
        patch = patches[j][m]
        idx = [(np.arange(patch.shape[0]) + mi * c - c) % G for mi in m]
        out[np.ix_(*idx)] += lam.levels[j][m] * patch
    return out


@pytest.mark.parametrize("hom", [False, True])
@pytest.mark.parametrize("n,G", [(1, 128), (2, 32), (2, 64)])
def test_synthesize_matches_per_atom_reference(n, G, hom):
    pair = rychkov_pair(1, n=n, G=G, homogeneous=hom)
    f = random_bandlimited(n, G, G // 8, seed=[14, n, G], zero_mean=hom)
    lam, patches = atomic_analyze(f, pair)
    ref = _per_atom_synthesis(lam, patches, G)
    got = synthesize(lam, patches, G).samples
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,G", [(1, 64), (2, 32), (3, 16)])
def test_patches_cover_3q(n, G):
    pair = rychkov_pair(1, n=n, G=G)
    lam, patches = atomic_analyze(random_bandlimited(n, G, 4, seed=1), pair)
    for j in lam.level_list():
        if j >= 1:
            c = G >> j
            assert patches[j].shape == (1 << j,) * n + (min(3 * c, G),) * n


def test_atomic_analyze_peak_memory():
    # one convolved stack at a time peaks near 21 MB; holding all n + 1
    # derivative stacks at once took 57.5 MB
    pair = rychkov_pair(1, n=2, G=128)
    f = random_bandlimited(2, 128, 16, seed=1)
    tracemalloc.start()
    try:
        atomic_analyze(f, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_atomic_analyze_working_set():
    # the slabs bound what a level holds besides its atoms: analysing all
    # cubes of a level at once peaked at 94 MB against 50 MB of atoms
    pair = rychkov_pair(1, n=2, G=256)
    f = random_bandlimited(2, 256, 32, seed=4)
    tracemalloc.start()
    try:
        _, patches = atomic_analyze(f, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sum(a.nbytes for a in patches.values())


# grid sides per dimension for the fused-path property: from two levels
# (G = 8) up, kept small enough for 30 examples in a few seconds
_ROUND_TRIP_GRIDS = {1: [8, 16, 64, 256], 2: [8, 16, 32, 64], 3: [8, 16]}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_round_trip_matches_collect_then_synthesize(data):
    """round_trip adds each level into the output as it is analysed; its
    lam CSV and reconstruction are the bytes of atomic_analyze followed by
    synthesize."""
    n = data.draw(st.sampled_from([1, 2, 3]), label="n")
    G = data.draw(st.sampled_from(_ROUND_TRIP_GRIDS[n]), label="G")
    L = data.draw(st.sampled_from([0, 1, 2]), label="L")
    hom = data.draw(st.booleans(), label="hom")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    f = {"spread": lambda: random_bandlimited(n, G, max(1, G // 8), seed=seed,
                                              zero_mean=hom),
         "localized": lambda: _localized(n, G, seed),
         "zero": lambda: GridFunction(n, np.zeros((G,) * n))}[
        data.draw(st.sampled_from(["spread", "localized", "zero"]),
                  label="kind")]()
    pair = rychkov_pair(L, n=n, G=G, homogeneous=hom)
    lam, patches = atomic_analyze(f, pair)
    want = synthesize(lam, patches, G).samples.tobytes()
    lam_fused, rec = round_trip(f, pair)
    assert lam_fused.to_csv() == lam.to_csv()
    assert rec.samples.tobytes() == want


@pytest.mark.parametrize("hom", [False, True])
def test_round_trip_drops_each_level_before_the_next(monkeypatch, hom):
    # every level's atoms are freed before the next level is analysed
    added = []

    def add_level(out, lam_j, atoms, j, G):
        added.append(weakref.ref(atoms))
        add(out, lam_j, atoms, j, G)

    def level_analysis(*args):
        assert [r() for r in added] == [None] * len(added)
        return analyse(*args)

    add, analyse = decomp._add_level, decomp._level_analysis
    monkeypatch.setattr(decomp, "_add_level", add_level)
    monkeypatch.setattr(decomp, "_level_analysis", level_analysis)
    pair = rychkov_pair(1, n=2, G=32, homogeneous=hom)
    round_trip(random_bandlimited(2, 32, 4, seed=2, zero_mean=hom), pair)
    assert len(added) == len(pair.levels)


def test_round_trip_holds_less_than_every_level():
    # collecting every level before synthesis holds all 50 MiB of atoms;
    # the fused path peaks at one level's analysis, level 1's kernel spectra
    # and slab the largest part
    pair = rychkov_pair(1, n=2, G=256)
    f = random_bandlimited(2, 256, 32, seed=4)
    atoms = sum(a.nbytes for a in atomic_analyze(f, pair)[1].values())
    tracemalloc.start()
    try:
        round_trip(f, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < atoms


def _level_analysis_unslabbed(U, phi_spec, j, K):
    """_level_analysis before slabs: every cube's 4c patch at once, fftn
    over all lines, and ifftn's own 1/(4c)^n followed by G^-n."""
    n = U.ndim
    G = U.shape[0]
    c = G >> j
    size = 4 * c
    axes = tuple(range(n, 2 * n))
    ext = np.zeros((level_side(j),) * n + (size,) * n, dtype=np.complex128)
    ext[(...,) + (slice(c, 2 * c),) * n] = _split_blocks(U, c)
    np.fft.fftn(ext, axes=axes, out=ext)
    buf = np.empty_like(ext)
    hn = G ** (-n)
    lam = np.full((level_side(j),) * n, TINY)
    for alpha in _multi_indices(n, K):
        kernel = np.fft.ifftn(_differentiate(phi_spec, alpha) * G ** n)
        kern_hat = np.fft.fftn(_patch_kernel(kernel, size))
        np.multiply(ext, kern_hat[(None,) * n], out=buf)
        np.fft.ifftn(buf, axes=axes, out=buf)
        buf *= hn
        lam = np.maximum(
            lam, 2.0 ** (-j * sum(alpha)) * np.abs(buf).max(axis=axes))
        if not any(alpha):
            atoms = buf[(...,) + (slice(0, min(3 * c, G)),) * n].copy()
    atoms /= lam[(...,) + (None,) * n]
    return lam, atoms


@pytest.mark.parametrize("n,G", [(1, 16), (1, 4096), (1, 16384), (2, 16),
                                 (2, 128), (2, 256), (3, 8), (3, 32)])
def test_level1_kernel_spectra_vanish_off_even_lattice(n, G):
    """_level_analysis keeps level 1's kernel spectra on the even lattice:
    the 2G patch kernel is the G-periodic kernel tiled twice per axis, and
    pocketfft's spectrum of it is +0.0, sign bit clear, at every wavenumber
    odd on some axis."""
    odd = (np.indices((2 * G,) * n) % 2 == 1).any(axis=0)
    for L, hom in itertools.product([0, 1, 2], [False, True]):
        phi_spec = rychkov_pair(L, n=n, G=G, homogeneous=hom).phi_spec[1]
        for alpha in _multi_indices(n, max(1, L)):
            kern_hat = np.fft.fftn(_patch_kernel(np.fft.ifftn(
                _differentiate(phi_spec, alpha) * G ** n), 2 * G))[odd]
            parts = np.concatenate([kern_hat.real, kern_hat.imag])
            assert not parts.any(), (L, hom, alpha)
            assert not np.signbit(parts).any(), (L, hom, alpha)


def _analysis_bytes(f, pair):
    lam, patches = atomic_analyze(f, pair)
    return ([(j, lam.levels[j].tobytes()) for j in lam.level_list()],
            [(j, patches[j].tobytes()) for j in sorted(patches)])


def _localized(n, G, seed):
    """Uniform [1, 2) samples on one block of G/8 cells per axis, zero
    elsewhere."""
    rng = np.random.default_rng(seed)
    a = np.zeros((G,) * n, dtype=np.complex128)
    start = rng.integers(0, G - G // 8, n)
    a[tuple(slice(s, s + G // 8) for s in start)] = rng.uniform(
        1.0, 2.0, (G // 8,) * n)
    return GridFunction(n, a)


@pytest.mark.parametrize("kind", ["spread", "localized", "zero", "hom"])
@pytest.mark.parametrize("L", [0, 1, 2])
@pytest.mark.parametrize("n,G", [(1, 128), (2, 32), (3, 16)])
def test_level_analysis_matches_unslabbed(monkeypatch, n, G, L, kind):
    """Slabs, the pruned forward FFT and the one power-of-two scale give
    the bytes of the whole-level analysis, lam and atoms alike.  The scale
    is exact only while nothing is subnormal, so every input keeps its
    samples in the normal range (or zero).  Slab caps of one cube, of 3000
    bytes (a run rounded down to a power of two) and of 4 KiB split every
    level, whose patches hold 16 (4G)^n bytes at every j."""
    pair = rychkov_pair(L, n=n, G=G, homogeneous=kind == "hom")
    f = {"spread": lambda: random_bandlimited(n, G, G // 8, seed=[15, n, L]),
         "hom": lambda: random_bandlimited(n, G, G // 4, seed=[16, n, L],
                                           zero_mean=True),
         "localized": lambda: _localized(n, G, [17, n, L]),
         "zero": lambda: GridFunction(n, np.zeros((G,) * n))}[kind]()
    with monkeypatch.context() as m:
        m.setattr(decomp, "_level_analysis", _level_analysis_unslabbed)
        want = _analysis_bytes(f, pair)
    for cap in (1, 3000, 4096):
        assert 16 * (4 * G) ** n > cap
        monkeypatch.setattr(decomp, "_SLAB_BYTES", cap)
        assert _analysis_bytes(f, pair) == want, cap


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slabs_cover_each_cube_once_in_one_shape(n):
    # the side of a level and the rounded cap are powers of two, so no slab
    # is ragged and _level_analysis holds one pair of buffers of one shape;
    # caps that are no power of two are rounded down
    caps = sorted({1 << k for k in range(21)} | {3, 5, 3000, 65535})
    configs = 0
    for side in (1 << k for k in range(9)):
        for per in caps:
            if side ** n // per > 4096:
                continue  # too many slabs to walk
            slabs = decomp._slabs(side, n, per)
            seen = np.zeros((side,) * n, dtype=np.int64)
            for sl in slabs:
                seen[sl] += 1
            assert (seen == 1).all(), (side, per)
            shapes = {seen[sl].shape for sl in slabs}
            assert len(shapes) == 1, (side, per, shapes)
            assert np.prod(shapes.pop()) <= per
            configs += 1
    assert configs >= 100


def test_homogeneous_lam_pinned():
    # sha256 computed before analysis moved to one derivative stack at a time
    pair = rychkov_pair(1, n=2, G=64, homogeneous=True)
    f = random_bandlimited(2, 64, 8, seed=3, zero_mean=True)
    lam, patches = atomic_analyze(f, pair)
    assert lam.level_list() == list(range(-4, 5))
    assert hashlib.sha256(lam.to_csv().encode()).hexdigest() == \
        "6f0f2d00cd5f547f1420d5df3ce39c30887ac4bd3953f434aae586da364128e0"
    assert (synthesize(lam, patches, 64) - f).l2() < 1e-12 * f.l2()


def test_synthesize_rejects_missing_level():
    G = 32
    pair = rychkov_pair(1, n=1, G=G)
    lam, patches = atomic_analyze(random_bandlimited(1, G, 4, seed=2), pair)
    del patches[2]
    with pytest.raises(KeyError):
        synthesize(lam, patches, G)
    zero = CoeffField(1, {2: np.zeros(4)})
    assert np.array_equal(synthesize(zero, patches, G).samples, np.zeros(G))


def test_atomic_analyze_grid_mismatch():
    pair = rychkov_pair(1, n=1, G=64)
    with pytest.raises(ValueError):
        atomic_analyze(random_bandlimited(1, 128, 8, seed=0), pair)


def test_synthesize_scaling():
    G = 64
    pair = rychkov_pair(0, n=1, G=G)
    f = random_bandlimited(1, G, 6, seed=6)
    lam, patches = atomic_analyze(f, pair)
    rec1 = synthesize(lam, patches, G)
    rec3 = synthesize(
        CoeffField(1, {j: 3.0 * v for j, v in lam.levels.items()}), patches, G)
    assert np.allclose(rec3.samples, 3.0 * rec1.samples)


def test_analyzed_atoms_validate():
    G = 128
    L = 1
    pair = rychkov_pair(L, n=1, G=G)
    f = random_bandlimited(1, G, 10, seed=8)
    lam, patches = atomic_analyze(f, pair)
    spec = AtomSpec(K=max(1, L), L=L)
    checked = 0
    for j, m in _cubes(lam):
        if j < 1 or abs(lam.levels[j][m]) < 1e-8:
            continue
        rep = validate_atom(_atom_grid(patches, j, m, 1, G), DyadicCube(j, m),
                            spec)
        assert rep["pass"], (j, m, rep)
        checked += 1
    assert checked > 10


def test_fit_decay_slopes_synthetic():
    # profile 2^{a nu} above and 2^{b nu} below the atom level
    j = 4
    profile = {nu: 2.0 ** (-3.0 * nu) for nu in range(5, 9)}
    profile.update({nu: 2.0 ** (1.5 * nu) for nu in range(1, 4)})
    hi, lo = fit_decay_slopes(profile, j)
    assert hi == pytest.approx(-3.0)
    assert lo == pytest.approx(1.5)
    # fewer than two points on a side -> 0 by convention
    hi, lo = fit_decay_slopes({5: 1.0}, 4)
    assert hi == 0.0 and lo == 0.0


def test_band_decay_profile_smoke():
    G = 128
    Q = DyadicCube(3, (2,))
    a = make_atom(Q, AtomSpec(1, 0), G, seed=9)
    bank = make_bank(1, G)
    prof = band_decay_profile(a, Q, bank, P=1.0)
    assert set(prof) == set(j for j in bank.levels() if j >= 1)
    assert all(v >= 0 for v in prof.values())


def test_band_decay_profile_pinned():
    Q = DyadicCube(3, (2,))
    a = make_atom(Q, AtomSpec(1, 0), 128, seed=9)
    prof = band_decay_profile(a, Q, make_bank(1, 128), P=1.0)
    assert {nu: v.hex() for nu, v in prof.items()} == {
        1: "0x1.0ed4609bb1b88p-2", 2: "0x1.6b1a431d225cbp-3",
        3: "0x1.0ba253820ca14p-4", 4: "0x1.06506e70c0acap-6",
        5: "0x1.ab19a255527b4p-10"}


def test_quark_partition_of_unity():
    assert decomp.partition_residual() < 1e-12
    assert QUARK_RHO == 1


def test_quark_round_trip_improves_with_cutoff():
    G = 512
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 24, seed=10)
    prev = np.inf
    for cutoff in (0, 1, 2):
        qlam = quark_analyze(f, bank, cutoff)
        rec = quark_synthesize(qlam, G)
        resid = (rec - f).l2() / f.l2()
        assert resid < prev
        prev = resid
    assert prev < 5e-3


def _quark_field_comb(beta, nu, lam_level, G):
    """Quark synthesis of one (beta, nu) by comb convolution, the reference
    for quark_synthesize: lam_level on the 2^-nu lattice of the G-grid
    convolved with the kernel prod_i (2^nu u_i)^beta_i psi1(2^nu u_i),
    periodized over the shifts -1, 0, 1 of 2^nu."""
    n = len(beta)
    t = 2.0 ** nu * centered_axis(G)
    ker_ax = []
    for b in beta:
        ax = np.zeros(G)
        for sft in range(-1, 2):
            ts = t + sft * 2.0 ** nu
            ax += ts ** b * decomp.psi1(ts)
        ker_ax.append(ax)
    ker = functools.reduce(np.multiply.outer, ker_ax)
    comb = np.zeros((G,) * n, dtype=np.complex128)
    comb[(slice(None, None, G >> nu),) * n] = lam_level
    return np.fft.ifftn(np.fft.fftn(comb) * np.fft.fftn(ker))


def _random_quark_coeffs(n, G, cutoff, seed, levels=None):
    """Seeded complex lam^beta on the given levels (default 1..log2 G)."""
    rng = np.random.default_rng(seed)
    levels = range(1, G.bit_length()) if levels is None else levels
    fields = {beta: CoeffField(n, {nu: rng.standard_normal((1 << nu,) * n)
                                   + 1j * rng.standard_normal((1 << nu,) * n)
                                   for nu in levels})
              for beta in _multi_indices(n, cutoff)}
    return QuarkCoeffs(n=n, rho=1, fields=fields)


@pytest.mark.parametrize("n,G", [(1, 512), (1, 4096), (2, 64)])
@pytest.mark.parametrize("cutoff", [0, 1, 2])
def test_quark_synthesize_matches_comb_convolution(n, G, cutoff):
    # every level 1..log2 G: at nu = 1 the 3Q patch is longer than the
    # torus, and at nu = log2 G a cube is one cell (c = 1)
    qlam = _random_quark_coeffs(n, G, cutoff, seed=[n, G, cutoff])
    want = sum(_quark_field_comb(beta, nu, lev, G)
               for beta in qlam.betas()
               for nu, lev in qlam.fields[beta].levels.items())
    got = quark_synthesize(qlam, G).samples
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n,G", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("width", ["atom", "quark"])
def test_synthesize_broadcasts_one_patch(n, G, width):
    # a (1,)*n stack serves every cube: the bits of the patch tiled over
    # all cubes, for the atom layout (min(3c, G) cells) and quarks' 3c
    rng = np.random.default_rng([n, G])
    J = G.bit_length() - 1
    lam = CoeffField(n, {j: rng.standard_normal((1 << j,) * n)
                         + 1j * rng.standard_normal((1 << j,) * n)
                         for j in range(1, J + 1)})
    one, tiled = {}, {}
    for j in range(1, J + 1):
        c = G >> j
        side = (min(3 * c, G) if width == "atom" else 3 * c,) * n
        patch = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        one[j] = patch[(None,) * n]
        tiled[j] = np.tile(one[j], (1 << j,) * n + (1,) * n)
    assert synthesize(lam, one, G).samples.tobytes() \
        == synthesize(lam, tiled, G).samples.tobytes()


@pytest.mark.parametrize("n,G", [(1, 64), (2, 16)])
def test_quark_synthesize_rejects_levels_off_the_grid(n, G):
    J = G.bit_length() - 1
    for nu in (0, J + 1):
        qlam = _random_quark_coeffs(n, G, 1, seed=nu, levels=[nu])
        with pytest.raises(ValueError, match=f"quark level {nu} "):
            quark_synthesize(qlam, G)


def test_quark_rejects_too_fine_bands():
    G = 64
    bank = make_bank(1, G)
    f = random_bandlimited(1, G, 24, seed=11)  # energy beyond the lattice
    with pytest.raises(ValueError):
        quark_analyze(f, bank, 1)


def test_quark_norm_resolution_invariant():
    # band-limited input: the quark coefficients are G-independent
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    vals = []
    for G in (512, 1024):
        f = random_bandlimited(1, G, 24, seed=12)
        qlam = quark_analyze(f, make_bank(1, G), 2)
        vals.append(quark_norm(qlam, params))
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


@pytest.mark.parametrize("n,G", [(1, 256), (1, 1024), (2, 64), (2, 128)])
def test_quark_sampling_expansion_is_exact(n, G):
    # the beta = 0 field is the sampling expansion of band nu from its
    # 2^-(nu+SAMPLE_GAP) lattice, evaluated on the finer 2^-(nu_s+rho)
    # lattice: band nu itself there, as the kappa window is 1 on its
    # spectrum and no aliased copy reaches the window
    f = random_bandlimited(n, G, max(2, G // 8), seed=[16, n, G])
    bank = make_bank(n, G)
    zero = (0,) * n
    got = quark_analyze(f, bank, 0).fields[zero].levels
    kept = 0
    for nu, b in bands(f, bank):
        level = nu + decomp.SAMPLE_GAP + QUARK_RHO
        if level not in got:
            continue
        kept += 1
        want = b.samples[(slice(None, None, G >> level),) * n]
        tol = 1e-12 * np.abs(b.samples).max()
        assert np.abs(got[level] - want).max() <= tol
    assert kept == len(got) >= 2


def test_atom_patch_to_grid_consistency():
    G = 64
    pair = rychkov_pair(1, n=1, G=G)
    f = random_bandlimited(1, G, 6, seed=13)
    lam, patches = atomic_analyze(f, pair)
    total = np.zeros(G, dtype=np.complex128)
    for j, m in _cubes(lam):
        total += lam.levels[j][m] * _atom_grid(patches, j, m, 1, G).samples
    assert np.abs(total - f.samples).max() < 1e-10 * f.linf()


# ---------------------------------------------------------------------------
# one derivative sup and one moment sum: the code they replaced, kept as
# references and compared bit for bit

def _molecule_deriv_sup_per_alpha(b, Q, K, N):
    """validate_molecule's derivative sup before _deriv_sup served it: its
    own decay envelope, and one fftn and ifftn per alpha."""
    n, G, j = b.n, b.G, Q.j
    r2 = _outer(np.add, [
        np.abs(((coord_axis(G) - mi * Q.side) + 0.5) % 1.0 - 0.5) ** 2
        for mi in Q.m[:n]])
    envelope = (1.0 + 2.0 ** j * np.sqrt(r2)) ** (-N)
    worst = 0.0
    for alpha in _multi_indices(n, K):
        d = np.abs(np.fft.ifftn(_differentiate(np.fft.fftn(b.samples), alpha)))
        ratio = d / (2.0 ** (j * sum(alpha)) * envelope)
        worst = max(worst, float(ratio.max()))
    return worst


def _moments(samples, L, h):
    """gridfn._moments: discrete moments sum_x x^beta f(x) h^n in centered
    coordinates."""
    n = samples.ndim
    axes = [centered_axis(samples.shape[0])] * n
    return {beta: complex(_times_monomial(samples, beta, axes).sum() * h ** n)
            for beta in _multi_indices(n, L)}


def _moment_worst_of_moments(f, Q, L):
    """_moment_worst over _centered_on_cube and gridfn._moments."""
    if Q.j < 1:
        return 0.0
    shift = [-int(round(c * f.G)) for c in Q.center]
    moms = _moments(np.roll(f.samples, shift, axis=tuple(range(f.n))), L, f.h)
    return max([0.0] + [abs(v) for v in moms.values()])


def _make_molecule_by_validator(Q, spec, G, seed):
    """make_molecule normalised, as before, by the derivative sup of a
    validate_molecule run at moment order -1."""
    n = Q.n
    rng = np.random.default_rng(seed)
    x = centered_axis(G)
    r2 = _outer(np.add, [(np.sin(math.pi * (x - ci)) / (math.pi * Q.side))
                         ** 2 for ci in Q.center])
    mod = np.ones((G,) * n)
    for ax in range(n):
        freq = rng.integers(1, 4)
        wave = 1.0 + 0.3 * np.cos(2.0 * math.pi * freq * x
                                  + rng.uniform(0, 2 * math.pi))
        mod = mod * _along(wave, ax, n)
    base = (1.0 + r2) ** (-spec.N / 2.0) * mod
    if spec.L >= 0 and Q.j >= 1:
        window, t_axes = decomp._cube_window(Q, G)
        base = decomp._remove_moments(base, window, t_axes, spec.L)
    scale = _molecule_deriv_sup_per_alpha(GridFunction(n, base), Q, spec.K,
                                          spec.N)
    return GridFunction(n, base / (scale * (1.0 + 1e-9)))


@pytest.mark.parametrize("n,G", [(1, 256), (2, 64)])
def test_molecules_match_per_alpha_loop(n, G):
    """make_molecule's bytes and validate_molecule's report equal those of
    the per-alpha loop, for several j, K and L and decay orders N, N + 2."""
    cases = 0
    for j, K, L in itertools.product((1, 2, 3), (0, 1, 2), (-1, 0, 1)):
        Q = DyadicCube(j, tuple((3 * i + 1) % (1 << j) for i in range(n)))
        for N in (K + n + 0.5, K + n + 2.5):
            spec = MoleculeSpec(K, L, N)
            b = make_molecule(Q, spec, G, seed=j + K)
            want = _make_molecule_by_validator(Q, spec, G, seed=j + K)
            assert b.samples.tobytes() == want.samples.tobytes()
            for N2 in (N, N + 2):
                rep = validate_molecule(b, Q, MoleculeSpec(K, L, N2))
                sup = _molecule_deriv_sup_per_alpha(b, Q, K, N2)
                assert rep["deriv_sup"].hex() == sup.hex()
                assert rep["deriv_ok"] == (sup <= 1.0 + decomp.DERIV_TOL)
                worst = _moment_worst_of_moments(b, Q, L)
                assert rep["moment_worst"].hex() == worst.hex()
                cases += 1
    assert cases == 108


def test_moment_worst_matches_moments():
    for n, G in ((1, 128), (2, 32)):
        for trial in range(3):
            f = random_bandlimited(n, G, G // 4, seed=[21, n, trial])
            for j, L in itertools.product(range(4), range(-1, 4)):
                Q = DyadicCube(j, ((trial + 1) % (1 << j),) * n)
                assert decomp._moment_worst(f, Q, L).hex() == \
                    _moment_worst_of_moments(f, Q, L).hex()
