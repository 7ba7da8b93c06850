"""Atoms, molecules and quarks: validators, analysis, synthesis.

Atomic analysis computes

    gamma_jm = phi_j * (chi_{Q_jm} . (psi_j * f))

with the reproducing pair, so summing all gamma over (j, m) telescopes back
to f exactly (Fubini split of the reproducing identity).  It returns the
coefficients lam_jm and, per level, one array of the normalized atoms
a_jm = gamma_jm / lam_jm:

* a stack of shape (level_side(j),)*n + (min(3c, G),)*n, with
  c = G / level_side(j) grid cells per cube side.  Entry [m] is atom
  (j, m) on the patch starting one cube side before the cube, at cell
  (m c - c) mod G: its full support 3Q, or the whole torus once at j = 1
  and on the one cube of a level j <= 0.

A level j >= 1 is analysed in slabs of cubes of about 1 MiB of patches,
with a forward FFT that skips the all-zero patch lines and one power-of-two
scale, so besides the atoms it returns it holds one slab at a time.  Level
1 keeps its kernel spectra on the even-wavenumber lattice, as they are +0.0
off it, so no held spectrum exceeds G^n cells; the bits are those of the
whole-level transform.

Analysis and synthesis run one level at a time: _analyses yields each
level's (j, lam_j, atoms_j) and _add_level overlap-adds it.  round_trip
adds each level as soon as it is analysed and drops its atoms, so it
holds one level of atoms; atomic_analyze collects every level and
synthesize adds them, with the same bits.  decompose_bytes bounds what a
decompose run (round_trip) holds, and the CLI checks it before the
analysis.

Quarks are atoms: (beta qu)_{nu m} is quark_patch(beta, c) on the 3Q
patch translated to cube m, the window psi1 and QUARK_RHO being module
data, so quark_synthesize is one synthesize per beta, one patch per level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, box_mask, cube_mask, dilate
from .gridfn import (FilterBank, GridFunction, RychkovPair, band_levels,
                     bands, smoothstep7, _along, _bump_axis, _join_blocks,
                     _moment, _multi_indices, _outer, _split_blocks,
                     _times_monomial, centered_axis, coord_axis, hl_maximal,
                     kappa_profile, level_side, radial_window, wavenumbers,
                     TWO_PI, _check_grid)
from .norms import CoeffField, QuarkCoeffs, _moduli

TINY = 1e-300
_SLAB_BYTES = 1 << 20  # patches per slab of _level_analysis
_WORK_GRIDS = 8  # G^n grids decompose holds besides atoms, pair and slab
SUPPORT_DILATE = 3.0  # an atom of Q lives in the cube dilated by this
DERIV_TOL = 1e-6  # relative slack of the validators' derivative bound
MOMENT_TOL = 1e-8  # the validators' bound on a discrete moment


# ---------------------------------------------------------------------------
# specs

@dataclass
class AtomSpec:
    K: int
    L: int  # -1 allowed: no moment condition

    def __post_init__(self):
        if self.K < 0 or self.L < -1:
            raise ValueError("need K >= 0 and L >= -1")


@dataclass
class MoleculeSpec:
    K: int
    L: int
    N: float  # decay order, N > K + n

    def validate_for(self, n: int):
        if self.N <= self.K + n:
            raise ValueError("molecule decay must satisfy N > K + n")


# ---------------------------------------------------------------------------
# validators

def _differentiate(spec: np.ndarray, alpha) -> np.ndarray:
    """spec * prod_i (2 pi i k_i)^alpha_i, one axis at a time, with the
    wavenumbers of the spectrum's own side."""
    k = wavenumbers(spec.shape[0])
    for ax, a in enumerate(alpha):
        if a:
            spec = spec * _along(2j * math.pi * k, ax, spec.ndim) ** a
    return spec


def _deriv_sup(samples: np.ndarray, j: int, K: int,
               envelope: np.ndarray = None) -> float:
    """max over |alpha| <= K of 2^{-j|alpha|} ||d^alpha g / envelope||_inf,
    the derivatives spectral from one forward FFT (envelope None: 1)."""
    spec = np.fft.fftn(samples)
    worst = 0.0
    for alpha in _multi_indices(samples.ndim, K):
        d = np.abs(np.fft.ifftn(_differentiate(spec, alpha)))
        w = 2.0 ** (j * sum(alpha))
        worst = max(worst, float(d.max()) / w if envelope is None
                    else float((d / (w * envelope)).max()))
    return worst


def _decay_envelope(Q: DyadicCube, G: int, N: float) -> np.ndarray:
    """(1 + 2^j d(x, corner))^{-N}, d the torus distance from the cube
    corner 2^-j m: the molecule bound at |alpha| = 0."""
    r2 = _outer(np.add, [
        np.abs(((coord_axis(G) - mi * Q.side) + 0.5) % 1.0 - 0.5) ** 2
        for mi in Q.m])
    return (1.0 + 2.0 ** Q.j * np.sqrt(r2)) ** (-N)


def _moment_worst(f: GridFunction, Q: DyadicCube, L: int) -> float:
    """Largest |h^n sum_x x^beta f(x)| over |beta| <= L, x centered on the
    cube (0 for j <= 0 cubes: no moment condition).  The center is rolled
    to index 0, where the wrapped coordinate is 0 and polynomial across
    the seam (exact while 3Q fits the torus)."""
    if Q.j < 1:
        return 0.0
    G, n = f.G, f.n
    rolled = np.roll(f.samples, [-int(round(c * G)) for c in Q.center],
                     axis=tuple(range(n)))
    axes = [centered_axis(G)] * n
    return max([0.0] + [abs(_moment(rolled, beta, axes) * f.h ** n)
                        for beta in _multi_indices(n, L)])


def validate_atom(a: GridFunction, Q: DyadicCube, spec: AtomSpec) -> dict:
    """Check the three atom conditions; returns a per-condition report.

    (1) support inside dilate(Q, d);
    (2) 2^{-j|alpha|} |d^alpha a| <= 1 for |alpha| <= K (spectral derivatives,
        tolerance 1 + DERIV_TOL);
    (3) discrete moments vanish for |beta| <= L when j >= 1 (grid Riemann
        sums, tolerance MOMENT_TOL); j = 0 atoms skip this."""
    j = Q.j
    center, half = dilate(Q, SUPPORT_DILATE)
    mask = box_mask(center, half, a.G)
    amax = float(np.abs(a.samples).max())
    outside = float(np.abs(a.samples[~mask]).max()) if (~mask).any() else 0.0
    support_ok = outside <= 1e-10 * max(amax, TINY)

    worst_deriv = _deriv_sup(a.samples, j, spec.K)
    deriv_ok = worst_deriv <= 1.0 + DERIV_TOL

    moment_worst = _moment_worst(a, Q, spec.L)
    moment_ok = moment_worst <= MOMENT_TOL * max(amax, TINY) * Q.volume \
        or moment_worst <= MOMENT_TOL

    return {
        "support_ok": support_ok,
        "support_leak": outside,
        "deriv_ok": deriv_ok,
        "deriv_sup": worst_deriv,
        "moment_ok": moment_ok,
        "moment_worst": moment_worst,
        "pass": support_ok and deriv_ok and moment_ok,
    }


def validate_molecule(b: GridFunction, Q: DyadicCube, spec: MoleculeSpec) -> dict:
    """Molecule check: |d^alpha b(x)| <= 2^{|alpha| j} (1 + 2^j d(x, corner))^{-N}
    pointwise on the torus (compact support replaced by the decay envelope)."""
    spec.validate_for(b.n)
    worst = _deriv_sup(b.samples, Q.j, spec.K,
                       _decay_envelope(Q, b.G, spec.N))
    deriv_ok = worst <= 1.0 + DERIV_TOL

    moment_worst = _moment_worst(b, Q, spec.L)
    moment_ok = moment_worst <= MOMENT_TOL

    return {"deriv_ok": deriv_ok, "deriv_sup": worst,
            "moment_ok": moment_ok, "moment_worst": moment_worst,
            "pass": deriv_ok and moment_ok}


# ---------------------------------------------------------------------------
# analysis: f -> coefficients + atoms

def _patch_kernel(kernel_full: np.ndarray, size: int) -> np.ndarray:
    """Crop a full-grid convolution kernel (centered at index 0) to a
    size-cell circular window, preserving the wrap layout."""
    n = kernel_full.ndim
    G = kernel_full.shape[0]
    half = size // 2
    idx = [np.concatenate([np.arange(0, half), np.arange(G - (size - half), G)]) % G
           for _ in range(n)]
    return kernel_full[np.ix_(*idx)]


def atomic_analyze(f: GridFunction, pair: RychkovPair):
    """Split f into atoms: returns (lam: CoeffField, patches: {j: ndarray}).

    lam_{jm} = max(sup_{|alpha| <= K} 2^{-j|alpha|} ||d^alpha gamma_jm||_inf,
    tiny) with K = max(1, L); derivatives are spectral,
    matching validate_atom.  patches[j] holds the normalized atoms
    a_jm = gamma_jm / lam_jm of level j (see the module docstring for the
    layout), and synthesize(lam, patches, G) reproduces f to FFT
    precision.  It holds every level's atoms; round_trip holds one."""
    levels = list(_analyses(f, pair))
    return (CoeffField(f.n, {j: lam for j, lam, _ in levels}),
            {j: atoms for j, _, atoms in levels})


def round_trip(f: GridFunction, pair: RychkovPair):
    """(lam, synthesize(*atomic_analyze(f, pair), G)) with the same bits,
    each level added into the output as soon as it is analysed and its
    atoms dropped before the next level, so at most one level of atoms is
    held at a time."""
    lam = {}
    out = np.zeros((f.G,) * f.n, dtype=np.complex128)
    for j, lam_j, atoms in _analyses(f, pair):
        lam[j] = lam_j
        _add_level(out, lam_j, atoms, j, f.G)
        del atoms  # or it lives on while the next level is analysed
    return CoeffField(f.n, lam), GridFunction(f.n, out)


def _analyses(f: GridFunction, pair: RychkovPair):
    """Yield (j, lam_j, atoms_j) per level of atomic_analyze, in
    pair.levels order, holding no level's atoms after its yield."""
    n, G = f.n, f.G
    if pair.G != G or pair.n != n:
        raise ValueError("pair was built for a different grid")
    K = max(1, pair.L)
    spec = f.spectrum()
    for j in pair.levels:
        # a complex product rounds by ulps differently with its operands
        # swapped; the pinned lambda CSVs take the order numpy's temporary
        # elision gave, spec * psi from 256 KiB (NPY_MIN_ELIDE_BYTES) up and
        # psi * spec below, so it is chosen here by size, not left to numpy;
        # the product overwrites psi_j, formed for this level only
        psi = pair.psi(j)
        np.multiply(*((spec, psi) if spec.nbytes >= 256 * 1024
                      else (psi, spec)), out=psi)
        U = GridFunction.from_spectrum(n, psi).samples
        del psi  # or it lives on through the level's analysis
        if j <= 0:
            gamma = GridFunction.from_spectrum(
                n, GridFunction(n, U).spectrum() * pair.phi_spec[j]).samples
            lam = max(TINY, _deriv_sup(gamma, j, K))
            yield j, np.full((1,) * n, lam), (gamma / lam)[(None,) * n]
            continue
        if pair.phi_half_cells[j] > G >> j:
            raise ValueError(
                f"kernel support at level {j} exceeds 3Q; lower L or refine G")
        yield (j,) + _level_analysis(U, pair.phi_spec[j], j, K)


def _level_analysis(U: np.ndarray, phi_spec: np.ndarray, j: int, K: int):
    """lam and normalized atoms of level j >= 1, in slabs of cubes.

    gamma_m = phi_j * (chi_{Q_m} U) is a circular convolution on a 4c patch
    (origin = cube corner minus one cube side), exact while the kernel
    half-width stays at most c cells; its support is then the first 3c
    cells.  The cubes go through in C order, in slabs (runs of cubes) of at
    most _SLAB_BYTES of patches (or one patch), in one pair of patch buffers
    per level, so a level holds one slab, not all 4^n G^n cells.  The
    forward FFT runs one patch axis at a time in fftn's order, last first,
    over the lines whose earlier patch axes lie in [c, 2c): the other lines
    are zero, and each line is transformed on its own, so the bytes are
    fftn's.  Each d^alpha phi_j, |alpha| <= K, is convolved into one reused
    buffer by an unscaled inverse FFT, last axis first, and folded into
    lam; only the alpha = 0 patches are kept, cut to min(3c, G) cells per
    axis.  At j = 1 the 2G patch kernel is the G-periodic kernel tiled
    twice per axis, so its spectrum is +0.0 at every wavenumber odd on some
    axis: level 1 keeps the kernel spectra, the forward lines read and the
    products on the even lattice ev (1/2^n of the cells), the rest of the
    product +0.0, and an inverse pass skips the lines odd on an earlier
    axis, all zero.
    A zero enters a sum only as x + 0 = x, so the bytes are the full
    lattice's.  The quadrature weight G^-n and ifftn's (4c)^-n are one
    power-of-two factor, applied to the max and the kept patches: exact
    while nothing is subnormal or overflows."""
    n = U.ndim
    G = U.shape[0]
    c = G >> j
    size = 4 * c
    side = level_side(j)
    axes = tuple(range(1, n + 1))
    scale = float(G * size) ** -n
    ev = (slice(None, None, 2) if size > G else slice(None),) * n
    # spectra of the d^alpha phi_j kernels (alpha = 0 first: phi_j itself,
    # exactly compact), from full-grid kernels by spectral differentiation
    kernels = [(2.0 ** (-j * sum(alpha)) * scale, np.fft.fftn(_patch_kernel(
        np.fft.ifftn(_differentiate(phi_spec, alpha) * G ** n), size))[
            ev].copy()) for alpha in _multi_indices(n, K)]
    lam = np.empty(side ** n)
    atoms = np.empty(lam.shape + (min(3 * c, G),) * n, dtype=np.complex128)
    blocks = _split_blocks(U, c)
    inner = (slice(c, 2 * c),) * n
    kept = (...,) + (slice(0, min(3 * c, G)),) * n
    per = max(1, _SLAB_BYTES // (16 * size ** n))
    # a power of two, as lam.size is one, so the slabs tile the level
    per = min(1 << (per.bit_length() - 1), lam.size)
    # one pair of patch buffers per level, of the one slab shape
    ext = np.empty((per,) + (size,) * n, dtype=complex)
    buf = np.empty_like(ext)
    for s in range(0, lam.size, per):
        sl = slice(s, s + per)
        # blocks of U per cube, zero-extended into the 4c patch at offset c
        ext[...] = 0
        ext[(...,) + inner] = blocks[np.unravel_index(
            np.arange(s, s + per), (side,) * n)]
        for ax in reversed(range(n)):
            live = ext[(...,) + inner[:ax] + (slice(None),) + ev[ax + 1:]]
            np.fft.fft(live, axis=1 + ax, out=live)
        lam_sl = np.full(per, TINY)
        for i, (weight, kern_hat) in enumerate(kernels):
            if ev[0].step:  # level 1: off the lattice the product is +0.0
                buf[...] = 0
            np.multiply(ext[(...,) + ev], kern_hat, out=buf[(...,) + ev])
            for ax in reversed(range(n)):
                live = buf[(...,) + ev[:ax] + (slice(None),) * (n - ax)]
                np.fft.ifft(live, axis=1 + ax, norm="forward", out=live)
            lam_sl = np.maximum(lam_sl, weight * np.abs(buf).max(axis=axes))
            if i == 0:
                np.multiply(buf[kept], scale, out=atoms[sl])
        lam[sl] = lam_sl
        atoms[sl] /= lam_sl[(...,) + (None,) * n]
    return (lam.reshape((side,) * n),
            atoms.reshape((side,) * n + atoms.shape[1:]))


def decompose_bytes(n: int, G: int, L: int, homogeneous: bool = False) -> int:
    """Upper bound on the bytes decompose (round_trip) holds at once for a
    G^n grid with rychkov_pair(L): the largest level's atoms, the output
    grid, the pair's phi spectra and real denominator, one psi spectrum,
    the kernel spectra of _level_analysis (G^n cells each: level 1 keeps
    the even lattice of its 2G patch, level 2 has a G patch; the atoms and
    slab terms, not yet held then, cover level 1's (2G)^n fftn transients),
    one slab (patches, product buffer, moduli) and _WORK_GRIDS grids for
    f, its spectrum, a band and the transients of analysis and synthesis."""
    _check_grid(G)
    grid = 16 * G ** n
    levels = band_levels(G, homogeneous)
    patch = max([16 * (4 * (G >> j)) ** n for j in levels if j >= 1],
                default=0)
    atoms = max(16 * (level_side(j) * min(3 * (G // level_side(j)), G)) ** n
                for j in levels)
    kernels = math.comb(n + max(1, L), n) * grid
    return (atoms + grid + (len(levels) + 1) * grid + grid // 2 + kernels
            + 3 * max(_SLAB_BYTES, patch) + _WORK_GRIDS * grid)


def synthesize(lam: CoeffField, patches: dict, G: int) -> GridFunction:
    """f = sum_j sum_m lam_jm a_jm, by increasing j, one _add_level per
    level.  A stack of one patch, shape (1,)*n + patch, serves every cube
    of its level (quark synthesis)."""
    out = np.zeros((G,) * lam.n, dtype=np.complex128)
    for j in lam.level_list():
        v = lam.levels[j]
        if j not in patches:
            if np.any(v != 0):
                raise KeyError(f"missing atoms for level {j}")
            continue
        _add_level(out, v, patches[j], j, G)
    return GridFunction(lam.n, out)


def _add_level(out: np.ndarray, lam_j: np.ndarray, atoms: np.ndarray,
               j: int, G: int) -> None:
    """out += sum_m lam_jm a_jm over the cubes of level j, lam_j taken as
    complex128 first, as CoeffField holds it.

    An overlap-add: every patch axis splits into blocks of c cells, three
    for a 3c patch, two for a G patch at j = 1 and one at j <= 0, and block
    b lands on cube m + b - 1 (mod level_side(j)), so a level is 3^n, 2^n
    or one shifted block adds."""
    n = out.ndim
    v = np.asarray(lam_j, dtype=np.complex128)
    c = G // level_side(j)
    blocks = _split_blocks(atoms, c, n)  # axes (m.., b.., cell..)
    weight = v[(...,) + (None,) * n]
    acc = np.zeros(v.shape + (c,) * n, dtype=np.complex128)
    for b in itertools.product(range(blocks.shape[n]), repeat=n):
        acc += np.roll(weight * blocks[(slice(None),) * n + b],
                       [bi - 1 for bi in b], axis=tuple(range(n)))
    out += _join_blocks(acc)


# ---------------------------------------------------------------------------
# constructed atom dictionaries (for synthesis-direction tests)

def make_atom(Q: DyadicCube, spec: AtomSpec, G: int, seed: int = 0) -> GridFunction:
    """Seeded smooth (K, L)-atom on 3Q: bump times a random low-order
    polynomial, moments removed by projection, then normalized so the
    derivative sup equals 1."""
    n = Q.n
    rng = np.random.default_rng(seed)
    j = Q.j
    window, t_axes = _cube_window(Q, G)
    poly = np.zeros((G,) * n)
    for beta in _multi_indices(n, max(spec.L + 1, 2)):
        coef = rng.standard_normal()
        poly += coef * _times_monomial(np.ones((G,) * n), beta, t_axes)
    a = window * poly

    if spec.L >= 0 and j >= 1:
        a = _remove_moments(a, window, t_axes, spec.L)

    # normalize the derivative sup to 1
    worst = _deriv_sup(a, j, spec.K)
    if worst == 0:
        raise ValueError("degenerate atom draw")
    return GridFunction(n, a / worst)


def _cube_window(Q: DyadicCube, G: int):
    """(window, t_axes): a smooth bump supported in 3Q and the per-axis
    coordinates centered on the cube, in units of the cube side."""
    x = centered_axis(G)
    t_axes = [(((x + 0.5 - ci) % 1.0) - 0.5) / Q.side for ci in Q.center]
    return _outer(np.multiply, [_bump_axis(t / 1.4) for t in t_axes]), t_axes


def _remove_moments(a: np.ndarray, window: np.ndarray, t_axes, L: int) -> np.ndarray:
    """Project out all moments |beta| <= L using window-times-monomial
    corrections supported in the same box."""
    betas = list(_multi_indices(a.ndim, L))
    basis = [_times_monomial(window.astype(np.complex128), beta, t_axes)
             for beta in betas]

    M = np.array([[_moment(bf, beta, t_axes) for bf in basis]
                  for beta in betas])
    rhs = np.array([_moment(a.astype(np.complex128), beta, t_axes)
                    for beta in betas])
    coef = np.linalg.solve(M, rhs)
    out = a.astype(np.complex128)
    for cc, bf in zip(coef, basis):
        out = out - cc * bf
    return out


def make_molecule(Q: DyadicCube, spec: MoleculeSpec, G: int, seed: int = 0) -> GridFunction:
    """Seeded molecule with genuine power-law tails.

    sin(pi w)/pi smoothly periodizes the distance (no seam kink) and
    (1 + r^2)^{-N/2} keeps the center smooth while matching the prescribed
    tail rate; a gentle unit-scale modulation randomizes the draw without
    inflating far-field derivatives.  The tail is what makes the coarse-band
    rate of the two-regime bound measurable; a faster (e.g. Gaussian)
    envelope would satisfy the definition but never exhibit the N-rate."""
    spec.validate_for(Q.n)
    n = Q.n
    rng = np.random.default_rng(seed)
    x = centered_axis(G)
    r2 = _outer(np.add, [(np.sin(math.pi * (x - ci)) / (math.pi * Q.side)) ** 2
                         for ci in Q.center])
    mod = np.ones((G,) * n)
    for ax in range(n):
        freq = rng.integers(1, 4)
        wave = 1.0 + 0.3 * np.cos(2.0 * math.pi * freq * x
                                  + rng.uniform(0, 2 * math.pi))
        mod = mod * _along(wave, ax, n)
    base = (1.0 + r2) ** (-spec.N / 2.0) * mod
    if spec.L >= 0 and Q.j >= 1:
        # moment removal against a compactly supported window on 3Q
        window, t_axes = _cube_window(Q, G)
        base = _remove_moments(base, window, t_axes, spec.L)
    scale = _deriv_sup(GridFunction(n, base).samples, Q.j, spec.K,
                       _decay_envelope(Q, G, spec.N))
    return GridFunction(n, base / (scale * (1.0 + 1e-9)))


# ---------------------------------------------------------------------------
# band decay measurement

def band_decay_profile(a: GridFunction, Q: DyadicCube, bank: FilterBank,
                       P: float, maximal_field: np.ndarray = None) -> dict:
    """sup_x |tau_nu(D) a(x)| / M[chi_Q](x)^{P/n} per level nu."""
    n, G = a.n, a.G
    if maximal_field is None:
        chi = GridFunction(n, cube_mask(Q, G).astype(np.complex128))
        maximal_field = hl_maximal(chi).samples.real
    env = maximal_field ** (P / n)
    return {nu: float((b / env).max())
            for nu, b in _moduli(bands(a, bank, bank.tau_levels()))}


def fit_decay_slopes(profile: dict, j: int) -> tuple[float, float]:
    """log2-linear slopes of the profile above and below the atom level."""
    his = sorted(nu for nu in profile if nu > j and profile[nu] > 0)
    los = sorted(nu for nu in profile if nu < j and profile[nu] > 0)
    return tuple(_slope(nus, [math.log2(profile[nu]) for nu in nus])
                 if len(nus) >= 2 else 0.0 for nus in (his, los))


def _slope(xs, ys) -> float:
    """Least-squares slope of the line through the points (xs, ys)."""
    A = np.vstack([xs, np.ones(len(xs))]).T
    return float(np.linalg.lstsq(A, np.array(ys), rcond=None)[0][0])


# ---------------------------------------------------------------------------
# quarks

# supp psi1 = (-1, 1), so R = 0 and rho = [R + 1] = 1: every quark of
# level nu lives on 3Q_{nu m}
QUARK_RHO = 1


def psi1(t):
    """Separable partition-of-unity window: psi1(x) = s(x + 1/2) -
    s(x - 1/2) with s a unit-width smooth step, so sum_m psi1(x - m)
    telescopes to 1 exactly."""
    t = np.asarray(t, dtype=float)
    return smoothstep7(t + 1.0) - smoothstep7(t)


def partition_residual() -> float:
    x = np.linspace(-0.5, 0.5, 4096, endpoint=False)
    total = sum(psi1(x - m) for m in range(-2, 3))
    return float(np.max(np.abs(total - 1.0)))


def quark_patch(beta, c: int) -> np.ndarray:
    """(beta qu) of a level with c cells per cube side, on its 3Q patch
    in synthesize's layout: prod_i t_i^beta_i psi1(t_i) with
    t = (p - c) / c at patch cell p < 3c, the cube corner at t = 0."""
    t = (np.arange(3 * c) - c) / c
    return _outer(np.multiply, [t ** b * psi1(t) for b in beta])


SAMPLE_GAP = 3  # band nu is sampled on the 2^(nu+SAMPLE_GAP) lattice


def _band_samples(f: GridFunction, bank: FilterBank) -> dict:
    """{nu: band nu of f sampled on the 2^-(nu+SAMPLE_GAP) lattice} for the
    bands that carry energy.  The bands share one spectrum of f, which is
    freed before quark_analyze expands them: holding it through the
    expansion raised the peak RSS of the decompose-trace benchmark by ~3%,
    through the heap layout it left behind."""
    n, G = f.n, f.G
    J = G.bit_length() - 1
    out = {}
    for nu, bnu in bands(f, bank):
        if bnu.linf() <= 1e-14 * max(f.linf(), TINY):
            continue
        nu_s = nu + SAMPLE_GAP
        if nu_s + QUARK_RHO > J:
            raise ValueError(f"band {nu} carries energy but level"
                             f" {nu_s + QUARK_RHO} exceeds the grid")
        # a copy, as a view would keep the whole band alive
        out[nu] = bnu.samples[(slice(None, None, G >> nu_s),) * n].copy()
    return out


def quark_analyze(f: GridFunction, bank: FilterBank,
                  beta_cutoff: int) -> QuarkCoeffs:
    """Taylor-expansion quark coefficients.

    Band nu of the partition bank is reconstructed exactly from its samples
    on the 2^-(nu+3) lattice (the torus Nyquist factor is 2 pi, not the
    factor 2 of the real-line geometry, hence the gap of 3 octaves); the
    sampling kernel is then Taylor-expanded against the partition window at
    the finer level nu_s + rho, giving

        lam^beta_{nu_s+rho, l} = (b^|beta| / beta!) sum_m Lambda_{nu m}
                                  d^beta g(b l - a m)

    with a = 2^-nu_s, b = 2^-(nu_s+rho)."""
    if beta_cutoff < 0:
        raise ValueError("beta_cutoff must be >= 0")
    n = f.n
    fields = {beta: {} for beta in _multi_indices(n, beta_cutoff)}
    lam_norms = {}
    for nu, Lam in _band_samples(f, bank).items():
        nu_s = nu + SAMPLE_GAP
        S = 1 << nu_s
        lam_norms[nu] = float(np.abs(Lam).max())
        Sf = S << QUARK_RHO
        # spectrum of the sampling kernel on the Sf lattice (independent of
        # G): the window with the kernel's 1/S^n weight and ifftn's Sf^n
        window = radial_window(lambda u: kappa_profile(TWO_PI * u / S), n,
                               Sf).astype(np.complex128) * (Sf // S) ** n
        # lam^beta(l) = scale * sum_m Lam(m) d^beta g(l - 2^rho m)
        comb = np.zeros((Sf,) * n, dtype=np.complex128)
        comb[(slice(None, None, 1 << QUARK_RHO),) * n] = Lam
        comb_hat = np.fft.fftn(comb)
        for beta in fields:
            conv = np.fft.ifftn(comb_hat * _differentiate(window, beta))
            log_scale = -sum(beta) * math.log(Sf) \
                - sum(math.lgamma(bb + 1) for bb in beta)
            fields[beta][nu_s + QUARK_RHO] = conv * math.exp(log_scale)
    qfields = {}
    for beta, levels in fields.items():
        if levels:
            qfields[beta] = CoeffField(n, levels)
    return QuarkCoeffs(n=n, rho=QUARK_RHO, fields=qfields,
                       lam_norms=lam_norms)


def quark_synthesize(qlam: QuarkCoeffs, G: int) -> GridFunction:
    """sum_beta sum_nu sum_m lam^beta_{nu m} (beta qu)_{nu m}, beta-major:
    per beta one atomic synthesis, every cube of level nu taking the one
    patch quark_patch(beta, G / 2^nu).  Levels run over 1..log2 G."""
    n = qlam.n
    J = G.bit_length() - 1
    out = np.zeros((G,) * n, dtype=np.complex128)
    for beta in qlam.betas():
        fld = qlam.fields[beta]
        bad = [nu for nu in fld.level_list() if not 1 <= nu <= J]
        if bad:
            raise ValueError(f"quark level {bad[0]} outside 1..{J} on G={G}")
        patches = {nu: quark_patch(beta, G >> nu)[(None,) * n]
                   for nu in fld.level_list()}
        out += synthesize(fld, patches, G).samples
    return GridFunction(n, out)
