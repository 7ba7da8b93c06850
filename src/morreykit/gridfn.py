"""Sampled functions on the periodic grid and all Fourier-side machinery.

Conventions
-----------
The domain is the torus [0,1)^n sampled at G = 2^J points per axis.  The
spectrum of f is c_k = h^n * sum_x f(x) exp(-2 pi i k.x) with integer
wavenumbers k in [-G/2, G/2) per axis, so that f(x) = sum_k c_k
exp(2 pi i k.x) exactly on the grid.

Frequency windows (theta, tau_j, kappa) are evaluated at xi = k, i.e. the
window geometry Q(2) / Q(3) lives on the integer wavenumber scale.  The
sampling expansion (decomp.quark_analyze) is the one exception: its
aliasing period is 2^nu in k while the window geometry Q(3) assumes a
Nyquist factor of 2 pi, so its kappa window is evaluated at
xi = 2 pi k / 2^nu.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# smooth transition profiles

def smoothstep7(t):
    """Polynomial step: 0 for t<=0, 1 for t>=1, with 7 matching derivatives."""
    t = np.clip(t, 0.0, 1.0)
    # general smoothstep of order 7
    acc = np.zeros_like(t)
    N = 7
    for k in range(N + 1):
        acc = acc + math.comb(N + k, k) * math.comb(2 * N + 1, N - k) * (-t) ** k
    return t ** (N + 1) * acc


def cosstep(t):
    """Cosine step: 0 for t<=0, 1 for t>=1 (C^1 only; distinct profile)."""
    t = np.clip(t, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(math.pi * t))


# ---------------------------------------------------------------------------
# grid functions

def wavenumbers(G: int) -> np.ndarray:
    """Integer wavenumbers in FFT order: 0, 1, ..., G/2-1, -G/2, ..., -1."""
    return np.fft.fftfreq(G, d=1.0 / G)


def _outer(ufunc, axes) -> np.ndarray:
    """ufunc folded over per-axis arrays: out[i_1, ..., i_n] =
    ufunc(...ufunc(axes[0][i_1], axes[1][i_2])..., axes[-1][i_n])."""
    return functools.reduce(ufunc.outer, axes)


def _along(v: np.ndarray, ax: int, n: int) -> np.ndarray:
    """Per-axis vector v shaped to broadcast along axis ax of an n-axis
    array."""
    return v.reshape([-1 if a == ax else 1 for a in range(n)])


def kinf_grid(n: int, G: int) -> np.ndarray:
    """|k|_inf on the n-dimensional frequency grid (FFT order)."""
    return _outer(np.maximum, [np.abs(wavenumbers(G))] * n)


def _check_grid(G: int) -> None:
    """Filter banks need at least one band level: G a power of two >= 4."""
    if G < 4 or G & (G - 1):
        raise ValueError(f"grid size G={G} must be a power of two >= 4")


def radial_window(profile, n: int, G: int) -> np.ndarray:
    """profile(|k|_inf) on the n-dimensional frequency grid (FFT order).

    |k|_inf takes only the G/2+1 values 0..G/2, so the profile is evaluated
    once per shell and gathered through the integer |k|_inf grid.  An
    elementwise profile gives the same bits as on the full grid."""
    _check_grid(G)
    index = kinf_grid(n, G).astype(np.intp)
    return profile(np.arange(G // 2 + 1, dtype=float))[index]


def coord_axis(G: int) -> np.ndarray:
    """Sample coordinates 0, h, ..., 1-h."""
    return np.arange(G) / G


def centered_axis(G: int) -> np.ndarray:
    """Coordinates wrapped to [-1/2, 1/2)."""
    x = coord_axis(G)
    return (x + 0.5) % 1.0 - 0.5


@dataclass
class GridFunction:
    n: int
    samples: np.ndarray  # complex128, shape (G,)*n

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.n < 1 or self.samples.ndim != self.n:
            raise ValueError("sample array rank must equal n >= 1")
        G = self.samples.shape[0]
        if any(s != G for s in self.samples.shape) or G & (G - 1):
            raise ValueError("grid must be square with power-of-two side")

    @property
    def G(self) -> int:
        return self.samples.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.G

    def spectrum(self) -> np.ndarray:
        return np.fft.fftn(self.samples) / self.G ** self.n

    @staticmethod
    def from_spectrum(n: int, spec: np.ndarray) -> "GridFunction":
        G = spec.shape[0]
        return GridFunction(n, np.fft.ifftn(spec * G ** n))

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.h ** self.n))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __add__(self, other):
        return GridFunction(self.n, self.samples + other.samples)

    def __sub__(self, other):
        return GridFunction(self.n, self.samples - other.samples)

    # -- persistence --------------------------------------------------------

    MAGIC = b"MKGF"

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sII4s", self.MAGIC, self.n, self.G, b"c128")
        return head + np.ascontiguousarray(self.samples).tobytes()

    @staticmethod
    def header(buf: bytes) -> tuple:
        """(n, G) of a blob from its first 16 bytes, not yet checked
        against the payload."""
        if len(buf) < 16:
            raise ValueError("not a grid-function blob")
        magic, n, G, tag = struct.unpack_from("<4sII4s", buf, 0)
        if magic != GridFunction.MAGIC or tag != b"c128":
            raise ValueError("not a grid-function blob")
        return n, G

    @staticmethod
    def from_bytes(buf: bytes) -> "GridFunction":
        n, G = GridFunction.header(buf)
        data = np.frombuffer(buf, dtype=np.complex128, offset=16)
        # n is a uint32: (G,)*n is built only once G^n is the payload's size
        if not 0 < n <= 64 or G ** n != data.size:
            raise ValueError("grid-function blob header does not match its"
                             " payload")
        if not np.isfinite(data).all():
            raise ValueError("grid-function blob holds non-finite samples")
        return GridFunction(n, data.reshape((G,) * n).copy())


# ---------------------------------------------------------------------------
# synthetic presets

def preset_function(name: str, n: int, G: int, seed: int = 0) -> GridFunction:
    """Named test functions: gaussian | mode | chirp | random-bandlimited."""
    if n < 1:
        raise ValueError(f"dimension n={n} must be positive")
    _check_grid(G)
    x = centered_axis(G)
    if name == "gaussian":
        r2 = _outer(np.add, [x ** 2] * n)
        return GridFunction(n, np.exp(-40.0 * r2).astype(np.complex128))
    if name == "mode":
        phase = _outer(np.add, [(i + 3) * x for i in range(n)])
        return GridFunction(n, np.exp(2j * math.pi * phase))
    if name == "chirp":
        r2 = _outer(np.add, [x ** 2] * n)
        return GridFunction(n, np.exp(-30.0 * r2) * np.cos(40.0 * r2))
    if name == "random-bandlimited":
        return random_bandlimited(n, G, kmax=max(2, G // 8), seed=seed)
    raise ValueError(f"unknown preset {name}")


def random_bandlimited(n: int, G: int, kmax: int, seed: int,
                       zero_mean: bool = False) -> GridFunction:
    """Seeded Gaussian Fourier coefficients supported in |k|_inf <= kmax,
    damped by exp(-|k|_inf / kmax)."""
    return GridFunction(n, bandlimited_draw(n, G, kmax, zero_mean)([seed])[0])


def bandlimited_draw(n: int, G: int, kmax: int, zero_mean: bool = False):
    """A function of a list of seeds that stacks, on a leading axis, the
    samples of random_bandlimited(n, G, kmax, seed, zero_mean) per seed.
    The mask and weights are computed once, and one ifftn transforms the
    whole stack: pocketfft transforms each line on its own, so every row
    has the bytes of its own draw."""
    kinf = kinf_grid(n, G)
    mask = kinf <= kmax
    cnt = int(mask.sum())
    weights = np.exp(-kinf[mask] / max(kmax, 1))

    def draw(seeds) -> np.ndarray:
        spec = np.zeros((len(seeds),) + (G,) * n, dtype=np.complex128)
        for row, seed in zip(spec, seeds):
            rng = np.random.default_rng(seed)
            row[mask] = (rng.standard_normal(cnt)
                         + 1j * rng.standard_normal(cnt)) * weights
        if zero_mean:
            spec[(slice(None),) + (0,) * n] = 0.0
        return np.fft.ifftn(spec * G ** n, axes=tuple(range(1, n + 1)))
    return draw


# ---------------------------------------------------------------------------
# filter banks

def theta_profile(u):
    """chi_{Q(2)} <= theta <= chi_{Q(3)}, order-7 polynomial transition."""
    return smoothstep7(3.0 - np.asarray(u, dtype=float))


def theta_profile_bump(u):
    """Alternative theta with a cosine transition (same support sandwich)."""
    return cosstep(3.0 - np.asarray(u, dtype=float))


BUMP_SUPPORT = (0.9, 2.95)  # tau_profile_bump is +0.0 outside, open


def tau_profile_bump(u):
    """Non-telescoping annulus bump: supp in Q(2.95)\\Q(0.9), positive on
    Q(2)\\Q(1)."""
    u = np.asarray(u, dtype=float)
    lo, hi = BUMP_SUPPORT
    return cosstep((u - lo) / 0.55) * cosstep((hi - u) / 0.55)


# bank kind -> (theta, tau) profiles: level 0 of an inhomogeneous bank is
# theta, every other level j is tau(2^-j u); the partition's tau telescopes
BANK_PROFILES = {
    "partition": (theta_profile,
                  lambda u: theta_profile(u) - theta_profile(2 * u)),
    "bump": (theta_profile_bump, tau_profile_bump)}


def kappa_profile(u):
    """chi_{Q(3)} <= kappa <= chi_{Q(3.01)} (sampling window)."""
    return smoothstep7((3.01 - np.asarray(u, dtype=float)) / 0.01)


HOM_FLOOR = -4  # coarsest level of a homogeneous bank or reproducing pair


def band_levels(G: int, homogeneous: bool) -> range:
    """Levels of a bank or pair on the G-grid, up to J - 2 for G = 2^J:
    from 0 (theta) when inhomogeneous, from HOM_FLOOR when homogeneous."""
    return range(HOM_FLOOR if homogeneous else 0, G.bit_length() - 2)


def level_side(j: int) -> int:
    """Level-j cubes per axis: 2^j, and 1 on a homogeneous level j < 0,
    whose one cube covers the torus."""
    return 1 << max(j, 0)


@dataclass
class FilterBank:
    """Frequency windows tau_j(xi) = tau(2^-j xi) plus a low-pass theta.

    Level 0 is theta in inhomogeneous mode; homogeneous banks carry only
    tau levels from HOM_FLOOR up (theta dropped, constants invisible).  A
    window depends on xi only through |xi|_inf, so each level is stored as
    its profile on the shells |k|_inf = 0..G/2."""
    n: int
    G: int
    kind: str  # "partition" | "bump"
    homogeneous: bool = False
    profiles: dict = field(default_factory=dict)  # level -> G/2+1 shells

    def levels(self) -> range:
        return band_levels(self.G, self.homogeneous)

    def tau_levels(self) -> range:
        """The tau levels: every level but theta's."""
        return self.levels()[0 if self.homogeneous else 1:]

    def profile(self, j: int) -> np.ndarray:
        if j not in self.profiles:
            raise ValueError(f"level {j} outside bank range")
        return self.profiles[j]

    def admissible(self) -> dict:
        """Checks on the |k|_inf shells, each of which occurs on the grid:
        0 not in supp(tau), theta > 0 on Q(2), tau > 0 on Q(2)\\Q(1);
        partition residual (off the origin when homogeneous)."""
        u = np.arange(self.G // 2 + 1, dtype=float)
        theta, tau = (prof(u) for prof in BANK_PROFILES[self.kind])
        checks = {
            "tau_vanishes_at_0": bool(tau[0] == 0.0),
            "theta_pos_on_Q2": bool(np.all(theta[u <= 2.0] > 0.0)),
            "tau_pos_on_Q2_minus_Q1": bool(np.all(tau[(u > 1.0) & (u <= 2.0)] > 0.0)),
        }
        if self.kind == "partition":
            total = sum(self.profiles[j] for j in self.levels())
            resid = float(np.max(np.abs(total[int(self.homogeneous):] - 1.0)))
            checks["partition_residual"] = resid
            checks["partition"] = resid < 1e-12
        return checks


def make_bank(n: int, G: int, kind: str = "partition",
              homogeneous: bool = False) -> FilterBank:
    if kind not in BANK_PROFILES:
        raise ValueError(f"unknown bank kind {kind}")
    _check_grid(G)
    bank = FilterBank(n=n, G=G, kind=kind, homogeneous=homogeneous)
    shells = np.arange(G // 2 + 1, dtype=float)
    theta, tau = BANK_PROFILES[kind]
    levels = bank.levels()
    if kind == "partition":
        # tau(u / 2^j) = theta(u / 2^j) - theta(u / 2^(j-1)) exactly, since
        # 2 (u / 2^j) = u / 2^(j-1): one theta row per scale 2^i, telescoped.
        # theta is constant (clipped) outside 2 < u / 2^i < 3: there the row
        # takes theta's own end values.
        v = shells / np.array([2.0 ** i for i in range(
            levels[0] - homogeneous, levels[-1] + 1)])[:, None]
        rows = np.where(v <= 2.0, theta(2.0), theta(3.0))
        mid = (v > 2.0) & (v < 3.0)
        rows[mid] = theta(v[mid])
        profiles = list(rows[1:] - rows[:-1])
        if not homogeneous:
            profiles.insert(0, rows[0])
    else:
        # one tau call for all tau levels j: their rows are tau(u / 2^j),
        # evaluated inside tau's support only and +0.0, tau's value, outside
        v = shells / np.array([2.0 ** j for j in bank.tau_levels()])[:, None]
        live = (v > BUMP_SUPPORT[0]) & (v < BUMP_SUPPORT[1])
        rows = np.zeros_like(v)
        rows[live] = tau(v[live])
        profiles = rows if homogeneous else [theta(shells), *rows]
    bank.profiles = dict(zip(levels, profiles))
    return bank


def bands(f: GridFunction, bank: FilterBank, levels=None):
    """Yield (j, F^{-1}[window_j . F f]) for the bank's levels, or for
    levels in their order, one band at a time from one spectrum of f.

    A nonzero window gives the bytes of from_spectrum(n, window_j *
    f.spectrum()): spectrum()'s 1/G^n and from_spectrum's G^n are powers of
    two and cancel, and only transforms of all-zero lines are skipped
    (pocketfft transforms each line alone, and x + 0 = x).  Window j is zero
    beyond R_j, the last shell where its profile is nonzero: axis n-1, then
    each leading axis in ifftn's order, runs only on the lines whose earlier
    axes have |k| <= R_j (are live), and the window is gathered from the
    profile on those lines alone.  A zero window gives +0.0 samples with no
    transform, where ifftn would give signed zeros."""
    n, G = f.n, f.G
    k = np.abs(wavenumbers(G)).astype(np.intp)
    spec = np.fft.fftn(f.samples)
    for j in bank.levels() if levels is None else levels:
        prof = bank.profile(j)
        shell = np.flatnonzero(prof)
        if not shell.size:
            yield j, GridFunction(n, np.zeros_like(spec))
            continue
        live = np.flatnonzero(k <= shell[-1])
        sel = np.ix_(*[live] * (n - 1)) if live.size < G else ()
        out = prof[_outer(np.maximum, [k[live]] * (n - 1) + [k])] * spec[sel]
        for ax in reversed(range(n)):
            if out.shape[ax] < G:  # zero-fill the dead wavenumbers of ax
                full = np.zeros(out.shape[:ax] + (G,) + out.shape[ax + 1:],
                                dtype=np.complex128)
                full[(slice(None),) * ax + (live,)] = out
                out = full
            out = np.fft.ifft(out, axis=ax)
        yield j, GridFunction(n, out)


# ---------------------------------------------------------------------------
# maximal operators

def _split_blocks(a: np.ndarray, c: int, n: int = None) -> np.ndarray:
    """View of a, shape S + (G,)*n with G divisible by c, as
    S + (G/c,)*n + (c,)*n: any leading stack axes S first, then the block
    index, then the cell inside the block.  n defaults to a.ndim (no S)."""
    n = n or a.ndim
    k = a.ndim - n
    return a.reshape(a.shape[:k] + (a.shape[-1] // c, c) * n).transpose(
        [*range(k), *range(k, k + 2 * n, 2), *range(k + 1, k + 2 * n, 2)])


def _block_sum(a: np.ndarray, c: int, n: int = None) -> np.ndarray:
    """Sum over c^n cells per block of the trailing n axes (default all) of
    a C-ordered nonnegative a: the sums of _split_blocks(a, c, n).mean(),
    bit for bit, in numpy's order.  One block is one pairwise run; else each
    run of c cells on the last axis is summed in index order (numpy's
    pairwise sum is sequential below 8 terms) or by np.add.reduce, and the
    c^(n-1) runs of a block are added in flat row-major order (nesting per
    axis differs in 3-D)."""
    n = n or a.ndim
    k, G = a.ndim - n, a.shape[-1]
    if c == 1:
        return a
    if c == G:
        return np.add.reduce(a.reshape(a.shape[:k] + (-1,)), axis=-1).reshape(
            a.shape[:k] + (1,) * n)
    # S + (G/c, c)*n, permuted to (c,)*(n-1) + S + (G/c,)*n + (c,)
    runs = a.reshape(a.shape[:k] + (G // c, c) * n).transpose(
        [*range(k + 1, k + 2 * n - 2, 2), *range(k),
         *range(k, k + 2 * n, 2), k + 2 * n - 1])
    rows = np.empty(runs.shape[:-1])
    if c < 8:
        np.add(runs[..., 0], runs[..., 1], out=rows)
        for i in range(2, c):
            rows += runs[..., i]
    else:
        np.add.reduce(runs, axis=-1, out=rows)
    return np.add.reduce(rows.reshape((-1,) + rows.shape[n - 1:]), axis=0)


def _block_mean(a: np.ndarray, c: int, n: int = None) -> np.ndarray:
    """Mean over c^n cells per block of the trailing n axes (default all)
    of a C-ordered nonnegative a, each of them divisible by c."""
    return _block_sum(a, c, n) / c ** (n or a.ndim)


def _join_blocks(a: np.ndarray) -> np.ndarray:
    """Inverse of _split_blocks: (G/c,)*n + (c,)*n back to (G,)*n."""
    n = a.ndim // 2
    return a.transpose([ax for i in range(n) for ax in (i, n + i)]).reshape(
        [a.shape[i] * a.shape[n + i] for i in range(n)])


def _expand(a: np.ndarray, c: int, n: int = None) -> np.ndarray:
    """Inverse of _block_mean's shape: repeat each block value over c cells
    along each of the trailing n axes (default all) of a."""
    out = a
    for ax in range(a.ndim - (n or a.ndim), a.ndim):
        out = np.repeat(out, c, axis=ax)
    return out


def hl_maximal(f: GridFunction) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function.

    Sup of |f|-averages over a cube family rich enough to reproduce the
    arbitrary-cube sup on indicators of dyadic cubes: at each level, the
    aligned dyadic cubes, their half-side shifts in every axis combination,
    and the side-3 cubes aligned to the level grid (the tripled cubes are
    what makes M[chi_R] >= 3^-n hold exactly on 3R).

    A stack of functions goes through _hl_stack in one pass; row i of that
    result is bit-identical to hl_maximal of function i."""
    return GridFunction(f.n, _hl_stack(np.abs(f.samples).astype(float), f.n)
                        .astype(np.complex128))


def _hl_stack(a: np.ndarray, n: int) -> np.ndarray:
    """The level loop of hl_maximal on the trailing n axes of a real array
    a, shape S + (G,)*n: every leading axis in S is a stack axis, and each
    row is maximized on its own, with the same arithmetic as alone."""
    G = a.shape[-1]
    axes = tuple(range(a.ndim - n, a.ndim))
    # level 0: the whole torus
    best = np.broadcast_to(a.mean(axis=axes, keepdims=True), a.shape).copy()
    for lev in range(1, G.bit_length()):
        c = G >> lev  # cells per cube side
        for sh in itertools.product([0, c // 2] if c >= 2 else [0], repeat=n):
            rolled = np.roll(a, [-s for s in sh], axis=axes) if any(sh) else a
            B = _block_mean(rolled, c, n)
            cand = _expand(B, c, n)
            if any(sh):
                cand = np.roll(cand, sh, axis=axes)
            np.maximum(best, cand, out=best)
            if sh == (0,) * n and 3 * c <= G:
                # side-3 cubes at level-aligned offsets: window mean of three
                # consecutive blocks per axis, then max over the 3^n windows
                # covering each block
                W = B
                for ax in axes:
                    W = (W + np.roll(W, -1, axis=ax) + np.roll(W, -2, axis=ax)) / 3.0
                V = W
                for ax in axes:
                    V = np.maximum(np.maximum(V, np.roll(V, 1, axis=ax)),
                                   np.roll(V, 2, axis=ax))
                np.maximum(best, _expand(V, c, n), out=best)
    return best


def torus_dist_sq(n: int, G: int) -> np.ndarray:
    """|z|^2 (Euclidean, torus metric) for every grid offset z."""
    d = np.minimum(coord_axis(G), 1.0 - coord_axis(G))
    return _outer(np.add, [d ** 2] * n)


def peetre_maximal(b: GridFunction, j: int, N: float) -> GridFunction:
    """(psi_j f)_*(x) = max_y |b(y)| / (1 + 2^j d(x,y))^N for the level-j
    band b of f."""
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    return GridFunction(b.n, _peetre_scan(np.abs(b.samples), j, N)
                        .astype(np.complex128))


# Cost model of the Peetre scan, in units of one element of the roll scan.
# Fit on a shared 2-core x86 host (Python 3.11, numpy 2.4): one offset of the
# roll scan costs G^n elements plus about 20000 of per-offset overhead (20 us),
# and the block phase costs 0.7 to 15 per product of its estimate, which counts
# the pairs live before the first round prunes most of them.  The scan time of
# two campaign cycles was flat for _GATHER_COST in 1..3 and _ROLL_OVERHEAD in
# 8192..24576; 3 sends fewer spread fields at (2, 64), whose small blocks
# gather slowly, to the block phase than 2, and 4 (with an overhead of 8192)
# turned down the block phase at (3, 32), 4.7 s against 2.3 s over its band
# levels.
# The constants only pick the path, never the output.
_ROLL_OVERHEAD = 16384
_GATHER_COST = 3
# per batch of target blocks: bound-table entries, and products per gather
_TABLE_CAP = 1 << 16


def _block_side(n: int, G: int) -> int:
    """Cells per axis of a block of the Peetre scan's block phase: 2^(6 // n)
    (b^(2n) = 4096 products per block pair), halved on small grids until
    b^(2n) <= G^n / 4.  b = 1, on G <= 8 in 1-D and G = 4 in 2-D and 3-D,
    means no block phase."""
    J = G.bit_length() - 1
    return 1 << min(6 // n, (n * J - 2) // (2 * n))


def _peetre_scan(g: np.ndarray, j: int, N: float) -> np.ndarray:
    """max_z w(z) g(x - z) with w(z) = (1 + 2^j |z|)^(-N) on the torus, for
    a nonnegative field g.

    Phase 1 scans grid offsets by descending weight, rolling g once per
    offset, and stops once w(z) max g <= min out: no remaining offset can
    raise any value.  On localized g that bound stays loose (min out sits far
    from the bump), so the scan may finish in phase 2 instead, by blocks of
    b = _block_side(n, G) cells per axis:

    * M[Y] is the max of g on source block Y.  Wmax[D] is the max of w over
      the offsets x - y with x in block X, y in block Y, X - Y = D: the block
      max of w, maxed over the 2^n block shifts by {0, 1}.
    * Target block X skips source block Y when its bound B[X, Y] =
      Wmax[X - Y] M[Y] <= min of out on X.  Targets go in batches of at most
      _TABLE_CAP bound-table entries and _TABLE_CAP products per gather.
      Round 0 evaluates each target's best source; the live sources left
      are sorted by descending bound per target, and round r evaluates the
      r-th source of every target whose r-th bound still beats min out on
      it, all of them in one gather.  Bounds fall and out only rises, so a
      target is done at its first failing rank.

    The cost switch: phase 1 runs as many offsets as the cheapest block
    phase costs (one source block per target block), then phase 2 is taken
    only when its estimate, _GATHER_COST * (live pairs) * b^(2n), beats the
    roll scan's remaining work, (offsets with w(z) max g > min out)
    * (G^n + _ROLL_OVERHEAD).  Grids with b = 1 never switch.  The choice
    moves only the time, never the output.

    Exactness: both phases form each product as the same float multiply
    w[z] * g[y] and take an exact max.  A skipped product has w[z] <= Wmax
    and g[y] <= M, so fl(w[z] g[y]) <= fl(Wmax M) <= a value already in out,
    by monotone rounding; out is bit-identical to the max over all offsets."""
    n, G = g.ndim, g.shape[0]
    w = (1.0 + 2.0 ** j * np.sqrt(torus_dist_sq(n, G))) ** (-N)
    flat_w = w.ravel()
    order = np.argsort(flat_w)[::-1]
    gmax = g.max()
    out = np.zeros_like(g)
    axes = tuple(range(n))
    b = _block_side(n, G)
    roll_cost = G ** n + _ROLL_OVERHEAD
    # the cheapest block phase: one source block per target block
    floor = _GATHER_COST * G ** n * b ** n
    switch = floor // roll_cost if b > 1 else order.size
    for k, idx in enumerate(order):
        wz = flat_w[idx]
        if wz * gmax <= out.min():
            break
        if k == switch:
            budget = roll_cost * np.count_nonzero(
                flat_w[order[k:]] * gmax > out.min())
            if budget > floor and _block_scan(w, g, out, b, budget):
                break
        z = np.unravel_index(idx, w.shape)
        np.maximum(out, wz * np.roll(g, z, axis=axes), out=out)
    return out


def _block_scan(w: np.ndarray, g: np.ndarray, out: np.ndarray, b: int,
                budget: float) -> bool:
    """Phase 2 of _peetre_scan: raise out to max_z w(z) g(x - z) by source
    blocks, if the estimated cost is below budget; return whether it ran."""
    n = g.ndim
    nb = g.shape[0] // b
    nt = nb ** n
    # one row of b^n cells per block, blocks in C order (copies for n > 1)
    gb = _split_blocks(g, b).reshape(nt, -1)
    ob = _split_blocks(out, b).reshape(nt, -1)
    M = gb.max(axis=1)
    Wmax = _split_blocks(w, b).max(axis=tuple(range(n, 2 * n)))
    for ax in range(n):
        Wmax = np.maximum(Wmax, np.roll(Wmax, 1, axis=ax))
    # Wmax[(X - Y) mod nb] over all Y is a window of the flipped, tiled
    # table, starting at nb - 1 - X per axis
    rows_of = sliding_window_view(np.tile(np.flip(Wmax), (2,) * n), (nb,) * n)
    X = np.unravel_index(np.arange(nt), (nb,) * n)
    step = max(1, _TABLE_CAP // max(nt, b ** (2 * n)))
    batches = [slice(t, min(t + step, nt)) for t in range(0, nt, step)]

    def bounds(t):
        """B[X, Y] = Wmax[X - Y] M[Y] for the targets X of batch t."""
        return rows_of[tuple(nb - 1 - x[t] for x in X)].reshape(-1, nt) * M

    lo = ob.min(axis=1)
    live = sum(np.count_nonzero(bounds(t) > lo[t, None]) for t in batches)
    if _GATHER_COST * live * b ** (2 * n) >= budget:
        return False
    # w at offset (Y - X) b + v - u, read as rows of a sliding window: the
    # torus metric is symmetric, and the padding covers offsets down to -b
    windows = sliding_window_view(np.pad(w, [(b, 0)] * n, mode="wrap"),
                                  (b,) * n)
    top = b - np.arange(b)
    sources = tuple(range(n + 1, 2 * n + 1))  # the v axes

    def evaluate(x, y):
        """Raise out on the distinct target blocks x by every product from
        the source blocks y, one pair per target; return the new min of out
        on each."""
        Xa, Ya = np.unravel_index(x, (nb,) * n), np.unravel_index(y, (nb,) * n)
        idx = []
        for ax in range(n):
            shape = [x.size] + [1] * n
            shape[1 + ax] = b
            idx.append((((Ya[ax] - Xa[ax]) % nb)[:, None] * b + top)
                       .reshape(shape))
        # T[i, u, v] = w(x - y), x = X_i b + u, y = Y_i b + v
        T = windows[tuple(idx)]
        T *= gb[y].reshape((x.size,) + (1,) * n + (b,) * n)
        new = np.maximum(ob[x], T.max(axis=sources).reshape(x.size, -1))
        ob[x] = new  # distinct targets: the scatter has no conflicts
        return new.min(axis=1)

    for t in batches:
        B = bounds(t)
        i = np.arange(B.shape[0])  # target t.start + i
        # round 0: each target's best source, which lifts min out on most
        # targets far enough to leave few live pairs
        best = B.argmax(axis=1)
        keep = B[i, best] > lo[t]
        evaluate(t.start + i[keep], best[keep])
        B[i, best] = 0.0
        low = ob[t].min(axis=1)
        # the live pairs left, each target's sources by descending bound; the
        # spent best source, bound 0.0, ends every row, since it never beats
        # min out
        cand = B > low[:, None]
        cand[i, best] = True
        row, src = np.nonzero(cand)
        bound = B[row, src]
        order = np.lexsort((-bound, row))
        src, bound = src[order], bound[order]
        first = np.searchsorted(row, i)
        # round r: every target whose r-th bound still beats min out on it
        # takes its r-th source.  Bounds fall and out only rises, so a target
        # is done at its first failing rank.
        act = i
        for r in itertools.count():
            keep = bound[first[act] + r] > low
            act, low = act[keep], low[keep]
            if not act.size:
                break
            low = evaluate(t.start + act, src[first[act] + r])
    _split_blocks(out, b)[...] = ob.reshape((nb,) * n + (b,) * n)
    return True


# ---------------------------------------------------------------------------
# Sobolev norm of a frequency-domain window

def sobolev_norm(H: GridFunction, nu: float, spacing: float = 1.0) -> float:
    """||(1+|xi|^2)^(nu/2) H||_{L^2} with xi = wavenumber * spacing."""
    n, G = H.n, H.G
    k = wavenumbers(G) * spacing
    w = (1.0 + _outer(np.add, [k ** 2] * n)) ** (nu / 2.0)
    return float(np.sqrt(np.sum((w * np.abs(H.samples)) ** 2) * spacing ** n))


# ---------------------------------------------------------------------------
# reproducing pair

def _bump_axis(t):
    """C^inf bump on (-1,1): exp(1 - 1/(1-t^2)), 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _taper_axis(t):
    """Sharply tapered C^inf bump on (-1,1): exp(-6 t^2 / (1 - t^2)).

    The taper exponent controls how fast the Fourier tail dies; spectral
    derivative sups of the reproducing kernels are resolution-stable only
    once that tail is negligible at the grid Nyquist, hence 6 >> 1 here."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-6.0 * ti * ti / (1.0 - ti * ti))
    return out


def _dilated_bump(n: int, G: int, scale: float) -> np.ndarray:
    """Periodized bump supported in |x_i| < 1/(4*scale) (before wrap)."""
    x = centered_axis(G)
    # periodize: sum over integer shifts that can reach the support
    reach = int(math.ceil(1.0 / (4.0 * scale))) + 1
    ax = sum(_taper_axis(4.0 * scale * (x + t)) for t in range(-reach, reach + 1))
    return _outer(np.multiply, [ax] * n)


def _laplace_symbol(n: int, G: int) -> np.ndarray:
    """Symbol of the unscaled discrete Laplacian sum_i (S_i + S_i^-1 - 2)."""
    k = wavenumbers(G)
    return _outer(np.add, [2.0 * np.cos(TWO_PI * k / G) - 2.0] * n)


@dataclass
class RychkovPair:
    """Filter pair with f = sum_j psi_j * phi_j * f on the grid.

    phi_j are spatially compact (dilated bumps hit with a power of the
    discrete Laplacian, which kills their discrete moments exactly); psi_j
    solve the reproducing identity in frequency by the least-norm formula
    psi_j = conj(phi_j) / sum_i |phi_i|^2.  The Laplacian factor makes the
    psi_j symbols vanish to high order at frequency zero, which is what
    drives coefficient decay; the moment conditions of the resulting atoms
    are carried entirely by the compact phi side.  The pair keeps phi_j and
    the real denominator; psi(j) forms psi_j when asked."""
    n: int
    G: int
    L: int
    levels: list
    phi_spec: dict  # j -> spectrum array (values c_k * G^n scaling-free)
    denom: np.ndarray  # sum_j |phi_j|^2, 1.0 at the origin if homogeneous
    phi_half_cells: dict  # spatial support half-width of phi_j, in cells
    homogeneous: bool = False

    def psi(self, j: int) -> np.ndarray:
        """psi_j's spectrum, conj(phi_j) / denom, as a fresh array."""
        ps = np.conj(self.phi_spec[j])
        ps /= self.denom
        if self.homogeneous:
            ps[(0,) * self.n] = 0.0
        return ps

    def reproducing_residual(self, f: GridFunction) -> float:
        total = sum(self.psi(j) * self.phi_spec[j] for j in self.levels)
        spec = f.spectrum()
        if self.homogeneous:
            spec = spec.copy()
            spec[(0,) * self.n] = 0.0  # constants are invisible
        err = GridFunction.from_spectrum(self.n, (total - 1.0) * spec)
        ref = max(f.l2(), 1e-300)
        return err.l2() / ref


def _times_monomial(a: np.ndarray, beta, axes) -> np.ndarray:
    """a * prod_i axes[i]^beta_i, one broadcast axis at a time."""
    for ax, b in enumerate(beta):
        if b:
            a = a * _along(axes[ax] ** b, ax, a.ndim)
    return a


def _moment(g: np.ndarray, beta, axes) -> complex:
    """The discrete moment sum_x x^beta g(x), x on the per-axis coordinates
    axes."""
    return complex(_times_monomial(g, beta, axes).sum())


def _multi_indices(n: int, max_total: int):
    """All beta in N^n with |beta| <= max_total."""
    if max_total < 0:
        return
    for total in range(max_total + 1):
        for beta in itertools.product(range(total + 1), repeat=n):
            if sum(beta) == total:
                yield beta


def rychkov_pair(L: int, n: int = 1, G: int = 256,
                 homogeneous: bool = False) -> RychkovPair:
    """Construct the reproducing filter pair with L+1 vanishing moments.

    Level j >= 1 kernels are dilated bumps (support shrinking like 2^-j)
    composed with Laplacian^L1 where 2*L1 - 1 >= L; level 0 is a plain
    bump with nonzero mean (no moment condition applies there).  In
    homogeneous mode every level is Laplacian-killed and the identity holds
    away from the zero frequency (constants are invisible)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    _check_grid(G)
    L1 = L // 2 + 1
    w = _laplace_symbol(n, G)
    levels = list(band_levels(G, homogeneous))

    phi_spec = {}
    half_cells = {}
    for j in levels:
        scale = 2.0 ** (j - 1)
        if j == 0 and not homogeneous:
            kernel = _dilated_bump(n, G, 1.0)
            spec = np.fft.fftn(kernel) / G ** n
            half_cells[j] = G // 4
        else:
            kernel = _dilated_bump(n, G, scale)
            spec = (np.fft.fftn(kernel) / G ** n) * (w ** L1)
            half_cells[j] = min(G, int(math.ceil(G / (4.0 * scale))) + L1)
        peak = np.abs(spec).max()
        if peak == 0:
            raise ValueError(f"degenerate kernel at level {j}")
        phi_spec[j] = spec / peak
        half_cells[j] = min(half_cells[j], G // 2)

    D = sum(np.abs(phi_spec[j]) ** 2 for j in levels)
    if homogeneous:
        origin = (0,) * n
        mask = np.ones((G,) * n, dtype=bool)
        mask[origin] = False
        if D[mask].min() < 1e-8 * D.max():
            raise ValueError("reproducing system ill-conditioned")
        D[origin] = 1.0
    elif D.min() < 1e-8 * D.max():
        raise ValueError("reproducing system ill-conditioned")
    return RychkovPair(n=n, G=G, L=L, levels=levels, phi_spec=phi_spec,
                       denom=D, phi_half_cells=half_cells,
                       homogeneous=homogeneous)

