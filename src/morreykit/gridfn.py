"""Sampled functions on the periodic grid and all Fourier-side machinery.

Conventions
-----------
The domain is the torus [0,1)^n sampled at G = 2^J points per axis.  The
spectrum of f is c_k = h^n * sum_x f(x) exp(-2 pi i k.x) with integer
wavenumbers k in [-G/2, G/2) per axis, so that f(x) = sum_k c_k
exp(2 pi i k.x) exactly on the grid.

Frequency windows (theta, tau_j, kappa) are evaluated at xi = k, i.e. the
window geometry Q(2) / Q(3) lives on the integer wavenumber scale.  The
sampling expansion is the one exception: its aliasing period is 2^nu in k
while the window geometry Q(3) assumes a Nyquist factor of 2 pi, so the
sampling window is evaluated at xi = 2 pi k / 2^nu (see sample_expand).
"""

from __future__ import annotations

import itertools
import json
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


def kinf_grid(n: int, G: int) -> np.ndarray:
    """|k|_inf on the n-dimensional frequency grid (FFT order)."""
    k = np.abs(wavenumbers(G))
    out = k
    for _ in range(n - 1):
        out = np.maximum.outer(out, k)
    return out


def _check_grid(G: int) -> None:
    """Filter banks need at least one band level: G a power of two >= 4."""
    if G < 4 or G & (G - 1):
        raise ValueError(f"grid size G={G} must be a power of two >= 4")


def radial_window(profile, n: int, G: int, index=None) -> np.ndarray:
    """profile(|k|_inf) on the n-dimensional frequency grid (FFT order).

    |k|_inf takes only the G/2+1 values 0..G/2, so the profile is evaluated
    once per shell and gathered through the integer |k|_inf grid; pass
    index = kinf_grid(n, G).astype(np.intp) to share it between windows.
    An elementwise profile gives the same bits as on the full grid."""
    _check_grid(G)
    if index is None:
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

    def integral(self) -> complex:
        return complex(self.samples.sum() * self.h ** self.n)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.h ** self.n))

    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __add__(self, other):
        return GridFunction(self.n, self.samples + other.samples)

    def __sub__(self, other):
        return GridFunction(self.n, self.samples - other.samples)

    def __mul__(self, c):
        if isinstance(c, GridFunction):
            return GridFunction(self.n, self.samples * c.samples)
        return GridFunction(self.n, self.samples * c)

    __rmul__ = __mul__

    # -- persistence --------------------------------------------------------

    MAGIC = b"MKGF"

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sII4s", self.MAGIC, self.n, self.G, b"c128")
        return head + np.ascontiguousarray(self.samples).tobytes()

    @staticmethod
    def from_bytes(buf: bytes) -> "GridFunction":
        if len(buf) < 16:
            raise ValueError("not a grid-function blob")
        magic, n, G, tag = struct.unpack_from("<4sII4s", buf, 0)
        if magic != GridFunction.MAGIC or tag != b"c128":
            raise ValueError("not a grid-function blob")
        data = np.frombuffer(buf, dtype=np.complex128, offset=16)
        if not np.isfinite(data).all():
            raise ValueError("grid-function blob holds non-finite samples")
        return GridFunction(n, data.reshape((G,) * n).copy())

    def to_json(self) -> dict:
        flat = self.samples.ravel()
        return {"n": self.n, "G": self.G,
                "re": flat.real.tolist(), "im": flat.imag.tolist()}

    @staticmethod
    def from_json(d) -> "GridFunction":
        if isinstance(d, str):
            d = json.loads(d)
        arr = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
        return GridFunction(d["n"], arr.reshape((d["G"],) * d["n"]))


# ---------------------------------------------------------------------------
# synthetic presets

def preset_function(name: str, n: int, G: int, seed: int = 0) -> GridFunction:
    """Named test functions: gaussian | mode | chirp | random-bandlimited."""
    if n < 1:
        raise ValueError(f"dimension n={n} must be positive")
    _check_grid(G)
    x = [centered_axis(G)] * n
    mesh = np.meshgrid(*x, indexing="ij") if n > 1 else [x[0]]
    if name == "gaussian":
        r2 = sum(m ** 2 for m in mesh)
        return GridFunction(n, np.exp(-40.0 * r2).astype(np.complex128))
    if name == "mode":
        phase = sum((i + 3) * m for i, m in enumerate(mesh))
        return GridFunction(n, np.exp(2j * math.pi * phase))
    if name == "chirp":
        r2 = sum(m ** 2 for m in mesh)
        return GridFunction(n, np.exp(-30.0 * r2) * np.cos(40.0 * r2))
    if name.startswith("random-bandlimited"):
        return random_bandlimited(n, G, kmax=max(2, G // 8), seed=seed)
    raise ValueError(f"unknown preset {name}")


def random_bandlimited(n: int, G: int, kmax: int, seed: int,
                       zero_mean: bool = False, decay: float = 1.0) -> GridFunction:
    """Seeded Gaussian Fourier coefficients supported in |k|_inf <= kmax."""
    rng = np.random.default_rng(seed)
    kinf = kinf_grid(n, G)
    mask = kinf <= kmax
    spec = np.zeros((G,) * n, dtype=np.complex128)
    cnt = int(mask.sum())
    weights = np.exp(-decay * kinf[mask] / max(kmax, 1))
    spec[mask] = (rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)) * weights
    if zero_mean:
        spec[(0,) * n] = 0.0
    return GridFunction.from_spectrum(n, spec)


# ---------------------------------------------------------------------------
# filter banks

def theta_profile(u):
    """chi_{Q(2)} <= theta <= chi_{Q(3)}, order-7 polynomial transition."""
    return smoothstep7(3.0 - np.asarray(u, dtype=float))


def theta_profile_bump(u):
    """Alternative theta with a cosine transition (same support sandwich)."""
    return cosstep(3.0 - np.asarray(u, dtype=float))


def tau_profile_bump(u):
    """Non-telescoping annulus bump: supp in Q(2.95)\\Q(0.9), positive on
    Q(2)\\Q(1)."""
    u = np.asarray(u, dtype=float)
    return cosstep((u - 0.9) / 0.55) * cosstep((2.95 - u) / 0.55)


def kappa_profile(u):
    """chi_{Q(3)} <= kappa <= chi_{Q(3.01)} (sampling window)."""
    return smoothstep7((3.01 - np.asarray(u, dtype=float)) / 0.01)


@dataclass
class FilterBank:
    """Frequency windows tau_j(xi) = tau(2^-j xi) plus a low-pass theta.

    Level 0 is theta in inhomogeneous mode; homogeneous banks carry only
    tau levels from `floor` up (theta dropped, constants invisible)."""
    n: int
    G: int
    kind: str  # "partition" | "bump"
    homogeneous: bool = False
    floor: int = 0
    windows: dict = field(default_factory=dict)
    kappa = staticmethod(kappa_profile)

    @property
    def J(self) -> int:
        return self.G.bit_length() - 1

    @property
    def jmax(self) -> int:
        return self.J - 2

    def levels(self):
        lo = self.floor if self.homogeneous else 0
        return range(lo, self.jmax + 1)

    def window(self, j: int) -> np.ndarray:
        if j not in self.windows:
            raise ValueError(f"level {j} outside bank range")
        return self.windows[j]

    def admissible(self) -> dict:
        """Checks on the integer frequency grid: 0 not in supp(tau),
        theta > 0 on Q(2), tau > 0 on Q(2)\\Q(1); partition residual."""
        u = kinf_grid(self.n, self.G)
        index = u.astype(np.intp)
        if self.kind == "partition":
            theta = radial_window(theta_profile, self.n, self.G, index)
            tau = radial_window(lambda v: theta_profile(v) - theta_profile(2 * v),
                                self.n, self.G, index)
        else:
            theta = radial_window(theta_profile_bump, self.n, self.G, index)
            tau = radial_window(tau_profile_bump, self.n, self.G, index)
        checks = {
            "tau_vanishes_at_0": bool(tau[(0,) * self.n] == 0.0),
            "theta_pos_on_Q2": bool(np.all(theta[u <= 2.0] > 0.0)),
            "tau_pos_on_Q2_minus_Q1": bool(np.all(tau[(u > 1.0) & (u <= 2.0)] > 0.0)),
        }
        if self.kind == "partition":
            total = sum(self.windows[j] for j in self.levels())
            if self.homogeneous:
                mask = u > 0
                resid = float(np.max(np.abs(total[mask] - 1.0)))
            else:
                resid = float(np.max(np.abs(total - 1.0)))
            checks["partition_residual"] = resid
            checks["partition"] = resid < 1e-12
        return checks


def make_bank(n: int, G: int, kind: str = "partition",
              homogeneous: bool = False, floor: int = -4) -> FilterBank:
    if kind not in ("partition", "bump"):
        raise ValueError(f"unknown bank kind {kind}")
    _check_grid(G)
    bank = FilterBank(n=n, G=G, kind=kind, homogeneous=homogeneous,
                      floor=floor if homogeneous else 0)
    index = kinf_grid(n, G).astype(np.intp)
    th = theta_profile
    for j in bank.levels():
        if j == 0 and not homogeneous:
            prof = th if kind == "partition" else theta_profile_bump
        elif kind == "partition":
            prof = lambda u, j=j: th(u / 2.0 ** j) - th(u / 2.0 ** (j - 1))
        else:
            prof = lambda u, j=j: tau_profile_bump(u / 2.0 ** j)
        bank.windows[j] = radial_window(prof, n, G, index)
    return bank


def band(f: GridFunction, bank: FilterBank, j: int, spec=None) -> GridFunction:
    """F^{-1}[window_j . F f]; spec, if given, is f.spectrum(), computed once
    by callers that split one function into several bands."""
    if spec is None:
        spec = f.spectrum()
    return GridFunction.from_spectrum(f.n, bank.window(j) * spec)


# ---------------------------------------------------------------------------
# maximal operators

def _split_blocks(a: np.ndarray, c: int) -> np.ndarray:
    """View of a, shape (G,)*n with G divisible by c, as (G/c,)*n + (c,)*n:
    block index first, then the cell inside the block."""
    n = a.ndim
    return a.reshape((a.shape[0] // c, c) * n).transpose(
        tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))


def _block_mean(a: np.ndarray, c: int) -> np.ndarray:
    """Mean over c^n cells per block; a has shape (G,)*n, G divisible by c."""
    return _split_blocks(a, c).mean(axis=tuple(range(a.ndim, 2 * a.ndim)))


def _expand(a: np.ndarray, c: int) -> np.ndarray:
    """Inverse of _block_mean's shape: repeat each block value over c cells."""
    out = a
    for ax in range(a.ndim):
        out = np.repeat(out, c, axis=ax)
    return out


def hl_maximal(f: GridFunction) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function.

    Sup of |f|-averages over a cube family rich enough to reproduce the
    arbitrary-cube sup on indicators of dyadic cubes: at each level, the
    aligned dyadic cubes, their half-side shifts in every axis combination,
    and the side-3 cubes aligned to the level grid (the tripled cubes are
    what makes M[chi_R] >= 3^-n hold exactly on 3R)."""
    a = np.abs(f.samples).astype(float)
    G = f.G
    n = f.n
    J = G.bit_length() - 1
    best = np.full_like(a, a.mean())  # level 0: the whole torus
    for lev in range(1, J + 1):
        c = G >> lev  # cells per cube side
        if c >= 2:
            shifts = list(itertools.product([0, c // 2], repeat=n))
        else:
            shifts = [(0,) * n]
        for sh in shifts:
            rolled = np.roll(a, tuple(-s for s in sh), axis=tuple(range(n))) \
                if any(sh) else a
            B = _block_mean(rolled, c)
            cand = _expand(B, c)
            if any(sh):
                cand = np.roll(cand, sh, axis=tuple(range(n)))
            np.maximum(best, cand, out=best)
            if sh == (0,) * n and 3 * c <= G:
                # side-3 cubes at level-aligned offsets: window mean of three
                # consecutive blocks per axis, then max over the 3^n windows
                # covering each block
                W = B.copy()
                for ax in range(n):
                    W = (W + np.roll(W, -1, axis=ax) + np.roll(W, -2, axis=ax)) / 3.0
                V = W.copy()
                for ax in range(n):
                    V = np.maximum(np.maximum(V, np.roll(V, 1, axis=ax)),
                                   np.roll(V, 2, axis=ax))
                np.maximum(best, _expand(V, c), out=best)
    return GridFunction(n, best.astype(np.complex128))


def powered_maximal(f: GridFunction, eta: float) -> GridFunction:
    """M^(eta) f = (M[|f|^eta])^(1/eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    p = GridFunction(f.n, (np.abs(f.samples) ** eta).astype(np.complex128))
    return GridFunction(f.n, hl_maximal(p).samples.real ** (1.0 / eta))


def torus_dist_sq(n: int, G: int) -> np.ndarray:
    """|z|^2 (Euclidean, torus metric) for every grid offset z."""
    d = np.minimum(coord_axis(G), 1.0 - coord_axis(G))
    out = d ** 2
    for _ in range(n - 1):
        out = np.add.outer(out, d ** 2)
    return out


def peetre_maximal(f: GridFunction, bank: FilterBank, j: int, N: float) -> GridFunction:
    """(psi_j f)_*(x) = max_y |band(f)(y)| / (1 + 2^j d(x,y))^N."""
    if N <= 0:
        raise ValueError("N must be positive")
    g = np.abs(band(f, bank, j).samples)
    return GridFunction(f.n, _peetre_scan(g, j, N).astype(np.complex128))


# Cost model of the Peetre scan, in units of one element of the roll scan.
# Measured on a 2-core x86 host (numpy 2.4): one offset of the roll scan
# costs G^n elements plus about 8192 of per-call overhead, and one product of
# the block phase (gathered from the weight table, multiplied, reduced)
# costs about 3, its survivor estimate's overcount included.
_ROLL_OVERHEAD = 8192
_GATHER_COST = 3
_CHUNK = 4  # source blocks per gather; the bound is re-checked between chunks


def _peetre_scan(g: np.ndarray, j: int, N: float) -> np.ndarray:
    """max_z w(z) g(x - z) with w(z) = (1 + 2^j |z|)^(-N) on the torus, for
    a nonnegative field g.

    Phase 1 scans grid offsets by descending weight, rolling g once per
    offset, and stops once w(z) max g <= min out: no remaining offset can
    raise any value.  On localized g that bound stays loose (min out sits far
    from the bump), so the scan may finish in phase 2 instead, by blocks of
    b = 2^(6 // n) cells per axis (b^(2n) = 4096 products per block pair for
    n <= 3):

    * M[Y] is the max of g on source block Y.  Wmax[D] is the max of w over
      the offsets x - y with x in block X, y in block Y, X - Y = D: the block
      max of w, maxed over the 2^n block shifts by {0, 1}.
    * Target block X skips source block Y when Wmax[X - Y] M[Y] <= min of
      out on X.  Survivors are evaluated densely by gather, in descending
      bound order, _CHUNK at a time, re-checking the bound before each chunk.

    The cost switch: phase 1 runs as many offsets as the cheapest block
    phase costs (one source block per target block), then phase 2 is taken
    only when its estimate, _GATHER_COST * (surviving pairs) * b^(2n),
    beats the roll scan's remaining work, (offsets with w(z) max g > min out)
    * (G^n + _ROLL_OVERHEAD).  Grids with fewer than two blocks per axis
    never switch.  The choice moves only the time, never the output.

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
    b = 1 << (6 // n)
    roll_cost = G ** n + _ROLL_OVERHEAD
    # the cheapest block phase: one source block per target block
    floor = _GATHER_COST * G ** n * b ** n
    switch = floor // roll_cost if G % b == 0 and G >= 2 * b else order.size
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
    cells = tuple(range(n, 2 * n))
    gb, ob = _split_blocks(g, b), _split_blocks(out, b)
    M = gb.max(axis=cells)
    Wmax = _split_blocks(w, b).max(axis=cells)
    for ax in range(n):
        Wmax = np.maximum(Wmax, np.roll(Wmax, 1, axis=ax))
    # Wmax[(X - Y) mod nb] over all Y is a window of the flipped, tiled table
    tiled = np.tile(np.flip(Wmax), (2,) * n)

    def bounds(X):
        window = tuple(slice(nb - 1 - x, 2 * nb - 1 - x) for x in X)
        return (tiled[window] * M).ravel()

    targets = list(np.ndindex(M.shape))
    lo = ob.min(axis=cells)
    live = sum(np.count_nonzero(bounds(X) > lo[X]) for X in targets)
    if _GATHER_COST * live * b ** (2 * n) >= budget:
        return False
    # w at offset (Y - X) b + v - u, read as rows of a sliding window: the
    # torus metric is symmetric, and the padding covers offsets down to -b
    windows = sliding_window_view(np.pad(w, [(b, 0)] * n, mode="wrap"),
                                  (b,) * n)
    top = b - np.arange(b)
    sources = (0,) + tuple(range(n + 1, 2 * n + 1))  # chunk and v axes
    for X in targets:
        oX = ob[X]
        bound = bounds(X)
        cand = np.flatnonzero(bound > oX.min())
        cand = cand[np.argsort(bound[cand])[::-1]]
        for s in range(0, cand.size, _CHUNK):
            chunk = cand[s:s + _CHUNK]
            chunk = chunk[bound[chunk] > oX.min()]
            if chunk.size == 0:
                break
            Y = np.unravel_index(chunk, M.shape)
            rows = []
            for ax in range(n):
                shape = [chunk.size] + [1] * n
                shape[1 + ax] = b
                rows.append((((Y[ax] - X[ax]) % nb)[:, None] * b + top)
                            .reshape(shape))
            # T[i, u, v] = w(x - y), x = X b + u, y = Y_i b + v
            T = windows[tuple(rows)]
            T *= gb[Y].reshape((chunk.size,) + (1,) * n + (b,) * n)
            np.maximum(oX, T.max(axis=sources), out=oX)
    return True


# ---------------------------------------------------------------------------
# sampling expansion

def sample_expand(f: GridFunction, kappa, nu: int) -> GridFunction:
    """Reconstruct a band-limited f from its samples on the 2^nu lattice.

    Precondition: spectrum supported in |2 pi k|_inf <= 3 * 2^nu.  The
    reconstruction pairs each sample f(2^-nu m) with the kernel whose
    spectrum is kappa(2 pi k / 2^nu); the aliased spectrum copies sit at
    distance >= (2 pi - 3) 2^nu > 3.01 * 2^nu from the origin, outside the
    window, so the identity is exact on the grid."""
    n, G = f.n, f.G
    S = 1 << nu
    if S > G:
        raise ValueError("sampling lattice finer than the grid")
    spec = f.spectrum()
    u = kinf_grid(n, G)
    limit = 3.0 * 2.0 ** nu / TWO_PI
    outside = np.abs(spec)[u > limit]
    if outside.size and outside.max() > 1e-12 * max(np.abs(spec).max(), 1e-300):
        raise ValueError("spectrum leaks outside Q(3*2^nu); cannot sample-expand")
    step = G // S
    coarse = f.samples[(slice(None, None, step),) * n]
    A = np.fft.fftn(coarse) / S ** n  # aliased spectrum, periodic with period S
    k = wavenumbers(G).astype(int)
    idx = np.ix_(*[k % S for _ in range(n)]) if n > 1 else (k % S,)
    A_full = A[idx]
    window = radial_window(lambda v: kappa(TWO_PI * v / 2.0 ** nu), n, G,
                           u.astype(np.intp))
    return GridFunction.from_spectrum(n, window * A_full)


# ---------------------------------------------------------------------------
# Sobolev norm of a frequency-domain window

def sobolev_norm(H: GridFunction, nu: float, spacing: float = 1.0) -> float:
    """||(1+|xi|^2)^(nu/2) H||_{L^2} with xi = wavenumber * spacing."""
    n, G = H.n, H.G
    k = wavenumbers(G) * spacing
    r2 = k ** 2
    for _ in range(n - 1):
        r2 = np.add.outer(r2, k ** 2)
    w = (1.0 + r2) ** (nu / 2.0)
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


def _taper_axis(t, a: float = 6.0):
    """Sharply tapered C^inf bump on (-1,1): exp(-a t^2 / (1 - t^2)).

    The taper exponent controls how fast the Fourier tail dies; spectral
    derivative sups of the reproducing kernels are resolution-stable only
    once that tail is negligible at the grid Nyquist, hence a >> 1 here."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-a * ti * ti / (1.0 - ti * ti))
    return out


def _dilated_bump(n: int, G: int, scale: float) -> np.ndarray:
    """Periodized bump supported in |x_i| < 1/(4*scale) (before wrap)."""
    x = centered_axis(G)
    # periodize: sum over integer shifts that can reach the support
    reach = int(math.ceil(1.0 / (4.0 * scale))) + 1
    ax = sum(_taper_axis(4.0 * scale * (x + t)) for t in range(-reach, reach + 1))
    return _tensor(ax, n)


def _tensor(axis_vals: np.ndarray, n: int) -> np.ndarray:
    """Outer product of n copies of one axis profile."""
    out = axis_vals
    for _ in range(n - 1):
        out = np.multiply.outer(out, axis_vals)
    return out


def _laplace_symbol(n: int, G: int) -> np.ndarray:
    """Symbol of the unscaled discrete Laplacian sum_i (S_i + S_i^-1 - 2)."""
    k = wavenumbers(G)
    axis = 2.0 * np.cos(TWO_PI * k / G) - 2.0
    out = axis
    for _ in range(n - 1):
        out = np.add.outer(out, axis)
    return out


@dataclass
class RychkovPair:
    """Filter pair with f = sum_j psi_j * phi_j * f on the grid.

    phi_j are spatially compact (dilated bumps hit with a power of the
    discrete Laplacian, which kills their discrete moments exactly); psi_j
    solve the reproducing identity in frequency by the least-norm formula
    psi_j = conj(phi_j) / sum_i |phi_i|^2.  The Laplacian factor makes the
    psi_j symbols vanish to high order at frequency zero, which is what
    drives coefficient decay; the moment conditions of the resulting atoms
    are carried entirely by the compact phi side."""
    n: int
    G: int
    L: int
    levels: list
    phi_spec: dict  # j -> spectrum array (values c_k * G^n scaling-free)
    psi_spec: dict
    phi_half_cells: dict  # spatial support half-width of phi_j, in cells
    homogeneous: bool = False

    def conv_psi(self, f: GridFunction, j: int) -> GridFunction:
        return GridFunction.from_spectrum(f.n, self.psi_spec[j] * f.spectrum())

    def reproducing_residual(self, f: GridFunction) -> float:
        total = sum(self.psi_spec[j] * self.phi_spec[j] for j in self.levels)
        spec = f.spectrum()
        if self.homogeneous:
            spec = spec.copy()
            spec[(0,) * self.n] = 0.0  # constants are invisible
        err = GridFunction.from_spectrum(self.n, (total - 1.0) * spec)
        ref = max(f.l2(), 1e-300)
        return err.l2() / ref


def _times_monomial(a: np.ndarray, beta, axes) -> np.ndarray:
    """a * prod_i axes[i]^beta_i, one broadcast axis at a time."""
    n = a.ndim
    for ax, b in enumerate(beta):
        if b:
            shape = [1] * n
            shape[ax] = a.shape[ax]
            a = a * (axes[ax] ** b).reshape(shape)
    return a


def _moments(samples: np.ndarray, L: int, h: float) -> dict:
    """Discrete moments sum_x x^beta f(x) h^n in centered coordinates."""
    n = samples.ndim
    axes = [centered_axis(samples.shape[0])] * n
    return {beta: complex(_times_monomial(samples, beta, axes).sum() * h ** n)
            for beta in _multi_indices(n, L)}


def _multi_indices(n: int, max_total: int):
    """All beta in N^n with |beta| <= max_total."""
    if max_total < 0:
        return
    for total in range(max_total + 1):
        for beta in itertools.product(range(total + 1), repeat=n):
            if sum(beta) == total:
                yield beta


def rychkov_pair(L: int, n: int = 1, G: int = 256,
                 homogeneous: bool = False, floor: int = -4) -> RychkovPair:
    """Construct the reproducing filter pair with L+1 vanishing moments.

    Level j >= 1 kernels are dilated bumps (support shrinking like 2^-j)
    composed with Laplacian^L1 where 2*L1 - 1 >= L; level 0 is a plain
    bump with nonzero mean (no moment condition applies there).  In
    homogeneous mode every level is Laplacian-killed and the identity holds
    away from the zero frequency (constants are invisible)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    _check_grid(G)
    J = G.bit_length() - 1
    jmax = J - 2
    L1 = L // 2 + 1
    w = _laplace_symbol(n, G)
    lo = floor if homogeneous else 0
    levels = list(range(lo, jmax + 1))

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
        Dsafe = D.copy()
        Dsafe[origin] = 1.0
    else:
        if D.min() < 1e-8 * D.max():
            raise ValueError("reproducing system ill-conditioned")
        Dsafe = D

    psi_spec = {}
    for j in levels:
        ps = np.conj(phi_spec[j]) / Dsafe
        if homogeneous:
            ps[(0,) * n] = 0.0
        psi_spec[j] = ps

    return RychkovPair(n=n, G=G, L=L, levels=levels, phi_spec=phi_spec,
                       psi_spec=psi_spec, phi_half_cells=half_cells,
                       homogeneous=homogeneous)

