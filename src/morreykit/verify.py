"""Inequality campaigns: seeded corpora, empirical constants, stability.

Boundedness claims are not decidable from finitely many trials, so every
campaign reports the empirical sup of lhs/rhs over a seeded corpus; the
computable surrogate asserted downstream is that this constant is stable
(within 25%) between the two largest configured depths/resolutions, or,
for a growth report, that its fitted slope is within 25% of the expected
one.  Exact identities are the exception: those record hard failures.

All corpora are deterministic: trial i of master seed S uses the RNG
default_rng([S, i]) so trials are independent and order-free.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .decomp import _slope
from .growth import GrowthFunction, SpaceParams, check_nakai, dyadic_scales, loginv, power
from .gridfn import (FilterBank, GridFunction, _bump_axis, _check_grid,
                     _hl_stack, _outer, _peetre_scan, bandlimited_draw, bands,
                     level_side, make_bank, peetre_maximal,
                     random_bandlimited, sobolev_norm, wavenumbers)
from .norms import (CoeffField, _check_bank, _lr, _moduli, _morrey_of_array,
                    aggregate, band_norm, seq_norm, space_norm)

INF = math.inf
HARDY_LENGTH = 64  # entries of each Hardy trial sequence
MAXIMAL_STACK = 8  # functions per trial of the vector-valued maximal bound
_MAXIMAL_STACKS = 11  # real MAXIMAL_STACK-grid stacks a maximal trial holds


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    name: str
    constants: dict = field(default_factory=dict)  # depth/res -> empirical sup
    trials: int = 0
    failures: list = field(default_factory=list)
    witness: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def stable(self, tol: float = 0.25) -> bool:
        """The two largest depths' constants differ by less than tol.  A
        report with a fitted growth slope is judged by it instead: it is
        within tol of the expected slope, relative to that slope."""
        if "slope" in self.extra:
            expected = self.extra["expected"]
            return abs(self.extra["slope"] - expected) <= tol * abs(expected)
        keys = sorted(self.constants)
        if len(keys) < 2:
            return True
        a, b = self.constants[keys[-2]], self.constants[keys[-1]]
        hi, lo = max(a, b), min(a, b)
        if hi == 0:
            return True
        return (hi - lo) / hi <= tol

    def observe(self, key, ratio: float, **where) -> None:
        """Raise constants[key] to ratio; a strict rise sets the witness."""
        if ratio > self.constants[key]:
            self.constants[key] = ratio
            self.witness = {**where, "ratio": ratio}

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def trial_rng(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng([master, index])


# ---------------------------------------------------------------------------
# corpora

def function_corpus(n: int, G: int, count: int, seed: int, kmax: int = 24,
                    zero_mean: bool = False) -> list:
    """Band-limited functions with seeded Gaussian spectra; trial i is the
    same trigonometric polynomial at every resolution >= 2*kmax."""
    return [random_bandlimited(n, G, kmax, seed=[seed, i], zero_mean=zero_mean)
            for i in range(count)]


def coeff_corpus(n: int, depth: int, count: int, seed: int,
                 floor: int = 0):
    """Sparse coefficient fields: Bernoulli(0.2) support, log-normal
    magnitudes (heavy tails stress sup-type constants).  A generator, one
    field per trial, so a campaign holds one trial at a time."""
    for i in range(count):
        rng = trial_rng(seed, i)
        levels = {}
        for j in range(floor, depth + 1):
            shape = (level_side(j),) * n
            mask = rng.random(shape) < 0.2
            levels[j] = mask * rng.lognormal(0.0, 1.0, shape)
        yield CoeffField(n, levels)


# ---------------------------------------------------------------------------
# Hardy

def hardy_bound(delta: float, r: float) -> float:
    """Closed-form geometric bound for the discrete Hardy convolution
    b_k = sum_j 2^{-|j-k| delta} a_j: ||b||_r <= B ||a||_r with
    B = ((1 + x)/(1 - x))^{1/m}, x = 2^{-delta m}, m = min(1, r).
    Raises ValueError where B is not a finite float: x rounds to 1 for
    tiny delta*m, and the power overflows for small m."""
    m = min(1.0, r) if r != INF else 1.0
    x = 2.0 ** (-delta * m)
    try:
        return ((1.0 + x) / (1.0 - x)) ** (1.0 / m)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"the Hardy bound for delta={delta}, r={r} is not"
                         " a finite float") from None


def hardy_campaign(delta: float, r: float, trials: int, seed: int = 0) -> Report:
    """Empirical sup of ||b||_r / ||a||_r against the closed-form bound."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    bound = hardy_bound(delta, r)
    idx = np.arange(HARDY_LENGTH)
    kernel = 2.0 ** (-delta * np.abs(idx[:, None] - idx[None, :]))
    rep = Report(name=f"hardy-d{delta}-r{r}", trials=trials,
                 constants={HARDY_LENGTH: 0.0},
                 extra={"bound": bound, "delta": delta, "r": r})
    for i in range(trials):
        rng = trial_rng(seed, i)
        a = ((rng.random(HARDY_LENGTH) < 0.3)
             * rng.lognormal(0.0, 1.5, HARDY_LENGTH))
        na = _lr(a, r)
        if na == 0:
            continue
        ratio = _lr(kernel @ a, r) / na
        rep.observe(HARDY_LENGTH, ratio, trial=i, seed=[seed, i])
        if ratio > bound + 1e-9:
            rep.failures.append({"trial": i, "ratio": ratio, "bound": bound})
    return rep


# ---------------------------------------------------------------------------
# maximal function

def maximal_bytes(n: int, G: int) -> int:
    """Upper bound on the bytes maximal_campaign holds at once on a G^n
    grid, in real stacks of MAXIMAL_STACK grids: a trial's moduli, the
    last trial's maximal functions, eight working arrays of _hl_stack at
    its finest level (running max, block means, their expansion, the
    side-3 sums and shifts) and one for its coarser block means.  The
    draw's complex stack and list (four real stacks) and the Morrey
    sups' stacks come to less."""
    return _MAXIMAL_STACKS * 8 * MAXIMAL_STACK * G ** n


def maximal_campaign(q: float, r: float, phi: GrowthFunction, trials: int,
                     resolutions, n: int = 1, seed: int = 0) -> Report:
    """Empirical constants of the maximal bound on the Morrey space:
    scalar form, sup-in-i form, and the ell^r-valued form over a stack of
    MAXIMAL_STACK functions.  Preconditions: q > 1; the vector form needs
    r > 1 and the Nakai condition on phi."""
    if q <= 1:
        raise ValueError("maximal bound needs q > 1")
    if r <= 1:
        raise ValueError("vector-valued form needs r > 1")
    ok, _, _ = check_nakai(phi, dyadic_scales())
    if not ok:
        raise ValueError("phi fails the Nakai condition")
    for G in resolutions:
        _check_grid(G)
    rep = Report(name=f"maximal-q{q}-r{r}-{phi.family}", trials=trials,
                 extra={"scalar": {}, "sup": {}, "lr": {}})
    for G in resolutions:
        best = dict.fromkeys(rep.extra, 0.0)  # scalar, sup, lr
        draw = bandlimited_draw(n, G, 24)
        for i in range(trials):
            vals = np.abs(draw([[seed, i * MAXIMAL_STACK + t]
                                for t in range(MAXIMAL_STACK)]))
            mats = _hl_stack(vals, n)
            # numerator, denominator of each form in the order of best
            m = _morrey_of_array(np.stack([
                mats[0], vals[0], mats.max(axis=0), vals.max(axis=0),
                np.sum(mats ** r, axis=0) ** (1.0 / r),
                np.sum(vals ** r, axis=0) ** (1.0 / r)]), q, phi, n).tolist()
            ratios = {key: m[k] / max(m[k + 1], 1e-300)
                      for key, k in zip(best, (0, 2, 4))}
            if ratios["scalar"] > best["scalar"]:
                rep.witness = {"trial": i, "res": G, "ratio": ratios["scalar"]}
            best = {key: max(best[key], ratios[key]) for key in best}
        for key, c in best.items():
            rep.extra[key][G] = c
        rep.constants[G] = max(best.values())
    return rep


# ---------------------------------------------------------------------------
# filter invariance

def filter_invariance_campaign(bankA: FilterBank, bankB: FilterBank,
                               params: SpaceParams, corpus) -> Report:
    """Band of space_norm(f; A) / space_norm(f; B) over the corpus."""
    if any(v is False for bank in (bankA, bankB)
           for v in bank.admissible().values()):
        raise ValueError("both banks must be admissible")
    G = bankA.G
    rep = Report(name=f"filter-invariance-{params.variant}-r{params.r}",
                 constants={G: 0.0})
    lo = INF
    for i, f in enumerate(corpus):
        nb = space_norm(f, params, bankB)
        if nb == 0:
            continue
        ratio = space_norm(f, params, bankA) / nb
        rep.observe(G, ratio, trial=i)
        lo = min(lo, ratio)
        rep.trials += 1
    rep.extra["min"] = lo if rep.trials else 0.0
    rep.extra["max"] = rep.constants[G]
    return rep


# ---------------------------------------------------------------------------
# Peetre characterization

def peetre_threshold(params: SpaceParams) -> float:
    """Smallest admissible Peetre weight order for the characterization:
    n / min(1, q) + n for the N-variant, n / min(1, q, r) + n for E."""
    return params.n / params.m + params.n


def peetre_char_campaign(params: SpaceParams, N: float, corpus,
                         bank: FilterBank) -> Report:
    """Starred norm (Peetre maximal per level) over plain norm per trial;
    >= 1 exactly by pointwise domination, the upper side is the constant."""
    if not N > peetre_threshold(params):
        raise ValueError(f"N must exceed {peetre_threshold(params)}, got {N}")
    _check_bank(params, bank)
    rep = Report(name=f"peetre-{params.variant}-N{N}",
                 constants={bank.G: 0.0})
    lo = INF
    for i, f in enumerate(corpus):
        split = list(bands(f, bank))
        plain = band_norm(_moduli(split), params)
        if plain == 0:
            continue
        starred = band_norm(_moduli((j, peetre_maximal(b, j, N))
                                    for j, b in split), params)
        ratio = starred / plain
        if ratio < 1.0 - 1e-12:
            rep.failures.append({"trial": i, "ratio": ratio})
        rep.observe(bank.G, ratio, trial=i)
        lo = min(lo, ratio)
        rep.trials += 1
    rep.extra["min"] = lo if rep.trials else 0.0
    return rep


# ---------------------------------------------------------------------------
# multipliers

def multiplier_campaign(params: SpaceParams, corpus, bank: FilterBank,
                        nu: float, seed: int = 0) -> Report:
    """Band multipliers H_(j)(xi) = H(2^-j xi): the Peetre-starred norm of
    2^{js} H_(j)(D) tau_j(D) f against the dilation-invariant Sobolev norm
    of the profile times the plain norm."""
    n = params.n
    if not nu > n / params.w + n / 2.0:
        raise ValueError(f"nu must exceed the multiplier threshold, got {nu}")
    G = bank.G
    rep = Report(name=f"multiplier-nu{nu}", constants={G: 0.0})
    N = peetre_threshold(params) + 1.0
    rng = np.random.default_rng(seed)
    # smooth random profile on the frequency box, sampled where bands live
    coefs = rng.standard_normal(4) * [1.0, 0.5, 0.25, 0.125]
    Hprof = lambda u: 1.0 + sum(c * np.cos((k + 1) * u * math.pi / 4.0)
                                for k, c in enumerate(coefs))
    # H^nu_2 norm of the profile on a fixed box
    M = 256
    u = np.linspace(-8.0, 8.0, M, endpoint=False)
    sob = sobolev_norm(GridFunction(n, _outer(np.multiply, [Hprof(u)] * n)),
                       nu, spacing=16.0 / M)
    # the bank with each tau level's shell profile times H_(j)
    shells = np.arange(G // 2 + 1, dtype=float)
    multiplied = replace(bank, profiles={
        j: bank.profile(j) * Hprof(shells / 2.0 ** j)
        for j in bank.tau_levels()})
    for i, f in enumerate(corpus):
        rhs = sob * aggregate(_moduli(bands(f, bank, bank.tau_levels())),
                              params)
        if rhs == 0:
            continue
        ratio = aggregate(((j, _peetre_scan(np.abs(g.samples), j, N))
                           for j, g in bands(f, multiplied, bank.tau_levels())),
                          params) / rhs
        rep.observe(G, ratio, trial=i)
        rep.trials += 1
    rep.extra["sobolev"] = sob
    return rep


# ---------------------------------------------------------------------------
# sequence-space embedding with logarithmic phi

def embedding_campaign(p: float, q: float, r: float, depth: int,
                       trials: int = 50, seed: int = 0, n: int = 1) -> Report:
    """Sequence-space form of the sharp embedding: the E-type norm at s = 0
    with phi(t) = log(2 + 1/t)^{-1/min(1,r)} is controlled by the E-type
    norm at s = n/p, phi(t) = t^{n/p}, r = infinity."""
    if not (1 <= q <= p < INF) or not (0 < r < q):
        raise ValueError("needs 1 <= q <= p < inf and 0 < r < q")
    lhs_params = SpaceParams(q=q, r=r, s=0.0, phi=loginv(1.0 / min(1.0, r), n),
                             variant="E", n=n)
    rhs_params = SpaceParams(q=q, r=INF, s=n / p, phi=power(p, n),
                             variant="E", n=n)
    rep = Report(name=f"embedding-p{p}-q{q}-r{r}", trials=trials,
                 constants={depth: 0.0})
    for i, lam in enumerate(coeff_corpus(n, depth, trials, seed)):
        rhs = seq_norm(lam, rhs_params)
        if rhs == 0:
            continue
        rep.observe(depth, seq_norm(lam, lhs_params) / rhs, trial=i)
    return rep


# ---------------------------------------------------------------------------
# counterexample: min(1, r) in the logarithmic phi is sharp

def counterexample_growth(r: float, depths, exponent: float = 1.0) -> Report:
    """Stacked unimodal bands f_N = sum_{k<=N} of smooth frequency bumps at
    1.75 * 2^k (inside the region where the level-k filter is identically 1).
    With phi(t) = log(2 + 1/t)^{-exponent} the ratio

        ||f_N||_{E^0_{phi, q, r}} / ||f_N||_{E^{n/p}_{p q inf}},

    with q = 1/2, p = 2 and n = 1 on a G = 2^14 grid, grows like
    N^{1/r - exponent}: exponent 1 exhibits the 1/r - 1 growth (the
    sharpness counterexample), exponent 1/min(1,r) flattens it.

    The ratio sequence saturates from below (every truncation carries the
    full weight of the early pieces), so the slope is fitted on the upper
    half of the depth range where the transient has died out; the full
    ratio table is reported in constants.  Raises ValueError naming r when
    a ratio or the slope is not finite: at r <= 0.003 the E-variant's
    ell^r sum over levels overflows."""
    if r >= 1 and exponent == 1.0:
        raise ValueError("the growth construction needs r < 1")
    n, q, p, G = 1, 0.5, 2.0, 1 << 14
    bank = make_bank(n, G)
    phi = loginv(exponent, n)
    lhs_params = SpaceParams(q=q, r=r, s=0.0, phi=phi, variant="E", n=n)
    rhs_params = SpaceParams(q=q, r=INF, s=n / p, phi=power(p, n), variant="E", n=n)
    k = wavenumbers(G)
    rep = Report(name=f"counterexample-r{r}-e{exponent}")
    spec = np.zeros(G, dtype=np.complex128)
    ratios = {}
    for N in range(1, max(depths) + 1):
        center = 1.75 * 2.0 ** N
        width = 0.18 * 2.0 ** N
        bump = _bump_axis((k - center) / width)
        tot = bump.sum()
        if tot == 0:
            # bump support misses the integer lattice (only possible at the
            # very coarsest pieces); an empty requested depth is an error
            if N in depths:
                raise ValueError("grid too coarse for depth")
            continue
        spec = spec + bump / tot  # unit integral: piece value 1 at x = 0
        if N in depths:
            f = GridFunction.from_spectrum(n, spec)
            split = list(_moduli(bands(f, bank)))
            ratios[N] = (band_norm(split, lhs_params)
                         / band_norm(split, rhs_params))
            if not math.isfinite(ratios[N]):
                raise ValueError(f"counterexample at r={r}: the depth-{N}"
                                 f" ratio is {ratios[N]}, not finite")
    rep.constants = dict(ratios)
    cut = (min(ratios) + max(ratios) + 1) // 2
    tail = [N for N in sorted(ratios) if N >= cut]
    rep.extra["slope"] = _slope(np.log2(np.array(tail, dtype=float)),
                                np.log2(np.array([ratios[N] for N in tail])))
    if not math.isfinite(rep.extra["slope"]):
        raise ValueError(f"counterexample at r={r}: the fitted slope is"
                         f" {rep.extra['slope']}, not finite")
    rep.extra["fit_range"] = [tail[0], tail[-1]]
    rep.extra["expected"] = 1.0 / r - exponent
    return rep
