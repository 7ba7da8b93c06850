"""Norm functionals: Morrey, function-space (N/E), sequence-space, quark.

Sequence-space norms are evaluated exactly: indicator aggregates are
piecewise constant on the finest coefficient lattice, so every cube average
is a mean of finitely many cell values with no sampling error.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .growth import GrowthFunction, SpaceParams, pow_inf
from .gridfn import (FilterBank, GridFunction, bands, _block_sum, _expand,
                     level_side)

INF = math.inf
# largest level from_csv accepts: (2^j)^n <= 2^24 cells (256 MiB of complex)
MAX_LEVEL_BITS = 24


# ---------------------------------------------------------------------------
# coefficient fields

@dataclass
class CoeffField:
    """Doubly indexed coefficients lambda_{jm}, dense per level.

    Level j holds a complex array of shape (level_side(j),)*n: (2^j,)*n,
    and one cell, the whole-torus pseudo-cube, on a homogeneous level
    j < 0.  A scalar is accepted for a one-cell level."""
    n: int
    levels: dict = field(default_factory=dict)  # j -> ndarray

    def __post_init__(self):
        clean = {}
        for j, v in self.levels.items():
            j = int(j)
            arr = np.asarray(v, dtype=np.complex128)
            if arr.ndim == 0:
                arr = arr.reshape((1,) * self.n)
            want = (level_side(j),) * self.n
            if arr.shape != want:
                raise ValueError(f"level {j} array must have shape {want}")
            clean[j] = arr
        self.levels = clean

    def level_list(self):
        return sorted(self.levels)

    @property
    def max_level(self) -> int:
        """The finest level, and 0 if every level is homogeneous."""
        return max([0, *self.levels])

    def __add__(self, other: "CoeffField") -> "CoeffField":
        out = {}
        for j in set(self.levels) | set(other.levels):
            a = self.levels.get(j)
            b = other.levels.get(j)
            if a is None:
                out[j] = b
            elif b is None:
                out[j] = a
            else:
                out[j] = a + b
        return CoeffField(self.n, out)

    # -- CSV persistence -----------------------------------------------------

    def to_csv(self) -> str:
        return _csv_text(["j"], self.n, [((), self)])

    @staticmethod
    def from_csv(text: str, n: int) -> "CoeffField":
        """Inverse of to_csv.  Raises ValueError naming the line of a row
        with the wrong column count, a non-numeric or non-finite entry, an
        index m outside [0, 2^j) (m = 0 on homogeneous levels j < 0), or a
        level whose (2^j)^n cells exceed 2^MAX_LEVEL_BITS."""
        rows = csv.reader(io.StringIO(text))
        next(rows, None)  # header

        def bad(msg):
            return ValueError(f"coefficient CSV line {rows.line_num}: {msg}")

        levels = {}
        for row in rows:
            if not row:
                continue
            if len(row) != n + 3:
                raise bad(f"expected {n + 3} columns (j, m1..m{n}, re, im),"
                          f" got {len(row)}")
            try:
                j = int(row[0])
                m = tuple(map(int, row[1:1 + n]))
                z = complex(float(row[1 + n]), float(row[2 + n]))
            except ValueError:
                raise bad(f"not a number in {row}") from None
            if not cmath.isfinite(z):
                raise bad("non-finite coefficient")
            if j < 0 and any(m):
                raise bad(f"homogeneous level {j} needs m = 0, got {m}")
            if j * n > MAX_LEVEL_BITS:
                raise bad(f"level {j} would hold 2^{j * n} cells, more than"
                          f" 2^{MAX_LEVEL_BITS}")
            if j not in levels:
                levels[j] = np.zeros((level_side(j),) * n, dtype=np.complex128)
            if min(m) < 0:
                raise bad(f"negative index m={m} at level {j}")
            try:
                levels[j][m] += z  # numpy checks m < level_side(j)
            except IndexError:
                raise bad(f"index m={m} outside [0, {level_side(j)})"
                          f" at level {j}") from None
        return CoeffField(n, levels)


@dataclass
class QuarkCoeffs:
    """Triply indexed coefficients lambda^beta_{nu m}: one CoeffField per
    multi-index beta, and the sup of each sampled band nu's samples."""
    n: int
    rho: float
    fields: dict = field(default_factory=dict)  # beta tuple -> CoeffField
    lam_norms: dict = field(default_factory=dict)  # nu -> max |Lambda_nu|

    def betas(self):
        return sorted(self.fields, key=lambda b: (sum(b), b))

    def to_csv(self) -> str:
        return _csv_text(["beta", "nu"], self.n,
                         [(("-".join(str(b) for b in beta),), self.fields[beta])
                          for beta in self.betas()])


def _csv_text(head: list, n: int, tagged: list) -> str:
    """CSV with columns head + m1..mn + re, im: one row per nonzero
    coefficient of each (prefix, CoeffField) pair, the prefix leading the
    row, a homogeneous level's one cell at m = 0.  The bytes are those of
    csv.writer: rows end in CRLF, and values are formatted as Python ints
    and floats (tolist), since numpy 2 scalars print as np.float64(...)."""
    lines = [",".join(head + [f"m{i+1}" for i in range(n)] + ["re", "im"])]
    for prefix, fld in tagged:
        for j in fld.level_list():
            v = fld.levels[j]
            nonzero = v != 0
            cells, vals = np.argwhere(nonzero).tolist(), v[nonzero].tolist()
            row = ",".join([*prefix, str(j)]) + ",%d" * n + ",%s,%s"
            lines += [row % (*m, z.real, z.imag) for m, z in zip(cells, vals)]
    return "\r\n".join(lines) + "\r\n"


# ---------------------------------------------------------------------------
# Morrey norm on grid functions

_PRUNE_CELLS = 1 << 12  # rows below this many cells sum every level
_PRUNE_MU = 2.0 ** -20  # widest relative bound the pruning accepts
_PRUNE_LO, _PRUNE_HI = 2.0 ** -1000, 2.0 ** 1000  # no subnormal, no overflow


def _winning_levels(a: np.ndarray, q: float, ws: list, n: int) -> list:
    """The levels whose candidate ws[lev] (largest cube mean)^(1/q) can be
    the sup of some row of a (already raised to q; leading axes a stack),
    by the sum-pyramid bound of _morrey_of_array; every level when the
    bound cannot decide."""
    levels = list(range(len(ws)))
    G = a.shape[-1]
    mu = G ** n * 2.0 ** -51 * max(1.0, 1.0 / q) + 2.0 ** -50
    if G ** n < _PRUNE_CELLS or mu > _PRUNE_MU:
        return levels
    rows = a.size // G ** n
    # the even and odd children along each grid axis
    halves = [((slice(None),) * ax + (slice(0, None, 2),),
               (slice(None),) * ax + (slice(1, None, 2),))
              for ax in range(a.ndim - n, a.ndim)]
    sums, b = [np.maximum.reduce(a.reshape(rows, -1), axis=1)], a
    while b.shape[-1] > 1:
        for even, odd in halves:
            b = b[even] + b[odd]
        sums.append(np.maximum.reduce(b.reshape(rows, -1), axis=1))
    keep = set()
    for row in np.array(sums[::-1]).T.tolist():  # level 0 first
        if row[-1] == 0:  # all zero: every candidate is w * 0.0
            keep.add(0)
            continue
        cand = []
        for lev, w, s in zip(levels, ws, row):
            mean = s / (G >> lev) ** n
            if not (_PRUNE_LO <= mean and s <= _PRUNE_HI):
                return levels
            root = pow_inf(mean, 1.0 / q)
            cand.append(w * root)
            if not (_PRUNE_LO <= root <= _PRUNE_HI
                    and _PRUNE_LO <= cand[-1] <= _PRUNE_HI):
                return levels
        low = max(cand) * (1.0 - mu)
        keep.update(lev for lev, c in zip(levels, cand)
                    if c * (1.0 + mu) >= low)
    return sorted(keep)


def _morrey_of_array(a: np.ndarray, q: float, phi: GrowthFunction,
                     n: int = None):
    """sup over dyadic cubes (levels 0..J) of phi(ell) (cube mean of a^q)^{1/q}
    for a nonnegative float64 field a on the grid.

    The grid is the trailing n axes of a (default all of them, giving a
    float); any leading axes form a stack, and the result is then an array
    holding, per row, the float that row alone would give.

    Only the levels that can hold the sup are summed exactly, in numpy's
    order (_block_sum); a sum pyramid over a^q, adding 2^n children per
    level, bounds the rest, and its values never reach the result.  Any
    order of adding m nonnegative floats gives the exact sum times a factor
    in [(1 - u)^(m-1), (1 + u)^(m-1)], u = 2^-53 (N. J. Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, section
    4.2), so the pyramid's block sums and numpy's are within a factor of
    about 1 + 2(m - 1)u of each other, m = c^n <= G^n.  The division by c^n
    is exact while the mean is normal, the root multiplies the gap by 1/q,
    and the root and the product by phi add an ulp or a few each.  So each
    pyramid candidate is within a factor 1 +- mu of the exhaustive float,
    mu = G^n 2^-51 max(1, 1/q) + 2^-50, which leaves at least 2^-40 to
    spare once G^n >= 2^12, enough for the roundings of the bounds too.  A
    level whose upper bound is below a row's largest lower bound loses, in
    that row, to a level that is kept; a level is skipped only when that
    holds in every row, so the max over the kept levels is the exhaustive
    float.  Every level is summed when a row has fewer than 2^12 cells
    (where the pyramid does not pay), when mu > 2^-20, or when a value of a
    nonzero row leaves [2^-1000, 2^1000] (NaN, inf, overflow, subnormal);
    an all-zero row needs level 0 only, the first of its equal candidates.
    The pyramid holds about G^n / 2 floats per row at its finest sum."""
    n = n or a.ndim
    a = a ** q
    G = a.shape[-1]
    cells = tuple(range(a.ndim - n, a.ndim))
    ws = [phi(2.0 ** (-lev)) for lev in range(G.bit_length())]
    # per level: phi(ell) and the largest cube mean of every row, the
    # largest sum over c^n: x -> fl(x / 2^k) is monotone, so bit for bit
    peaks = [(ws[lev],
              _block_sum(a, G >> lev, n).max(axis=cells) / (G >> lev) ** n)
             for lev in _winning_levels(a, q, ws, n)]
    out = np.empty(a.shape[:a.ndim - n])
    for row in np.ndindex(out.shape):
        out[row] = max(w * pow_inf(float(p[row]), 1.0 / q) for w, p in peaks)
    return out if out.ndim else float(out[()])


def _lr(values, r: float) -> float:
    """The ell^r norm of nonnegative values: their max at r = inf, 0.0 for
    none, and inf where the sum or its root overflows."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return 0.0
    if r == INF:
        return float(np.max(a))
    return pow_inf(float(np.sum(a ** r)), 1.0 / r)


def morrey_norm(f: GridFunction, q: float, phi: GrowthFunction) -> float:
    """Generalized Morrey norm: sup_Q phi(ell(Q)) (|Q|^{-1} int_Q |f|^q)^{1/q},
    sup over the dyadic lattice down to single grid cells."""
    if q <= 0:
        raise ValueError("q must be positive")
    return _morrey_of_array(np.abs(f.samples), q, phi)


# ---------------------------------------------------------------------------
# the N/E aggregation shared by function, sequence and starred norms

def level_weight(j: int, s: float) -> float:
    """2^(j s), the weight of level j.  A weight above the float range is
    an error, not inf: inf times a zero level would be NaN."""
    try:
        return 2.0 ** (j * s)
    except OverflowError:
        raise ValueError(f"the level weight 2^(j s) overflows at j = {j},"
                         f" s = {s}") from None


def aggregate(level_fields, params: SpaceParams) -> float:
    """Space norm of nonnegative level fields F_j, given as (j, F_j) pairs
    (dict.items() or a generator, so callers need not hold every level).

    'N': (sum_j 2^{jsr} ||F_j||^r)^{1/r}, the ell^r over levels of Morrey
    norms; 'E': || (sum_j 2^{jsr} F_j^r)^{1/r} ||, the Morrey norm of the
    pointwise ell^r.  r = infinity uses sup semantics."""
    q, r, s, phi = params.q, params.r, params.s, params.phi
    if params.variant == "N":
        return _lr([level_weight(j, s) * _morrey_of_array(a, q, phi)
                    for j, a in level_fields], r)
    agg = None
    for j, a in level_fields:
        cand = level_weight(j, s) * a
        if r == INF:
            agg = cand if agg is None else np.maximum(agg, cand)
        else:
            agg = cand ** r if agg is None else agg + cand ** r
    if agg is None:
        return 0.0
    if r != INF:
        agg = agg ** (1.0 / r)
    return _morrey_of_array(agg, q, phi)


# ---------------------------------------------------------------------------
# function-space norms

def band_norm(fields, params: SpaceParams) -> float:
    """Space norm from (j, |phi_j(D) f|) pairs in bank level order, read
    once.  Unless params are homogeneous, level 0 is theta: a plain Morrey
    term added to the aggregate of the tau levels after it."""
    fields = iter(fields)
    if params.homogeneous:
        return aggregate(fields, params)
    low = _morrey_of_array(next(fields)[1], params.q, params.phi)
    return low + aggregate(fields, params)


def _moduli(split):
    """(j, |b|) per (j, band b); unlike a for loop, map holds no stale band."""
    return map(lambda jb: (jb[0], np.abs(jb[1].samples)), split)


def _check_bank(params: SpaceParams, bank: FilterBank) -> None:
    if params.homogeneous != bank.homogeneous:
        raise ValueError("bank homogeneity does not match params")


def space_norm(f: GridFunction, params: SpaceParams, bank: FilterBank) -> float:
    """N-variant: ||theta(D)f|| + (sum_{j>=1} 2^{jsr} ||tau_j(D)f||^r)^{1/r}.
    E-variant: ||theta(D)f|| + Morrey norm of the pointwise ell^r aggregate.
    Homogeneous mode drops theta and sums j over the full floored range.
    r = infinity uses sup semantics."""
    _check_bank(params, bank)
    return band_norm(_moduli(bands(f, bank)), params)


# ---------------------------------------------------------------------------
# sequence-space norms (exact piecewise-constant arithmetic)

def _cell_fields(lam: CoeffField, cell_level: int):
    """(j, |lambda_j| expanded to the cell lattice at level cell_level) in
    level order, one level at a time."""
    for j in lam.level_list():
        yield j, _expand(np.abs(lam.levels[j]),
                         level_side(cell_level) // level_side(j))


def seq_norm(lam: CoeffField, params: SpaceParams) -> float:
    """Sequence-space norm of the indicator aggregate, exact on the lattice.

    'N' (n-type): (sum_j 2^{jsr} || sum_m lambda_jm chi_Q ||^r)^{1/r}
    'E' (e-type): || (sum_j 2^{jsr} (sum_m |lambda_jm| chi_Q)^r)^{1/r} ||"""
    return aggregate(_cell_fields(lam, lam.max_level), params)


def quark_norm(qlam: QuarkCoeffs, params: SpaceParams) -> float:
    """sup_beta 2^{rho |beta|} seq_norm(lambda^beta)."""
    return _lr([level_weight(sum(beta), qlam.rho) * seq_norm(fld, params)
                for beta, fld in qlam.fields.items()], INF)


# ---------------------------------------------------------------------------
# quasi-triangle inequality probe

def min_triangle_check(f, g, norm_kind: str, params: SpaceParams,
                       bank: FilterBank = None) -> tuple[float, float]:
    """Returns (||f+g||^w, ||f||^w + ||g||^w) with w = min(1,q) for the
    Morrey norm and w = min(1,q,r) for the space norms; the inequality
    lhs <= rhs (up to rounding) is the quasi-triangle property."""
    norm = {"morrey": lambda h: morrey_norm(h, params.q, params.phi),
            "space": lambda h: space_norm(h, params, bank),
            "seq": lambda h: seq_norm(h, params)}.get(norm_kind)
    if norm is None:
        raise ValueError(norm_kind)
    w = min(1.0, params.q) if norm_kind == "morrey" else params.w
    nf, ng, nfg = norm(f), norm(g), norm(f + g)
    return nfg ** w, nf ** w + ng ** w
