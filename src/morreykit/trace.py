"""Trace and extension operators on coefficient fields and grid functions.

The trace of a coefficient field keeps, per hyperplane cube Q' at level j,
the coefficients of the source cubes whose closure touches the hyperplane
x_n = 0 (last index 0 or 2^j - 1).  The extension plants a hyperplane field
on the last-index-0 slab, so trace(extend(mu)) = mu exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .growth import (SpaceParams, check_trace_summability, dyadic_scales,
                     pow_inf, trace_transform)
from .gridfn import (GridFunction, RychkovPair, _block_mean, _expand,
                     level_side)
from .norms import CoeffField, _cell_fields, _lr, level_weight, seq_norm

INF = math.inf


@dataclass
class TraceProblem:
    """Validated source/target parameter pair for the trace operator.

    Raises unless
      * n >= 2,
      * s > 1/q + (n-1) (1/min(1,q) - 1)        (N-variant), resp.
        s > 1/q + (n-1) (1/min(1,q,r) - 1)      (E-variant),
      * phi*(t) = phi(t) t^{-1/q} is summable along dyadic chains:
        sup_s phi*(s) sum_{2^j s <= 1} 1/phi*(2^j s) stays bounded."""
    params: SpaceParams
    star: SpaceParams = field(init=False)
    threshold: float = field(init=False)
    summability_constant: float = field(init=False)

    def __post_init__(self):
        p = self.params
        if p.n < 2:
            raise ValueError("trace needs n >= 2")
        self.threshold = 1.0 / p.q + (p.n - 1) * (1.0 / p.m - 1.0)
        if not p.s > self.threshold + 1e-12:
            raise ValueError(
                f"s = {p.s} must exceed the trace threshold {self.threshold}")
        self.star = trace_transform(p)
        ok, C = check_trace_summability(self.star.phi, dyadic_scales(-12, 0))
        if not ok:
            raise ValueError("phi* fails the dyadic summability condition")
        self.summability_constant = C


# ---------------------------------------------------------------------------
# coefficient-level trace / extension

def _touching_slices(j: int):
    """Last-index values of level-j cubes whose closure meets {x_n = 0}."""
    return tuple(sorted({0, level_side(j) - 1}))


def trace_coeff(lam: CoeffField, problem: TraceProblem) -> CoeffField:
    """Collapse the last index: lam'_{j m'} = sum over touching slices of
    lam_{j (m', m_n)}."""
    n = lam.n
    if n != problem.params.n:
        raise ValueError("field dimension does not match the problem")
    out = {}
    for j in lam.level_list():
        v = lam.levels[j]
        acc = None
        for mn in _touching_slices(j):
            sl = v[..., mn]
            acc = sl.copy() if acc is None else acc + sl
        out[j] = acc
    return CoeffField(n - 1, out)


def extend_coeff(mu: CoeffField, problem: TraceProblem) -> CoeffField:
    """Plant the hyperplane field on the m_n = 0 slab of the full lattice."""
    n = problem.params.n
    if mu.n != n - 1:
        raise ValueError("field dimension does not match the trace lattice")
    out = {}
    for j in mu.level_list():
        arr = np.zeros((level_side(j),) * n, dtype=np.complex128)
        arr[..., 0] = mu.levels[j]
        out[j] = arr
    return CoeffField(n, out)


# ---------------------------------------------------------------------------
# empirical trace constants

def finite_norm(lam: CoeffField, params: SpaceParams) -> float:
    """seq_norm(lam, params) as the denominator of a bound; a norm that
    overflows is an error, as dividing by it would read as a bound of 0."""
    norm = seq_norm(lam, params)
    if not math.isfinite(norm):
        raise ValueError(f"the coefficient norm is {norm}: no bound can be"
                         " formed")
    return norm


def _bound(lam: CoeffField, problem: TraceProblem, peaks: list,
           norm: float | None) -> float:
    """sup over j0 of phi*(2^-j0) peaks[j0]^(1/q), over lam's source norm."""
    denom = finite_norm(lam, problem.params) if norm is None else norm
    if denom == 0:
        return 0.0
    star = problem.star
    return _lr([star.phi(2.0 ** (-j0)) * pow_inf(peak, 1.0 / star.q)
                for j0, peak in enumerate(peaks)], INF) / denom


def trace_bound_I(lam: CoeffField, problem: TraceProblem,
                  norm: float | None = None) -> float:
    """sup over hyperplane cubes Q' of

        phi*(l) ( |Q'|^{-1} int_{Q'} sum_{j >= j_{Q'}} 2^{j s* q} S_j^q )^{1/q}
        -----------------------------------------------------------------
                       || lam ||  (source sequence norm)

    with S_j the level-j trace indicator aggregate.  Finite constants here
    witness the fine-scale half of the trace estimate.  norm, if given, is
    finite_norm(lam, problem.params), taken once for both bounds."""
    star = problem.star
    cl = lam.max_level
    side = level_side(cl)
    # cumulative-from-above level sums of 2^{j s q} S_j^q on the cell lattice
    terms = [(j, (level_weight(j, star.s) * S) ** star.q)
             for j, S in _cell_fields(trace_coeff(lam, problem), cl)]
    peaks = []
    for j0 in range(0, cl + 1):
        acc = np.zeros((side,) * star.n)
        for j, T in terms:
            if j >= j0:
                acc += T
        peaks.append(float(_block_mean(acc, side >> j0).max()))
    return _bound(lam, problem, peaks, norm)


def trace_bound_II(lam: CoeffField, problem: TraceProblem,
                   norm: float | None = None) -> float:
    """sup over hyperplane cubes Q' of

        phi*(l) ( sum_{j=0}^{j_{Q'}} 2^{j s* q} |lam_{j (m'(j), 0)}|^q )^{1/q}
        ------------------------------------------------------------------
                       || lam ||  (source sequence norm)

    where m'(j) runs over the ancestors of Q': the coarse-scale chain of
    hyperplane-adjacent coefficients; norm as in trace_bound_I."""
    star = problem.star
    cl = lam.max_level
    # chain sums on the finest hyperplane lattice: at cell y, the ancestor
    # coefficient at level j is lam[j][(y >> (cl - j), 0)]
    acc = np.zeros((level_side(cl),) * star.n)
    peaks = []
    for j0 in range(0, cl + 1):
        if j0 in lam.levels:
            expanded = _expand(np.abs(lam.levels[j0][..., 0]), 1 << (cl - j0))
            acc += (level_weight(j0, star.s) * expanded) ** star.q
        peaks.append(float(acc.max()))
    return _bound(lam, problem, peaks, norm)


def extension_bound(mu: CoeffField, problem: TraceProblem) -> float:
    """|| extend(mu) ||_source / || mu ||_trace."""
    denom = finite_norm(mu, problem.star)
    if denom == 0:
        return 0.0
    return seq_norm(extend_coeff(mu, problem), problem.params) / denom


# ---------------------------------------------------------------------------
# function-level trace

def trace_function(f: GridFunction, pair: RychkovPair):
    """Restrict f (n = 2) to the line x_2 = 0 through its atomic split.

    Returns (restriction of the atom sum, direct restriction); the two
    agree to FFT precision because the atom sum reproduces f exactly."""
    from .decomp import round_trip
    if f.n != 2:
        raise ValueError("function trace is implemented for n = 2")
    atom_sum = round_trip(f, pair)[1]
    return (GridFunction(1, atom_sum.samples[:, 0].copy()),
            GridFunction(1, f.samples[:, 0].copy()))
