"""Growth functions phi and the parameter bookkeeping for the space norms.

A growth function maps a scale t > 0 to a positive weight phi(t).  All class
checks (monotonicity, the decay condition behind the vector-valued maximal
estimates, trace summability) are performed on a finite dyadic scale grid
{2^-J, ..., 2^J}; stability of the answer as the grid deepens is the
computable surrogate for the continuous statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

INF = math.inf

# relative tolerance for monotonicity checks (closed-form double precision)
MONO_TOL = 1e-12
# a sup over the dyadic scale grid counts as finite when it exceeds the sup
# over the trimmed grid by at most this factor
TRIM_STABILITY = 1.25


def dyadic_scales(jmin: int = -10, jmax: int = 10) -> list[float]:
    """Scale grid {2^jmin, ..., 2^jmax}, ascending."""
    return [2.0 ** e for e in range(jmin, jmax + 1)]


def pow_inf(x: float, y: float) -> float:
    """x ** y, and inf where that overflows (a Python float power raises)."""
    try:
        return x ** y
    except OverflowError:
        return INF


class GrowthFunction:
    """phi: (0, inf) -> (0, inf), one of a few closed-form families.

    family 'power'     : phi(t) = t^(n/p)
    family 'powerlog'  : phi(t) = t^(n/p) * log(3 + t)^(-exponent)
    family 'loginv'    : phi(t) = log(2 + 1/t)^(-exponent)
    family 'table'     : values tabulated on dyadic scales t = 2^j
    family 'powershift': phi(t) = base(t) * t^shift   (trace transform)
    family 'powerof'   : phi(t) = base(t)^exponent    (power-identity helper)
    """

    def __init__(self, family: str, n: int = 1, *, p: float = None,
                 exponent: float = None, entries: dict = None,
                 base: "GrowthFunction" = None, shift: float = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family}")
        self.family = family
        self.n = n
        self.p = p
        self.exponent = exponent
        self.base = base
        self.shift = shift
        if entries is not None:
            self.entries = {int(j): float(v) for j, v in dict(entries).items()}
        else:
            self.entries = None
        for name in FAMILIES[family].fields:
            value = getattr(self, name)
            if value is None or not _FIELDS[name].valid(value):
                raise ValueError(f"{family} family needs {_FIELDS[name].need}")

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise ValueError("scale must be positive")
        try:
            v = FAMILIES[self.family].value(self, t)
        except OverflowError:
            v = INF
        if not 0 < v < INF:
            raise ValueError(f"phi({t}) = {v} is not"
                             f" {'finite' if v > 0 else 'positive'}")
        return v

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        d = {"family": self.family, "n": self.n}
        for name in FAMILIES[self.family].fields:
            d[name] = _FIELDS[name].encode(getattr(self, name))
        return d

    def __repr__(self):
        return f"GrowthFunction({self.to_json()})"


def _table_value(phi: GrowthFunction, t: float) -> float:
    j = round(math.log2(t))
    if abs(t - 2.0 ** j) > 1e-9 * t or j not in phi.entries:
        raise ValueError(f"table family not defined at t={t}")
    return phi.entries[j]


class _Family(NamedTuple):
    fields: tuple  # required fields, in JSON key order
    value: Callable  # (phi, t) -> phi(t)


FAMILIES = {
    "power": _Family(("p",), lambda phi, t: t ** (phi.n / phi.p)),
    "powerlog": _Family(("p", "exponent"), lambda phi, t: (
        t ** (phi.n / phi.p) * math.log(3.0 + t) ** (-phi.exponent))),
    "loginv": _Family(("exponent",), lambda phi, t: (
        math.log(2.0 + 1.0 / t) ** (-phi.exponent))),
    "table": _Family(("entries",), _table_value),
    "powershift": _Family(("base", "shift"),
                          lambda phi, t: phi.base(t) * t ** phi.shift),
    "powerof": _Family(("base", "exponent"),
                       lambda phi, t: phi.base(t) ** phi.exponent),
}


class _Field(NamedTuple):
    need: str  # what the constructor demands, for its error message
    valid: Callable  # value -> bool
    encode: Callable  # value -> JSON


def _same(v):
    return v


_FIELDS = {
    "p": _Field("finite p > 0", lambda v: math.isfinite(v) and v > 0, _same),
    "exponent": _Field("a finite exponent", math.isfinite, _same),
    "shift": _Field("a finite shift", math.isfinite, _same),
    "entries": _Field("finite positive entries",
                      lambda e: bool(e) and all(math.isfinite(v) and v > 0
                                                for v in e.values()),
                      lambda e: [[j, v] for j, v in sorted(e.items())]),
    "base": _Field("a base growth function",
                   lambda b: isinstance(b, GrowthFunction),
                   lambda b: b.to_json()),
}


def power(p: float, n: int = 1) -> GrowthFunction:
    return GrowthFunction("power", n, p=p)


def powerlog(p: float, exponent: float, n: int = 1) -> GrowthFunction:
    return GrowthFunction("powerlog", n, p=p, exponent=exponent)


def loginv(exponent: float, n: int = 1) -> GrowthFunction:
    return GrowthFunction("loginv", n, exponent=exponent)


def table(entries: dict, n: int = 1) -> GrowthFunction:
    return GrowthFunction("table", n, entries=entries)


def power_of(phi: GrowthFunction, exponent: float) -> GrowthFunction:
    """phi^exponent as a derived growth function."""
    return GrowthFunction("powerof", phi.n, base=phi, exponent=exponent)


# -- class checks ------------------------------------------------------------

def is_in_Gq(phi: GrowthFunction, q: float, scales: list[float]) -> bool:
    """True iff phi is nondecreasing and phi(t) t^(-n/q) is nonincreasing
    on the scale grid (relative tolerance MONO_TOL)."""
    scales = sorted(scales)
    vals = [phi(t) for t in scales]  # phi raises on a scale t <= 0
    for a, b in zip(vals, vals[1:]):
        if b < a * (1.0 - MONO_TOL):
            return False
    damp = [v * pow_inf(t, -phi.n / q) for v, t in zip(vals, scales)]
    for a, b in zip(damp, damp[1:]):
        if b > a * (1.0 + MONO_TOL):
            return False
    return True


def check_nakai(phi: GrowthFunction,
                scales: list[float]) -> tuple[bool, float, float]:
    """Search epsilon in {2^-k, k=0..10} such that

        sup_{t >= r} t^eps phi(r) / (r^eps phi(t))

    is finite.  On a finite grid every sup is a number; "finite" means the
    sup does not grow when the grid is extended, which we test by comparing
    against the sup over the grid trimmed by one scale at each end.  Returns
    (found, epsilon, C)."""
    scales = sorted(scales)
    if len(scales) < 8:
        raise ValueError("need at least 8 scales")
    vals = [phi(t) for t in scales]

    def double_sup(ts, vs, eps):
        # sup over pairs t >= r; g(t) = t^eps/phi(t) must be quasi-decreasing
        best = 0.0
        g = [t ** eps / v for t, v in zip(ts, vs)]
        run_min = math.inf
        # sup_{t>=r} g(t)/g(r) = max over t of g(t)/min_{r<=t} g(r)
        for gt in g:
            run_min = min(run_min, gt)
            best = max(best, gt / run_min)
        return best

    for k in range(0, 11):
        eps = 2.0 ** (-k)
        c_full = double_sup(scales, vals, eps)
        c_trim = double_sup(scales[1:-1], vals[1:-1], eps)
        if c_full <= c_trim * TRIM_STABILITY:
            return True, eps, c_full
    return False, 0.0, math.inf


# -- space parameters --------------------------------------------------------

@dataclass
class SpaceParams:
    """Parameter tuple (q, r, s, phi, variant, homogeneous, n).

    variant 'N': ell^r over levels of Morrey norms.
    variant 'E': Morrey norm of the pointwise ell^r aggregate.
    """
    q: float
    r: float  # may be math.inf
    s: float
    phi: GrowthFunction
    variant: str = "N"
    homogeneous: bool = False
    n: int = 1

    def __post_init__(self):
        if not (0 < self.q < INF):
            raise ValueError("q must be finite and positive")
        if not self.r > 0:  # also rejects NaN; r = inf is allowed
            raise ValueError("r must be positive")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        if self.variant not in ("N", "E"):
            raise ValueError("variant must be 'N' or 'E'")
        if self.phi.n != self.n:
            raise ValueError("phi dimension does not match params dimension")

    @property
    def m(self) -> float:
        """The N/E exponent: min(1, q) for N, min(1, q, r) for E."""
        return min(1.0, self.q, self.r if self.variant == "E" else 1.0)

    @property
    def w(self) -> float:
        """Exponent of the quasi-triangle inequality for the space norm."""
        return min(1.0, self.q, self.r if self.r != INF else 1.0)

    def with_(self, **kw) -> "SpaceParams":
        return replace(self, **kw)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "r": "inf" if self.r == INF else self.r,
            "s": self.s,
            "phi": self.phi.to_json(),
            "variant": self.variant,
            "homogeneous": self.homogeneous,
            "n": self.n,
        }


def trace_transform(params: SpaceParams) -> SpaceParams:
    """Trace parameters: n-1 dimensions, s* = s - 1/q, phi*(t) = phi(t) t^(-1/q).

    phi* evaluates phi itself, which keeps its own dimension.  The
    E-variant lands in the r = q scale; the N-variant keeps r."""
    if params.n < 2:
        raise ValueError("trace needs n >= 2")
    phi_star = GrowthFunction("powershift", params.n - 1, base=params.phi,
                              shift=-1.0 / params.q)
    r_out = params.q if params.variant == "E" else params.r
    return SpaceParams(q=params.q, r=r_out, s=params.s - 1.0 / params.q,
                       phi=phi_star, variant=params.variant,
                       homogeneous=params.homogeneous, n=params.n - 1)


def check_trace_summability(phi_star: GrowthFunction,
                            scales: list[float]) -> tuple[bool, float]:
    """C = sup_s phi*(s) * sum_{j>=0, 2^j s <= 1} 1/phi*(2^j s) over scales <= 1.

    Finiteness surrogate: the sup must not keep growing as the grid deepens,
    tested by comparing against the grid with the three smallest scales
    dropped (a constant phi* makes the sum grow like the depth and fails)."""
    scales = sorted(t for t in scales if t <= 1.0 + 1e-15)
    if not scales:
        raise ValueError("need scales <= 1")

    def the_sup(ts):
        best = 0.0
        for t in ts:
            total = 0.0
            j = 0
            while t * 2.0 ** j <= 1.0 + 1e-12:
                total += 1.0 / phi_star(t * 2.0 ** j)
                j += 1
            best = max(best, phi_star(t) * total)
        return best

    c_full = the_sup(scales)
    c_trim = the_sup(scales[3:]) if len(scales) > 5 else c_full
    return c_full <= c_trim * TRIM_STABILITY, c_full
