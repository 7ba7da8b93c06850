import itertools
import json
import math

import pytest

from morreykit.growth import (FAMILIES, GrowthFunction, SpaceParams, check_nakai,
                              check_trace_summability, dyadic_scales, is_in_Gq,
                              loginv, power, power_of, powerlog, table,
                              trace_transform)

INF = math.inf


def test_power_evaluator():
    phi = power(2.0, n=1)
    assert phi(4.0) == pytest.approx(2.0)
    phi2 = power(2.0, n=2)
    assert phi2(4.0) == pytest.approx(4.0)  # t^{n/p} = t


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        power(2.0)(0.0)
    with pytest.raises(ValueError):
        power(2.0)(-1.0)


def test_table_only_defined_on_dyadic_scales():
    phi = table({-1: 0.5, 0: 1.0}, n=1)
    assert phi(0.5) == 0.5
    assert phi(1.0) == 1.0
    with pytest.raises(ValueError):
        phi(0.3)
    with pytest.raises(ValueError):
        phi(0.25)  # dyadic but not tabulated


def test_constructor_validation():
    with pytest.raises(ValueError):
        power(-1.0)
    with pytest.raises(ValueError):
        GrowthFunction("table", 1, entries={})
    with pytest.raises(ValueError):
        GrowthFunction("power", 0, p=2.0)


def test_power_of():
    phi = power(2.0, n=1)
    sq = power_of(phi, 2.0)
    for t in (0.25, 0.5, 1.0, 2.0):
        assert sq(t) == pytest.approx(phi(t) ** 2)


def test_is_in_Gq_power():
    scales = dyadic_scales(-8, 8)
    # q <= p: t^{n/p} nondecreasing, t^{n/p - n/q} nonincreasing
    assert is_in_Gq(power(2.0), 1.0, scales)
    assert is_in_Gq(power(2.0), 2.0, scales)
    # q > p: the damped function increases
    assert not is_in_Gq(power(2.0), 4.0, scales)


def test_is_in_Gq_powerlog_borderline():
    # phi(t) = t / log(3+t), n = 1, q = 1
    assert is_in_Gq(powerlog(1.0, 1.0, n=1), 1.0, dyadic_scales(-8, 8))


def test_is_in_Gq_rejects_bad_scale():
    with pytest.raises(ValueError):
        is_in_Gq(power(2.0), 1.0, [0.0, 1.0])


def test_check_nakai_power():
    ok, eps, C = check_nakai(power(2.0), dyadic_scales())
    assert ok
    assert C == pytest.approx(1.0, abs=1e-12)


def test_check_nakai_constant_phi():
    # on the finite grid the double sup is 2^{(span) eps}; the search settles
    # on the eps whose trimmed-grid comparison stabilizes
    phi = table({j: 1.0 for j in range(-10, 11)}, n=1)
    ok, eps, C = check_nakai(phi, dyadic_scales())
    assert ok and C >= 1.0
    assert C == pytest.approx(2.0 ** (20 * eps))


def test_check_nakai_needs_enough_scales():
    with pytest.raises(ValueError):
        check_nakai(power(2.0), dyadic_scales(-2, 2))
    with pytest.raises(ValueError):
        check_nakai(power(2.0), [])


def test_nakai_constant_stable_in_depth():
    # for Power(p), q<=p the constant should not depend on the grid depth
    _, _, c8 = check_nakai(power(4.0), dyadic_scales(-8, 8))
    _, _, c12 = check_nakai(power(4.0), dyadic_scales(-12, 12))
    assert abs(c8 - c12) <= 0.01 * max(c8, c12)


def test_trace_transform_arithmetic():
    params = SpaceParams(q=1.0, r=2.0, s=2.0, phi=power(4.0, n=2),
                         variant="N", n=2)
    out = trace_transform(params)
    assert out.n == 1
    assert out.s == pytest.approx(1.0)
    assert out.r == 2.0  # N keeps r
    # phi*(t) = t^{2/4} * t^{-1} = t^{-1/2}
    for t in (0.25, 0.5, 1.0):
        assert out.phi(t) == pytest.approx(t ** (-0.5))


def test_trace_transform_E_variant_lands_in_q_scale():
    params = SpaceParams(q=1.5, r=INF, s=2.0, phi=power(2.0, n=2),
                         variant="E", n=2)
    assert trace_transform(params).r == 1.5


def test_trace_transform_needs_n_ge_2():
    params = SpaceParams(q=1.0, r=2.0, s=2.0, phi=power(2.0), variant="N", n=1)
    with pytest.raises(ValueError):
        trace_transform(params)


def test_trace_transform_involution_identity():
    # (s*) + 1/q = s and phi*(t) t^{1/q} = phi(t) exactly
    params = SpaceParams(q=0.75, r=2.0, s=2.0, phi=power(2.0, n=2),
                         variant="N", n=2)
    out = trace_transform(params)
    assert out.s + 1.0 / params.q == pytest.approx(params.s)
    for t in (0.125, 0.5, 1.0):
        assert out.phi(t) * t ** (1.0 / params.q) == pytest.approx(params.phi(t))


def test_check_trace_summability_geometric():
    # increasing phi*(t) = t^{1/2}: the chain sum is geometric
    phi = table({j: 2.0 ** (j / 2.0) for j in range(-12, 1)}, n=1)
    ok, C = check_trace_summability(phi, dyadic_scales(-12, 0))
    assert ok
    # closed-form sup: sum_{k>=0} 2^{-k/2} = 1/(1 - 2^{-1/2})
    assert C <= 1.0 / (1.0 - 2.0 ** -0.5) + 1e-9


def test_check_trace_summability_constant_diverges():
    phi = table({j: 1.0 for j in range(-12, 1)}, n=1)
    ok, C = check_trace_summability(phi, dyadic_scales(-12, 0))
    assert not ok


def test_space_params_accessors():
    p = SpaceParams(q=0.5, r=0.25, s=0.0, phi=power(1.0, n=2), variant="E", n=2)
    assert p.m == 0.25  # min(1, q, r)
    assert p.with_(variant="N").m == 0.5
    assert p.w == pytest.approx(0.25)
    rinf = p.with_(r=INF)
    assert rinf.m == 0.5
    assert rinf.w == pytest.approx(0.5)
    assert p.with_(q=2.0, r=INF).m == 1.0


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(q=INF, r=2.0, s=0.0, phi=power(2.0), variant="N", n=1)
    with pytest.raises(ValueError):
        SpaceParams(q=1.0, r=0.0, s=0.0, phi=power(2.0), variant="N", n=1)
    with pytest.raises(ValueError):
        SpaceParams(q=1.0, r=2.0, s=0.0, phi=power(2.0), variant="X", n=1)
    with pytest.raises(ValueError):
        SpaceParams(q=1.0, r=2.0, s=0.0, phi=power(2.0, n=2), variant="N", n=1)
    for kw in ({"r": math.nan}, {"r": -INF}, {"s": math.nan}, {"s": INF},
               {"q": math.nan}):
        with pytest.raises(ValueError):
            SpaceParams(**{"q": 1.0, "r": 2.0, "s": 0.0, "phi": power(2.0),
                           "variant": "N", "n": 1, **kw})


def family_examples(n):
    """One growth function per family, keyed by family name."""
    return {
        "power": power(2.0, n),
        "powerlog": powerlog(2.0, 1.5, n),
        "loginv": loginv(0.5, n),
        "table": table({-2: 0.1, -1: 0.3, 0: 1.0}, n),
        "powershift": GrowthFunction("powershift", n, base=power(4.0, n),
                                     shift=-0.5),
        "powerof": power_of(power(2.0, n), 2.0),
    }


# to_json of family_examples(2), written out
FAMILY_JSON = {
    "power": {"family": "power", "n": 2, "p": 2.0},
    "powerlog": {"family": "powerlog", "n": 2, "p": 2.0, "exponent": 1.5},
    "loginv": {"family": "loginv", "n": 2, "exponent": 0.5},
    "table": {"family": "table", "n": 2,
              "entries": [[-2, 0.1], [-1, 0.3], [0, 1.0]]},
    "powershift": {"family": "powershift", "n": 2,
                   "base": {"family": "power", "n": 2, "p": 4.0},
                   "shift": -0.5},
    "powerof": {"family": "powerof", "n": 2,
                "base": {"family": "power", "n": 2, "p": 2.0},
                "exponent": 2.0},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_trace_transform_relabels_every_family(family):
    # phi* evaluates phi itself, which keeps its own dimension
    phi = family_examples(2)[family]
    star = trace_transform(SpaceParams(q=1.0, r=2.0, s=2.0, phi=phi,
                                       variant="N", n=2)).phi
    assert (star.n, star.family) == (1, "powershift")
    assert star.base is phi
    for t in (0.25, 0.5, 1.0):
        assert star.base(t) == phi(t)
        assert star(t) == phi(t) * t ** -1.0
    assert json.loads(json.dumps(star.to_json())) == {
        "family": "powershift", "n": 1, "base": FAMILY_JSON[family],
        "shift": -1.0}


@pytest.mark.parametrize("kw", [
    {"family": "power", "p": math.nan},
    {"family": "power", "p": INF},
    {"family": "powerlog", "p": 0.0, "exponent": 1.0},
    {"family": "powerlog", "p": 2.0, "exponent": math.nan},
    {"family": "loginv", "exponent": -INF},
    {"family": "table", "entries": {0: 1.0, 1: math.nan}},
    {"family": "table", "entries": {0: 0.0}},
    {"family": "powershift", "base": power(2.0), "shift": math.nan},
    {"family": "powerof", "base": "power", "exponent": 1.0},
    {"family": "bogus"},
])
def test_constructor_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        GrowthFunction(kw.pop("family"), 1, **kw)


# ---------------------------------------------------------------------------
# the N/E rule, computed once by SpaceParams: the per-call conditionals it
# replaced, kept as references and compared bit for bit

def _peetre_threshold_by_variant(p):
    if p.variant == "N":
        return p.n / min(1.0, p.q) + p.n
    return p.n / min(1.0, p.q, p.r) + p.n


def _trace_threshold_by_variant(p):
    w = min(1.0, p.q) if p.variant == "N" else min(1.0, p.q, p.r)
    return 1.0 / p.q + (p.n - 1) * (1.0 / w - 1.0)


def _relabelled(phi, n):
    """The former growth._with_dim: phi's family in dimension n, with a
    power exponent n_phi/p kept as n / p', p' = p n / n_phi."""
    kw = {name: getattr(phi, name) for name in FAMILIES[phi.family].fields}
    if "p" in kw:
        kw["p"] = phi.p * n / phi.n
    if "base" in kw:
        kw["base"] = _relabelled(phi.base, n)
    return GrowthFunction(phi.family, n, **kw)


def test_variant_rules_match_space_params():
    """peetre_threshold and TraceProblem's threshold and phi* against the
    conditionals they replaced.  phi* is phi(t) t^(-1/q) bit for bit; the former phi* relabelled phi to n - 1
    dimensions, which rounds n/p differently for some p once n = 3 (p = 0.7:
    (2 / (0.7 * 2 / 3)) != 3 / 0.7), and only there may the two differ."""
    from morreykit.trace import TraceProblem
    from morreykit.verify import peetre_threshold
    scales = dyadic_scales(-12, 0)
    traced = moved = 0
    for n, variant, q, r, s in itertools.product(
            (2, 3), "NE", (0.25, 0.5, 0.7, 0.75, 1.0, 1.5, 2.0),
            (0.3, 0.5, 1.0, 2.0, INF), (0.0, 1.3, 2.0, 3.7, 6.0)):
        for phi in (power(q, n), powerlog(q, 1.0, n)):
            p = SpaceParams(q=q, r=r, s=s, phi=phi, variant=variant, n=n)
            assert peetre_threshold(p).hex() == \
                _peetre_threshold_by_variant(p).hex()
            threshold = _trace_threshold_by_variant(p)
            if not s > threshold + 1e-12:
                with pytest.raises(ValueError, match="trace threshold"):
                    TraceProblem(p)
                continue
            tp = TraceProblem(p)
            traced += 1
            assert tp.threshold.hex() == threshold.hex()
            star = tp.star.phi
            old = GrowthFunction("powershift", n - 1,
                                 base=_relabelled(phi, n - 1), shift=-1.0 / q)
            exact = (n - 1) / (q * (n - 1) / n) == n / q
            assert exact or n == 3
            moved += not exact
            for t in scales:
                assert star(t) == phi(t) * t ** (-1.0 / q)
                if exact:
                    assert star(t).hex() == old(t).hex()
                else:
                    assert star(t) == pytest.approx(old(t), rel=1e-14)
            if exact:
                _, want = check_trace_summability(old, scales)
                assert tp.summability_constant.hex() == want.hex()
    assert traced > 100 and moved > 0
