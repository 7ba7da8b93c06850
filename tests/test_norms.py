import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreykit.dyadic import DyadicCube, cube_mask
from morreykit.growth import (FAMILIES, GrowthFunction, SpaceParams, loginv,
                              power, power_of, powerlog, table)
from morreykit import norms
from morreykit.gridfn import (GridFunction, _block_sum, bands, kinf_grid,
                              make_bank, preset_function, random_bandlimited)
from morreykit.norms import (CoeffField, QuarkCoeffs, _cell_fields,
                             _morrey_of_array, aggregate, band_norm,
                             min_triangle_check, morrey_norm, quark_norm,
                             seq_norm, space_norm)
from morreykit.verify import coeff_corpus

INF = math.inf


@pytest.mark.parametrize("n,G", [(1, 4), (1, 256), (2, 4), (2, 32), (3, 8)])
def test_morrey_of_array_stack_rows(n, G):
    # a stack gives, per row, the float that row alone gives
    rng = np.random.default_rng(G)
    a = rng.lognormal(0.0, 2.0, (2, 3) + (G,) * n)
    phi = power(4.0, n)
    for q in (0.5, 2.0):
        alone = _morrey_of_array(a[1, 2], q, phi)
        assert type(alone) is float
        stacked = _morrey_of_array(a, q, phi, n)
        assert stacked.shape == (2, 3)
        assert [float(x) for x in stacked.ravel()] == \
            [_morrey_of_array(x, q, phi) for x in a.reshape((6,) + a.shape[2:])]


def test_morrey_norm_of_cube_indicator():
    # ||chi_Q|| = phi(ell) when phi is in G_q
    G = 64
    phi = power(2.0, n=1)
    for j, m in ((0, (0,)), (2, (3,)), (4, (11,))):
        Q = DyadicCube(j, m)
        chi = GridFunction(1, cube_mask(Q, G).astype(np.complex128))
        assert morrey_norm(chi, 1.0, phi) == pytest.approx(phi(Q.side))


def test_morrey_norm_rejects_bad_q():
    f = GridFunction(1, np.ones(8))
    with pytest.raises(ValueError):
        morrey_norm(f, 0.0, power(2.0))


def test_morrey_power_identity_single():
    f = random_bandlimited(1, 64, 8, seed=0)
    a = GridFunction(1, np.abs(f.samples))
    phi = power(2.0, n=1)
    u = 2.0
    lhs = morrey_norm(GridFunction(1, a.samples ** u), 1.0, phi)
    rhs = morrey_norm(a, u, power_of(phi, 1.0 / u)) ** u
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_morrey_homogeneity():
    f = random_bandlimited(1, 64, 8, seed=1)
    for q in (0.5, 1.0, 2.0):
        n1 = morrey_norm(f, q, power(2.0))
        n3 = morrey_norm(GridFunction(1, 3.0 * f.samples), q,
                         power(2.0))
        assert n3 == pytest.approx(3.0 * n1, rel=1e-12)


# float.hex of the Morrey sup on fixed inputs, as the per-level
# _split_blocks(...).mean() computed it before the block sums were written out
MORREY_PINS = {
    (1, 4096): ("0x1.8b7cb18fd4ecfp+4", "0x1.aacb2605fd83cp+4",
                "0x1.f99b476c7b2c6p+4"),
    (2, 256): ("0x1.497576e0e1b83p+5", "0x1.63400eaf72ccdp+5",
               "0x1.a4ccc2d92c854p+5"),
    (3, 16): ("0x1.6c21980847170p+2", "0x1.87bd413fdddd4p+2",
              "0x1.ce2332c7663d7p+2"),
}


@pytest.mark.parametrize("n,G", sorted(MORREY_PINS))
def test_morrey_norm_pinned(n, G):
    f = random_bandlimited(n, G, G // 8, seed=[G, n])
    assert tuple(morrey_norm(f, q, power(2.5, n)).hex()
                 for q in (0.5, 1.0, 2.5)) == MORREY_PINS[n, G]


# (n, G, bank kind, q, variant, r, homogeneous) -> float.hex of space_norm
SPACE_PINS = {
    (2, 256, "partition", 1.0, "N", 2.0, False): "0x1.ea72718956ea7p+10",
    (2, 256, "partition", 0.75, "E", 0.5, False): "0x1.2054659185efcp+13",
    (2, 256, "bump", 2.5, "N", INF, False): "0x1.0d084bc4d8016p+11",
    (2, 256, "bump", 1.0, "E", 2.0, False): "0x1.0c3de91747bb1p+11",
    (2, 256, "partition", 1.0, "E", 2.0, True): "0x1.ff1d9990b9ce9p+10",
    (3, 16, "partition", 0.75, "N", 0.5, False): "0x1.04c4ba343f99ap+5",
    (3, 16, "bump", 1.0, "E", INF, False): "0x1.0e8679ae9ffdbp+5",
    (3, 16, "partition", 2.5, "N", 2.0, True): "0x1.f338aba340d93p+4",
}


@pytest.mark.parametrize("case", sorted(SPACE_PINS, key=repr))
def test_space_norm_pinned(case):
    n, G, kind, q, variant, r, hom = case
    f = random_bandlimited(n, G, G // 4, seed=[n, G], zero_mean=hom)
    params = SpaceParams(q=q, r=r, s=1.0, phi=power(max(q, 2.0), n),
                         variant=variant, homogeneous=hom, n=n)
    bank = make_bank(n, G, kind, homogeneous=hom)
    assert space_norm(f, params, bank).hex() == SPACE_PINS[case]


def test_space_norm_zero():
    G = 32
    bank = make_bank(1, G)
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    assert space_norm(GridFunction(1, np.zeros(G)), params, bank) == 0.0


def test_space_norm_bank_mismatch():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0),
                         variant="N", homogeneous=True, n=1)
    with pytest.raises(ValueError):
        space_norm(random_bandlimited(1, 32, 4, seed=0), params,
                   make_bank(1, 32))


def test_space_norm_r_inf_vs_finite():
    # sup over levels is dominated by any finite ell^r sum
    f = random_bandlimited(1, 64, 12, seed=2)
    bank = make_bank(1, 64)
    base = dict(q=1.0, s=1.0, phi=power(2.0), variant="N", n=1)
    ninf = space_norm(f, SpaceParams(r=INF, **base), bank)
    n2 = space_norm(f, SpaceParams(r=2.0, **base), bank)
    assert ninf <= n2 + 1e-12


def test_space_norm_variants_positive():
    f = random_bandlimited(2, 32, 6, seed=3)
    bank = make_bank(2, 32)
    for variant in ("N", "E"):
        for r in (1.0, 2.0, INF):
            params = SpaceParams(q=1.5, r=r, s=0.5, phi=power(2.0, 2),
                                 variant=variant, n=2)
            assert space_norm(f, params, bank) > 0


def _lr_by_aggregate(terms, r):
    """aggregate's N-variant ell^r over levels before norms._lr."""
    if r == INF:
        return max(terms) if terms else 0.0
    return float(np.sum(np.array(terms) ** r)) ** (1.0 / r)


def _lr_by_hardy(a, r):
    """verify's _lr_norm before norms._lr."""
    if r == INF:
        return float(np.max(a))
    return float(np.sum(a ** r)) ** (1.0 / r)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, sys.float_info.max), max_size=12),
       st.sampled_from([0.25, 0.5, 1.0, 2.0, INF]))
def test_lr_matches_the_expressions_it_replaced(values, r):
    # bit for bit wherever the old expressions give a float; where the root
    # of a finite sum overflows, a Python float's power raised, and _lr
    # gives inf
    with np.errstate(over="ignore"):
        got = norms._lr(values, r)
        try:
            want = _lr_by_aggregate(values, r)
        except OverflowError:
            assert got == INF
            return
        assert got.hex() == want.hex()
        if values:
            assert got.hex() == _lr_by_hardy(np.array(values), r).hex()


def test_aggregate_matches_space_and_seq_norm():
    # one N/E core: raw band moduli in level order (theta first unless
    # homogeneous) give space_norm through band_norm, and the lattice cell
    # fields give seq_norm through aggregate, bit for bit
    G = 64
    f = random_bandlimited(1, G, 12, seed=4)
    lam = next(coeff_corpus(1, 5, 1, seed=4, floor=-2))
    for hom in (False, True):
        bank = make_bank(1, G, homogeneous=hom)
        fields = {j: np.abs(b.samples) for j, b in bands(f, bank)}
        for variant in ("N", "E"):
            for r in (0.5, 2.0, INF):
                params = SpaceParams(q=1.0, r=r, s=1.0, phi=power(2.0),
                                     variant=variant, homogeneous=hom, n=1)
                agg = band_norm(fields.items(), params)
                assert agg == space_norm(f, params, bank)
                cells = _cell_fields(lam, lam.max_level)
                assert aggregate(cells, params) == seq_norm(lam, params)


def test_space_norm_matches_per_band_spectrum():
    # bands and space_norm take one unscaled spectrum and transform only the
    # live lines; the reference takes f.spectrum() per band and ifftn's the
    # whole grid.  Every level with a nonzero window keeps its bytes; a zero
    # window gives +0.0 zeros, where the reference holds the signed zeros of
    # ifftn(0 * spectrum)
    for n, G in ((1, 64), (2, 32), (2, 256), (3, 16)):
        for f in (random_bandlimited(n, G, G // 4, seed=5),
                  preset_function("gaussian", n, G)):
            for kind in ("partition", "bump"):
                for hom in (False, True):
                    _check_split(f, make_bank(n, G, kind, homogeneous=hom))


def _check_split(f, bank):
    n, hom = f.n, bank.homogeneous
    index = kinf_grid(n, bank.G).astype(np.intp)

    def per_band(j):
        return GridFunction.from_spectrum(
            n, bank.profile(j)[index] * f.spectrum())

    for levels in (None, bank.tau_levels()):
        split = list(bands(f, bank, levels))
        assert [j for j, _ in split] == list(
            bank.levels() if levels is None else levels)
        for j, b in split:
            want = per_band(j).samples
            if bank.profiles[j].any():
                assert b.samples.tobytes() == want.tobytes()
            else:
                assert b.samples.tobytes() == np.zeros_like(want).tobytes()
                assert np.array_equal(b.samples, want)
    fields = {j: np.abs(per_band(j).samples)
              for j in bank.levels() if hom or j >= 1}
    for variant in ("N", "E"):
        for r in (0.5, 2.0, INF):
            params = SpaceParams(q=1.0, r=r, s=0.5, phi=power(2.0, n),
                                 variant=variant, homogeneous=hom, n=n)
            want = aggregate(fields.items(), params)
            if not hom:
                want = morrey_norm(per_band(0), 1.0, params.phi) + want
            assert space_norm(f, params, bank) == want


def _phi_of_every_family(p, e, n, levels=8):
    """{family: phi} for every growth family, built from p and e."""
    phis = {
        "power": power(p, n),
        "powerlog": powerlog(p, e, n),
        "loginv": loginv(e, n),
        # every cube side 2^-lev, lev = 0..levels-1, is a table scale
        "table": table({-lev: 2.0 ** (-lev * n / p) * (1 + lev) ** e
                        for lev in range(levels)}, n),
        "powershift": GrowthFunction("powershift", n, base=power(p, n),
                                     shift=-e),
        "powerof": power_of(power(p, n), e),
    }
    assert sorted(phis) == sorted(FAMILIES)
    return phis


_P = st.sampled_from([0.5, 1.0, 2.0, 4.0])
_E = st.sampled_from([-1.0, 0.5, 1.5])


@st.composite
def _space_cases(draw):
    """(f, params, bank) over n in {1, 2}, G = 16..128, both bank kinds,
    homogeneous or not, and phi drawn from every growth family."""
    n = draw(st.sampled_from([1, 2]))
    G = draw(st.sampled_from([16, 32, 64, 128]))
    hom = draw(st.booleans())
    phis = _phi_of_every_family(draw(_P), draw(_E), n)
    params = SpaceParams(q=draw(st.sampled_from([0.5, 1.0, 2.0])),
                         r=draw(st.sampled_from([0.5, 2.0, INF])),
                         s=draw(st.sampled_from([-0.5, 0.0, 1.5])),
                         phi=phis[draw(st.sampled_from(sorted(FAMILIES)))],
                         variant=draw(st.sampled_from(["N", "E"])),
                         homogeneous=hom, n=n)
    kmax = draw(st.sampled_from([2, G // 4, G // 2]))
    f = random_bandlimited(n, G, kmax, seed=draw(st.integers(0, 2 ** 16)),
                           zero_mean=hom)
    bank = make_bank(n, G, draw(st.sampled_from(["partition", "bump"])), hom)
    return f, params, bank


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_space_cases(), st.sampled_from([-1.0, 1j, -1j]))
def test_space_norm_unit_modulus_invariance(case, c):
    # |c f| = |f| sample by sample: the FFT of c f is c times that of f
    # up to the signs of zeros, and every band modulus is the same float
    f, params, bank = case
    assert space_norm(GridFunction(f.n, c * f.samples), params, bank) == \
        space_norm(f, params, bank)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_space_cases(), st.sampled_from([2.0, 0.5]),
       st.sampled_from([1.0, -1.0, 1j, -1j]))
def test_space_norm_power_of_two_homogeneity(case, c, unit):
    # the band moduli scale exactly, but a^q and the ell^r root round
    # differently once scaled: equal only to within an ulp or so
    f, params, bank = case
    want = c * space_norm(f, params, bank)
    got = space_norm(GridFunction(f.n, c * unit * f.samples), params, bank)
    assert abs(got - want) <= 1e-14 * want


@st.composite
def _morrey_cases(draw):
    """(f, q, phi) over n in {1, 2}, G = 16..128 and phi drawn from every
    growth family."""
    n = draw(st.sampled_from([1, 2]))
    G = draw(st.sampled_from([16, 32, 64, 128]))
    phis = _phi_of_every_family(draw(_P), draw(_E), n)
    f = random_bandlimited(n, G, draw(st.sampled_from([2, G // 4, G // 2])),
                           seed=draw(st.integers(0, 2 ** 16)))
    return (f, draw(st.sampled_from([0.5, 1.0, 2.0])),
            phis[draw(st.sampled_from(sorted(FAMILIES)))])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_morrey_cases(), st.sampled_from([-1.0, 1j, -1j]))
def test_morrey_norm_unit_modulus_invariance(case, c):
    # |c f| = |f| sample by sample, so every cube sum is the same float
    f, q, phi = case
    assert morrey_norm(GridFunction(f.n, c * f.samples), q, phi) == \
        morrey_norm(f, q, phi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_morrey_cases(), st.data())
def test_morrey_norm_half_period_shift(case, data):
    # a shift by G/2 on some axes maps every cube of a level j >= 1 onto
    # one of the same level, but level 0 sums the whole grid in another
    # order: the norms agree to an ulp or so, not bit for bit
    f, q, phi = case
    shift = data.draw(st.lists(st.sampled_from([0, f.G // 2]), min_size=f.n,
                               max_size=f.n).filter(any))
    g = GridFunction(f.n, np.roll(f.samples, shift, axis=tuple(range(f.n))))
    want = morrey_norm(f, q, phi)
    assert abs(morrey_norm(g, q, phi) - want) <= 1e-14 * want


def _exhaustive_morrey(a, q, phi, n=None):
    """The Morrey sup with every level summed exactly: _morrey_of_array
    before it pruned levels, the reference of the pruned one."""
    n = n or a.ndim
    a = a ** q
    G = a.shape[-1]
    cells = tuple(range(a.ndim - n, a.ndim))
    peaks = [(phi(2.0 ** (-lev)),
              _block_sum(a, G >> lev, n).max(axis=cells) / (G >> lev) ** n)
             for lev in range(G.bit_length())]
    out = np.empty(a.shape[:a.ndim - n])
    for row in np.ndindex(out.shape):
        out[row] = max(w * float(peak[row]) ** (1.0 / q) for w, peak in peaks)
    return out if out.ndim else float(out[()])


# grids of 2^12..2^16 cells, where _morrey_of_array prunes levels
_PRUNED_GRIDS = [(1, 1 << b) for b in range(12, 17)] + [
    (2, 64), (2, 128), (2, 256), (3, 16), (3, 32)]
# row kinds: a lognormal field (a wider spread puts the winner on a finer
# level), with a planted dyadic cube, and the edge rows
_ROWS = ["lognormal", "cube", "zero", "subnormal", "huge", "inf", "nan"]


def _pruning_row(kind, rng, n, G):
    a = rng.lognormal(0.0, rng.choice([0.05, 0.5, 2.0]), (G,) * n)
    if kind == "cube":
        c = G >> int(rng.integers(0, G.bit_length()))
        at = tuple(slice(k, k + c) for k in rng.integers(0, G // c, n) * c)
        a[at] *= 10.0 ** rng.uniform(0.5, 3.0)
    elif kind == "zero":
        a[...] = 0.0
    elif kind == "subnormal":
        a *= 2.0 ** -1070 / a.max()  # every nonzero cell subnormal
    elif kind == "huge":
        a *= 1e308 / a.max()
    elif kind in ("inf", "nan"):
        a[tuple(rng.integers(0, G, n))] = float(kind)
    return a


@st.composite
def _pruning_cases(draw):
    """(a, q, phi, n or None): a stack of 1..3 rows of any kinds on a grid
    of 2^12..2^16 cells, phi from every growth family.  A "tie" phi is a
    table whose exhaustive candidates on two levels of the first row, a
    finite one, are within a few ulps of each other."""
    n, G = draw(st.sampled_from(_PRUNED_GRIDS))
    J = G.bit_length() - 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = draw(st.sampled_from([0.25, 0.5, 1.0, 2.5]))
    family = draw(st.sampled_from(sorted(FAMILIES) + ["tie"]))
    kinds = draw(st.lists(st.sampled_from(_ROWS), min_size=1, max_size=3))
    if family == "tie":
        kinds[0] = draw(st.sampled_from(["lognormal", "cube"]))
    a = np.stack([_pruning_row(k, rng, n, G) for k in kinds])
    if family == "tie":
        one = a[0] ** q
        roots = [float(_block_sum(one, G >> lev, n).max() / (G >> lev) ** n)
                 ** (1.0 / q) for lev in range(J + 1)]
        lo, hi = draw(st.lists(st.integers(0, J), min_size=2, max_size=2,
                               unique=True))
        entries = {-lev: 0.5 / root for lev, root in enumerate(roots)}
        entries[-lo] = 1.0 / roots[lo]
        tie, step = 1.0 / roots[hi], draw(st.sampled_from([-INF, INF]))
        for _ in range(draw(st.integers(0, 3))):
            tie = float(np.nextafter(tie, step))
        entries[-hi] = tie
        phi = table(entries, n)
    else:
        phi = _phi_of_every_family(draw(_P), draw(_E), n, J + 1)[family]
    stacked = len(kinds) > 1 or draw(st.booleans())
    return (a if stacked else a[0]), q, phi, (n if stacked else None)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pruning_cases())
def test_morrey_pruned_levels_give_the_exhaustive_bytes(case):
    a, q, phi, n = case
    with np.errstate(all="ignore"):
        got = _morrey_of_array(a, q, phi, n)
        want = _exhaustive_morrey(a, q, phi, n)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n,G,pruned", [
    (1, 2048, False), (2, 32, False), (3, 8, False),
    (1, 4096, True), (2, 64, True), (3, 16, True)])
def test_morrey_sums_fewer_levels_from_4096_cells(n, G, pruned, monkeypatch):
    # rows below 2^12 cells sum every level; from 2^12 on, a smooth field
    # has one or two levels that can win, and only those are summed
    calls = []

    def counted(a, c, n=None):
        calls.append(c)
        return _block_sum(a, c, n)

    monkeypatch.setattr(norms, "_block_sum", counted)
    f = random_bandlimited(n, G, 2, seed=[n, G])
    got = morrey_norm(f, 1.0, power(2.0, n))
    assert got == _exhaustive_morrey(np.abs(f.samples), 1.0, power(2.0, n))
    levels = G.bit_length()
    assert (len(calls) < levels) if pruned else (len(calls) == levels)


def test_coeff_field_shape_validation():
    with pytest.raises(ValueError):
        CoeffField(1, {2: np.zeros(3)})
    fld = CoeffField(1, {-1: np.array([2.0]), 1: np.zeros(2)})
    # a homogeneous level is a one-cell array
    assert fld.levels[-1].shape == (1,) and fld.levels[-1][0] == 2.0 + 0j


def test_coeff_field_algebra():
    a = CoeffField(1, {1: np.array([1.0, 0.0])})
    b = CoeffField(1, {1: np.array([0.0, 2.0]), 2: np.ones(4)})
    c = a + b
    assert np.allclose(c.levels[1], [1.0, 2.0])
    assert np.allclose(c.levels[2], 1.0)


def test_coeff_field_csv_round_trip():
    rng = np.random.default_rng(4)
    levels = {-2: 1.5 + 0.5j,
              0: rng.standard_normal((1,)) + 1j * rng.standard_normal((1,)),
              3: (rng.random((8,)) < 0.4) * rng.standard_normal((8,))}
    fld = CoeffField(1, levels)
    back = CoeffField.from_csv(fld.to_csv(), 1)
    assert back.level_list() == fld.level_list()
    for j in fld.level_list():
        assert np.allclose(np.atleast_1d(back.levels[j]),
                           np.atleast_1d(fld.levels[j]))
    sparse = (rng.random((4, 4)) < 0.5) * rng.standard_normal((4, 4))
    text = CoeffField(2, {-1: 0.25 - 1j, 2: sparse}).to_csv()
    assert CoeffField.from_csv(text, 2).to_csv() == text


@pytest.mark.parametrize("row,what", [
    ("1,2,0,1.0,0.0", "outside [0, 2)"), ("1,0,-1,1.0,0.0", "negative index"),
    ("-1,0,1,1.0,0.0", "needs m = 0"), ("1,0,0,nan,0.0", "non-finite"),
    ("1,0,0,1.0,-inf", "non-finite"), ("1,0,0,1.0", "expected 5 columns"),
    ("1,0,0,1.0,0.0,3", "expected 5 columns"), ("1,0,x,1.0,0.0", "not a number"),
    ("1.5,0,0,1.0,0.0", "not a number"), ("30,0,0,1.0,0.0", "2^60 cells"),
    ("40,0,0,1.0,0.0", "2^80 cells")])
def test_coeff_field_csv_rejects_bad_rows(row, what):
    text = "j,m1,m2,re,im\n1,1,1,2.0,0.0\n\n" + row + "\n"
    with pytest.raises(ValueError, match="line 4: ") as err:
        CoeffField.from_csv(text, 2)
    assert what in str(err.value)


@pytest.mark.parametrize("row", ["25,0,1.0,0.0", "30,0,1.0,0.0",
                                 "40,0,1.0,0.0"])
def test_coeff_field_csv_caps_level_size(row):
    # 2^24 cells is the largest level accepted; j = 30 at n = 1 used to
    # request a 16 GiB array
    with pytest.raises(ValueError, match="line 2: level .* more than 2"):
        CoeffField.from_csv("j,m1,re,im\n" + row + "\n", 1)


def _singleton(n, j, m, depth):
    levels = {depth: np.zeros((1 << depth,) * n)}
    arr = np.zeros((1 << j,) * n)
    arr[m] = 1.0
    levels[j] = arr
    return CoeffField(n, levels)


def test_seq_norm_singleton_closed_form():
    # indicator of one cube: the sup over ancestors has the closed form
    # max_{0 <= j' <= j} phi(2^-j') 2^{-(j-j') n/q}, times the 2^{js} weight
    n, j, depth = 1, 3, 5
    lam = _singleton(n, j, (5,), depth)
    for q, s in ((0.5, 0.0), (1.0, 1.0), (2.0, -0.5)):
        params = SpaceParams(q=q, r=2.0, s=s, phi=power(2.0, n),
                             variant="N", n=n)
        want = 2.0 ** (j * s) * max(
            params.phi(2.0 ** -jp) * 2.0 ** (-(j - jp) * n / q)
            for jp in range(j + 1))
        assert seq_norm(lam, params) == pytest.approx(want, rel=1e-12)


def test_seq_norm_empty():
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    assert seq_norm(CoeffField(1, {}), params) == 0.0


def test_seq_norm_E_singleton_matches_N():
    # a single level has no ell^r aggregation: N and E coincide
    lam = _singleton(2, 2, (1, 3), 2)
    for r in (0.5, 2.0, INF):
        pN = SpaceParams(q=1.0, r=r, s=1.0, phi=power(2.0, 2), variant="N", n=2)
        pE = pN.with_(variant="E")
        assert seq_norm(lam, pN) == pytest.approx(seq_norm(lam, pE))


def test_quark_norm_singleton():
    lam = _singleton(1, 2, (1,), 3)
    params = SpaceParams(q=1.0, r=2.0, s=1.0, phi=power(2.0), variant="N", n=1)
    qlam = QuarkCoeffs(n=1, rho=1.0, fields={(2,): lam})
    assert quark_norm(qlam, params) == pytest.approx(
        2.0 ** 2 * seq_norm(lam, params))
    # rho = 0 drops the weight 2^{rho |beta|}
    assert quark_norm(QuarkCoeffs(n=1, rho=0.0, fields={(2,): lam}),
                      params) == pytest.approx(seq_norm(lam, params))


def test_min_triangle_trivial_cases():
    G = 32
    params = SpaceParams(q=0.5, r=2.0, s=0.0, phi=power(2.0), variant="N", n=1)
    f = random_bandlimited(1, G, 4, seed=5)
    z = GridFunction(1, np.zeros(G))
    lhs, rhs = min_triangle_check(f, z, "morrey", params)
    assert lhs == pytest.approx(rhs)
    # f = g: ||2f||^w = 2^w ||f||^w <= 2 ||f||^w
    lhs, rhs = min_triangle_check(f, f, "morrey", params)
    assert lhs <= rhs + 1e-12
    with pytest.raises(ValueError):
        min_triangle_check(f, f, "bogus", params)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.5, 1.0, 2.0]))
def test_min_triangle_morrey_property(seed, q):
    rng = np.random.default_rng(seed)
    f = GridFunction(1, rng.lognormal(0, 1, 32))
    g = GridFunction(1, rng.lognormal(0, 1, 32))
    params = SpaceParams(q=q, r=2.0, s=0.0, phi=power(2.0), variant="N", n=1)
    lhs, rhs = min_triangle_check(f, g, "morrey", params)
    assert lhs <= rhs + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
def test_min_triangle_seq_property(seed, q, r):
    rng = np.random.default_rng(seed)

    def rand_field():
        return CoeffField(1, {j: rng.lognormal(0, 1, (1 << j,))
                              * (rng.random((1 << j,)) < 0.5)
                              for j in range(0, 4)})

    params = SpaceParams(q=q, r=r, s=1.0, phi=power(2.0), variant="N", n=1)
    lhs, rhs = min_triangle_check(rand_field(), rand_field(), "seq", params)
    assert lhs <= rhs + 1e-9
