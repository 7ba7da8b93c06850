import argparse
import hashlib
import io
import json
import math
import re
import shlex
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from morreykit import cli, decomp, trace, verify
from morreykit.cli import (EXIT_EXACT, EXIT_OK, EXIT_STABILITY, EXIT_USAGE,
                           _plain, main, parse_params, validate_params)
from morreykit.growth import SpaceParams, power, powerlog, table
from morreykit.gridfn import GridFunction, make_bank, preset_function
from morreykit.norms import CoeffField, seq_norm, space_norm
from test_cli_fuzz import GOOD_PARAMS

INF = math.inf


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_parse_params_grammar():
    p = parse_params("power-p2-q1-s0-E-r2")
    assert (p.q, p.r, p.s, p.variant) == (1.0, 2.0, 0.0, "E")
    assert p.phi.family == "power" and p.phi.p == 2.0
    p = parse_params("loginv-e2-q2-s0-E-r0.5")
    assert p.phi.family == "loginv" and p.phi.exponent == 2.0
    p = parse_params("powerlog-e1.5-p4-q1-s1-N-rinf-hom")
    assert p.r == INF and p.homogeneous and p.phi.family == "powerlog"
    with pytest.raises(ValueError):
        parse_params("bogus-p2")
    with pytest.raises(ValueError):
        parse_params("power-x3")


class _SplitOnEveryDash:
    """The re module as parse_params used it before negative values: a
    split on every '-'."""
    @staticmethod
    def split(pattern, text):
        return text.split("-")


def _perfbench_params():
    """Every params string perfbench's workloads pass to parse_params."""
    text = (Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py").read_text()
    return re.findall(r'"((?:power|powerlog|loginv)-[^"]*)"', text)


def test_perfbench_params_are_found():
    assert len(set(_perfbench_params())) >= 20


@pytest.mark.parametrize("text", sorted({
    *GOOD_PARAMS, *_perfbench_params(), "power-p2-q1-s0-E-r2",
    "loginv-e2-q2-s0-E-r0.5", "powerlog-e1.5-p4-q1-s1-N-rinf-hom",
    "power-q1e3-s1.5e0-N-r2E1"}))
def test_params_parse_as_before(monkeypatch, text):
    # a string with no '-' inside a value parses as the split on every '-'
    # parsed it, field for field
    new = [parse_params(text, n).to_json() for n in (1, 2)]
    monkeypatch.setattr(cli, "re", _SplitOnEveryDash)
    assert [parse_params(text, n).to_json() for n in (1, 2)] == new


@pytest.mark.parametrize("params,want", [
    ("power-p2-q1-s-1-N-r2", SpaceParams(q=1.0, r=2.0, s=-1.0,
                                         phi=power(2.0))),
    ("power-p2-q1e-5-s0-N-r2", SpaceParams(q=1e-5, r=2.0, s=0.0,
                                           phi=power(2.0))),
    ("powerlog-e-1-p2-q1-s0-N-r2", SpaceParams(q=1.0, r=2.0, s=0.0,
                                               phi=powerlog(2.0, -1.0)))])
def test_params_take_negative_and_exponent_values(capsys, tmp_path, params,
                                                  want):
    # each exited 1 with "could not convert string to float" ('' or '1e')
    path = tmp_path / "lam.csv"
    path.write_text("j,m,re,im\n0,0,1.5,0\n1,0,0.5,0.25\n2,3,2.0,0\n")
    assert parse_params(params).to_json() == want.to_json()
    code, out, err = run(capsys, "seqnorm", "--dim", "1", "--params", params,
                         "--input", str(path))
    assert (code, err) == (EXIT_OK, "")
    want_norm = seq_norm(CoeffField.from_csv(path.read_text(), 1), want)
    assert _strict_json(out) == {"norm": want_norm}


@pytest.mark.parametrize("params,message", [
    ("loginv-e-1-q1-s0-N-r2",
     "phi is not in the admissible growth class for q"),
    ("power-p2-q-1-s0-N-r2", "q must be finite and positive"),
    ("power-p2-q1-s0-N-r-2", "r must be positive"),
    ("power-p-2-q1-s0-N-r2", "power family needs finite p > 0"),
    ("power-p2-q1-s-1e400-N-r2", "s must be finite"),
    # a '-' before inf or nan is a sign: these split there and exited 1
    # with "could not convert string to float: ''"
    ("power-p2-q1-s-inf-N-r2", "s must be finite"),
    ("power-p2-q1-s-nan-N-r2", "s must be finite"),
    ("power-p2-q1-s-Infinity-N-r2", "s must be finite"),
    ("power-p2-q1-s0-N-r-inf", "r must be positive"),
    ("power-p2-q-nan-s0-N-r2", "q must be finite and positive"),
    # only a key's own sign joins: a trailing token stays a bad token
    ("power-p2-q1-s0-N-r2-nan",
     "bad token 'nan' in params 'power-p2-q1-s0-N-r2-nan'"),
    ("power-p2-q1-s0-N-inf",
     "bad token 'inf' in params 'power-p2-q1-s0-N-inf'")])
def test_params_negative_values_out_of_range_fail_closed(capsys, params,
                                                         message):
    # a value that now parses is still checked: log(2 + 1/t)^1 is no growth
    # function, and q, r, p must be positive and s finite; the params are
    # refused before the input is read
    result = run(capsys, "seqnorm", "--dim", "1", "--params", params,
                 "--input", "unused.csv")
    _assert_fails_closed(*result)
    assert result[2] == f"error: {message}"


def test_trace_presets_all_validate():
    for name in ("A", "B", "C", "D"):
        p = parse_params(f"trace-{name}", n=2)
        msgs = validate_params(p, for_trace=True)
        assert any("threshold" in m for m in msgs)


def test_norm_command_matches_library(capsys):
    code, out, _ = run(capsys, "norm", "--params", "power-p2-q1-s0-N-r2",
                       "--res", "64", "--fn", "gaussian")
    assert code == EXIT_OK
    got = json.loads(out)["norm"]
    params = parse_params("power-p2-q1-s0-N-r2")
    f = preset_function("gaussian", 1, 64)
    assert got == pytest.approx(space_norm(f, params, make_bank(1, 64)))


def test_norm_dry_run(capsys):
    code, out, _ = run(capsys, "norm", "--params", "power-p2-q1-s0-N-r2",
                       "--dry-run")
    assert code == EXIT_OK
    assert "checked" in json.loads(out)


def test_norm_bad_family(capsys):
    code, _, err = run(capsys, "norm", "--params", "bogus-p2")
    assert code == EXIT_USAGE
    assert "growth family" in err


@pytest.mark.parametrize("params", [
    "power-p2-q2-s0-N-rnan", "loginv-enan-q2-s0-N-r2",
    "power-p2-q2-snan-N-r2", "power-pnan-q2-s0-N-r2"])
def test_norm_rejects_non_finite_params(capsys, params):
    code, out, err = run(capsys, "norm", "--params", params, "--res", "32")
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_jobs_option_removed(capsys):
    code, _, err = run(capsys, "norm", "--params", "power-p2-q1-s0-N-r2",
                       "--jobs", "2")
    assert code == EXIT_USAGE
    assert "--jobs" in err


def test_usage_error_on_missing_args(capsys):
    assert run(capsys, "norm")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


def test_decompose_round_trip(capsys, tmp_path):
    out_file = tmp_path / "lam.csv"
    code, out, _ = run(capsys, "decompose", "--res", "64", "--L", "1",
                       "--out", str(out_file))
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["roundtrip_residual"] < 1e-8
    lam = CoeffField.from_csv(out_file.read_text(), 1)
    assert lam.level_list() == d["levels"]


# sha256 of the coefficient CSV each run writes; computed with the
# per-cube atom implementation that the per-level patch stacks replaced
@pytest.mark.parametrize("argv,levels,atoms,csv_sha256", [
    (["--res", "64"], list(range(5)), 341,
     "63713a972b99cd4dd528d5cba37ad727a90759142514f739ff218cf74121af70"),
    (["--res", "128", "--fn", "random-bandlimited"], list(range(6)), 1365,
     "d28cdb42871e1dc7812bf864e2a406b06d442f51f2562e20ce2a2adf8f3d9fbb")])
def test_decompose_report_pinned(capsys, tmp_path, argv, levels, atoms,
                                 csv_sha256):
    out_file = tmp_path / "lam.csv"
    code, out, _ = run(capsys, "decompose", "--dim", "2", *argv,
                       "--out", str(out_file))
    assert code == EXIT_OK
    d = json.loads(out)
    assert (d["levels"], d["atoms"]) == (levels, atoms)
    assert d["roundtrip_residual"] < 1e-12
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == csv_sha256


def test_decompose_fine_1d_pinned(capsys, tmp_path):
    # sha256 computed before analysis moved to one derivative stack at a
    # time; the residual carries FFT rounding of G = 4096 cells
    out_file = tmp_path / "lam.csv"
    code, out, _ = run(capsys, "decompose", "--dim", "1", "--res", "4096",
                       "--L", "2", "--fn", "random-bandlimited",
                       "--out", str(out_file))
    assert code == EXIT_OK
    d = json.loads(out)
    assert (d["levels"], d["atoms"]) == (list(range(11)), 2047)
    assert d["roundtrip_residual"] < 1e-8
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "97f933d12218bea740e1e3059567f489a77ca3dfb1006b0f77a8e21ae1ad9254"


def test_seqnorm_command(capsys, tmp_path):
    lam = CoeffField(1, {2: np.array([0.0, 1.0, 0.0, 0.0])})
    path = tmp_path / "lam.csv"
    path.write_text(lam.to_csv())
    code, out, _ = run(capsys, "seqnorm", "--params", "power-p2-q1-s1-N-r2",
                       "--input", str(path))
    assert code == EXIT_OK
    from morreykit.norms import seq_norm
    want = seq_norm(lam, parse_params("power-p2-q1-s1-N-r2"))
    assert json.loads(out)["norm"] == pytest.approx(want)


def test_quark_command(capsys):
    code, out, _ = run(capsys, "quark", "--res", "256",
                       "--fn", "random-bandlimited", "--beta-cutoff", "2")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["residual"] < 0.05
    assert [0] in d["betas"]


def test_quark_defaults(capsys):
    code, out, _ = run(capsys, "quark")
    assert code == EXIT_OK
    resid = json.loads(out)["residual"]
    assert math.isfinite(resid) and resid < 0.05


def test_trace_command_and_validator(capsys, tmp_path):
    lam = CoeffField(2, {1: np.array([[1.0, 0.0], [0.0, 2.0]])})
    path = tmp_path / "lam.csv"
    path.write_text(lam.to_csv())
    code, out, _ = run(capsys, "trace", "--params", "trace-A",
                       "--input", str(path))
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["bound_I"] > 0 and d["bound_II"] > 0
    # an s below the threshold must be rejected before any work happens
    code, _, err = run(capsys, "trace", "--params", "power-p2-q2-s0.1-N-r2",
                       "--dry-run")
    assert code == EXIT_USAGE
    assert "threshold" in err


def test_extend_command(capsys, tmp_path):
    mu = CoeffField(1, {1: np.array([1.0, 0.5])})
    path = tmp_path / "mu.csv"
    path.write_text(mu.to_csv())
    out_file = tmp_path / "ext.csv"
    code, out, _ = run(capsys, "extend", "--params", "trace-A",
                       "--input", str(path), "--out", str(out_file))
    assert code == EXIT_OK
    assert json.loads(out)["extension_bound"] > 0
    ext = CoeffField.from_csv(out_file.read_text(), 2)
    assert ext.levels[1].shape == (2, 2)


@pytest.mark.parametrize("cmd, n", [("trace", 2), ("extend", 1)])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
def test_trace_problem_built_once(capsys, tmp_path, monkeypatch, cmd, n,
                                  dry_run):
    built = []

    class Counted(trace.TraceProblem):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(trace, "TraceProblem", Counted)
    path = tmp_path / "lam.csv"
    path.write_text(CoeffField(n, {1: np.ones((2,) * n)}).to_csv())
    code, _, err = run(capsys, cmd, "--params", "trace-A", "--input",
                       str(path), *dry_run)
    assert code == EXIT_OK, err
    assert len(built) == 1


def test_campaign_command(capsys):
    code, out, _ = run(capsys, "campaign", "--name", "hardy",
                       "--trials", "50")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    code, _, err = run(capsys, "campaign", "--name", "unknown")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, expect", [
    (["--name", "maximal", "--trials", "1", "--resolutions", "8", "16"],
     lambda: verify.maximal_campaign(2.0, 2.0, power(4.0, 2), 1, [8, 16],
                                     n=2, seed=0)),
    (["--name", "embedding", "--r", "0.5", "--depth", "3", "--trials", "2"],
     lambda: verify.embedding_campaign(2.0, 2.0, 0.5, depth=3, trials=2,
                                       seed=0, n=2)),
])
def test_campaign_reads_dim(capsys, argv, expect):
    code, out, _ = run(capsys, "campaign", *argv, "--dim", "2")
    assert code in (EXIT_OK, EXIT_STABILITY)
    assert json.loads(out) == json.loads(json.dumps(_plain(expect().to_dict())))
    _, out1, _ = run(capsys, "campaign", *argv, "--dim", "1")
    assert out1 != out


def test_suite_command(capsys, tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([
        {"name": "hardy", "trials": 25},
        {"name": "maximal", "trials": 2, "resolutions": [32, 64]},
    ]))
    code, out, _ = run(capsys, "suite", "--file", str(cfg))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert len(summary) == 2 and all(s["pass"] for s in summary)


def _assert_fails_closed(code, out, err):
    assert code == EXIT_USAGE
    assert out == "" and "NaN" not in out
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# a valid value of each campaign option, as a suite entry gives it
CAMPAIGN_VALUES = {"dim": 1, "delta": 0.5, "r": 2.0, "trials": 2, "depth": 3,
                   "phi": "power", "params": "power-p2-q2-s1-N-r2",
                   "resolutions": [16, 32]}
UNREAD = [(name, opt) for name, reads in cli.CAMPAIGNS.items()
          for opt in CAMPAIGN_VALUES if opt not in reads]


def test_campaign_options_are_the_table():
    # 54 settable (campaign, option) pairs, one option set for six
    # campaigns, became 26: each campaign's own options and --seed
    opts = cli.COMMANDS["campaign"].options.split()
    assert sorted(opts) == sorted(["name", "seed", *CAMPAIGN_VALUES])
    assert sum(len(reads) + 1 for reads in cli.CAMPAIGNS.values()) == 26
    assert len(UNREAD) == 28


@pytest.mark.parametrize("name,opt", UNREAD)
def test_campaign_rejects_unread_option(capsys, tmp_path, name, opt):
    value = CAMPAIGN_VALUES[opt]
    result = run(capsys, "campaign", "--name", name, f"--{opt}",
                 *map(str, value if isinstance(value, list) else [value]))
    _assert_fails_closed(*result)
    assert result[2].endswith(f"not {opt}")
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": "hardy", "trials": 2},
                               {"name": name, opt: value}]))
    result = run(capsys, "suite", "--file", str(cfg))
    _assert_fails_closed(*result)
    assert result[2].startswith("error: suite entry 1:")


@pytest.mark.parametrize("name", sorted(cli.CAMPAIGNS))
def test_bare_campaign_runs(capsys, name):
    # the defaults of every campaign are a valid configuration
    code, out, err = run(capsys, "campaign", "--name", name)
    assert code in (EXIT_OK, EXIT_STABILITY), err
    assert json.loads(out)["constants"]


@pytest.mark.parametrize("r", [0.5, 0.25, 0.2, 0.1])
def test_counterexample_judged_by_slope(capsys, r):
    # constants that grow like N^(1/r - 1) drift by more than 25% between
    # depths 11 and 12 for small r; the fitted slope is what is judged
    code, out, err = run(capsys, "campaign", "--name", "counterexample",
                         "--r", str(r))
    assert code == EXIT_OK, err
    extra = json.loads(out)["extra"]
    assert extra["expected"] == 1.0 / r - 1.0


def test_counterexample_r_range(capsys, tmp_path, monkeypatch):
    # both ends resolve their growth; an r just outside, or one the sweep
    # saw fail, is refused by campaign and by suite before anything runs
    lo, hi = cli.COUNTEREXAMPLE_R
    for r in (lo, hi):
        code, out, err = run(capsys, "campaign", "--name", "counterexample",
                             "--r", str(r))
        assert code == EXIT_OK, err
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"name": "counterexample", "r": r}
                                 for r in (lo, hi)]))
    code, out, err = run(capsys, "suite", "--file", str(suite))
    assert code == EXIT_OK, err
    assert [entry["pass"] for entry in json.loads(out)] == [True, True]
    monkeypatch.setattr(verify, "counterexample_growth",
                        lambda *a, **k: pytest.fail("the campaign ran"))
    for r in ("0.03", "0.039", "0.811", "0.82", "0.9", "1", "nan"):
        result = run(capsys, "campaign", "--name", "counterexample", "--r", r)
        _assert_fails_closed(*result)
        assert "counterexample resolves 0.04 <= r <= 0.81 only" in result[2]
    for r in (lo - 0.001, hi + 0.001):
        suite.write_text(json.dumps([{"name": "hardy"},
                                     {"name": "counterexample", "r": r}]))
        result = run(capsys, "suite", "--file", str(suite))
        _assert_fails_closed(*result)
        assert result[2].startswith("error: suite entry 1: counterexample")


def test_exit_code_of_a_slope_off_by_more_than_25_percent():
    rep = verify.Report(name="growth", constants={11: 1.0, 12: 1.0},
                        extra={"slope": 5.1, "expected": 4.0})
    assert cli._exit_code(rep) == EXIT_STABILITY
    rep.extra["slope"] = 2.9
    assert cli._exit_code(rep) == EXIT_STABILITY
    rep.extra["slope"] = 4.9  # within 25%, whatever the constants' drift
    rep.constants[12] = 100.0
    assert cli._exit_code(rep) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["--name", "hardy", "--trials", "2", "--dim", "7", "--phi", "bogus",
     "--params", "junk", "--resolutions", "3", "--depth", "9"],
    ["--name", "counterexample", "--dim", "3"],
    ["--name", "maximal", "--delta", "9"]])
def test_ignored_campaign_options_exit_1(capsys, argv):
    _assert_fails_closed(*run(capsys, "campaign", *argv))


@pytest.mark.parametrize("name", ["filter", "peetre"])
def test_corpus_campaigns_run_every_resolution(capsys, name):
    code, out, _ = run(capsys, "campaign", "--name", name, "--trials", "3",
                       "--resolutions", "64", "32")
    assert code in (EXIT_OK, EXIT_STABILITY)
    got = json.loads(out)
    assert list(got["constants"]) == ["32", "64"]
    params = parse_params("power-p2-q2-s1-N-r2")
    for G in (32, 64):
        corpus = verify.function_corpus(1, G, 3, 0)
        bank = make_bank(1, G)
        if name == "peetre":
            rep = verify.peetre_char_campaign(
                params, verify.peetre_threshold(params) + 1.0, corpus, bank)
        else:
            rep = verify.filter_invariance_campaign(
                bank, make_bank(1, G, "bump"), params, corpus)
        assert got["constants"][str(G)] == rep.constants[G]
    # the finest grid's witness and extras
    assert got["witness"] == json.loads(json.dumps(_plain(rep.witness)))
    assert got["extra"] == json.loads(json.dumps(_plain(rep.extra)))


def test_corpus_campaign_keeps_failures_of_every_resolution(capsys,
                                                            monkeypatch):
    def failing(bankA, bankB, params, corpus):
        return verify.Report(name="f", constants={bankA.G: 1.0},
                             failures=[{"trial": bankA.G}])
    monkeypatch.setattr(verify, "filter_invariance_campaign", failing)
    code, out, _ = run(capsys, "campaign", "--name", "filter", "--trials",
                       "1", "--resolutions", "32", "16")
    assert code == EXIT_EXACT
    assert json.loads(out)["failures"] == [{"res": 16, "trial": 16},
                                           {"res": 32, "trial": 32}]


def test_suite_entry_takes_campaign_defaults(capsys, tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": "hardy"}, {"name": "embedding"}]))
    code, out, _ = run(capsys, "suite", "--file", str(cfg))
    assert code == EXIT_OK
    for entry, name in zip(json.loads(out), ["hardy", "embedding"]):
        _, alone, _ = run(capsys, "campaign", "--name", name)
        assert entry["constants"] == json.loads(alone)["constants"]


@pytest.mark.parametrize("name", ["filter", "peetre"])
def test_suite_entry_with_params_matches_campaign(capsys, tmp_path, name):
    # the gate hands the report a parsed SpaceParams in a suite as in a
    # campaign
    opts = {"params": "power-p2-q1-s1-E-r2", "dim": 2, "trials": 2,
            "resolutions": [16, 32]}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": name, **opts}]))
    code, out, err = run(capsys, "suite", "--file", str(cfg))
    assert err == ""
    [entry] = json.loads(out)
    code1, alone, _ = run(capsys, "campaign", "--name", name, "--params",
                          opts["params"], "--dim", "2", "--trials", "2",
                          "--resolutions", "16", "32")
    assert code == code1 and code in (EXIT_OK, EXIT_STABILITY)
    assert entry["constants"] == json.loads(alone)["constants"]


@pytest.mark.parametrize("entry,message", [
    ({"name": "filter", "params": "bogus-q1"},
     "unknown growth family 'bogus'"),
    ({"name": "peetre", "params": "power-p1-q2-s1-N-r2"},
     "phi is not in the admissible growth class for q"),
    ({"name": "maximal", "phi": "bogus"},
     "unknown phi 'bogus': use power or powerlog")])
def test_suite_checks_values_before_any_entry_runs(capsys, monkeypatch,
                                                  tmp_path, entry, message):
    def ran(*args, **kw):
        raise RuntimeError("entry 0 ran")
    monkeypatch.setattr(verify, "hardy_campaign", ran)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps([{"name": "hardy", "trials": 2},
                               {**entry, "trials": 1, "resolutions": [16]}]))
    result = run(capsys, "suite", "--file", str(cfg))
    _assert_fails_closed(*result)
    assert result[2] == f"error: suite entry 1: {message}"


@pytest.mark.parametrize("name", ["filter", "peetre"])
def test_campaign_params_outside_Gq_exit_1(capsys, name):
    # the check norm gives --params: phi(t) = t at q = 2 (n = 1) is not in
    # G_q, since phi(t) t^(-1/2) increases
    result = run(capsys, "campaign", "--name", name, "--params",
                 "power-p1-q2-s1-N-r2", "--trials", "1", "--resolutions",
                 "16")
    _assert_fails_closed(*result)
    assert result[2] == ("error: phi is not in the admissible growth class"
                         " for q")


@pytest.mark.parametrize("argv", [
    ["norm", "--params", "power-p2-q1-s1-N-r2", "--dim", "4", "--res",
     "4096"],
    ["decompose", "--dim", "3", "--res", "512"],
    ["campaign", "--name", "maximal", "--dim", "3", "--resolutions", "512"],
    ["campaign", "--name", "peetre", "--dim", "2", "--resolutions", "16",
     "8192"],
    ["campaign", "--name", "embedding", "--dim", "3", "--depth", "9"]])
def test_too_large_grids_fail_closed(capsys, argv):
    # refused before any array of that size is allocated
    result = run(capsys, *argv)
    _assert_fails_closed(*result)
    assert "cells exceeds 2^24" in result[2]


@pytest.mark.parametrize("argv", [
    ["norm", "--params", "power-p2-q1-s1-N-r2"], ["quark"], ["decompose"]])
def test_input_blobs_meet_the_cell_guard(capsys, tmp_path, monkeypatch,
                                         argv):
    # a blob is refused by its header, with the preset's message, before
    # its payload is read; a guard of 2^10 cells stands in for 2^24, so
    # 2^11 cells are too many
    monkeypatch.setattr(cli, "MAX_LEVEL_BITS", 10)
    blob = tmp_path / "f.bin"
    blob.write_bytes(preset_function("gaussian", 1, 2048).to_bytes())
    preset = run(capsys, *argv, "--res", "2048")
    assert preset[2] == "error: a grid of 2048^1 cells exceeds 2^10"
    result = run(capsys, *argv, "--input", str(blob))
    _assert_fails_closed(*result)
    assert result[2] == preset[2]


@pytest.mark.parametrize("L", [0, 1, 2])
@pytest.mark.parametrize("hom", [False, True])
@pytest.mark.parametrize("n,G", [(1, 16384), (2, 128), (3, 16)])
def test_decompose_peak_within_estimate(capsys, tmp_path, n, G, L, hom):
    # the working set the budget checks bounds what a whole run holds
    argv = ["decompose", "--dim", str(n), "--res", str(G), "--L", str(L),
            "--out", str(tmp_path / "lam.csv")]
    tracemalloc.start()
    try:
        code = main(argv + ["--hom", "--fn", "mode"] * hom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak <= decomp.decompose_bytes(n, G, L, hom)


def _decompose_peak(capsys, tmp_path, *argv):
    tracemalloc.start()
    try:
        code = main(["decompose", *argv, "--out", str(tmp_path / "lam.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    return peak


def test_decompose_holds_one_level_of_filters(capsys, tmp_path):
    # the pair keeps phi_j and one real denominator, psi_j is formed per
    # level, a level's slabs share one pair of patch buffers, and level 1
    # keeps its kernel spectra on the even lattice; storing psi_j for every
    # level and fresh buffers per slab peaked at 47.2 MiB, and the level-1
    # kernel spectra on the whole 2G patch at 38.7 MiB
    peak = _decompose_peak(capsys, tmp_path, "--dim", "2", "--res", "256",
                           "--L", "1")
    assert peak < 34 * 2 ** 20


def test_decompose_3d_level_1_holds_lattice_kernels(capsys, tmp_path):
    # the ten level-1 kernel spectra of (3, 32) L = 2 on the whole 2G patch
    # (4 MiB each) made a run peak at 58.8 MiB; on the even lattice they
    # take 0.5 MiB each
    peak = _decompose_peak(capsys, tmp_path, "--dim", "3", "--res", "32",
                           "--L", "2")
    assert peak < 32 * 2 ** 20


def test_decompose_over_budget_fails_closed(capsys):
    # 2^24 cells pass the grid guard; the 11.12 GiB estimate is refused
    # before anything is allocated
    result = run(capsys, "decompose", "--dim", "1", "--res", str(1 << 24))
    _assert_fails_closed(*result)
    assert "working set, estimated at 11.12 GiB" in result[2]


@pytest.mark.parametrize("n,G", [(1, 1024), (2, 64), (3, 16)])
def test_maximal_peak_within_estimate(capsys, n, G):
    # two trials, so the previous trial's maximal functions are still held
    # while the next is computed; one run first, so the peak counts the
    # run's arrays and not numpy's first-call state
    argv = ["campaign", "--name", "maximal", "--dim", str(n), "--trials",
            "2", "--resolutions", str(G)]
    assert run(capsys, *argv)[0] == EXIT_OK
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak <= verify.maximal_bytes(n, G)


def test_maximal_over_budget_fails_closed(capsys, tmp_path, monkeypatch):
    # 4096^2 cells pass the grid guard; the 11 GiB estimate is refused,
    # by campaign and by suite, before anything is drawn
    monkeypatch.setattr(verify, "maximal_campaign",
                        lambda *a, **k: pytest.fail("the campaign ran"))
    result = run(capsys, "campaign", "--name", "maximal", "--dim", "2",
                 "--resolutions", "4096")
    _assert_fails_closed(*result)
    assert "working set, estimated at 11.00 GiB" in result[2]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"name": "hardy"}, {
        "name": "maximal", "dim": 2, "resolutions": [64, 4096]}]))
    result = run(capsys, "suite", "--file", str(suite))
    _assert_fails_closed(*result)
    assert result[2].startswith("error: suite entry 1: the working set")
    assert verify.maximal_bytes(2, 2048) > cli.WORK_BUDGET


def test_decompose_budget_reads_input_grid(capsys, tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    path.write_bytes(preset_function("gaussian", 1, 64).to_bytes())
    monkeypatch.setattr(cli, "WORK_BUDGET", decomp.decompose_bytes(1, 64, 1))
    # a blob is checked by its own G, not by the default --res 256
    assert run(capsys, "decompose", "--input", str(path))[0] == EXIT_OK
    _assert_fails_closed(*run(capsys, "decompose", "--res", "256"))
    monkeypatch.setattr(cli, "WORK_BUDGET", cli.WORK_BUDGET - 1)
    _assert_fails_closed(*run(capsys, "decompose", "--input", str(path)))


def _raise_memory_error(args):
    raise MemoryError


def test_memory_error_fails_closed(capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "norm", cli.COMMANDS["norm"]._replace(
        handler=_raise_memory_error))
    result = run(capsys, "norm", "--params", "power-p2-q1-s1-N-r2")
    _assert_fails_closed(*result)
    assert result[2] == "error: MemoryError"


@pytest.mark.parametrize("row", ["1,5,0,1.0,0.0", "1,-1,0,1.0,0.0",
                                 "1,0,0,nan,0.0", "1,0,0,1.0",
                                 "30,0,0,1.0,0.0", "40,0,0,1.0,0.0"])
def test_seqnorm_rejects_bad_csv(capsys, tmp_path, row):
    path = tmp_path / "lam.csv"
    path.write_text("j,m1,m2,re,im\n" + row + "\n")
    result = run(capsys, "seqnorm", "--params", "power-p2-q1-s1-N-r2",
                 "--dim", "2", "--input", str(path))
    _assert_fails_closed(*result)
    assert "line 2" in result[2]


@pytest.mark.parametrize("row", ["30,0,1.0,0.0", "40,0,1.0,0.0"])
def test_seqnorm_rejects_huge_level(capsys, tmp_path, row):
    path = tmp_path / "lam.csv"
    path.write_text("j,m1,re,im\n" + row + "\n")
    result = run(capsys, "seqnorm", "--params", "power-p2-q1-s1-N-r2",
                 "--dim", "1", "--input", str(path))
    _assert_fails_closed(*result)
    assert "line 2" in result[2]


@pytest.mark.parametrize("flags", [["--r", "nan"], ["--r", "-1"],
                                   ["--r", "0"], ["--delta", "nan"],
                                   ["--delta", "inf"], ["--r", "1e-3"],
                                   ["--delta", "1e-17"]])
def test_hardy_campaign_rejects_bad_parameters(capsys, flags):
    _assert_fails_closed(*run(capsys, "campaign", "--name", "hardy",
                              "--trials", "2", *flags))


@pytest.mark.parametrize("suite", [
    [{"trials": 2}], [{"name": "hardy", "trials": "2"}],
    [{"name": "hardy", "r": [2]}], [{"name": "hardy", "bogus": 1}],
    [{"name": "filter", "resolutions": []}], {"name": "hardy"}, [3]])
def test_suite_rejects_bad_schema(capsys, tmp_path, suite):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(suite))
    _assert_fails_closed(*run(capsys, "suite", "--file", str(cfg)))


def test_norm_rejects_small_grid(capsys):
    result = run(capsys, "norm", "--params", "power-p2-q1-s0-N-r2",
                 "--res", "2")
    _assert_fails_closed(*result)
    assert "G=2" in result[2]


@pytest.mark.parametrize("res", ["0", "1", "2", "3"])
def test_maximal_campaign_rejects_small_grid(capsys, res):
    result = run(capsys, "campaign", "--name", "maximal", "--trials", "1",
                 "--resolutions", "16", res)
    _assert_fails_closed(*result)
    assert f"G={res}" in result[2]


@pytest.mark.parametrize("argv,env_seed", [
    (["seqnorm", "--params", "power-p2-q1-s1-N-r2"], None),
    (["trace", "--params", "trace-A"], None),
    (["extend", "--params", "trace-A"], None),
    (["trace", "--params", "trace-Z"], None),
    (["campaign", "--name", "hardy", "--trials", "2"], "abc"),
    (["campaign", "--name", "maximal", "--phi", "bogus", "--trials", "1",
      "--resolutions", "16", "32"], None),
    (["suite", "--file", "{suite}"], None),
    (["norm", "--params", "power-p2-e3-q1-s0-N-r2", "--res", "32"], None),
    (["norm", "--params", "loginv-p2-q1-s0-N-r2", "--res", "32"], None),
    (["norm", "--params", "power-p2-q1-s0-N-r2", "--res", "32",
      "--out", "{out}"], None),
    # options that nothing read are gone, so passing one is a usage error
    (["seqnorm", "--params", "power-p2-q1-s1-N-r2", "--input", "{csv}",
      "--seed", "1"], None),
    (["trace", "--params", "trace-A", "--dry-run", "--res", "64"], None),
    (["decompose", "--dry-run"], None),
    (["quark", "--dry-run"], None),
    (["campaign", "--name", "hardy", "--trials", "2", "--res", "64"], None),
    (["suite", "--file", "{suite}", "--dim", "2"], None),
    # non-finite samples, empty campaigns and a dropped --out
    (["norm", "--params", "power-p2-q1-s0-N-r2", "--dim", "2", "--input",
      "{nanblob}"], None),
    (["norm", "--params", "power-p2-q1-s0-N-r2", "--dim", "2", "--input",
      "{infblob}"], None),
    (["decompose", "--dim", "2", "--input", "{nanblob}", "--out", "{out}"],
     None),
    (["campaign", "--name", "maximal", "--trials", "0", "--resolutions",
      "16", "32"], None),
    (["campaign", "--name", "peetre", "--trials", "0", "--resolutions",
      "16"], None),
    (["campaign", "--name", "hardy", "--trials", "-1"], None),
    (["campaign", "--name", "embedding", "--r", "0.5", "--depth", "0",
      "--trials", "2"], None),
    (["suite", "--file", "{suite0}"], None),
    (["campaign", "--name", "hardy", "--trials", "2", "--out", "{out}"],
     None)])
def test_fail_open_inputs_exit_1(capsys, monkeypatch, tmp_path, argv,
                                 env_seed):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"name": "maximal", "phi": "bogus",
                                  "trials": 1, "resolutions": [16, 32]}]))
    csv = tmp_path / "lam.csv"
    csv.write_text(CoeffField(1, {1: np.array([1.0, 0.0])}).to_csv())
    paths = {"{suite}": str(suite), "{csv}": str(csv),
             "{out}": str(tmp_path / "x")}
    suite0 = tmp_path / "suite0.json"
    suite0.write_text(json.dumps([{"name": "hardy", "trials": 0}]))
    paths["{suite0}"] = str(suite0)
    for name, val in (("nan", math.nan), ("inf", INF)):
        f = preset_function("gaussian", 2, 32)
        f.samples[3, 5] = val
        paths[f"{{{name}blob}}"] = str(tmp_path / f"{name}.bin")
        (tmp_path / f"{name}.bin").write_bytes(f.to_bytes())
    if env_seed is not None:
        monkeypatch.setenv("MORREYKIT_SEED", env_seed)
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_stdout_is_strict_json(capsys, tmp_path):
    """+-inf results are written as "inf", never as the bare Infinity."""
    code, out, _ = run(capsys, "campaign", "--name", "hardy", "--r", "inf",
                       "--trials", "3")
    assert code == EXIT_OK
    assert _strict_json(out)["extra"]["r"] == "inf"
    path = tmp_path / "lam.csv"
    path.write_text(CoeffField(1, {2: np.full(4, 1e308)}).to_csv())
    code, out, _ = run(capsys, "seqnorm", "--params", "power-p2-q1-s1-N-r2",
                       "--input", str(path))
    assert code == EXIT_OK
    assert _strict_json(out)["norm"] == "inf"


@pytest.mark.parametrize("params", ["power-p2-q0.3-s0-N-r2",
                                    "power-p2-q0.3-s0-E-r2",
                                    "power-p2-q1-s0-N-r2"])
def test_seqnorm_root_overflow_is_inf(capsys, tmp_path, params):
    # the Morrey root (mean)^(1/q) of two float-max coefficients overflows
    # at q = 0.3; a Python float's power raised OverflowError there, a
    # traceback with exit 1, where q = 1 and the E-variant print "inf"
    path = tmp_path / "lam.csv"
    big = sys.float_info.max
    path.write_text(CoeffField(1, {2: [big, big, 0.0, 0.0]}).to_csv())
    code, out, err = run(capsys, "seqnorm", "--params", params, "--dim", "1",
                         "--input", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert _strict_json(out)["norm"] == "inf"


def test_norm_level_sum_overflow_is_inf(capsys):
    # at r = 0.001 the ell^r root over levels, sum^(1/r), overflows; a
    # Python float's power raised OverflowError there, a traceback
    code, out, err = run(capsys, "norm", "--params",
                         "power-p2-q1-s0-N-r0.001", "--res", "64")
    assert (code, err) == (EXIT_OK, "")
    assert _strict_json(out)["norm"] == "inf"


def test_seqnorm_level_sum_overflow_is_inf(capsys, tmp_path):
    # 1e307 at every cell of levels 0-2: the N-variant's ell^r root over
    # levels overflows at r = 0.25 and raised OverflowError, where the
    # E-variant and r = 2 printed "inf"
    path = tmp_path / "lam.csv"
    path.write_text(CoeffField(1, {j: np.full(1 << j, 1e307)
                                   for j in range(3)}).to_csv())
    code, out, err = run(capsys, "seqnorm", "--params",
                         "power-p2-q1-s0-N-r0.25", "--dim", "1",
                         "--input", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert _strict_json(out)["norm"] == "inf"


@pytest.fixture
def two_csv(tmp_path):
    """A 2-D field of two large coefficients, 6e307 at level 1 and 4e307 at
    level 2, both on the hyperplane."""
    path = tmp_path / "two.csv"
    path.write_text("j,m1,m2,re,im\n1,0,0,6e307,0\n2,0,0,4e307,0\n")
    return str(path)


def test_trace_root_overflow_is_inf(capsys, two_csv):
    # bound II's root (chain sum)^(1/q) overflows at q = 0.75; the bounds'
    # own float power raised OverflowError there, a traceback, where
    # seqnorm on the same field prints its norm
    params = "power-p0.75-q0.75-s2-N-rinf"
    code, out, err = run(capsys, "trace", "--params", params,
                         "--input", two_csv)
    assert (code, err) == (EXIT_OK, "")
    assert _strict_json(out) == {"bound_I": 1.7502634816366944,
                                 "bound_II": "inf"}
    code, out, err = run(capsys, "seqnorm", "--dim", "2", "--params", params,
                         "--input", two_csv)
    assert (code, err) == (EXIT_OK, "")
    assert _strict_json(out) == {"norm": 3.779763149684471e+307}


def test_trace_takes_the_source_norm_once(capsys, tmp_path, monkeypatch):
    # both bounds divide by the source norm; trace takes it once and hands
    # it to both, with the bounds each gives when it takes the norm itself
    path = tmp_path / "lam.csv"
    assert run(capsys, "decompose", "--dim", "2", "--res", "64",
               "--out", str(path))[0] == EXIT_OK
    lam = CoeffField.from_csv(path.read_text(), 2)
    problem = trace.TraceProblem(parse_params("trace-A", 2))
    want = {"bound_I": trace.trace_bound_I(lam, problem),
            "bound_II": trace.trace_bound_II(lam, problem)}
    calls = []

    def counted(*args):
        calls.append(args)
        return seq_norm(*args)

    monkeypatch.setattr(trace, "seq_norm", counted)
    code, out, err = run(capsys, "trace", "--params", "trace-A",
                         "--input", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert len(calls) == 1
    got = _strict_json(out)
    assert {k: v.hex() for k, v in got.items()} == {
        k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize("variant", ["N", "E"])
def test_seqnorm_weight_overflow_fails_closed(capsys, two_csv, variant):
    # 2^(j s) at j = 2, s = 1000 is above the float range: a raw float
    # power raised OverflowError, and an inf weight times a zero level
    # would be NaN
    result = run(capsys, "seqnorm", "--dim", "2", "--params",
                 f"power-p2-q1-s1000-{variant}-r2", "--input", two_csv)
    _assert_fails_closed(*result)
    assert result[2] == ("error: the level weight 2^(j s) overflows at"
                         " j = 2, s = 1000.0")


@pytest.mark.parametrize("argv", [
    ["norm", "--params", "power-p2-q1-s100000-E-r2", "--res", "16"],
    ["campaign", "--name", "filter", "--params", "power-p2-q2-s100000-N-r2",
     "--resolutions", "16", "--trials", "1"]])
def test_function_weight_overflow_fails_closed(capsys, argv):
    result = run(capsys, *argv)
    _assert_fails_closed(*result)
    assert result[2].endswith("overflows at j = 1, s = 100000.0")


def test_growth_class_power_overflow_is_inf(capsys):
    # t^(-n/q) at q = 1e-6 overflows on the G_q scales; as inf it decides
    # the class, since phi(t) t^(-n/q) is then decreasing
    code, out, err = run(capsys, "norm", "--params",
                         "power-p2-q0.000001-s0-N-r2", "--res", "16")
    assert (code, err) == (EXIT_OK, "")
    assert math.isfinite(_strict_json(out)["norm"])


def test_growth_value_overflow_fails_closed(capsys):
    # phi*(t) = phi(t) t^(-1/q) overflows at the smallest summability scale
    result = run(capsys, "trace", "--params",
                 "power-p2-q0.000001-s2000001-N-r2", "--dry-run")
    _assert_fails_closed(*result)
    assert result[2] == "error: phi(0.000244140625) = inf is not finite"


@pytest.mark.parametrize("argv,message", [
    (["norm", "--params", "power-p1-q2-s0-N-r2", "--res", "16"],
     "phi is not in the admissible growth class for q"),
    (["trace", "--params", "power-p2-q1-s3-N-r2", "--input", "{csv2}"],
     "phi* fails the dyadic summability condition"),
    (["norm", "--params", "power-p2-q1-s0-N-r2", "--input", "{short}"],
     "not a grid-function blob"),
    (["norm", "--params", "power-p2-q1-s0-N-r2", "--fn", "bogus"],
     "unknown preset bogus"),
    (["decompose", "--L", "7", "--res", "64"],
     "kernel support at level 4 exceeds 3Q; lower L or refine G"),
    # the name is matched whole: a longer one ran as random-bandlimited
    (["quark", "--fn", "random-bandlimited-oops", "--res", "64"],
     "unknown preset random-bandlimited-oops"),
    # no quark at all was analysed, and the empty sum exited 0
    (["quark", "--beta-cutoff", "-1", "--res", "64"],
     "beta_cutoff must be >= 0")])
def test_refusals_fail_closed(capsys, tmp_path, argv, message):
    (tmp_path / "lam.csv").write_text(
        CoeffField(2, {1: np.ones((2, 2))}).to_csv())
    (tmp_path / "short.bin").write_bytes(b"GRD")
    paths = {"{csv2}": str(tmp_path / "lam.csv"),
             "{short}": str(tmp_path / "short.bin")}
    result = run(capsys, *[paths.get(a, a) for a in argv])
    _assert_fails_closed(*result)
    assert result[2] == f"error: {message}"


def test_validate_params_nakai_refuses_e_variant():
    # phi = 2^min(j, 0) on the dyadic scales t = 2^j, dropping to 1e-9 at
    # j = 10: in G_1, but no epsilon makes t^eps / phi(t) quasi-decreasing
    phi = table({j: 2.0 ** min(j, 0) if j < 10 else 1e-9
                 for j in range(-10, 11)})
    params = SpaceParams(q=1.0, r=2.0, s=0.0, phi=phi, variant="E")
    with pytest.raises(ValueError, match="needs the Nakai condition"):
        validate_params(params)
    assert validate_params(params.with_(variant="N")) == [
        "growth class check: phi in G_q"]


@pytest.mark.parametrize("cmd,params", [("seqnorm", "power-p2-q1-s1-N-r2"),
                                        ("trace", "trace-A"),
                                        ("extend", "trace-A")])
def test_dry_run_needs_no_input(capsys, cmd, params):
    code, out, _ = run(capsys, cmd, "--params", params, "--dry-run")
    assert code == EXIT_OK
    assert json.loads(out)["checked"]


@pytest.mark.parametrize("fn", ["random-bandlimited", "gaussian"])
def test_decompose_hom_rejects_nonzero_mean(capsys, fn):
    _assert_fails_closed(*run(capsys, "decompose", "--dim", "2", "--res",
                              "64", "--hom", "--fn", fn))


def test_decompose_hom_zero_mean(capsys):
    code, out, _ = run(capsys, "decompose", "--dim", "2", "--res", "64",
                       "--hom", "--fn", "mode")
    assert code == EXIT_OK
    assert json.loads(out)["roundtrip_residual"] < 1e-8


@pytest.mark.parametrize("n,res", [(2, 32), (1, 64)])
def test_input_blob_must_match_dim(capsys, tmp_path, n, res):
    path = tmp_path / "f.bin"
    path.write_bytes(preset_function("gaussian", n, res).to_bytes())
    _assert_fails_closed(*run(capsys, "norm", "--params",
                              "power-p2-q1-s0-N-r2", "--input", str(path),
                              "--dim", str(3 - n)))


def test_readme_dry_run_examples(capsys):
    """Every `--dry-run` example in the README's CLI section exits 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [ln for ln in readme.splitlines()
             if ln.startswith("morreykit ") and "--dry-run" in ln]
    assert lines
    for line in lines:
        assert run(capsys, *shlex.split(line)[1:])[0] == EXIT_OK, line


def _fmt(value):
    if isinstance(value, list):
        return " ".join(map(str, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


# the documents that carry the per-command and per-campaign tables
TABLE_DOCS = ("README.md", "PAPER.md")


def _doc_table(doc, head):
    """The rows of the markdown table under the header row head in doc."""
    text = (Path(__file__).parents[1] / doc).read_text()
    table = text.split(f"| {head} | options (default) |\n|---|---|\n")[1]
    return table.split("\n\n")[0].splitlines()


def test_readme_campaign_table():
    """README's and PAPER.md's per-campaign tables list each campaign's
    options and defaults as cli.CAMPAIGNS holds them."""
    want = {name: {k: _fmt(v) for k, v in reads.items()}
            for name, reads in cli.CAMPAIGNS.items()}
    for doc in TABLE_DOCS:
        rows = {}
        for line in _doc_table(doc, "campaign"):
            name, opts = line.strip("|").split("|")
            rows[name.strip().strip("`")] = dict(
                re.findall(r"`--([\w-]+)` \(([^)]*)\)", opts))
        assert rows == want, doc


def _option_cell(action):
    """An option's README cell: `--flag`, then its default or choices (the
    first is the default) or "required" in parentheses, if it has one."""
    flag = f"`{action.option_strings[0]}`"
    if action.required:
        return f"{flag} (required)"
    if action.choices:
        assert action.default == action.choices[0]
        return f"{flag} ({' | '.join(action.choices)})".replace("|", "\\|")
    if action.default is None or action.nargs == 0:
        return flag
    return f"{flag} ({_fmt(action.default)})"


def test_readme_command_table():
    """README's and PAPER.md's per-command tables list each command's
    options, in order, with the defaults build_parser() gives them;
    campaign's own options are in the per-campaign table."""
    parsers = cli.build_parser()._subparsers._group_actions[0].choices
    want, suppressed = {}, set()
    for name, parser in parsers.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        want[name] = [_option_cell(a) for a in actions
                      if a.default is not argparse.SUPPRESS]
        suppressed |= {a.dest for a in actions
                       if a.default is argparse.SUPPRESS}
    assert suppressed == {opt for reads in cli.CAMPAIGNS.values()
                          for opt in reads}
    for doc in TABLE_DOCS:
        lines = _doc_table(doc, "command")
        rows = {}
        for line in lines:
            names, cells = re.fullmatch(r"\| (.*?) \| (.*) \|", line).groups()
            for name in re.findall(r"`(\w+)`", names):
                rows[name] = re.findall(r"`--[\w-]+`(?: \([^)]*\))?", cells)
        assert rows == want, doc
        assert "the options of that campaign below" in "\n".join(lines), doc


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("MORREYKIT_SEED", "7")
    code, out1, _ = run(capsys, "campaign", "--name", "hardy",
                        "--trials", "20", "--seed", "0")
    monkeypatch.setenv("MORREYKIT_SEED", "7")
    code, out2, _ = run(capsys, "campaign", "--name", "hardy",
                        "--trials", "20", "--seed", "99")
    # same env seed beats different --seed flags: byte-identical reports
    assert out1 == out2


def _huge_input(tmp_path, cmd):
    """A huge input, whose report overflows to a NaN."""
    if cmd == "decompose":
        f = preset_function("gaussian", 1, 256)
        path = tmp_path / "big.bin"
        path.write_bytes(GridFunction(1, f.samples * 1e300).to_bytes())
        return ["decompose", "--dim", "1", "--input", str(path)]
    n = 2 if cmd == "trace" else 1
    path = tmp_path / "big.csv"
    path.write_text(CoeffField(n, {j: np.full((1 << j,) * n, 1e308)
                                   for j in range(4)}).to_csv())
    return [cmd, "--params", "trace-A", "--input", str(path)]


@pytest.mark.parametrize("cmd", ["decompose", "trace", "extend"])
def test_failed_report_writes_no_out_file(capsys, tmp_path, cmd):
    out = tmp_path / "out.csv"
    _assert_fails_closed(*run(capsys, *_huge_input(tmp_path, cmd),
                              "--out", str(out)))
    assert not out.exists()


@pytest.mark.parametrize("value", [1e200, 1e300])
@pytest.mark.parametrize("cmd", ["trace", "extend"])
def test_overflowing_norm_is_no_bound(capsys, tmp_path, cmd, value):
    # a finite input whose sequence norm overflows to inf: dividing by it
    # would report the bounds as 0.0
    n = 2 if cmd == "trace" else 1
    path, out = tmp_path / "lam.csv", tmp_path / "out.csv"
    path.write_text(CoeffField(n, {j: np.full((1 << j,) * n, value)
                                   for j in range(4)}).to_csv())
    _assert_fails_closed(*run(capsys, cmd, "--params", "trace-A", "--input",
                              str(path), "--out", str(out)))
    assert not out.exists()


@pytest.mark.parametrize("cmd,code", [("decompose", EXIT_USAGE),
                                      ("norm", EXIT_OK)])
def test_float_warnings_stay_off_stderr(capsys, tmp_path, cmd, code):
    argv = _huge_input(tmp_path, "decompose")[1:]
    if cmd == "norm":
        argv += ["--params", "power-p2-q1-s0-N-r2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, cmd, *argv)
    assert got == code
    assert len(err.splitlines()) == (code != EXIT_OK)
    if code == EXIT_OK:
        assert _strict_json(out)["norm"] == "inf"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1(capsys, monkeypatch):
    # `morreykit campaign ... | head -c 20`: the reader leaves early
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["campaign", "--name", "hardy", "--r", "inf", "--trials", "3"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_exit_codes_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_EXACT, EXIT_STABILITY}) == 4
