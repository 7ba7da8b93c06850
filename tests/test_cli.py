import hashlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from morreykit import cli
from morreykit.cli import (EXIT_EXACT, EXIT_OK, EXIT_STABILITY, EXIT_USAGE,
                           main, parse_params, validate_params)
from morreykit.growth import SpaceParams, power
from morreykit.gridfn import GridFunction, make_bank, preset_function
from morreykit.norms import CoeffField, space_norm

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


def test_campaign_command(capsys):
    code, out, _ = run(capsys, "campaign", "--name", "hardy",
                       "--trials", "50")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    code, _, err = run(capsys, "campaign", "--name", "unknown")
    assert code == EXIT_USAGE


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cmd", ["decompose", "trace", "extend"])
def test_failed_report_writes_no_out_file(capsys, tmp_path, cmd):
    out = tmp_path / "out.csv"
    _assert_fails_closed(*run(capsys, *_huge_input(tmp_path, cmd),
                              "--out", str(out)))
    assert not out.exists()


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
