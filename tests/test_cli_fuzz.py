"""CLI fuzz: every subcommand, with argvs drawn from a small vocabulary of
bad and edge values, ends in an exit code, never an exception, and prints
nothing but strict JSON (no NaN or Infinity token).

Options that set the cost of a run (--res, --trials, --resolutions) are
always given where the command reads them, with small values, and --dim
stays below 3 (each patch stack of a 3-D decomposition holds (4G)^3
values), so that each call stays cheap; everything else may be missing,
junk or left without a value.  Each campaign has its own base run, since
a campaign option that the named campaign does not read exits 1.

Those draws rarely build a campaign report, so a second property draws
only valid values of each campaign's own options and asserts that every
campaign prints one (exit 0 or 3).
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morreykit.cli import CAMPAIGNS, main
from morreykit.gridfn import random_bandlimited
from morreykit.norms import CoeffField

JUNK = ["nan", "inf", "-inf", "-1", "0", "1", "2", "x", "--", "", "1e400"]
PARAMS = ["power-p2-q1-s1-N-r2", "powerlog-e1-p2-q1-s1-E-rinf",
          "loginv-e1-q1-s0-E-r0.5", "power-p2-q2-s1-E-r0.5-hom",
          "power-p1-q1-s2-N-r2", "trace-A", "trace-D", "trace-Z", "trace-",
          "power-p2-e3-q1-s0-N-r2", "loginv-p2-q1-s0-N-r2", "power-pnan-q1",
          "power-p0-q1", "power-q0", "power-p2-q1-s0-N-r0", "power-rinf-sinf",
          "table-p1", "bogus-p2", "power--q1", "power-p2-q1-hom-hom"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(d / "missing.csv"), "out": str(d / "out.txt")}
    for n in (1, 2):
        lam = CoeffField(n, {1: np.ones((2,) * n), 2: np.zeros((4,) * n)})
        paths[f"csv{n}"] = str(d / f"lam{n}.csv")
        (d / f"lam{n}.csv").write_text(lam.to_csv())
        paths[f"blob{n}"] = str(d / f"f{n}.bin")
        (d / f"f{n}.bin").write_bytes(
            random_bandlimited(n, 32 if n == 2 else 64, 4, seed=n).to_bytes())
    for name, val in (("nanblob", np.nan), ("infblob", np.inf)):
        f = random_bandlimited(2, 32, 4, seed=3)
        f.samples[1, 2] = val
        paths[name] = str(d / f"{name}.bin")
        (d / f"{name}.bin").write_bytes(f.to_bytes())
    (d / "bad.csv").write_text("j,m1,re,im\n1,0,nan,0\n")
    paths["badcsv"] = str(d / "bad.csv")
    (d / "short.bin").write_bytes(b"GRD")
    paths["short"] = str(d / "short.bin")
    suites = {
        "suite_ok": [{"name": "hardy", "trials": 2},
                     {"name": "embedding", "trials": 1, "depth": 3, "r": 0.5}],
        "suite_phi": [{"name": "maximal", "phi": "bogus", "trials": 1,
                       "resolutions": [16, 32]}],
        "suite_bad": [{"name": "hardy", "trials": -1, "r": 0}],
    }
    for name, body in suites.items():
        (d / f"{name}.json").write_text(json.dumps(body))
        paths[name] = str(d / f"{name}.json")
    (d / "junk.json").write_text("{not json")
    paths["suite_junk"] = str(d / "junk.json")
    return paths


INPUTS = ["missing", "csv1", "csv2", "blob1", "blob2", "badcsv", "short",
          "nanblob", "infblob"]
VALUES = {
    "--params": PARAMS, "--dim": ["1", "2", "0", "-1", "nan"],
    "--res": ["16", "32", "64", "-1", "0", "3", "nan", "x"],
    "--fn": ["gaussian", "mode", "chirp", "random-bandlimited", "x"],
    "--seed": JUNK, "--input": INPUTS, "--out": ["out"], "--dry-run": [],
    "--bank": ["partition", "bump", "x"], "--L": ["-2", "-1", "0", "1", "2"],
    "--hom": [], "--beta-cutoff": ["-1", "0", "1", "2", "x"],
    # the cheap campaigns only: a switched name keeps the base's options
    "--name": ["hardy", "counterexample", "x", ""],
    "--trials": ["-1", "0", "1", "2", "nan", "x"],
    "--delta": JUNK + ["1e-3", "1e-17"],
    "--r": JUNK + ["0.5", "1e-3", "1e-17"],
    "--depth": ["-1", "0", "1", "3", "x"],
    "--phi": ["power", "powerlog", "bogus"],
    "--resolutions": ["16 32", "32", "4", "3", "2", "1", "-1", "0", "16 0",
                      "16 x", "x"],
    "--file": ["suite_ok", "suite_phi", "suite_bad", "suite_junk", "missing"],
}
# a run of each command (and campaign) that exits 0; its options that set
# the cost of a run (--res, --trials, --resolutions) stay small whatever is
# drawn
BASE = {
    "norm": {"--params": "power-p2-q1-s1-N-r2", "--res": "32"},
    "seqnorm": {"--params": "power-p2-q1-s1-N-r2", "--input": "csv1"},
    "decompose": {"--res": "32"},
    "quark": {"--res": "64", "--fn": "random-bandlimited"},
    "trace": {"--params": "trace-A", "--input": "csv2"},
    "extend": {"--params": "trace-A", "--input": "csv1"},
    "campaign hardy": {"--name": "hardy", "--trials": "2"},
    "campaign maximal": {"--name": "maximal", "--trials": "1",
                         "--resolutions": "16 32"},
    "campaign filter": {"--name": "filter", "--trials": "2",
                        "--resolutions": "16 32"},
    "campaign peetre": {"--name": "peetre", "--trials": "2",
                        "--resolutions": "16 32"},
    "campaign embedding": {"--name": "embedding", "--trials": "2",
                           "--depth": "3"},
    "campaign counterexample": {"--name": "counterexample"},
    "suite": {"--file": "suite_ok"},
}
BOUNDED = {"--res", "--trials", "--resolutions"}
# the options each command takes
OWN = {
    "norm": "--params --dim --res --fn --seed --input --bank --dry-run",
    "seqnorm": "--params --dim --input --dry-run",
    "decompose": "--dim --res --fn --seed --input --out --L --hom",
    "quark": "--dim --res --fn --seed --input --out --beta-cutoff",
    "trace": "--params --dim --input --out --dry-run",
    "extend": "--params --dim --input --out --dry-run",
    "campaign hardy": "--name --seed --delta --r --trials",
    "campaign maximal": "--name --seed --phi --dim --trials --resolutions",
    "campaign filter": "--name --seed --params --dim --trials --resolutions",
    "campaign peetre": "--name --seed --params --dim --trials --resolutions",
    "campaign embedding": "--name --seed --dim --r --depth --trials",
    "campaign counterexample": "--name --seed --r",
    "suite": "--file --seed",
}


@st.composite
def argvs(draw):
    """(command, {flag: value or None}): up to four options of the base
    run are set, unset, or left without a value (None)."""
    cmd = draw(st.sampled_from(sorted(BASE)))
    opts = dict(BASE[cmd])
    for _ in range(draw(st.integers(1, 4))):
        # now and then a flag the command does not take
        flags = OWN[cmd].split() if draw(st.integers(0, 9)) else sorted(VALUES)
        flag = draw(st.sampled_from(flags))
        action = draw(st.sampled_from(["set", "set", "set", "drop", "bare"]))
        if action == "drop" and flag not in BOUNDED:
            opts.pop(flag, None)
        elif action == "bare" or not VALUES[flag]:
            opts[flag] = None
        else:
            opts[flag] = draw(st.sampled_from(VALUES[flag]))
    return cmd, opts


def _reject(token):
    raise AssertionError(f"stdout holds the non-JSON token {token}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=argvs())
def test_cli_fuzz_fails_closed(files, drawn):
    cmd, opts = drawn
    argv = [cmd.split()[0]]
    for flag, val in opts.items():
        argv.append(flag)
        if val in files and flag in ("--input", "--out", "--file"):
            argv.append(files[val])
        elif val is not None:
            argv += val.split(" ") if flag == "--resolutions" else [val]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject)


# valid values of each campaign's own options; those that set the cost of a
# run (BOUNDED, and --depth) stay small
GOOD_PARAMS = ["power-p2-q2-s1-N-r2", "power-p2-q1-s1-E-rinf",
               "loginv-e1-q1-s0-E-r0.5", "powerlog-e1-p2-q1-s1-N-r2",
               "power-p2-q1-s1-N-r2-hom", "power-p4-q2-s0.5-E-rinf-hom"]
GRIDS = {"--dim": ["1", "2"], "--trials": ["1", "2"]}
GOOD = {
    "hardy": {"--delta": ["0.5", "1", "2"], "--r": ["0.5", "1", "2", "inf"],
              "--trials": ["1", "2"]},
    "maximal": {"--phi": ["power", "powerlog"], **GRIDS,
                "--resolutions": ["4", "8 16", "16 32"]},
    "filter": {"--params": GOOD_PARAMS, **GRIDS,
               "--resolutions": ["16", "16 32"]},
    "peetre": {"--params": GOOD_PARAMS, **GRIDS,
               "--resolutions": ["16", "16 32"]},
    "embedding": {"--dim": ["1", "2"], "--r": ["0.25", "0.5", "1.5"],
                  "--depth": ["1", "3", "4"], "--trials": ["1", "2"]},
    "counterexample": {"--r": ["0.25", "0.5", "0.8"]},
}


def test_good_values_cover_every_campaign_option():
    assert {name: sorted(opts) for name, opts in GOOD.items()} == {
        name: sorted(f"--{key}" for key in takes)
        for name, takes in CAMPAIGNS.items()}


@pytest.mark.parametrize("name", sorted(GOOD))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_campaign_with_valid_options_prints_report(name, data):
    argv = ["campaign", "--name", name]
    for flag, vals in {"--seed": ["0", "1", "7", "123"], **GOOD[name]}.items():
        # an option left out takes the campaign default, which is costly
        # for the options that set the size of a run
        if flag in BOUNDED | {"--depth"} or data.draw(st.booleans()):
            argv += [flag] + data.draw(st.sampled_from(vals)).split(" ")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (argv, err.getvalue())
    report = json.loads(out.getvalue(), parse_constant=_reject)
    assert report["passed"] and report["constants"], argv
