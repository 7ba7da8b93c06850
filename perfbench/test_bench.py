"""Self-test of the benchmark: each workload on a tiny cycle.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that a run reports every metric BENCHMARK.json declares, with its
unit, that every op passes its checks, and that a corrupted program output
is counted as a failed op.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
run.import_program()

import morreykit  # noqa: E402  (imported from src/ by import_program)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The cheap slots of each workload: one cycle of them takes seconds.
TINY = {
    "norm-cli": lambda s: s.G == 4096,
    "decompose-trace": lambda s: s.G < 256 or s.n == 1,
    "campaign": lambda s: (s.G in (0, 1024) and s.kind != "counterexample"
                           and s.cfg.get("trials", 0) < 10),
}


def tiny_run(name, trace):
    return run.run_workload(name, seed=3, seconds=0, trace=trace,
                            startup_s=0.0, only=TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_metrics_and_checks(name, trace):
    result, info = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1 and info["fail_ratio"] == 0.0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])
    if trace:
        assert result["metrics"]["dyadic.calls"]["value"] == 0
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])
        assert info["tail_ops_beyond"] == 10 and 0 < info["tail_percentile"] <= 100
    for key in ("git_sha", "git_dirty", "python", "numpy", "cpu_count", "seed"):
        assert key in info


def _scaled(fn, factor):
    return lambda *a, **k: fn(*a, **k) * factor


def _bad_norm(mp):
    mp.setattr(morreykit.cli, "space_norm",
               _scaled(morreykit.cli.space_norm, 1.0 + 1e-9))


def _bad_extension(mp):
    extend = morreykit.trace.extend_coeff

    def doubled(mu, problem):  # trace(extend(mu)) = 2 mu
        out = extend(mu, problem)
        out.levels = {j: 2 * v for j, v in out.levels.items()}
        return out
    mp.setattr(morreykit.trace, "extend_coeff", doubled)


def _bad_peetre(mp):
    peetre = morreykit.verify.peetre_maximal
    mp.setattr(morreykit.verify, "peetre_maximal", lambda *a, **k:
               morreykit.gridfn.GridFunction(a[0].n, 0.5 * peetre(*a, **k).samples))


@pytest.mark.parametrize("name, corrupt", [
    ("norm-cli", _bad_norm),
    ("decompose-trace", _bad_extension),
    ("campaign", _bad_peetre),
])
def test_corrupted_output_is_a_failed_op(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result, info = tiny_run(name, 0)
    assert not result["correct"]
    assert result["failed"] >= 1 and info["fail_ratio"] > 0
