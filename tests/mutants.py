"""Named mutations of the source, each with the test that must fail.

    python tests/mutants.py

For each mutant the checkout is copied into a temporary directory, the
mutant's anchor text, which must occur exactly once in its file, is
replaced, and `pytest -x` runs the mutant's target there: one test
function, named by its pytest node id (all its parameter sets).  A mutant
is killed when that run reports a failed test; a run that cannot collect
its test is an error, not a kill.  One line per mutant is printed, and the
exit status is 1 if any mutant survived or erred.  pytest does not collect
this file; tests/test_mutants.py checks that every anchor still matches
and every target test is defined in its file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # source file, relative to the checkout
    anchor: str  # exact text, found once in the file
    replacement: str
    target: str  # node id of the test that must fail: FILE::FUNCTION


DECOMP = "src/morreykit/decomp.py"
UNSLABBED = "tests/test_decomp.py::test_level_analysis_matches_unslabbed"
MUTANTS = [
    # level 1 on its even-wavenumber lattice
    Mutant("lattice-buf-not-zeroed", DECOMP,
           "            if ev[0].step:  # level 1: off the lattice the product"
           " is +0.0\n                buf[...] = 0\n", "", UNSLABBED),
    Mutant("lattice-inverse-pruned-on-own-axis", DECOMP,
           "buf[(...,) + ev[:ax] + (slice(None),) * (n - ax)]",
           "buf[(...,) + ev[:ax + 1] + (slice(None),) * (n - ax - 1)]",
           UNSLABBED),
    Mutant("lattice-at-every-level-with-G-patch", DECOMP,
           "slice(None, None, 2) if size > G",
           "slice(None, None, 2) if size >= G", UNSLABBED),
    Mutant("lattice-forward-pruned-on-own-axis", DECOMP,
           "inner[:ax] + (slice(None),) + ev[ax + 1:]", "inner[:ax] + ev[ax:]",
           UNSLABBED),
    # slabbed analysis and per-level filters
    Mutant("slab-patch-not-zeroed", DECOMP,
           "        ext[...] = 0\n", "", UNSLABBED),
    Mutant("slab-cap-not-rounded", DECOMP,
           "    per = min(1 << (per.bit_length() - 1), lam.size)\n",
           "    per = min(per, lam.size)\n", UNSLABBED),
    # the quark sampling expansion
    Mutant("quark-window-off-by-1e-9", DECOMP, "* (Sf // S) ** n",
           "* (Sf // S) ** n * (1 + 1e-9)",
           "tests/test_decomp.py::test_quark_sampling_expansion_is_exact"),
    Mutant("psi-times-reciprocal", "src/morreykit/gridfn.py",
           "        ps /= self.denom\n", "        ps *= 1.0 / self.denom\n",
           "tests/test_gridfn.py::test_psi_matches_stored_spectra"),
    Mutant("preset-meshgrid", "src/morreykit/gridfn.py",
           "        r2 = _outer(np.add, [x ** 2] * n)\n"
           "        return GridFunction(n, np.exp(-40.0 * r2)",
           "        r2 = sum(np.meshgrid(*[x ** 2] * n, indexing=\"ij\"))\n"
           "        return GridFunction(n, np.exp(-40.0 * r2)",
           "tests/test_hygiene.py::test_grid_products_only_in_gridfn"),
    # trace bounds
    Mutant("bound-I-levels-reversed", "src/morreykit/trace.py",
           "        for j, T in terms:\n",
           "        for j, T in reversed(terms):\n",
           "tests/test_trace.py::test_bounds_match_the_loops"),
    Mutant("bound-II-split-power", "src/morreykit/trace.py",
           "acc += (level_weight(j0, star.s) * expanded) ** star.q",
           "acc += level_weight(j0, star.s) ** star.q * expanded ** star.q",
           "tests/test_trace.py::test_bounds_match_the_loops"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's anchor in its file under root."""
    path = root / mutant.path
    text = path.read_text()
    found = text.count(mutant.anchor)
    if found != 1:
        raise ValueError(f"{mutant.name}: anchor found {found} times in"
                         f" {mutant.path}")
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error', from pytest -x on the target test in
    a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", mutant.target], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s"
              f"  {mutant.name}  ({mutant.target})", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
