"""Named mutations of the source, each with the test file that must fail.

    python tests/mutants.py

For each mutant the checkout is copied into a temporary directory, the
mutant's anchor text, which must occur exactly once in its file, is
replaced, and `pytest -x` runs the mutant's target test file there.  A
mutant is killed when that run reports a failed test; a run that cannot
collect its tests is an error, not a kill.  One line per mutant is
printed, and the exit status is 1 if any mutant survived or erred.  pytest
does not collect this file; tests/test_mutants.py checks that every anchor
still matches and every target exists.
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
    target: str  # test file that must fail, relative to the checkout


DECOMP = "src/morreykit/decomp.py"
MUTANTS = [
    # level 1 on its even-wavenumber lattice
    Mutant("lattice-buf-not-zeroed", DECOMP,
           "            if ev[0].step:  # level 1: off the lattice the product"
           " is +0.0\n                buf[...] = 0\n", "",
           "tests/test_decomp.py"),
    Mutant("lattice-inverse-pruned-on-own-axis", DECOMP,
           "buf[(...,) + ev[:ax] + (slice(None),) * (n - ax)]",
           "buf[(...,) + ev[:ax + 1] + (slice(None),) * (n - ax - 1)]",
           "tests/test_decomp.py"),
    Mutant("lattice-at-every-level-with-G-patch", DECOMP,
           "slice(None, None, 2) if size > G",
           "slice(None, None, 2) if size >= G",
           "tests/test_decomp.py"),
    Mutant("lattice-forward-pruned-on-own-axis", DECOMP,
           "inner[:ax] + (slice(None),) + ev[ax + 1:]", "inner[:ax] + ev[ax:]",
           "tests/test_decomp.py"),
    # slabbed analysis and per-level filters
    Mutant("slab-patch-not-zeroed", DECOMP,
           "        ext[...] = 0\n", "", "tests/test_decomp.py"),
    Mutant("slab-cap-not-rounded", DECOMP,
           "    per = 1 << (per.bit_length() - 1)\n", "",
           "tests/test_decomp.py"),
    # the quark sampling expansion
    Mutant("quark-window-off-by-1e-9", DECOMP, "* (Sf // S) ** n",
           "* (Sf // S) ** n * (1 + 1e-9)", "tests/test_decomp.py"),
    Mutant("psi-times-reciprocal", "src/morreykit/gridfn.py",
           "        ps /= self.denom\n", "        ps *= 1.0 / self.denom\n",
           "tests/test_gridfn.py"),
    Mutant("preset-meshgrid", "src/morreykit/gridfn.py",
           "        r2 = _outer(np.add, [x ** 2] * n)\n"
           "        return GridFunction(n, np.exp(-40.0 * r2)",
           "        r2 = sum(np.meshgrid(*[x ** 2] * n, indexing=\"ij\"))\n"
           "        return GridFunction(n, np.exp(-40.0 * r2)",
           "tests/test_hygiene.py"),
    # trace bounds
    Mutant("bound-I-levels-reversed", "src/morreykit/trace.py",
           "        for j, T in terms:\n",
           "        for j, T in reversed(terms):\n",
           "tests/test_trace.py"),
    Mutant("bound-II-split-power", "src/morreykit/trace.py",
           "acc += (level_weight(j0, star.s) * expanded) ** star.q",
           "acc += level_weight(j0, star.s) ** star.q * expanded ** star.q",
           "tests/test_trace.py"),
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
    """'killed', 'survived' or 'error', from pytest -x on the target in a
    mutated copy of the checkout."""
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
