"""A fixed list of CLI argvs and the digests of what each one gives.

    python tests/corpus.py FILE

Every argv of ARGVS runs in-process through `cli.main`, in order, in a
fresh temporary directory that first holds the files of INPUTS; an argv
may read what an earlier one wrote with `--out`.  FILE gets one line per
argv: the exit code, the SHA-256 of stdout, of stderr and of the `--out`
file (`-` without `--out`, `absent` when the run wrote none), then the
argv.  Two checkouts that write the same FILE gave the same exit code and
bytes for every argv.  pytest does not collect this file;
tests/test_mutants.py checks that every argv parses.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _blob(n, G, samples):
    """A grid-function blob (GridFunction.to_bytes) made with plain numpy."""
    data = np.asarray(samples, dtype=np.complex128).reshape((G,) * n)
    return struct.pack("<4sII4s", b"MKGF", n, G, b"c128") + data.tobytes()


def _smooth(n, G):
    """exp(cos 2 pi x_1 + ... + cos 2 pi x_n): smooth, not band-limited."""
    x = np.arange(G) / G
    r = sum(np.cos(2 * np.pi * x).reshape([-1 if a == ax else 1
                                           for a in range(n)])
            for ax in range(n))
    return np.exp(r)


_CSV_HEAD = "j,m1,m2,re,im\n"
# name -> bytes, written to the run directory before the first argv
INPUTS = {
    "smooth-1x256.bin": _blob(1, 256, _smooth(1, 256)),
    "smooth-2x64.bin": _blob(2, 64, _smooth(2, 64)),
    "huge-1x64.bin": _blob(1, 64, 2.0 ** 1016 * _smooth(1, 64) / np.e),
    "nan-1x64.bin": _blob(1, 64, np.full(64, np.nan)),
    "short.bin": b"MKGF",
    "lam-huge.csv": (_CSV_HEAD + "0,0,0,1e308,0\n1,0,0,1e308,0\n"
                     "1,1,1,1e308,0\n1,0,1,1e308,0\n").encode(),
    "lam-1e200.csv": (_CSV_HEAD + "".join(
        f"{j},0,0,1e200,0\n" for j in range(4))).encode(),
    "mu-1e200.csv": ("j,m1,re,im\n" + "".join(
        f"{j},0,1e200,0\n" for j in range(4))).encode(),
    "lam-cols.csv": (_CSV_HEAD + "0,0,0,1.0\n").encode(),
    "lam-word.csv": (_CSV_HEAD + "0,0,0,one,0\n").encode(),
    "lam-index.csv": (_CSV_HEAD + "1,2,0,1.0,0\n").encode(),
    "lam-negative.csv": (_CSV_HEAD + "1,-1,0,1.0,0\n").encode(),
    "lam-inf.csv": (_CSV_HEAD + "0,0,0,inf,0\n").encode(),
    "lam-hom.csv": (_CSV_HEAD + "-1,1,0,1.0,0\n").encode(),
    "suite.json": json.dumps([
        {"name": "hardy", "r": 2.0, "delta": 0.5, "trials": 4},
        {"name": "counterexample", "r": 0.5},
        {"name": "embedding", "r": 1, "depth": 4, "trials": 3},
        {"name": "maximal", "phi": "powerlog", "trials": 2,
         "resolutions": [64, 128]},
        {"name": "filter", "params": "power-p2-q1-s1-N-r2", "dim": 2,
         "trials": 2, "resolutions": [16, 32], "seed": 4}]).encode(),
    "suite-r-string.json": b'[{"name": "hardy", "r": "2"}]',
    "suite-r-nan.json": b'[{"name": "hardy", "r": NaN}]',
    "suite-seed-bool.json": b'[{"name": "counterexample", "seed": true}]',
    "suite-unread.json": b'[{"name": "counterexample", "depth": 3}]',
    "suite-late-bad.json": (b'[{"name": "counterexample"},'
                            b' {"name": "maximal", "phi": "exp"}]'),
    "suite-object.json": b'{"name": "hardy"}',
    "suite-broken.json": b'[{"name": ',
}

_N1, _E1 = "power-p2-q1-s1-N-r2", "powerlog-e1-p2-q1-s1-E-rinf"
ARGVS = [
    # norm: the four presets, both banks, the growth families and variants
    *[["norm", "--params", p, "--dim", "1", "--res", "512", "--fn", fn]
      for fn in ("gaussian", "mode", "chirp", "random-bandlimited")
      for p in (_N1, _E1)],
    *[["norm", "--params", p, "--dim", "2", "--res", "64", "--bank", bank,
       "--seed", "3", "--fn", "random-bandlimited"]
      for bank in ("partition", "bump")
      for p in (_N1, "power-p2-q1-s1-N-r2-hom", "loginv-e1-q1-s0-E-r0.5",
                "powerlog-e1.5-p4-q1-s1-N-rinf-hom", "power-p4-q2-s0.5-E-rinf",
                "power-p2-q1-s-1-N-r2")],
    ["norm", "--params", _N1, "--dim", "3", "--res", "16", "--bank", "bump"],
    # norm at the benchmark's shapes
    *[["norm", "--params", p, "--dim", str(n), "--res", str(G), "--bank", bank,
       "--fn", "random-bandlimited", "--seed", "7"]
      for n, G, bank, p in ((2, 256, "partition", "power-p2-q1-s1-N-r2-hom"),
                            (2, 256, "bump", "loginv-e1-q2-s0-N-rinf"),
                            (2, 128, "partition", "loginv-e1-q1-s0-E-r0.5"),
                            (2, 128, "bump", "power-p2-q2-s0-N-rinf-hom"),
                            (1, 4096, "partition", _N1),
                            (1, 4096, "bump", "loginv-e2-q1-s0-E-rinf"))],
    ["norm", "--params", _N1, "--input", "smooth-1x256.bin"],
    ["norm", "--params", _E1, "--dim", "2", "--input", "smooth-2x64.bin",
     "--bank", "bump"],
    ["norm", "--params", _N1, "--dry-run"],
    ["norm", "--params", "power-p2-q1-s1-E-r2", "--dry-run"],
    # norm refusals and overflow
    ["norm", "--params", _N1, "--input", "huge-1x64.bin"],
    ["norm", "--params", _N1, "--input", "nan-1x64.bin"],
    ["norm", "--params", _N1, "--input", "short.bin"],
    ["norm", "--params", _N1, "--input", "missing.bin"],
    ["norm", "--params", _N1, "--dim", "2", "--input", "smooth-1x256.bin"],
    ["norm", "--params", "power-p2-q1-sx-N-r2"],
    ["norm", "--params", "power-p2-q1-s1-N-r2-zz"],
    ["norm", "--params", "power-e2-q1"],
    ["norm", "--params", "cosh-q1"],
    ["norm", "--params", "power-p2-q1-s1-N-rnan"],
    ["norm", "--params", "power-p0.5-q2-s1-N-r2"],
    ["norm", "--params", _N1, "--res", "48"],
    ["norm", "--params", _N1, "--dim", "2", "--res", "2"],
    ["norm", "--params", _N1, "--dim", "3", "--res", "1024"],
    ["norm", "--params", _N1, "--fn", "random"],
    ["norm", "--params", "trace-A", "--dim", "2", "--res", "32"],
    ["norm", "--params", "trace-E"],
    # decompose, with the outputs the coefficient commands read
    ["decompose", "--dim", "2", "--res", "64", "--fn", "random-bandlimited",
     "--seed", "5", "--out", "lam-2x64.csv"],
    ["decompose", "--dim", "2", "--res", "64", "--fn", "mode", "--hom",
     "--out", "lam-2x64-hom.csv"],
    ["decompose", "--dim", "1", "--res", "512", "--L", "2", "--fn", "chirp",
     "--out", "lam-1x512.csv"],
    ["decompose", "--dim", "3", "--res", "16", "--fn", "gaussian"],
    ["decompose", "--dim", "1", "--input", "smooth-1x256.bin", "--L", "0"],
    ["decompose", "--dim", "2", "--res", "256", "--fn", "random-bandlimited",
     "--seed", "8", "--out", "lam-2x256.csv"],
    ["decompose", "--dim", "2", "--res", "128", "--fn", "gaussian"],
    ["decompose", "--dim", "1", "--res", "4096", "--fn", "random-bandlimited"],
    ["decompose", "--dim", "1", "--res", "4096", "--L", "2", "--fn", "chirp"],
    # the 1-D L = 2 round trip misses its gate on this grid: exit 2
    ["decompose", "--dim", "1", "--res", "65536", "--L", "2", "--hom",
     "--fn", "mode"],
    ["decompose", "--dim", "2", "--res", "64", "--hom"],
    ["decompose", "--dim", "1", "--res", "64", "--L", "-2"],
    ["decompose", "--dim", "2", "--res", "64", "--fn", "mode", "--hom",
     "--out", "no-such-dir/lam.csv"],
    # quark
    ["quark", "--dim", "1", "--res", "256", "--out", "quark-1x256.csv"],
    ["quark", "--dim", "2", "--res", "128", "--beta-cutoff", "2", "--seed",
     "2", "--out", "quark-2x128.csv"],
    ["quark", "--dim", "1", "--res", "4096", "--beta-cutoff", "2"],
    ["quark", "--dim", "2", "--res", "64", "--beta-cutoff", "0"],
    ["quark", "--dim", "1", "--res", "256", "--beta-cutoff", "-1"],
    ["quark", "--dim", "1", "--input", "smooth-1x256.bin"],
    ["quark", "--dim", "1", "--res", "64", "--fn", "chirp"],
    # seqnorm on the decompositions and on bad or extreme CSVs
    *[["seqnorm", "--params", p, "--dim", "2", "--input", csv]
      for csv in ("lam-2x64.csv", "lam-2x256.csv")
      for p in (_N1, _E1, "loginv-e1-q1-s0-E-r0.5")],
    ["seqnorm", "--params", "power-p2-q1-s1-N-r2-hom", "--dim", "2",
     "--input", "lam-2x64-hom.csv"],
    ["seqnorm", "--params", _N1, "--input", "lam-1x512.csv"],
    ["seqnorm", "--params", _N1, "--dim", "2", "--input", "lam-huge.csv"],
    ["seqnorm", "--params", "power-p2-q1-s1-N-rinf", "--dim", "2",
     "--input", "lam-huge.csv"],
    *[["seqnorm", "--params", _N1, "--dim", "2", "--input", csv]
      for csv in ("lam-cols.csv", "lam-word.csv", "lam-index.csv",
                  "lam-negative.csv", "lam-inf.csv", "lam-hom.csv",
                  "missing.csv")],
    ["seqnorm", "--params", _N1, "--dim", "2"],
    ["seqnorm", "--params", _N1, "--dim", "2", "--input", "lam-2x64.csv",
     "--dry-run"],
    # trace and extend: the four presets, the chain, refusals
    *[["trace", "--params", f"trace-{t}", "--input", "lam-2x64.csv", "--out",
       f"tr-{t}.csv"] for t in "ABCD"],
    *[["extend", "--params", f"trace-{t}", "--input", f"tr-{t}.csv", "--out",
       f"ext-{t}.csv"] for t in "ABCD"],
    ["trace", "--params", "trace-B", "--input", "lam-2x256.csv"],
    ["trace", "--params", "trace-A", "--input", "lam-2x64-hom.csv"],
    ["trace", "--params", "trace-C", "--dry-run"],
    ["extend", "--params", "trace-D", "--dry-run"],
    ["trace", "--params", "trace-A", "--input", "lam-1e200.csv"],
    ["extend", "--params", "trace-A", "--input", "mu-1e200.csv"],
    ["trace", "--params", "power-p2-q1-s0.2-N-r2", "--input", "lam-2x64.csv"],
    ["trace", "--params", "trace-A", "--input", "lam-word.csv"],
    ["extend", "--params", "trace-B", "--dim", "3", "--input", "tr-B.csv",
     "--out", "ext-3d.csv"],
    # every campaign, at small sizes and at the benchmark's shapes
    ["campaign", "--name", "hardy", "--trials", "4"],
    ["campaign", "--name", "hardy", "--delta", "0.25", "--r", "1.5",
     "--trials", "3", "--seed", "2"],
    ["campaign", "--name", "maximal", "--trials", "2", "--resolutions", "64",
     "128"],
    ["campaign", "--name", "maximal", "--phi", "powerlog", "--dim", "2",
     "--trials", "1", "--resolutions", "16", "32"],
    ["campaign", "--name", "maximal", "--trials", "16", "--resolutions", "512",
     "1024"],
    ["campaign", "--name", "filter", "--dim", "2", "--trials", "2",
     "--resolutions", "32", "64"],
    ["campaign", "--name", "filter", "--params", "power-p2-q1-s1-N-r2-hom",
     "--trials", "2", "--resolutions", "128", "256"],
    ["campaign", "--name", "filter", "--params", _E1, "--dim", "2",
     "--trials", "2", "--resolutions", "128"],
    ["campaign", "--name", "peetre", "--trials", "2", "--resolutions", "128",
     "256"],
    ["campaign", "--name", "peetre", "--params", _E1, "--dim", "2",
     "--trials", "1", "--resolutions", "32", "64"],
    ["campaign", "--name", "peetre", "--params", "power-p4-q2-s0.5-N-r2",
     "--trials", "1", "--resolutions", "1024", "4096"],
    ["campaign", "--name", "embedding", "--trials", "3", "--depth", "4"],
    ["campaign", "--name", "embedding", "--r", "1.5", "--depth", "8",
     "--trials", "2"],
    ["campaign", "--name", "embedding", "--dim", "2", "--depth", "3",
     "--trials", "2"],
    ["campaign", "--name", "counterexample"],
    ["campaign", "--name", "counterexample", "--r", "0.3"],
    # campaign refusals
    ["campaign", "--name", "counterexample", "--r", "0.9"],
    ["campaign", "--name", "sobolev"],
    ["campaign", "--name", "hardy", "--depth", "3"],
    ["campaign", "--name", "maximal", "--phi", "exp"],
    ["campaign", "--name", "maximal", "--trials", "0"],
    ["campaign", "--name", "maximal", "--dim", "3", "--resolutions", "1024"],
    ["campaign", "--name", "filter", "--params", "power-q1-zz"],
    ["campaign", "--name", "embedding", "--dim", "3", "--depth", "9"],
    # suites
    ["suite", "--file", "suite.json"],
    ["suite", "--file", "suite.json", "--seed", "9"],
    *[["suite", "--file", f] for f in (
        "suite-r-string.json", "suite-r-nan.json", "suite-seed-bool.json",
        "suite-unread.json", "suite-late-bad.json", "suite-object.json",
        "suite-broken.json", "missing.json")],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    """One argv through cli.main in the current directory, as its line."""
    from morreykit import cli
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = "-" if out is None else \
        _sha(Path(out).read_bytes()) if os.path.exists(out) else "absent"
    return " ".join([str(code), _sha(stdout.getvalue().encode()),
                     _sha(stderr.getvalue().encode()), written, *argv])


def run_all():
    """Yield the line of every argv, run in order in a fresh directory that
    holds INPUTS; the working directory is restored afterwards."""
    here = os.getcwd()
    seed = os.environ.pop("MORREYKIT_SEED", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, data in INPUTS.items():
                Path(name).write_bytes(data)
            for argv in ARGVS:
                yield run(argv)
    finally:
        os.chdir(here)
        if seed is not None:
            os.environ["MORREYKIT_SEED"] = seed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    with open(args[0], "w") as fh:
        for line in run_all():
            print(line, file=fh, flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
