"""Inputs, op schedules and output checks of the three workloads.

Every input is made here from the benchmark seed with plain numpy; the
program only ever sees the finished inputs (GridFunction blobs, coefficient
CSVs it wrote itself, corpora handed to `verify`).

Inputs come from fixed pools.  Pool member k of an input class at (n, G) is
drawn from a seed that belongs to the benchmark, so the stored reference
values in `reference.json` apply to it.  For each op the run seed picks the
members and an exact symmetry of the quantity being checked:

* a factor c in {1, -1, i, -i} * 2^{-1, 0, 1} (norms scale by |c|, ratios
  do not change);
* a shift by G/2 along any axis (the dyadic lattice maps onto itself; the
  trace workload only shifts along x_1, which keeps the hyperplane x_n = 0);
* in 2-D, a transposition (every norm here is symmetric in the axes; not
  used for traces).

The outputs then agree with the references up to rounding, and every op is
checked against them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from morreykit import cli, trace, verify
from morreykit.cli import TRACE_PRESETS, parse_params
from morreykit.gridfn import GridFunction, make_bank, rychkov_pair
from morreykit.growth import power, powerlog
from morreykit.norms import CoeffField

# Relative tolerance for function-space norms and campaign constants: the
# test suite's tolerance for exact identities.
TOL_EXACT = 1e-12
# Relative tolerance for values computed from decomposition coefficients.
# lambda inherits the conditioning of the reproducing pair: at (1, 4096) with
# L = 2 the round trip itself is only good to ~1e-11, so lambda moves by
# ~1e-11 under a shift.  Still far tighter than the 1e-6 the CLI tests use.
TOL_COEFF = 1e-9
# The program's own round-trip gate (cmd_decompose exits 2 above it).
ROUNDTRIP_GATE = 1e-8
# Partition-of-unity residual of a partition bank (FilterBank.admissible).
PARTITION_GATE = 1e-12
# Trace from atoms against direct restriction (test_trace_function_agreement).
TRACE_FN_GATE = 1e-6
# cmd_quark sets no gate; the CLI test accepts residual < 0.05 at cutoff 2.
QUARK_GATE = 0.05

POOL_SEED = 1605_08500
CLASSES = ("spread", "localized", "oscillatory")
LOCAL_WIDTH = 0.02  # decay length of a localized input, in torus units
OSC_ENVELOPE = 0.15


# ---------------------------------------------------------------------------
# input pools

def _centered(G):
    return (np.arange(G) / G + 0.5) % 1.0 - 0.5


def _torus_dist(n, G, center):
    x = _centered(G)
    d2 = 0.0
    for ax in range(n):
        d = (x - center[ax] + 0.5) % 1.0 - 0.5
        shape = [1] * n
        shape[ax] = G
        d2 = d2 + (d ** 2).reshape(shape)
    return np.sqrt(d2)


def pool_member(cls: str, n: int, G: int, k: int) -> np.ndarray:
    """Samples of member k of an input class, max |f| = 1.

    spread      band-limited (|k|_inf <= G/8) random trigonometric polynomial:
                many comparable peaks, empty fine bands.
    localized   exp(-|x - c| / 0.02): one cusp, every band carries energy
                near c and almost none elsewhere.
    oscillatory a carrier of wavenumber G/16..G/6 per axis under a cusp
                envelope: energy in one band, power-law tails in the rest.
    """
    rng = np.random.default_rng([POOL_SEED, CLASSES.index(cls), n, G, k])
    # Centers sit on grid points, so the members of a class are shifts of one
    # shape (up to phase and carrier): ops that scan offsets cost the same on
    # each, while their norms differ with the dyadic alignment.
    center = rng.integers(0, G, n) / G - 0.5 if G else None
    if cls == "spread":
        kmax = G // 8
        kf = np.abs(np.fft.fftfreq(G, 1.0 / G))
        kinf = kf
        for _ in range(n - 1):
            kinf = np.maximum.outer(kinf, kf)
        mask = kinf <= kmax
        cnt = int(mask.sum())
        spec = np.zeros((G,) * n, dtype=np.complex128)
        spec[mask] = ((rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt))
                      * np.exp(-kinf[mask] / kmax))
        a = np.fft.ifftn(spec)
    elif cls == "localized":
        a = (np.exp(-_torus_dist(n, G, center) / LOCAL_WIDTH)
             * np.exp(2j * math.pi * rng.uniform()))
    else:
        x = _centered(G)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        for ax, k0 in enumerate(rng.integers(G // 16, G // 6, size=n)):
            shape = [1] * n
            shape[ax] = G
            phase = phase + 2.0 * math.pi * k0 * x.reshape(shape)
        a = np.exp(-_torus_dist(n, G, center) / OSC_ENVELOPE) * np.cos(phase)
    a = np.asarray(a, dtype=np.complex128)
    return a / np.abs(a).max()


@dataclass(frozen=True)
class Symmetry:
    """f -> c * roll(f or f^T, shifts)."""
    c: complex = 1.0
    transpose: bool = False
    shifts: tuple = ()

    @staticmethod
    def draw(rng, n, G, shift_axes, transpose):
        c = (1, -1, 1j, -1j)[rng.integers(4)] * 2.0 ** int(rng.integers(-1, 2))
        tr = bool(transpose and n == 2 and rng.integers(2))
        shifts = tuple(int(G // 2 * rng.integers(2)) if ax in shift_axes else 0
                       for ax in range(n))
        return Symmetry(c, tr, shifts)

    def apply(self, a):
        if self.transpose:
            a = a.T
        if any(self.shifts):
            a = np.roll(a, self.shifts, axis=tuple(range(a.ndim)))
        return np.ascontiguousarray(a * self.c)


IDENTITY = Symmetry()


# ---------------------------------------------------------------------------
# ops and checks

@dataclass
class Slot:
    """One position of a workload's cycle."""
    name: str
    kind: str
    n: int = 1
    G: int = 0
    cls: str = "spread"
    members: int = 1  # pool size; the reference stores one entry per member
    corpus: int = 1  # members per op (campaign corpora)
    cfg: dict = field(default_factory=dict)


@dataclass
class Op:
    slot: Slot
    members: list  # pool indices used
    syms: list  # symmetry applied to each member
    args: dict = field(default_factory=dict)


def run_cli(argv):
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CheckError(Exception):
    """An op's output failed a check."""


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def close(name, got, want, tol):
    expect(got is not None and math.isfinite(got)
           and abs(got - want) <= tol * abs(want),
           f"{name} = {got!r}, reference {want!r} (rel tol {tol:g})")


def cli_ok(step, res):
    code, out, err = res
    expect(code == 0, f"{step} exited {code}: {err.strip()[:200]}")
    return json.loads(out)


class Workload:
    name = ""
    slots: list = []

    def __init__(self, workdir):
        self.workdir = workdir
        self.once = {}  # objects built once in setup
        self._pool = {}
        self.diag = {}

    def member(self, slot, k):
        key = (slot.cls, slot.n, slot.G, k)
        if key not in self._pool:
            self._pool[key] = pool_member(*key)
        return self._pool[key]

    def setup(self):
        """Build what the workload builds once (banks, pairs)."""

    # symmetries an op may apply: (axes that may shift, transpose allowed)
    def symmetries(self, slot):
        return range(slot.n), True

    def prepare(self, slot, rng) -> Op:
        """Draw the op's pool members and symmetries from the run's rng."""
        picks = [int(k) for k in
                 rng.choice(slot.members, size=slot.corpus, replace=False)]
        syms = []
        if slot.G:
            axes, transpose = self.symmetries(slot)
            syms = [Symmetry.draw(rng, slot.n, slot.G, axes, transpose)
                    for _ in picks]
        return self.build(Op(slot, picks, syms))

    def build(self, op) -> Op:
        """Materialize the op's inputs (files, corpora)."""
        return op

    def execute(self, op):
        raise NotImplementedError

    def values(self, op, out) -> dict:
        """Check the output's structure; return the values that the reference
        pins, as name -> (value, scale with |c| (bool), tolerance)."""
        raise NotImplementedError

    def check(self, op, out, ref):
        """Compare the pinned values with the stored ones of the op's pool
        members: scaled by |c| for a norm, the min or max over a corpus for a
        campaign constant."""
        for name, (got, scales, tol) in self.values(op, out).items():
            refs = [ref[k][name] for k in op.members]
            if scales:
                want = refs[0] * abs(op.syms[0].c)
            else:
                want = min(refs) if name == "min" else max(refs)
            close(f"{op.slot.name}:{name}", got, want, tol)

    def reference_values(self, op, out) -> dict:
        return {k: v for k, (v, _, _) in self.values(op, out).items()}


def _round_robin(*groups):
    """Interleave groups of similar ops, so that the ops which set a latency
    quantile run at different moments of a cycle rather than back to back
    (the machine's speed drifts over seconds)."""
    out = []
    for i in range(max(map(len, groups))):
        out += [g[i] for g in groups if i < len(g)]
    return out


def _write_blob(workload, op):
    a = op.syms[0].apply(workload.member(op.slot, op.members[0]))
    path = os.path.join(workload.workdir, op.slot.name + ".mkgf")
    with open(path, "wb") as fh:
        fh.write(GridFunction(op.slot.n, a).to_bytes())
    op.args.update(blob=path, samples=a)


# ---------------------------------------------------------------------------
# norm-cli

def _norm_slots():
    # (n, G, bank, params, input class); r = 0.5 only on inputs whose every
    # band carries energy, so that rounding noise in an empty band, raised to
    # the power 1/2, cannot move the norm.
    table = _round_robin([
        (2, 256, "partition", "power-p2-q1-s1-N-r2-hom", "spread"),
        (2, 256, "partition", "powerlog-e1.5-p4-q1-s1-N-rinf-hom", "oscillatory"),
        (2, 256, "partition", "loginv-e1-q1-s0-E-r0.5-hom", "localized"),
        (2, 256, "partition", "power-p4-q2-s0.5-E-rinf-hom", "localized"),
    ], [
        (2, 256, "partition", "power-p2-q1-s0-N-r2", "spread"),
        (2, 256, "partition", "powerlog-e1-p2-q1-s1-E-r2", "oscillatory"),
        (2, 256, "partition", "loginv-e2-q1-s0-N-r0.5", "localized"),
        (2, 256, "partition", "power-p2-q2-s1-E-r0.5", "oscillatory"),
    ], [
        (2, 256, "bump", "power-p2-q1-s1-E-r2", "spread"),
        (2, 256, "bump", "loginv-e1-q2-s0-N-rinf", "localized"),
        (2, 256, "bump", "powerlog-e1-p4-q1-s0.5-N-r0.5-hom", "oscillatory"),
        (2, 256, "bump", "power-p4-q1-s1-E-rinf", "spread"),
    ], [
        (2, 128, "partition", "power-p2-q1-s1-N-r2", "spread"),
        (2, 128, "partition", "loginv-e1-q1-s0-E-r0.5", "localized"),
        (2, 128, "bump", "powerlog-e1.5-p4-q1-s1-E-r2", "oscillatory"),
        (2, 128, "bump", "power-p2-q2-s0-N-rinf-hom", "spread"),
    ], [
        (1, 4096, "partition", "power-p2-q1-s1-N-r2", "spread"),
        (1, 4096, "partition", "powerlog-e1-p2-q1-s0-E-r0.5", "oscillatory"),
        (1, 4096, "partition", "loginv-e1-q2-s0-N-rinf-hom", "localized"),
        (1, 4096, "bump", "power-p4-q1-s1-E-r2", "localized"),
        (1, 4096, "bump", "loginv-e2-q1-s0-E-rinf", "spread"),
        (1, 4096, "bump", "powerlog-e1.5-p4-q1-s1-N-r0.5-hom", "oscillatory"),
        (1, 4096, "partition", "power-p4-q2-s0.5-E-rinf-hom", "oscillatory"),
    ])
    return [Slot(f"n{i:02d}-{n}x{G}-{bank}", "norm", n, G, cls, members=8,
                 cfg={"bank": bank, "params": p})
            for i, (n, G, bank, p, cls) in enumerate(table)]


class NormCli(Workload):
    """One op: one `morreykit norm --input blob` call."""
    name = "norm-cli"
    slots = _norm_slots()

    def build(self, op):
        _write_blob(self, op)
        op.args["argv"] = ["norm", "--input", op.args["blob"], "--dim",
                           str(op.slot.n), "--params", op.slot.cfg["params"],
                           "--bank", op.slot.cfg["bank"]]
        return op

    def execute(self, op):
        return run_cli(op.args["argv"])

    def values(self, op, out):
        return {"norm": (cli_ok("norm", out)["norm"], True, TOL_EXACT)}


# ---------------------------------------------------------------------------
# decompose-trace

def _chain_slots():
    # (n, G, L, trace preset or None, seqnorm params, class, quark, trace_fn)
    table = _round_robin([
        (2, 256, 1, "A", "power-p2-q1-s1-N-r2", "spread", False, False),
        (2, 256, 1, "B", "powerlog-e1-p2-q1-s1-E-r2", "localized", False, False),
        (2, 256, 1, "C", "loginv-e1-q1-s0-N-rinf", "oscillatory", False, False),
        (2, 256, 1, "D", "power-p2-q2-s1-E-r0.5", "localized", False, False),
    ], [
        (2, 128, 1, "B", "power-p2-q1-s1-E-rinf", "localized", False, True),
        (2, 128, 1, "D", "loginv-e2-q1-s0-N-r0.5", "oscillatory", False, True),
        (2, 128, 1, "C", "power-p2-q1-s1-N-r2", "spread", True, False),
    ], [
        (1, 4096, 1, None, "power-p2-q1-s1-N-r2", "spread", False, False),
        (1, 4096, 1, None, "loginv-e1-q1-s0-E-r0.5", "localized", False, False),
        (1, 4096, 2, None, "powerlog-e1-p2-q1-s1-N-rinf", "oscillatory",
         False, False),
        (1, 4096, 2, None, "power-p2-q2-s1-E-r2", "spread", True, False),
    ])
    return [Slot(f"d{i:02d}-{n}x{G}-L{L}" + (f"-{t}" if t else ""), "chain",
                 n, G, c, members=4,
                 cfg={"L": L, "preset": t, "params": p, "quark": q,
                      "trace_fn": tf})
            for i, (n, G, L, t, p, c, q, tf) in enumerate(table)]


class DecomposeTrace(Workload):
    """One op: decompose -> seqnorm -> trace -> extend on one function (n = 2),
    or decompose -> seqnorm (n = 1); some ops add `quark` and the library
    `trace_function`."""
    name = "decompose-trace"
    slots = _chain_slots()

    def setup(self):
        self.once["pair"] = rychkov_pair(1, n=2, G=128)
        self.diag["max_roundtrip_residual"] = 0.0

    def symmetries(self, slot):
        return (0,), False  # keep the hyperplane x_n = 0 in place

    def build(self, op):
        _write_blob(self, op)
        base = os.path.join(self.workdir, op.slot.name)
        op.args.update(lam=base + "-lam.csv", tr=base + "-tr.csv",
                       ext=base + "-ext.csv")
        return op

    def execute(self, op):
        cfg, a, n = op.slot.cfg, op.args, str(op.slot.n)
        out = {"decompose": run_cli(["decompose", "--input", a["blob"],
                                     "--dim", n, "--L", str(cfg["L"]),
                                     "--out", a["lam"]])}
        steps = [("seqnorm", ["seqnorm", "--input", a["lam"], "--dim", n,
                              "--params", cfg["params"]])]
        if cfg["preset"]:
            preset = "trace-" + cfg["preset"]
            steps += [("trace", ["trace", "--params", preset, "--input",
                                 a["lam"], "--out", a["tr"]]),
                      ("extend", ["extend", "--params", preset, "--input",
                                  a["tr"], "--out", a["ext"]])]
        if cfg["quark"]:
            steps.append(("quark", ["quark", "--input", a["blob"], "--dim", n,
                                    "--beta-cutoff", "2"]))
        for step, argv in steps:
            if out["decompose"][0] != 0:
                break
            out[step] = run_cli(argv)
        if cfg["trace_fn"]:
            f = GridFunction(2, a["samples"])
            out["trace_fn"] = trace.trace_function(f, self.once["pair"])
        return out

    def values(self, op, out):
        slot, n = op.slot, op.slot.n
        dec = cli_ok("decompose", out["decompose"])
        J = slot.G.bit_length() - 1
        expect(dec["levels"] == list(range(J - 1)),
               f"decompose levels {dec['levels']}")
        res = dec["roundtrip_residual"]
        expect(res < ROUNDTRIP_GATE, f"round trip residual {res}")
        self.diag["max_roundtrip_residual"] = max(
            self.diag["max_roundtrip_residual"], res)
        with open(op.args["lam"], newline="") as fh:
            text = fh.read()
        expect(CoeffField.from_csv(text, n).to_csv() == text,
               "coefficient CSV does not round-trip")
        vals = {"seqnorm": (cli_ok("seqnorm", out["seqnorm"])["norm"], True,
                            TOL_COEFF)}
        if slot.cfg["preset"]:
            tr = cli_ok("trace", out["trace"])
            ext = cli_ok("extend", out["extend"])
            problem = trace.TraceProblem(TRACE_PRESETS[slot.cfg["preset"]](n))
            with open(op.args["tr"]) as fh:
                mu = CoeffField.from_csv(fh.read(), n - 1)
            with open(op.args["ext"]) as fh:
                back = trace.trace_coeff(CoeffField.from_csv(fh.read(), n),
                                         problem)
            expect(back.level_list() == mu.level_list() and all(
                np.array_equal(back.levels[j], mu.levels[j])
                for j in mu.level_list()), "trace(extend(mu)) != mu")
            vals.update(bound_I=(tr["bound_I"], False, TOL_COEFF),
                        bound_II=(tr["bound_II"], False, TOL_COEFF),
                        extension_bound=(ext["extension_bound"], False,
                                         TOL_COEFF))
        if slot.cfg["quark"]:
            resid = cli_ok("quark", out["quark"])["residual"]
            expect(resid < QUARK_GATE, f"quark residual {resid}")
            vals["quark_residual"] = (resid, False, TOL_COEFF)
        if slot.cfg["trace_fn"]:
            tr, direct = out["trace_fn"]
            gap = float(np.abs(tr.samples - direct.samples).max())
            expect(gap < TRACE_FN_GATE,
                   f"trace_function disagrees with restriction by {gap}")
        return vals


# ---------------------------------------------------------------------------
# campaign

def _campaign_slots():
    N1, N2 = "power-p2-q1-s1-N-r2", "power-p4-q2-s0.5-N-r2"
    E1 = "powerlog-e1-p2-q1-s1-E-rinf"
    # (kind, n, G, input class, corpus size, cfg), in tiers of cost with
    # gaps between them.  The localized Peetre scans at (1, 4096) are the
    # slowest ops and set the tail; the median falls among the maximal
    # campaigns, whose cost does not depend on the data.
    top = [("peetre", 1, 4096, "localized", 1, {"params": p})
           for p in (N1, E1, N2, E1)]
    middle = [("maximal", 1, 0, "", 1, {"phi": phi, "trials": 16,
                                        "resolutions": [512, 1024]})
              for phi in ("power", "powerlog", "power", "powerlog")]
    upper = [
        ("peetre", 2, 64, "localized", 1, {"params": N1}),
        ("peetre", 1, 4096, "spread", 3, {"params": N1}),
        ("counterexample", 1, 0, "", 1, {"r": 0.5, "exponents": [1.0, 2.0]}),
        ("peetre", 1, 1024, "localized", 3, {"params": N2}),
        ("peetre", 2, 64, "localized", 1, {"params": E1}),
    ]
    cheap = [
        ("multiplier", 1, 1024, "localized", 1,
         {"params": N2, "nu": 3.0, "profile": 2}),
        ("peetre", 1, 1024, "spread", 3, {"params": E1}),
        ("peetre", 2, 64, "spread", 1, {"params": N2}),
        ("filter", 2, 128, "spread", 2, {"params": N1}),
        ("multiplier", 1, 1024, "spread", 2,
         {"params": N1, "nu": 3.0, "profile": 1}),
        ("embedding", 1, 0, "", 1, {"r": 0.5, "depth": 8}),
        ("multiplier", 2, 64, "spread", 2,
         {"params": E1, "nu": 4.0, "profile": 3}),
        ("filter", 2, 128, "oscillatory", 2, {"params": E1}),
        ("embedding", 1, 0, "", 1, {"r": 1.5, "depth": 8}),
    ]
    table = _round_robin(top, middle, upper, cheap[:5], cheap[5:])
    slots = []
    for i, (kind, n, G, cls, m, cfg) in enumerate(table):
        label = f"-{n}x{G}-{cls}" if G else f"-{n}d" if kind == "maximal" else ""
        members = len(cfg["exponents"]) if "exponents" in cfg else 6
        slots.append(Slot(f"c{i:02d}-{kind}{label}", kind, n, G, cls or "spread",
                          members=members, corpus=m, cfg=cfg))
    return slots


class Campaign(Workload):
    """One op: one `verify` campaign call on a small generated corpus, with
    its banks built once in setup."""
    name = "campaign"
    slots = _campaign_slots()

    def setup(self):
        banks = {}
        for s in self.slots:
            if s.kind in ("peetre", "multiplier", "filter"):
                banks[(s.n, s.G, "partition")] = make_bank(s.n, s.G)
            if s.kind == "filter":
                banks[(s.n, s.G, "bump")] = make_bank(s.n, s.G, "bump")
        self.once["banks"] = banks

    def build(self, op):
        if op.syms:
            op.args["corpus"] = [
                GridFunction(op.slot.n, sym.apply(self.member(op.slot, k)))
                for k, sym in zip(op.members, op.syms)]
        return op

    def execute(self, op):
        slot, cfg = op.slot, op.slot.cfg
        k = op.members[0]
        if slot.kind in ("peetre", "multiplier", "filter"):
            banks = self.once["banks"]
            bank = banks[(slot.n, slot.G, "partition")]
            params = parse_params(cfg["params"], slot.n)
            corpus = op.args["corpus"]
            if slot.kind == "peetre":
                N = verify.peetre_threshold(params) + 1.0
                return verify.peetre_char_campaign(params, N, corpus, bank)
            if slot.kind == "multiplier":
                return verify.multiplier_campaign(params, corpus, bank,
                                                  cfg["nu"], cfg["profile"])
            return verify.filter_invariance_campaign(
                bank, banks[(slot.n, slot.G, "bump")], params, corpus)
        if slot.kind == "maximal":
            n = slot.n
            phi = (power(4.0, n) if cfg["phi"] == "power"
                   else powerlog(4.0, 1.0, n))
            return verify.maximal_campaign(2.0, 2.0, phi, cfg["trials"],
                                           resolutions=cfg["resolutions"],
                                           n=n, seed=100 + k)
        if slot.kind == "embedding":
            return verify.embedding_campaign(2.0, 2.0, cfg["r"],
                                             depth=cfg["depth"], trials=20,
                                             seed=200 + k)
        return verify.counterexample_growth(cfg["r"], range(2, 13),
                                            exponent=cfg["exponents"][k])

    def values(self, op, rep):
        slot = op.slot
        expect(rep.failures == [], f"campaign failures {rep.failures[:3]}")
        if slot.kind in ("peetre", "multiplier", "filter"):
            bank = self.once["banks"][(slot.n, slot.G, "partition")]
            resid = bank.admissible()["partition_residual"]
            expect(resid < PARTITION_GATE, f"partition residual {resid}")
            vals = {"max": (rep.constants[slot.G], False, TOL_EXACT)}
            if slot.kind != "multiplier":
                vals["min"] = (rep.extra["min"], False, TOL_EXACT)
            else:
                vals["sobolev"] = (rep.extra["sobolev"], False, TOL_EXACT)
            return vals
        vals = {f"constant_{key}": (val, False, TOL_EXACT)
                for key, val in rep.constants.items()}
        if slot.kind == "maximal":
            for form in ("scalar", "sup", "lr"):
                for G, val in rep.extra[form].items():
                    vals[f"{form}_{G}"] = (val, False, TOL_EXACT)
        if slot.kind == "counterexample":
            vals["slope"] = (rep.extra["slope"], False, TOL_EXACT)
        return vals


WORKLOADS = {w.name: w for w in (NormCli, DecomposeTrace, Campaign)}
