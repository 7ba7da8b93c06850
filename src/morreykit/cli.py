"""Command-line entry point.

Exit codes: 0 success, 1 usage/config error, 2 exact-identity failure,
3 stability-band failure.  MORREYKIT_SEED overrides any --seed flag.
Same config + seed gives byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import decomp, growth, trace, verify
from .growth import (GrowthFunction, SpaceParams, check_nakai, dyadic_scales,
                     power, powerlog)
from .gridfn import GridFunction, make_bank, preset_function, rychkov_pair
from .norms import CoeffField, seq_norm, space_norm

EXIT_OK, EXIT_USAGE, EXIT_EXACT, EXIT_STABILITY = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# parameter presets

# growth-family field -> (its token letter in a params string, default)
_PHI_FIELDS = {"p": ("p", 2.0), "exponent": ("e", 1.0)}


def parse_params(text: str, n: int = 1) -> SpaceParams:
    """Grammar: family[-e<exp>][-p<p>]-q<q>-s<s>-<N|E>-r<r>[-hom], e.g.
    power-p2-q1-s0-E-r2 or loginv-e2-q2-s0-E-r0.5; r may be 'inf'.  A
    family takes only its own fields' tokens: power -p, powerlog -p and -e,
    loginv -e.  trace-A ... trace-D name the TRACE_PRESETS."""
    if text.startswith("trace-"):
        if text[6:] not in TRACE_PRESETS:
            raise ValueError(f"unknown trace preset {text!r}")
        return TRACE_PRESETS[text[6:]](n)
    family, *toks = text.split("-")
    fam = growth.FAMILIES.get(family)
    if fam is None or not set(fam.fields) <= _PHI_FIELDS.keys():
        raise ValueError(f"unknown growth family {family!r}")
    takes = {_PHI_FIELDS[f][0]: f for f in fam.fields}  # token -> field
    vals = {}
    variant = "N"
    hom = False
    for t in toks:
        key = t[:1]
        if t in ("N", "E"):
            variant = t
        elif t == "hom":
            hom = True
        elif key in takes or key and key in "qsr":
            vals[key] = float(t[1:])
        else:
            raise ValueError(f"bad token {t!r} in params {text!r}")
    phi = GrowthFunction(family, n, **{
        f: vals.get(tok, _PHI_FIELDS[f][1]) for tok, f in takes.items()})
    return SpaceParams(q=vals.get("q", 2.0), r=vals.get("r", 2.0),
                       s=vals.get("s", 0.0), phi=phi, variant=variant,
                       homogeneous=hom, n=n)


def _trace_preset(q, r, s, variant, n):
    return SpaceParams(q=q, r=r, s=s, phi=power(q, n), variant=variant, n=n)


# name -> (q, r, s, variant), with phi(t) = t^(n/q); e.g. A is the
# N-variant with phi(t) = t^2 in n = 2
TRACE_PRESETS = {name: functools.partial(_trace_preset, *row)
                 for name, row in {"A": (1.0, 2.0, 1.5, "N"),
                                   "B": (0.75, 2.0, 2.0, "N"),
                                   "C": (1.0, 1.5, 1.6, "E"),
                                   "D": (2.0, 0.5, 2.0, "E")}.items()}


# ---------------------------------------------------------------------------
# precondition validation (--dry-run prints these)

def validate_params(params: SpaceParams, for_trace: bool = False) -> list:
    msgs = []
    if not growth.is_in_Gq(params.phi, params.q, dyadic_scales(-10, 0)):
        raise ValueError("phi is not in the admissible growth class for q")
    msgs.append("growth class check: phi in G_q")
    if params.variant == "E" and params.r != math.inf:
        ok, eps, C = check_nakai(params.phi, dyadic_scales())
        msgs.append(f"Nakai condition: {'ok' if ok else 'FAILS'}"
                    f" (eps={eps}, C={C:.3g})")
        if not ok:
            raise ValueError("E-variant with finite r needs the Nakai condition")
    if for_trace:
        problem = trace.TraceProblem(params)
        msgs.append(f"trace smoothness threshold: s={params.s} >"
                    f" {problem.threshold:.4g}")
        msgs.append(f"phi* chain summability constant:"
                    f" {problem.summability_constant:.4g}")
    return msgs


# ---------------------------------------------------------------------------
# commands (main() has replaced a checked --params by its SpaceParams)

def _load_function(args) -> GridFunction:
    if not args.input:
        return preset_function(args.fn, args.dim, args.res, seed=args.seed)
    with open(args.input, "rb") as fh:
        f = GridFunction.from_bytes(fh.read())
    if f.n != args.dim:
        raise ValueError(f"--input holds an n={f.n} function,"
                         f" not --dim {args.dim}")
    return f


def _load_coeffs(args, n: int) -> CoeffField:
    if args.input is None:
        raise ValueError(f"{args.command} needs --input")
    with open(args.input) as fh:
        return CoeffField.from_csv(fh.read(), n)


def cmd_norm(args):
    f = _load_function(args)
    bank = make_bank(args.dim, f.G, kind=args.bank,
                     homogeneous=args.params.homogeneous)
    return {"norm": space_norm(f, args.params, bank),
            "params": args.params.to_json()}, EXIT_OK, None


def cmd_seqnorm(args):
    lam = _load_coeffs(args, args.dim)
    return {"norm": seq_norm(lam, args.params)}, EXIT_OK, None


def cmd_decompose(args):
    f = _load_function(args)
    if args.hom and abs(f.samples.mean()) > 1e-8 * f.l2():
        raise ValueError("--hom needs a zero-mean input: no level of the"
                         " homogeneous pair carries the mean")
    pair = rychkov_pair(args.L, n=args.dim, G=f.G, homogeneous=args.hom)
    lam, patches = decomp.atomic_analyze(f, pair)
    rec = decomp.synthesize(lam, patches, f.G)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    atoms = sum(np.size(v) for v in lam.levels.values())
    return ({"levels": lam.level_list(), "atoms": atoms,
             "roundtrip_residual": resid},
            EXIT_OK if resid < 1e-8 else EXIT_EXACT, lam.to_csv)


def cmd_quark(args):
    f = _load_function(args)
    gen = decomp.QuarkGen(n=args.dim)
    bank = make_bank(args.dim, f.G)
    qlam = decomp.quark_analyze(f, gen, bank, args.beta_cutoff)
    rec = decomp.quark_synthesize(qlam, gen, f.G)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    # a truncation error, not an identity: reported but not gated
    return {"betas": [list(b) for b in qlam.betas()],
            "residual": resid}, EXIT_OK, qlam.to_csv


def cmd_trace(args):
    problem = trace.TraceProblem(args.params)
    lam = _load_coeffs(args, args.dim)
    return ({"bound_I": trace.trace_bound_I(lam, problem),
             "bound_II": trace.trace_bound_II(lam, problem)}, EXIT_OK,
            lambda: trace.trace_coeff(lam, problem).to_csv())


def cmd_extend(args):
    problem = trace.TraceProblem(args.params)
    mu = _load_coeffs(args, args.dim - 1)
    return ({"extension_bound": trace.extension_bound(mu, problem)}, EXIT_OK,
            lambda: trace.extend_coeff(mu, problem).to_csv())


def _campaign_report(args):
    name, seed = args.name, args.seed
    if args.trials < 1 or args.depth < 1:
        raise ValueError(f"a campaign needs trials >= 1 and depth >= 1,"
                         f" got {args.trials} and {args.depth}")
    if name == "hardy":
        return verify.hardy_campaign(args.delta, args.r, args.trials, seed=seed)
    if name == "maximal":
        phi = {"power": power(4.0, args.dim),
               "powerlog": powerlog(4.0, 1.0, args.dim)}.get(args.phi)
        if phi is None:
            raise ValueError(f"unknown phi {args.phi!r}: use power or powerlog")
        return verify.maximal_campaign(2.0, 2.0, phi, args.trials,
                                       args.resolutions, n=args.dim, seed=seed)
    if name in ("filter", "peetre"):
        params = parse_params(args.params, args.dim)
        G = args.resolutions[-1]
        corpus = verify.function_corpus(args.dim, G, args.trials, seed)
        bank = make_bank(args.dim, G, homogeneous=params.homogeneous)
        if name == "peetre":
            N = verify.peetre_threshold(params) + 1.0
            return verify.peetre_char_campaign(params, N, corpus, bank)
        bump = make_bank(args.dim, G, "bump", homogeneous=params.homogeneous)
        return verify.filter_invariance_campaign(bank, bump, params, corpus)
    if name == "embedding":
        return verify.embedding_campaign(2.0, 2.0, args.r, args.depth,
                                         args.trials, seed=seed, n=args.dim)
    if name == "counterexample":
        return verify.counterexample_growth(args.r, depths=range(2, 13))
    raise ValueError(f"unknown campaign {name!r}")


def _exit_code(rep) -> int:
    return EXIT_EXACT if rep.failures else \
        (EXIT_OK if rep.stable() else EXIT_STABILITY)


def cmd_campaign(args):
    rep = _campaign_report(args)
    return rep.to_dict(), _exit_code(rep), None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and not math.isnan(v)


# the keys of a suite entry, which are the fields _campaign_report reads
SUITE_KEYS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "params": ("a string", lambda v: isinstance(v, str)),
    "phi": ("a string", lambda v: isinstance(v, str)),
    "seed": ("an integer", _is_int),
    "dim": ("an integer", _is_int),
    "depth": ("an integer", _is_int),
    "trials": ("an integer", _is_int),
    "delta": ("a number", _is_number),
    "r": ("a number", _is_number),
    "resolutions": ("a non-empty list of integers",
                    lambda v: isinstance(v, list) and v and all(map(_is_int, v))),
}


def _check_suite(configs) -> None:
    """A suite file is a list of objects, each with a string name and only
    the keys in SUITE_KEYS, each of its stated type."""
    if not isinstance(configs, list) or \
            not all(isinstance(cfg, dict) for cfg in configs):
        raise ValueError("suite file must hold a JSON list of objects")
    for i, cfg in enumerate(configs):
        if "name" not in cfg:
            raise ValueError(f"suite entry {i} has no 'name'")
        for key, val in cfg.items():
            if key not in SUITE_KEYS:
                raise ValueError(f"suite entry {i}: unknown key {key!r}")
            what, ok = SUITE_KEYS[key]
            if not ok(val):
                raise ValueError(f"suite entry {i}: {key!r} must be {what}")


def cmd_suite(args):
    with open(args.file) as fh:
        configs = json.load(fh)
    _check_suite(configs)
    # an entry's unset fields take the campaign defaults, but 50 trials
    base = vars(build_parser().parse_args(["campaign", "--name", "",
                                           "--trials", "50"]))
    worst = EXIT_OK
    summary = []
    for cfg in configs:
        rep = _campaign_report(
            argparse.Namespace(**{**base, "seed": args.seed, **cfg}))
        code = _exit_code(rep)
        worst = max(worst, code)
        summary.append({"campaign": rep.name, "constants": rep.constants,
                        "pass": code == EXIT_OK})
    return summary, worst, None


# ---------------------------------------------------------------------------
# argument plumbing

# every option a command may take: flag name -> add_argument keywords
OPTIONS = {
    "params": {"required": True},
    "input": {},
    "out": {},
    "dry-run": {"action": "store_true"},
    "seed": {"type": int, "default": 0},
    "dim": {"type": int, "default": 1},
    "res": {"type": int, "default": 256},
    "fn": {"default": "gaussian"},
    "bank": {"default": "partition", "choices": ["partition", "bump"]},
    "L": {"type": int, "default": 1},
    "hom": {"action": "store_true"},
    "beta-cutoff": {"type": int, "default": 4},
    "name": {"required": True},
    "delta": {"type": float, "default": 0.5},
    "r": {"type": float, "default": 2.0},
    "trials": {"type": int, "default": 100},
    "depth": {"type": int, "default": 6},
    "phi": {"default": "power"},
    "resolutions": {"type": int, "nargs": "+", "default": [128, 256]},
    "file": {"required": True},
}


class Command(NamedTuple):
    # args -> (report, exit code, None or a callable giving the --out text)
    handler: Callable
    check: str  # "space" or "trace": the check main() gives --params
    options: str  # names in OPTIONS
    overrides: dict = {}  # option -> keywords replacing its OPTIONS entry
    indent: int | None = None  # of the JSON report


_DIM2 = {"dim": {"type": int, "default": 2}}
COMMANDS = {
    "norm": Command(cmd_norm, "space",
                    "params dim res fn seed input bank dry-run"),
    "seqnorm": Command(cmd_seqnorm, "space", "params dim input dry-run"),
    "decompose": Command(cmd_decompose, "", "dim res fn seed input out L hom"),
    "quark": Command(cmd_quark, "", "dim res fn seed input out beta-cutoff",
                     {"fn": {"default": "random-bandlimited"}}),
    "trace": Command(cmd_trace, "trace", "params dim input out dry-run", _DIM2),
    "extend": Command(cmd_extend, "trace", "params dim input out dry-run",
                      _DIM2),
    "campaign": Command(cmd_campaign, "", "name seed dim delta r trials"
                        " depth phi params resolutions",
                        {"params": {"default": "power-p2-q2-s1-N-r2"}},
                        indent=2),
    "suite": Command(cmd_suite, "", "file seed", indent=2),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="morreykit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        # no prefix matching, so a dropped flag is an error rather than
        # an abbreviation of a longer one (campaign --res vs --resolutions)
        p = sub.add_parser(name, allow_abbrev=False)
        for opt in cmd.options.split():
            p.add_argument("--" + opt, **cmd.overrides.get(opt, OPTIONS[opt]))
    return ap


def _plain(v):
    """v with numpy scalars as Python numbers, tuples as lists, keys as
    strings and +-inf as "inf"/"-inf" (the SpaceParams.to_json encoding);
    a NaN is an error, so that no report carries one."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        if math.isnan(v):
            raise ValueError("the report holds a NaN")
        return "inf" if v > 0 else "-inf"
    return v


def main(argv=None) -> int:
    """Parse, check --params, run the command, then write its report to
    stdout as strict JSON; any error exits 1 with nothing on stdout.  The
    --out file is written only once the report has serialized, so a failing
    run leaves none behind.  Floating-point warnings are silenced, so that
    an error is the one stderr line: an overflow reaches the report as inf,
    which prints as "inf", and a NaN fails in _plain."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    cmd = COMMANDS[args.command]
    try:
        if "MORREYKIT_SEED" in os.environ:
            args.seed = int(os.environ["MORREYKIT_SEED"])
        if cmd.check:
            args.params = parse_params(args.params, args.dim)
            msgs = validate_params(args.params, for_trace=cmd.check == "trace")
        with np.errstate(all="ignore"):
            if cmd.check and args.dry_run:
                report, code, out = {"checked": msgs}, EXIT_OK, None
            else:
                report, code, out = cmd.handler(args)
            text = json.dumps(_plain(report), allow_nan=False,
                              indent=cmd.indent)
            if out is not None and args.out:
                data = out()
                with open(args.out, "w") as fh:
                    fh.write(data)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as e:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        with contextlib.suppress(OSError, ValueError, AttributeError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
