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
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import decomp, growth, trace, verify
from .growth import (GrowthFunction, SpaceParams, check_nakai, dyadic_scales,
                     power, powerlog)
from .gridfn import GridFunction, make_bank, preset_function, rychkov_pair
from .norms import MAX_LEVEL_BITS, CoeffField, seq_norm, space_norm

EXIT_OK, EXIT_USAGE, EXIT_EXACT, EXIT_STABILITY = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# parameter presets

# growth-family field -> (its token letter in a params string, default)
_PHI_FIELDS = {"p": ("p", 2.0), "exponent": ("e", 1.0)}


def parse_params(text: str, n: int = 1) -> SpaceParams:
    """Grammar: family[-e<exp>][-p<p>]-q<q>-s<s>-<N|E>-r<r>[-hom], e.g.
    power-p2-q1-s0-E-r2, or a trace preset trace-A ... trace-D.  r may be
    'inf'.  Only a '-' before a letter splits, and not a key's sign (s-1,
    q1e-5, s-inf are values).  A family takes only its own tokens."""
    if text.startswith("trace-"):
        if text[6:] not in TRACE_PRESETS:
            raise ValueError(f"unknown trace preset {text!r}")
        return TRACE_PRESETS[text[6:]](n)
    family, *toks = re.split(
        r"-(?=[A-Za-z])(?!(?<=-[a-z]-)(?i:inf|nan))", text)
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

def _check_cells(G: int, n: int) -> None:
    """Refuse a G^n grid of more than 2^MAX_LEVEL_BITS cells before any
    array of that size is allocated."""
    if G > 1 and n > 0 and (n > MAX_LEVEL_BITS
                            or G ** n > 1 << MAX_LEVEL_BITS):
        raise ValueError(f"a grid of {G}^{n} cells exceeds"
                         f" 2^{MAX_LEVEL_BITS}")


WORK_BUDGET = 1 << 31  # bytes a command's estimated working set may take


def _check_work(nbytes: int) -> None:
    """Refuse a run whose working set is estimated above WORK_BUDGET."""
    if nbytes > WORK_BUDGET:
        raise ValueError(f"the working set, estimated at {nbytes / 2 ** 30:.2f}"
                         f" GiB, exceeds the {WORK_BUDGET / 2 ** 30:g} GiB"
                         " budget")


def _load_function(args, work=None) -> GridFunction:
    """The --input blob or the --fn preset.  work(n, G), if given, is the
    command's working set in bytes: checked before the preset is built, and
    by a blob's own G."""
    if not args.input:
        _check_cells(args.res, args.dim)
        if work:
            _check_work(work(args.dim, args.res))
        return preset_function(args.fn, args.dim, args.res, seed=args.seed)
    with open(args.input, "rb") as fh:
        f = GridFunction.from_bytes(fh.read())
    if f.n != args.dim:
        raise ValueError(f"--input holds an n={f.n} function,"
                         f" not --dim {args.dim}")
    if work:
        _check_work(work(f.n, f.G))
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
    f = _load_function(args, lambda n, G: decomp.decompose_bytes(
        n, G, args.L, args.hom))
    if args.hom and abs(f.samples.mean()) > 1e-8 * f.l2():
        raise ValueError("--hom needs a zero-mean input: no level of the"
                         " homogeneous pair carries the mean")
    pair = rychkov_pair(args.L, n=args.dim, G=f.G, homogeneous=args.hom)
    lam, rec = decomp.round_trip(f, pair)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    atoms = sum(np.size(v) for v in lam.levels.values())
    return ({"levels": lam.level_list(), "atoms": atoms,
             "roundtrip_residual": resid},
            EXIT_OK if resid < 1e-8 else EXIT_EXACT, lam.to_csv)


def cmd_quark(args):
    f = _load_function(args)
    bank = make_bank(args.dim, f.G)
    qlam = decomp.quark_analyze(f, bank, args.beta_cutoff)
    rec = decomp.quark_synthesize(qlam, f.G)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    # a truncation error, not an identity: reported but not gated
    return {"betas": [list(b) for b in qlam.betas()],
            "residual": resid}, EXIT_OK, qlam.to_csv


def cmd_trace(args):
    problem = trace.TraceProblem(args.params)
    lam = _load_coeffs(args, args.dim)
    norm = trace.finite_norm(lam, problem.params)  # both bounds' denominator
    return ({"bound_I": trace.trace_bound_I(lam, problem, norm),
             "bound_II": trace.trace_bound_II(lam, problem, norm)}, EXIT_OK,
            lambda: trace.trace_coeff(lam, problem).to_csv())


def cmd_extend(args):
    problem = trace.TraceProblem(args.params)
    mu = _load_coeffs(args, args.dim - 1)
    return ({"extension_bound": trace.extension_bound(mu, problem)}, EXIT_OK,
            lambda: trace.extend_coeff(mu, problem).to_csv())


# campaign -> the options it reads besides seed, with their defaults
_GRIDS = {"dim": 1, "trials": 100, "resolutions": [128, 256]}
CAMPAIGNS = {"hardy": {"delta": 0.5, "r": 2.0, "trials": 100},
             "maximal": {"phi": "power", **_GRIDS},
             "filter": {"params": "power-p2-q2-s1-N-r2", **_GRIDS},
             "peetre": {"params": "power-p2-q2-s1-N-r2", **_GRIDS},
             "embedding": {"dim": 1, "r": 0.5, "depth": 6, "trials": 100},
             "counterexample": {"r": 0.5}}
# the r whose growth N^(1/r - 1) counterexample resolves on depths 2..12:
# swept in steps of 0.001, its slope is within 25% of 1/r - 1 on exactly
# this interval
COUNTEREXAMPLE_R = (0.04, 0.81)


def _campaign_options(cfg: dict) -> dict:
    """The one gate of campaign and suite: cfg (name, seed and the options
    given) over its campaign's defaults, which must cover every option.
    Grids are checked before anything is drawn: by cells, and for maximal
    by the estimated working set; counterexample's r by COUNTEREXAMPLE_R;
    params as norm's --params is.  params and phi come out parsed."""
    takes = CAMPAIGNS.get(cfg.get("name"))
    if takes is None:
        raise ValueError(f"unknown campaign {cfg.get('name')!r}")
    unread = sorted(cfg.keys() - {"name", "seed"} - takes.keys())
    if unread:
        raise ValueError(f"campaign {cfg['name']} reads only seed,"
                         f" {', '.join(takes)}; not {', '.join(unread)}")
    opts = {**takes, **cfg}
    if min(opts.get("trials", 1), opts.get("depth", 1)) < 1:
        raise ValueError("a campaign needs trials >= 1 and depth >= 1")
    for G in opts.get("resolutions", ()):
        _check_cells(G, opts["dim"])
        if opts["name"] == "maximal":
            _check_work(verify.maximal_bytes(opts["dim"], G))
    if "depth" in opts:  # the finest coefficient level has 2^(depth dim) cells
        _check_cells(2, opts["depth"] * opts["dim"])
    lo, hi = COUNTEREXAMPLE_R
    if opts["name"] == "counterexample" and not lo <= opts["r"] <= hi:
        raise ValueError(f"counterexample resolves {lo:g} <= r <= {hi:g}"
                         f" only, not r = {opts['r']:g}")
    if "params" in opts:
        opts["params"] = parse_params(opts["params"], opts["dim"])
        validate_params(opts["params"])
    if "phi" in opts:
        phi = {"power": power(4.0, opts["dim"]),
               "powerlog": powerlog(4.0, 1.0, opts["dim"])}.get(opts["phi"])
        if phi is None:
            raise ValueError(f"unknown phi {opts['phi']!r}: use power or"
                             " powerlog")
        opts["phi"] = phi
    return opts


def _campaign_report(o: dict):
    """The report of a campaign whose options passed _campaign_options."""
    name, seed, n = o["name"], o["seed"], o.get("dim")
    if name == "hardy":
        return verify.hardy_campaign(o["delta"], o["r"], o["trials"], seed)
    if name == "maximal":
        return verify.maximal_campaign(2.0, 2.0, o["phi"], o["trials"],
                                       o["resolutions"], n=n, seed=seed)
    if name in ("filter", "peetre"):
        # the finest grid's report, with the constants and failures of all
        params = o["params"]
        constants, failures = {}, []
        for G in sorted(set(o["resolutions"])):
            corpus = verify.function_corpus(n, G, o["trials"], seed)
            bank = make_bank(n, G, homogeneous=params.homogeneous)
            if name == "peetre":
                N = verify.peetre_threshold(params) + 1.0
                rep = verify.peetre_char_campaign(params, N, corpus, bank)
            else:
                bump = make_bank(n, G, "bump", homogeneous=params.homogeneous)
                rep = verify.filter_invariance_campaign(bank, bump, params,
                                                        corpus)
            constants.update(rep.constants)
            failures += [{"res": G, **f} for f in rep.failures]
        rep.constants, rep.failures = constants, failures
        return rep
    if name == "embedding":
        return verify.embedding_campaign(2.0, 2.0, o["r"], o["depth"],
                                         o["trials"], seed=seed, n=n)
    return verify.counterexample_growth(o["r"], depths=range(2, 13))


def _exit_code(rep) -> int:
    return EXIT_EXACT if rep.failures else \
        (EXIT_OK if rep.stable() else EXIT_STABILITY)


def cmd_campaign(args):
    rep = _campaign_report(_campaign_options(
        {k: v for k, v in vars(args).items() if k != "command"}))
    return rep.to_dict(), _exit_code(rep), None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and not math.isnan(v)


# the JSON type of each suite key; CAMPAIGNS says which keys a campaign reads
_STR, _INT = ("a string", lambda v: isinstance(v, str)), ("an integer", _is_int)
SUITE_KEYS = {
    "name": _STR, "params": _STR, "phi": _STR, "seed": _INT, "dim": _INT,
    "depth": _INT, "trials": _INT, "delta": ("a number", _is_number),
    "r": ("a number", _is_number),
    "resolutions": ("a non-empty list of integers",
                    lambda v: isinstance(v, list) and v and all(map(_is_int, v))),
}


def cmd_suite(args):
    """A suite file is a list of objects whose keys have the types in
    SUITE_KEYS; every entry, with --seed unless it sets its own, passes
    the campaign gate before any entry runs."""
    with open(args.file) as fh:
        configs = json.load(fh)
    if not isinstance(configs, list) or \
            not all(isinstance(cfg, dict) for cfg in configs):
        raise ValueError("suite file must hold a JSON list of objects")
    entries = []
    for i, cfg in enumerate(configs):
        try:
            for key, val in cfg.items():
                what, ok = SUITE_KEYS.get(key, ("", None))
                if ok and not ok(val):
                    raise ValueError(f"{key!r} must be {what}")
            entries.append(_campaign_options({"seed": args.seed, **cfg}))
        except ValueError as e:
            raise ValueError(f"suite entry {i}: {e}") from None
    reps = [_campaign_report(o) for o in entries]
    codes = [_exit_code(rep) for rep in reps]
    return ([{"campaign": rep.name, "constants": rep.constants,
              "pass": code == EXIT_OK} for rep, code in zip(reps, codes)],
            max(codes, default=EXIT_OK), None)


# ---------------------------------------------------------------------------
# argument plumbing

_UNSET = {"default": argparse.SUPPRESS}  # campaign options: see CAMPAIGNS
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
    "delta": {"type": float, **_UNSET},
    "r": {"type": float, **_UNSET},
    "trials": {"type": int, **_UNSET},
    "depth": {"type": int, **_UNSET},
    "phi": _UNSET,
    "resolutions": {"type": int, "nargs": "+", **_UNSET},
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
                        {"dim": {"type": int, **_UNSET}, "params": _UNSET},
                        indent=2),
    "suite": Command(cmd_suite, "", "file seed", indent=2),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args
    keeps no state in it."""
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
            # TraceProblem: built here only for --dry-run, else by the command
            msgs = validate_params(args.params, for_trace=cmd.check == "trace"
                                   and args.dry_run)
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
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
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
