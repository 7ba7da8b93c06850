"""Command-line entry point.

Exit codes: 0 success, 1 usage/config error, 2 exact-identity failure,
3 stability-band failure.  MORREYKIT_SEED overrides any --seed flag.
Same config + seed gives byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import decomp, growth, trace, verify
from .growth import (SpaceParams, check_nakai, dyadic_scales, loginv, power,
                     powerlog)
from .gridfn import GridFunction, make_bank, preset_function, rychkov_pair
from .norms import CoeffField, seq_norm, space_norm

INF = math.inf

EXIT_OK, EXIT_USAGE, EXIT_EXACT, EXIT_STABILITY = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# parameter presets

def parse_params(text: str, n: int = 1) -> SpaceParams:
    """Grammar: family[-e<exp>]-p<p>-q<q>-s<s>-<N|E>-r<r>[-hom], e.g.
    power-p2-q1-s0-E-r2 or loginv-e2-p1-q2-s0-E-r0.5; r may be 'inf'."""
    if text.startswith("trace-"):
        return TRACE_PRESETS[text.split("-", 1)[1]](n)
    toks = text.split("-")
    family = toks[0]
    vals = {}
    variant = "N"
    hom = False
    for t in toks[1:]:
        if t in ("N", "E"):
            variant = t
        elif t == "hom":
            hom = True
        elif t and t[0] in "pqsre":
            vals[t[0]] = INF if t[1:] == "inf" else float(t[1:])
        else:
            raise ValueError(f"bad token {t!r} in params {text!r}")
    p = vals.get("p", 2.0)
    if family == "power":
        phi = power(p, n)
    elif family == "powerlog":
        phi = powerlog(p, vals.get("e", 1.0), n)
    elif family == "loginv":
        phi = loginv(vals.get("e", 1.0), n)
    else:
        raise ValueError(f"unknown growth family {family!r}")
    return SpaceParams(q=vals.get("q", 2.0), r=vals.get("r", 2.0),
                       s=vals.get("s", 0.0), phi=phi, variant=variant,
                       homogeneous=hom, n=n)


def _preset_A(n):  # N-variant, phi(t) = t^2 in n = 2
    return SpaceParams(q=1.0, r=2.0, s=1.5, phi=power(1.0, n), variant="N", n=n)


def _preset_B(n):
    return SpaceParams(q=0.75, r=2.0, s=2.0, phi=power(0.75, n), variant="N", n=n)


def _preset_C(n):
    return SpaceParams(q=1.0, r=1.5, s=1.6, phi=power(1.0, n), variant="E", n=n)


def _preset_D(n):
    return SpaceParams(q=2.0, r=0.5, s=2.0, phi=power(2.0, n), variant="E", n=n)


TRACE_PRESETS = {"A": _preset_A, "B": _preset_B, "C": _preset_C, "D": _preset_D}


# ---------------------------------------------------------------------------
# precondition validation (--dry-run prints these)

def validate_params(params: SpaceParams, for_trace: bool = False) -> list:
    msgs = []
    scales = dyadic_scales(-10, 0)
    if not growth.is_in_Gq(params.phi, params.q, scales):
        raise ValueError("phi is not in the admissible growth class for q")
    msgs.append("growth class check: phi in G_q")
    if params.variant == "E" and params.r != INF:
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
# commands

def _load_function(args) -> GridFunction:
    if args.input:
        with open(args.input, "rb") as fh:
            return GridFunction.from_bytes(fh.read())
    return preset_function(args.fn, args.dim, args.res, seed=args.seed)


def cmd_norm(args) -> int:
    params = parse_params(args.params, args.dim)
    msgs = validate_params(params)
    if args.dry_run:
        print(json.dumps({"checked": msgs}))
        return EXIT_OK
    f = _load_function(args)
    bank = make_bank(args.dim, f.G, kind=args.bank,
                     homogeneous=params.homogeneous)
    val = space_norm(f, params, bank)
    print(json.dumps({"norm": val, "params": params.to_json()}))
    return EXIT_OK


def cmd_seqnorm(args) -> int:
    params = parse_params(args.params, args.dim)
    msgs = validate_params(params)
    if args.dry_run:
        print(json.dumps({"checked": msgs}))
        return EXIT_OK
    with open(args.input) as fh:
        lam = CoeffField.from_csv(fh.read(), args.dim)
    print(json.dumps({"norm": seq_norm(lam, params)}))
    return EXIT_OK


def cmd_decompose(args) -> int:
    if args.dry_run:
        print(json.dumps({"checked": [f"L={args.L} >= 0",
                                      f"resolution {args.res} power of two"]}))
        return EXIT_OK
    f = _load_function(args)
    pair = rychkov_pair(args.L, n=args.dim, G=f.G, homogeneous=args.hom)
    lam, patches = decomp.atomic_analyze(f, pair)
    rec = decomp.synthesize(lam, patches, f.G)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lam.to_csv())
    atoms = sum(np.size(v) for v in lam.levels.values())
    print(json.dumps({"levels": lam.level_list(), "atoms": atoms,
                      "roundtrip_residual": resid}))
    return EXIT_OK if resid < 1e-8 else EXIT_EXACT


def cmd_quark(args) -> int:
    if args.dry_run:
        print(json.dumps({"checked": ["band levels fit the sampling lattice"]}))
        return EXIT_OK
    f = _load_function(args)
    gen = decomp.QuarkGen(n=args.dim)
    bank = make_bank(args.dim, f.G)
    qlam = decomp.quark_analyze(f, gen, bank, args.beta_cutoff)
    rec = decomp.quark_synthesize(qlam, gen, f.G)
    resid = (rec - f).l2() / max(f.l2(), 1e-300)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(qlam.to_csv())
    print(json.dumps({"betas": [list(b) for b in qlam.betas()],
                      "residual": resid}))
    return EXIT_OK


def cmd_trace(args) -> int:
    params = parse_params(args.params, args.dim)
    try:
        msgs = validate_params(params, for_trace=True)
    except ValueError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.dry_run:
        print(json.dumps({"checked": msgs}))
        return EXIT_OK
    problem = trace.TraceProblem(params)
    with open(args.input) as fh:
        lam = CoeffField.from_csv(fh.read(), args.dim)
    out = {
        "bound_I": trace.trace_bound_I(lam, problem),
        "bound_II": trace.trace_bound_II(lam, problem),
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.trace_coeff(lam, problem).to_csv())
    print(json.dumps(out))
    return EXIT_OK


def cmd_extend(args) -> int:
    params = parse_params(args.params, args.dim)
    try:
        validate_params(params, for_trace=True)
    except ValueError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_USAGE
    problem = trace.TraceProblem(params)
    with open(args.input) as fh:
        mu = CoeffField.from_csv(fh.read(), args.dim - 1)
    if args.dry_run:
        print(json.dumps({"checked": ["trace preconditions"]}))
        return EXIT_OK
    ext = trace.extend_coeff(mu, problem)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ext.to_csv())
    print(json.dumps({"extension_bound": trace.extension_bound(mu, problem)}))
    return EXIT_OK


def _campaign_report(args):
    name = args.name
    seed = args.seed
    if name == "hardy":
        return verify.hardy_campaign(args.delta, args.r, args.trials, seed=seed)
    if name == "maximal":
        phi = power(4.0) if args.phi == "power" else powerlog(4.0, 1.0)
        return verify.maximal_campaign(2.0, 2.0, phi, args.trials,
                                       resolutions=args.resolutions, seed=seed)
    if name == "filter":
        params = parse_params(args.params, args.dim)
        G = args.resolutions[-1]
        corpus = verify.function_corpus(args.dim, G, args.trials, seed)
        bankA = make_bank(args.dim, G, "partition",
                          homogeneous=params.homogeneous)
        bankB = make_bank(args.dim, G, "bump", homogeneous=params.homogeneous)
        return verify.filter_invariance_campaign(bankA, bankB, params, corpus)
    if name == "peetre":
        params = parse_params(args.params, args.dim)
        G = args.resolutions[-1]
        corpus = verify.function_corpus(args.dim, G, args.trials, seed)
        bank = make_bank(args.dim, G, homogeneous=params.homogeneous)
        N = verify.peetre_threshold(params) + 1.0
        return verify.peetre_char_campaign(params, N, corpus, bank)
    if name == "embedding":
        return verify.embedding_campaign(2.0, 2.0, args.r, depth=args.depth,
                                         trials=args.trials, seed=seed)
    if name == "counterexample":
        return verify.counterexample_growth(args.r, depths=range(2, 13))
    raise ValueError(f"unknown campaign {name!r}")


def cmd_campaign(args) -> int:
    try:
        rep = _campaign_report(args)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rep.to_json())
    print(rep.to_json())
    if rep.failures:
        return EXIT_EXACT
    if not rep.stable():
        return EXIT_STABILITY
    return EXIT_OK


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


def cmd_suite(args) -> int:
    with open(args.file) as fh:
        configs = json.load(fh)
    _check_suite(configs)
    worst = EXIT_OK
    summary = []
    for cfg in configs:
        sub = argparse.Namespace(seed=args.seed, dim=1, depth=6,
                                 trials=50, resolutions=[128, 256],
                                 params="power-p2-q2-s1-N-r2",
                                 delta=0.5, r=2.0, phi="power", out=None)
        for k, v in cfg.items():
            setattr(sub, k, v)
        try:
            rep = _campaign_report(sub)
        except ValueError as e:
            print(f"config error in {cfg}: {e}", file=sys.stderr)
            return EXIT_USAGE
        code = EXIT_EXACT if rep.failures else \
            (EXIT_OK if rep.stable() else EXIT_STABILITY)
        worst = max(worst, code)
        summary.append({"campaign": rep.name, "constants": rep.constants,
                        "pass": code == EXIT_OK})
    print(json.dumps(summary, default=float, indent=2))
    return worst


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="morreykit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, default=1)
        p.add_argument("--res", type=int, default=256)
        p.add_argument("--dry-run", action="store_true", dest="dry_run")
        p.add_argument("--out", default=None)
        p.add_argument("--input", default=None)

    p = sub.add_parser("norm")
    common(p)
    p.add_argument("--fn", default="gaussian")
    p.add_argument("--params", required=True)
    p.add_argument("--bank", default="partition", choices=["partition", "bump"])
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("seqnorm")
    common(p)
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_seqnorm)

    p = sub.add_parser("decompose")
    common(p)
    p.add_argument("--fn", default="gaussian")
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--hom", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("quark")
    common(p)
    p.add_argument("--fn", default="gaussian")
    p.add_argument("--beta-cutoff", type=int, default=4, dest="beta_cutoff")
    p.set_defaults(func=cmd_quark)

    p = sub.add_parser("trace")
    common(p)
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_trace, dim=2)

    p = sub.add_parser("extend")
    common(p)
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_extend, dim=2)

    p = sub.add_parser("campaign")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--phi", default="power")
    p.add_argument("--params", default="power-p2-q2-s1-N-r2")
    p.add_argument("--resolutions", type=int, nargs="+", default=[128, 256])
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("suite")
    common(p)
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    env_seed = os.environ.get("MORREYKIT_SEED")
    if env_seed is not None:
        args.seed = int(env_seed)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
