"""Command-line interface.

Subcommands:
  sample      stream one chain's states as CSV
  experiment  run a JSON experiment spec, emit CSV/SVG
  theory      print contraction constants and rate bounds
  spectral    print the discretized-mean-process tables

Exit codes: 0 success, 2 config error, 3 all configs diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, harness
from .potentials import require_finite
from .rng import RandomSource
from .samplers import ChainState, DivergenceError, SamplerConfig, simulate_chain


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise harness.ConfigError(f"parameter '{pair}' is not key=value")
        key, val = pair.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError:  # kept as text, which build_potential rejects with its path
            params[key] = val
    return params


def _cmd_sample(args) -> int:
    model = harness.build_potential(args.potential, _parse_params(args.param))
    # the rules of simulate_chain and RandomSource, checked before any output
    for flag in ("steps", "seed", "chain_index"):
        if getattr(args, flag) < 0:
            raise harness.ConfigError(f"{flag.replace('_', '-')} must be a non-negative integer")
    require_finite(q0=args.q0, p0=args.p0)
    config = SamplerConfig(kind=args.kind, step=args.step, gamma=args.gamma, alpha=args.alpha)
    rng = RandomSource(args.seed, args.chain_index)
    q = np.full(model.dim, args.q0)
    p = np.full(model.dim, args.p0)
    header = (
        "step,time,"
        + ",".join(f"q{i}" for i in range(model.dim))
        + ","
        + ",".join(f"p{i}" for i in range(model.dim))
    )
    print(header)

    def observer(k, state):
        vals = [str(k), repr(k * config.step)]
        vals += [repr(float(v)) for v in state.q]
        vals += [repr(float(v)) for v in state.p]
        print(",".join(vals))

    observer(0, ChainState(q=q, p=p))
    try:
        simulate_chain(ChainState(q=q, p=p), model, config, args.steps, rng, observer)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise harness.ConfigError("workers must be a positive integer")
    with open(args.config) as fh:
        text = fh.read()
    spec = harness.parse_config(text)
    if args.seed is not None:  # parsed again, so the override obeys the spec's seed rule
        spec = harness.parse_config(json.dumps({**json.loads(text), "seed": args.seed}))
    os.makedirs(args.out_dir, exist_ok=True)
    series = harness.run_experiment(
        spec, workers=args.workers, cache_dir=os.path.join(args.out_dir, "cache")
    )
    if args.format in ("csv", "both"):
        harness.write_csv(series, os.path.join(args.out_dir, "results.csv"))
    finite = [r.value for r in series.rows if math.isfinite(r.value)]
    if args.format in ("svg", "both") and not finite:  # write_svg_plot would raise: the run is not at fault
        print("warning: no finite values to plot; results.svg not written", file=sys.stderr)
    elif args.format in ("svg", "both"):
        style = "semilog-y" if all(v > 0 for v in finite) else "linear"
        harness.write_svg_plot(
            series, style, os.path.join(args.out_dir, "results.svg"), title=spec.metric
        )
    for cid, bad in series.diverged.items():
        if bad is not None:
            print(f"warning: {cid} diverged at step {bad}", file=sys.stderr)
    return 3 if series.all_diverged else 0


def _cmd_theory(args) -> int:
    consts = analysis.theory_constants(args.L, args.m, args.alpha, args.gamma)
    lines = [
        f"L'        = {consts.l_prime:.6g}",
        f"sigma_max = {consts.sigma_max:.6g}",
        f"sigma_min = {consts.sigma_min:.6g}",
        f"kappa'    = {consts.kappa_prime:.6g}",
        f"lambda'   = {consts.lambda_prime:.6g}"
        + ("" if consts.contraction_available else "  (no contraction: gamma^2 <= L)"),
    ]
    if args.m > 0:
        bound = analysis.rate_bound_w2(args.alpha, args.gamma, args.m, args.L)
        lines.append(f"W2 rate   = {bound.rate:.6g} (prefactor {bound.prefactor:.6g}, "
                     f"assumptions gamma_ok={bound.gamma_ok} alpha_ok={bound.alpha_ok})")
    if args.poincare is not None:
        if args.alpha > 0:
            chi2 = analysis.rate_bound_chi2_poincare(args.alpha, args.gamma, args.poincare)
            lines.append(f"chi2 rate (Poincare) = {chi2:.6g}")
        convex = analysis.rate_bound_chi2_convex(args.alpha, args.gamma, args.poincare, args.L)
        lines.append(f"chi2 rate (convex)   = {convex.rate:.6g} "
                     f"(gamma_ok={convex.gamma_ok} alpha_ok={convex.alpha_ok})")
    print("\n".join(lines))  # every line is computed first: an error prints none
    return 0


def _cmd_spectral(args) -> int:
    if not (math.isfinite(args.gamma) and args.gamma > 0):  # h_opt divides by 1 + alpha gamma
        raise ValueError("--gamma must be a finite number > 0")
    lines = ["# forward-Euler mean process, 1D unit quadratic", "alpha gamma h_opt radius"]
    for alpha, gamma in ((0.0, args.gamma), (args.gamma + 2.0, args.gamma)):
        h_opt = (alpha + gamma) / (2.0 * (1.0 + alpha * gamma))
        radius = analysis.spectral_radius(analysis.forward_euler_block(1.0, alpha, gamma, h_opt))
        lines.append(f"{alpha:g} {gamma:g} {h_opt:.6g} {radius:.6g}")
    lines += ["", "# two-scale quadratic: baseline optimum vs accelerated construction (c=1)",
              "eps uld_h uld_gamma uld_discount hfhr_h hfhr_gamma hfhr_alpha hfhr_discount"]
    for eps in args.eps:
        uld = analysis.uld_optimal_discount(eps)
        acc = analysis.hfhr_demo2_parameters(eps, args.c)
        lines.append(
            f"{eps:g} {uld.step:.6g} {uld.gamma:.6g} {uld.discount:.6g} "
            f"{acc.step:.6g} {acc.gamma:.6g} {acc.alpha:.6g} {acc.discount:.6g}"
        )
    print("\n".join(lines))  # every line is computed first: an error prints none
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hfhr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="stream one chain's states")
    p.add_argument("--potential", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--kind", default="hfhr_strang")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chain-index", type=int, default=0)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("experiment", help="run a JSON experiment spec")
    p.add_argument("config")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "svg", "both"), default="both")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("theory", help="print constants and rate bounds")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--poincare", type=float, default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("spectral", help="discretized mean-process tables")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--eps", type=float, nargs="+", default=[0.01, 0.05, 0.1, 0.2, 0.4])
    p.set_defaults(func=_cmd_spectral)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
