"""Command-line surface for chamberwalk.

Subcommands expose every library operation with reproducible seeds and
machine-readable output (JSON summaries, CSV point clouds/trajectories).

Exit codes: 0 success, 1 verification-check failure, 2 usage error or a
non-finite result (nothing is written then).

CSV formats (every field reads back with float(); the files that
``convolve --out`` and ``walk --out`` write start with a line
``# manifest: {...}`` holding the run manifest as JSON):
  convolve clouds:  header ``x1,...,xd,weight``, one centered spectrum per
  row with its weight 1/n.
  walk trajectory:  header ``n,q1_over_n,...,qd_over_n,mz_scaled_dev``, one
  row per checkpoint n of replica 0: the coordinates of q(S_n)/n, and
  ``n^{-1/r} * ||q(S_n) - n c||`` with c the m1 limit and r the config's
  r_exponent.

Determinism: all randomness flows from --seed through documented substreams,
and reductions are order-fixed.  Every output file embeds its run manifest;
wall-time is reported on stderr only, so reruns with the same manifest are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, convolve, walk
from .roots import RootSystemError, _check_vec, build_root_system
from .selftest import run_selftest
from .special import m1_closed, semicharacter, spherical_phi, spherical_psi
from .walk import WalkConfig, euclidean_walk_crosscheck, run_group_walk


def _manifest(args: argparse.Namespace) -> dict:
    """The run manifest: command, sorted parameters, seed and version."""
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "seed", "command")}
    return {"command": args.command, "params": params,
            "seed": getattr(args, "seed", None), "version": __version__}


def _parse_vector(text: str | None, name: str, rs) -> np.ndarray:
    """The JSON array ``text`` as an ambient vector of ``rs``, by `_check_vec`."""
    if text is None:
        raise SystemExit(f"error: {name} is required")
    try:
        v = json.loads(text)
        shape = np.shape(v)
    except ValueError as exc:  # not JSON, or a ragged array
        raise SystemExit(f"error: {name} must be a JSON array of numbers: {exc}")
    if shape != (rs.ambient_dim,):
        raise SystemExit(f"error: {name} must hold {rs.ambient_dim} numbers, got shape {shape}")
    return _check_vec(rs, v, name=name)


def _refuse_unused(args, command: str, *dests: str) -> None:
    """Exit 2 naming each flag among ``dests`` that was given, as ``command`` does not use it."""
    given = ["--lambda" if k == "lam" else f"--{k}" for k in dests if getattr(args, k) is not None]
    if given:
        raise SystemExit(f"error: {command} does not use {', '.join(given)}")


def _emit(payload: dict, manifest: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"  # NaN or inf: ValueError, exit 2
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _open_csv(out: str, manifest: dict):
    """Open ``<out>.csv`` for writing, its ``# manifest:`` line written."""
    f = open(out + ".csv", "w")
    f.write("# manifest: " + json.dumps(manifest) + "\n")
    return f


def cmd_rho(args) -> int:
    rs = build_root_system(args.family, args.rank)
    _emit(json.loads(rs.to_json()), _manifest(args), args.out)
    return 0


def cmd_eval(args) -> int:
    rs = build_root_system(args.family, args.rank)
    if args.kind in ("semichar", "m1"):
        _refuse_unused(args, f"eval {args.kind}", "lam")
    x = _parse_vector(args.x, "--x", rs)
    if args.kind in ("psi", "phi"):
        lam = _parse_vector(args.lam, "--lambda", rs)
        fn = spherical_psi if args.kind == "psi" else spherical_phi
        sv = fn(rs, lam, x)
        payload = {"value_re": sv.value.real, "value_im": sv.value.imag,
                   "regularized": sv.regularized, "est_abs_error": sv.est_abs_error}
    elif args.kind == "semichar":
        payload = {"value_re": semicharacter(rs, x), "value_im": 0.0,
                   "regularized": False, "est_abs_error": 0.0}
    else:  # m1
        payload = {"value": m1_closed(rs, x).tolist()}
    _emit(payload, _manifest(args), args.out)
    return 0


def cmd_convolve(args) -> int:
    rs = build_root_system("A", args.d - 1)
    x, y = _parse_vector(args.x, "--x", rs), _parse_vector(args.y, "--y", rs)
    rng = walk.substream(args.seed, 0)
    sampler = (convolve.conv_hermitian_cloud if args.mode == "hermitian"
               else convolve.conv_group_cloud)
    cloud = sampler(args.d, x, y, args.n, rng)
    manifest = _manifest(args)
    summary = {
        "mode": args.mode, "d": args.d, "n": args.n,
        "mean": cloud.mean(axis=0).tolist(),
        "extent_min": cloud.min(axis=0).tolist(),
        "extent_max": cloud.max(axis=0).tolist(),
    }
    if args.out:
        with _open_csv(args.out, manifest) as f:
            convolve.EmpiricalMeasure.uniform(cloud).write_csv(f)
    _emit(summary, manifest, args.out + ".json" if args.out else None)
    return 0


def cmd_check(args) -> int:
    if args.which in ("semichar-mult", "support"):
        _refuse_unused(args, f"check {args.which}", "lam")
    rs = build_root_system("A", args.d - 1)
    x, y = _parse_vector(args.x, "--x", rs), _parse_vector(args.y, "--y", rs)
    rng = walk.substream(args.seed, 0)
    manifest = _manifest(args)
    if args.which == "deformation":
        f = "bump"
        if args.lam is not None:
            f = ("phi", _parse_vector(args.lam, "--lambda", rs))
        res = convolve.deformation_check(args.d, x, y, f, args.n, rng)
        payload = {"which": args.which, "pass": res.passed,
                   "lhs_re": res.lhs.real, "lhs_im": res.lhs.imag,
                   "rhs_re": res.rhs.real, "rhs_im": res.rhs.imag,
                   "stderr_lhs": res.stderr_lhs, "stderr_rhs": res.stderr_rhs}
    elif args.which == "semichar-mult":
        res = convolve.semicharacter_multiplicativity(args.d, x, y, args.n, rng)
        payload = {"which": args.which, "pass": res.passed, "mean": res.lhs,
                   "stderr": res.stderr_lhs, "target": res.rhs}
    elif args.which == "support":
        res = convolve.support_equivalence(args.d, x, y, args.n, rng)
        payload = {"which": args.which, **json.loads(res.to_json())}
    else:  # transform-homomorphism
        lam = _parse_vector(args.lam, "--lambda", rs)
        res = convolve.transform_homomorphism(args.d, x, y, lam, args.n, rng)
        payload = {"which": args.which, "pass": res.passed,
                   "estimate_re": res.lhs.real, "estimate_im": res.lhs.imag,
                   "stderr": res.stderr_lhs, "target_re": res.rhs.real,
                   "target_im": res.rhs.imag}
    _emit(payload, manifest, args.out)
    return 0 if res.passed else 1


def cmd_walk(args) -> int:
    defaults = {"d": 2, "n": 1000, "replicas": 1, "seed": 0}  # what --config replaces
    if args.config:
        _refuse_unused(args, "walk --config", "x", *defaults)
        cfg = WalkConfig.from_json(Path(args.config).read_text())
        args.d, args.n, args.replicas, args.seed = cfg.d, cfg.n_steps, cfg.n_replicas, cfg.seed
    else:
        if args.x is None:
            raise SystemExit("error: walk needs --config or --x")
        vars(args).update({k: v for k, v in defaults.items() if vars(args)[k] is None})
        x = _parse_vector(args.x, "--x", build_root_system("A", args.d - 1))
        cfg = WalkConfig(d=args.d, atoms=x[None, :], weights=np.array([1.0]),
                         n_steps=args.n, n_replicas=args.replicas,
                         seed=args.seed)
    manifest = _manifest(args)
    if args.crosscheck:
        rep = euclidean_walk_crosscheck(cfg)
        payload = {"crosscheck": True, "pass": rep.passed,
                   "ks_distances": rep.ks_distances,
                   "critical_1pct": rep.critical_1pct}
        _emit(payload, manifest, args.out + ".json" if args.out else None)
        return 0 if rep.passed else 1
    report = run_group_walk(cfg)
    _emit(json.loads(report.to_json()), manifest, args.out + ".json" if args.out else None)
    if args.out:
        with _open_csv(args.out, manifest) as f:
            f.write(report.to_csv())
    return 0


def cmd_selftest(args) -> int:
    out_dir = args.out or f"selftest_{args.level}"
    outcomes, report = run_selftest(args.level, args.seed, out_dir)
    for o in outcomes:
        print(f"{'PASS' if o.passed else 'FAIL'}  {o.name}")
        print(f"{o.seconds:8.3f}s  {o.name}", file=sys.stderr)
    print(f"report written to {out_dir}/selftest_report.json")
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamberwalk",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("rho", cmd_rho, help="print root-system data (positive roots, rho)")
    p.add_argument("family", choices="ABCD")
    p.add_argument("rank", type=int)
    p.add_argument("--out")

    p = add("eval", cmd_eval, help="evaluate psi / phi / semicharacter / m1")
    p.add_argument("kind", choices=["psi", "phi", "semichar", "m1"])
    p.add_argument("family", choices="ABCD")
    p.add_argument("rank", type=int)
    p.add_argument("--x", required=True, help="JSON vector, e.g. \"[1,-1]\"")
    p.add_argument("--lambda", dest="lam", help="JSON vector (psi/phi only)")
    p.add_argument("--out")

    conv = add("convolve", cmd_convolve,
               help="sample a convolution spectrum cloud (CSV + JSON summary)")
    conv.add_argument("mode", choices=["hermitian", "group"])

    check = add("check", cmd_check, help="run a Monte-Carlo verification check")
    check.add_argument("which", choices=["deformation", "semichar-mult", "support",
                                         "transform-homomorphism"])
    for p, n in ((conv, 10_000), (check, 100_000)):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--seed", type=int, default=0)
    conv.add_argument("--out", help="prefix; writes <out>.csv and <out>.json")
    check.add_argument("--lambda", dest="lam",
                       help="use phi_lambda as test function / transform point")
    check.add_argument("--out")

    p = add("walk", cmd_walk, help="run a biinvariant random matrix walk")
    p.add_argument("--config", help="WalkConfig JSON file")
    p.add_argument("--d", type=int, help="default 2")
    p.add_argument("--x", help="single-atom step distribution (JSON vector)")
    p.add_argument("--n", type=int, help="steps, default 1000")
    p.add_argument("--replicas", type=int, help="default 1")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--crosscheck", action="store_true",
                   help="KS comparison against the weighted Euclidean walk")
    p.add_argument("--out", help="prefix; writes <out>.json and <out>.csv")

    p = add("selftest", cmd_selftest, help="run the built-in verification suite")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="artifact directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except (RootSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall-time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
