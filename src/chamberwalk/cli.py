"""Command-line surface for chamberwalk.

Subcommands expose every library operation with reproducible seeds and
machine-readable output (JSON summaries, CSV point clouds/trajectories).

Exit codes: 0 success, 1 verification-check failure, 2 usage error.

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
from .roots import RootSystemError, build_root_system
from .selftest import run_selftest
from .special import m1_closed, semicharacter, spherical_phi, spherical_psi
from .walk import WalkConfig, euclidean_walk_crosscheck, run_group_walk


def _manifest(args: argparse.Namespace) -> dict:
    """The run manifest: command, sorted parameters, seed and version."""
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "seed", "command")}
    return {"command": args.command, "params": params,
            "seed": getattr(args, "seed", None), "version": __version__}


def _parse_vector(text: str | None, name: str, size: int) -> np.ndarray:
    if text is None:
        raise SystemExit(f"error: {name} is required")
    try:
        v = np.asarray(json.loads(text), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: {name} must be a JSON array of numbers: {exc}")
    if v.shape != (size,):
        raise SystemExit(f"error: {name} must hold {size} numbers, got shape {v.shape}")
    return v


def _emit(payload: dict, manifest: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest
    text = json.dumps(payload, indent=2) + "\n"
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
    x = _parse_vector(args.x, "--x", rs.ambient_dim)
    if args.kind in ("psi", "phi"):
        lam = _parse_vector(args.lam, "--lambda", rs.ambient_dim)
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
    x = _parse_vector(args.x, "--x", args.d)
    y = _parse_vector(args.y, "--y", args.d)
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
    x = _parse_vector(args.x, "--x", args.d)
    y = _parse_vector(args.y, "--y", args.d)
    rng = walk.substream(args.seed, 0)
    manifest = _manifest(args)
    if args.which == "deformation":
        f = "bump"
        if args.lam is not None:
            f = ("phi", _parse_vector(args.lam, "--lambda", args.d))
        res = convolve.deformation_check(args.d, x, y, f, args.n, rng)
        payload = {"which": args.which, "pass": res.passed,
                   "lhs_re": res.lhs.real, "lhs_im": res.lhs.imag,
                   "rhs_re": res.rhs.real, "rhs_im": res.rhs.imag,
                   "stderr_lhs": res.stderr_lhs, "stderr_rhs": res.stderr_rhs}
        passed = res.passed
    elif args.which == "semichar-mult":
        mean, se, target = convolve.semicharacter_multiplicativity(
            args.d, x, y, args.n, rng)
        passed = abs(mean - target) <= 3.0 * se
        payload = {"which": args.which, "pass": passed, "mean": mean,
                   "stderr": se, "target": target}
    elif args.which == "support":
        rep = convolve.support_equivalence(args.d, x, y, args.n, rng)
        passed = rep.passed
        payload = {"which": args.which, **json.loads(rep.to_json())}
    else:  # transform-homomorphism
        lam = _parse_vector(args.lam, "--lambda", args.d)
        rs = build_root_system("A", args.d - 1)
        cloud = convolve.conv_hermitian_cloud(args.d, x, y, args.n, rng)
        measure = convolve.EmpiricalMeasure.uniform(cloud)
        est, se = convolve.spherical_transform_empirical(measure, lam, "psi", rs)
        target = spherical_psi(rs, lam, x).value * spherical_psi(rs, lam, y).value
        passed = abs(est - target) <= 3.0 * se
        payload = {"which": args.which, "pass": passed,
                   "estimate_re": est.real, "estimate_im": est.imag,
                   "stderr": se, "target_re": target.real,
                   "target_im": target.imag}
    _emit(payload, manifest, args.out)
    return 0 if passed else 1


def cmd_walk(args) -> int:
    if args.config:
        cfg = WalkConfig.from_json(Path(args.config).read_text())
    else:
        if args.x is None:
            raise SystemExit("error: walk needs --config or --x")
        x = _parse_vector(args.x, "--x", args.d)
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

    p = add("convolve", cmd_convolve,
            help="sample a convolution spectrum cloud (CSV + JSON summary)")
    p.add_argument("mode", choices=["hermitian", "group"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="prefix; writes <out>.csv and <out>.json")

    p = add("check", cmd_check, help="run a Monte-Carlo verification check")
    p.add_argument("which", choices=["deformation", "semichar-mult", "support",
                                     "transform-homomorphism"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--lambda", dest="lam",
                   help="use phi_lambda as test function / transform point")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add("walk", cmd_walk, help="run a biinvariant random matrix walk")
    p.add_argument("--config", help="WalkConfig JSON file")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--x", help="single-atom step distribution (JSON vector)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
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
