"""The four benchmark workloads.

Each workload is a closed loop: one caller runs the operations of a pass
back to back, and every pass runs the same operations on the same inputs.
``execute`` is the timed part and only calls chamberwalk; ``verify`` is
untimed and checks the outputs against oracles.py.

A workload receives a program seed (see run.py) and hands chamberwalk only
that seed and the fixed configs below, taken from the acceptance-criterion
lists in chamberwalk.selftest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: bytes the pass's CLI commands wrote to stdout and to files
    output_bytes: int = 0

    def op(self, ok: bool, known_fault: bool, problems=()) -> None:
        """Count one operation; problems on an operation that should pass make the run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        if not known_fault:
            self.problems.extend(problems)
            if not ok and not problems:
                self.problems.append("an operation failed")


def _cli(cw, argv) -> tuple[int, str]:
    """Run ``chamberwalk <argv>`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cw.cli.main(argv)
    return code, out.getvalue()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _vec(v) -> str:
    return json.dumps([float(t) for t in v])


class Workload:
    name = ""
    #: root systems built during set-up
    systems: tuple = (("A", 1), ("A", 2))
    #: root systems whose Weyl group set-up enumerates
    weyl: tuple = (("A", 1), ("A", 2))

    def __init__(self, cw, seed: int, workdir: Path):
        self.cw = cw
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the root systems and make one cold call of each kernel used."""
        for family, rank in self.systems:
            self.cw.roots.build_root_system(family, rank)
        for family, rank in self.weyl:
            self.cw.roots.enumerate_weyl(self.cw.roots.build_root_system(family, rank))
        self.warm(self.cw.walk.substream(self.seed, 999))

    def warm(self, rng) -> None:
        raise NotImplementedError

    def execute(self, k: int):
        raise NotImplementedError

    def verify(self, k: int, raw) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SelftestFast(Workload):
    """``chamberwalk selftest --level fast`` through cli.main, once per pass."""

    name = "selftest-fast"
    systems = tuple([("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 7)]
                    + [("C", r) for r in range(3, 7)] + [("D", r) for r in range(4, 7)])
    weyl = (("A", 1), ("A", 2), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4))

    def __init__(self, cw, seed, workdir):
        super().__init__(cw, seed, workdir)
        self.reference = None

    def warm(self, rng) -> None:
        cw = self.cw
        for family, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
            rs = cw.roots.build_root_system(family, rank)
            x = rs.rho / np.abs(rs.rho).max()
            cw.special.spherical_psi(rs, 0.3 * x, x)
            cw.special.spherical_phi(rs, 0.3 * x, x)
            cw.special.semicharacter(rs, x)
            cw.special.m1_closed(rs, x)
            if family != "C":
                cw.special.m1_mc(rs, x, 16, rng)
        cw.kernels.hermitian_spectrum(np.diag([1.0, 0.0, -1.0]))
        cw.kernels.log_singular_spectrum(cw.kernels.sample_biinvariant([0.5, 0.0, -0.5], rng))
        cw.convolve.deformation_check(3, [1, 0, -1], [0.5, 0, -0.5], "bump", 16, rng)
        cw.convolve.support_equivalence(2, [1, -1], [1, -1], 100, rng)
        acc = cw.walk.ProductAccumulator(3)
        acc.update(cw.kernels.sample_biinvariant([0.5, 0.0, -0.5], rng))
        acc.readout()
        cw.walk.euclidean_walk_crosscheck(cw.walk.WalkConfig(
            d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=2, n_replicas=8, seed=self.seed))
        cw.cli.build_parser()

    def execute(self, k):
        out = self.workdir / f"selftest-{k}"
        argv = ["selftest", "--level", "fast", "--seed", str(self.seed), "--out", str(out)]
        return (*_cli(self.cw, argv), out)

    def verify(self, k, raw) -> Verdict:
        code, text, out = raw
        problems = []
        if code != 0:
            problems.append(f"selftest exit code {code}")
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        if len(lines) != 12 or any(not ln.startswith("PASS") for ln in lines):
            problems.append("selftest did not print 12 PASS lines")
        report = json.loads((out / "selftest_report.json").read_text())
        if not report["pass"] or not all(c["pass"] for c in report["checks"]):
            problems.append("selftest report has a failing check")
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.reference is None:
            self.reference = artifacts
        elif artifacts != self.reference:
            problems.append("same-seed selftest artifacts differ between passes")
        v = Verdict(output_bytes=len(text.encode()) + _tree_bytes(out))
        shutil.rmtree(out)
        v.op(not problems, False, problems)
        return v


# ---------------------------------------------------------------------------

D2 = (2, [1.0, -1.0], [1.0, -1.0])
D3 = (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5])
CLOUDS = [("hermitian",) + D2, ("group",) + D2, ("hermitian",) + D3, ("group",) + D3]
N_CLOUD = 100_000
CHECKS = [
    ("deformation", 2, [1.0, -1.0], [0.5, -0.5], 100_000),
    ("deformation", 3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], 100_000),
    ("semichar-mult", 2, [1.0, -1.0], [1.0, -1.0], 100_000),
    ("semichar-mult", 3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], 100_000),
    ("support", 2, [2.0, -2.0], [0.5, -0.5], 10_000),
    ("support", 3, [1.0, 0.0, -1.0], [2.0, 0.0, -2.0], 10_000),
]
#: both ends of the d = 2, x = y = (1, -1) clouds must come this close to 0
#: and 2; at n = 1e5 about 50 group samples (the thinner tail) fall below 0.08
EXTENT_TOL = 0.08


def _read_cloud_csv(path: Path, n: int, strict: bool):
    """(manifest, header, atoms, weights) from a ``convolve --out`` CSV of n rows.

    ``strict`` parses every field with float(), as a user's tooling would;
    otherwise numpy scalar reprs such as ``np.float64(0.5)`` are unwrapped
    first so the values can still be checked.  Rows are read one at a time
    so that checking does not raise the peak memory of the process.
    """
    with path.open() as f:
        manifest = json.loads(f.readline().removeprefix("# manifest: "))
        header = f.readline().rstrip("\n").split(",")
        table = np.full((n, len(header)), np.nan)
        i = -1
        for i, line in enumerate(f):
            if i >= n:
                raise ValueError(f"{path.name} has more than {n} rows")
            if not strict:
                line = line.replace("np.float64(", "").replace(")", "")
            table[i] = [float(t) for t in line.split(",")]
        if i + 1 != n:
            raise ValueError(f"{path.name} has {i + 1} rows, expected {n}")
    return manifest, header, table[:, :-1], table[:, -1]


class Clouds(Workload):
    """Convolution clouds and the three Monte-Carlo checks through cli.main."""

    name = "clouds"

    def warm(self, rng) -> None:
        cw = self.cw
        for d, x, y in (D2[0:3], D3[0:3]):
            cw.convolve.conv_hermitian_cloud(d, x, y, 16, rng)
            cw.convolve.conv_group_cloud(d, x, y, 16, rng)
            cw.convolve.deformation_check(d, x, y, "bump", 16, rng)
            cw.convolve.semicharacter_multiplicativity(d, x, y, 16, rng)
            cw.convolve.support_equivalence(d, x, y, 100, rng)
        cw.convolve.EmpiricalMeasure.uniform(np.zeros((2, 2))).to_csv()
        cw.cli.build_parser()

    def execute(self, k):
        out = self.workdir / f"clouds-{k}"
        out.mkdir()
        results = []
        for i, (mode, d, x, y) in enumerate(CLOUDS):
            argv = ["convolve", mode, "--d", str(d), "--x", _vec(x), "--y", _vec(y),
                    "--n", str(N_CLOUD), "--seed", str(self.seed), "--out", str(out / f"cloud{i}")]
            results.append(_cli(self.cw, argv))
        for i, (which, d, x, y, n) in enumerate(CHECKS):
            argv = ["check", which, "--d", str(d), "--x", _vec(x), "--y", _vec(y),
                    "--n", str(n), "--seed", str(self.seed), "--out", str(out / f"check{i}.json")]
            results.append(_cli(self.cw, argv))
        return results, out

    def verify(self, k, raw) -> Verdict:
        results, out = raw
        codes = [code for code, _ in results]
        v = Verdict(output_bytes=sum(len(text.encode()) for _, text in results)
                    + _tree_bytes(out))
        for i, (mode, d, x, y) in enumerate(CLOUDS):
            problems = [] if codes[i] == 0 else [f"convolve exit code {codes[i]}"]
            problems += self._cloud_problems(out / f"cloud{i}", mode, d, x, y)
            v.op(not problems, False, problems)
        for i, check in enumerate(CHECKS):
            code = codes[len(CLOUDS) + i]
            problems = [] if code == 0 else [f"check {check[0]} exit code {code}"]
            problems += self._check_problems(json.loads((out / f"check{i}.json").read_text()),
                                             *check)
            v.op(not problems, False, problems)
        # Known fault: the CSVs hold numpy scalar reprs, so float() rejects them.
        v.op(self._strict_roundtrip_ok(out), True)
        shutil.rmtree(out)
        return v

    def _cloud_problems(self, prefix: Path, mode, d, x, y) -> list[str]:
        summary = json.loads(prefix.with_suffix(".json").read_text())
        try:
            manifest, header, z, w = _read_cloud_csv(prefix.with_suffix(".csv"), N_CLOUD,
                                                     strict=False)
        except ValueError as exc:
            return [f"{mode} d={d}: unreadable CSV: {exc}"]
        problems = []
        if z.shape != (N_CLOUD, d) or header[-1] != "weight":
            return [f"{mode} d={d}: cloud has shape {z.shape}"]
        if manifest["seed"] != self.seed or manifest != summary["manifest"]:
            problems.append("CSV manifest does not match the run")
        if np.any(np.abs(w * N_CLOUD - 1.0) > 1e-12):
            problems.append("cloud weights are not uniform")
        problems += oracles.chamber_rows_problems(z)
        problems += oracles.partial_sum_problems(z, x, y)
        for key, got in (("mean", z.mean(axis=0)), ("extent_min", z.min(axis=0)),
                         ("extent_max", z.max(axis=0))):
            if not np.allclose(summary[key], got, rtol=0, atol=1e-12):
                problems.append(f"summary {key} does not match the CSV")
        if d == 2 and x == y == [1.0, -1.0]:
            s = z[:, 0]
            if not (s.min() < EXTENT_TOL and s.max() > 2.0 - EXTENT_TOL):
                problems.append(f"{mode} d=2 cloud does not reach both ends of [0, 2]")
        return [f"{mode} d={d}: {p}" for p in problems]

    def _check_problems(self, res, which, d, x, y, n) -> list[str]:
        problems = [] if res.get("pass") is True else [f"{which} d={d} reports fail"]
        vals = [v for k, v in res.items() if isinstance(v, float)]
        if not all(math.isfinite(v) for v in vals):
            return problems + [f"{which} d={d} has non-finite output"]
        if which == "deformation":
            gap = math.hypot(res["lhs_re"] - res["rhs_re"], res["lhs_im"] - res["rhs_im"])
            if gap > 3.0 * (res["stderr_lhs"] + res["stderr_rhs"]):
                problems.append(f"deformation d={d} sides differ by more than 3 stderr")
            if not (0.0 < res["lhs_re"] <= 1.0 and 0.0 < res["rhs_re"]):
                problems.append(f"deformation d={d} bump mean outside (0, 1]")
        elif which == "semichar-mult":
            target = oracles.semicharacter_a(x) * oracles.semicharacter_a(y)
            if abs(res["target"] - target) > 1e-12 * target:
                problems.append(f"semichar-mult d={d} target {res['target']} != {target}")
            if abs(res["mean"] - target) > 3.0 * res["stderr"]:
                problems.append(f"semichar-mult d={d} mean off target by more than 3 stderr")
        else:
            if not res["hausdorff"] <= 2.0 * max(res["self_a"], res["self_b"]) + 1e-3:
                problems.append(f"support d={d} Hausdorff distance above threshold")
        return problems

    def _strict_roundtrip_ok(self, out: Path) -> bool:
        try:
            for i in range(len(CLOUDS)):
                prefix = out / f"cloud{i}"
                _, _, z, _ = _read_cloud_csv(prefix.with_suffix(".csv"), N_CLOUD, strict=True)
                summary = json.loads(prefix.with_suffix(".json").read_text())
                if not np.allclose(summary["mean"], z.mean(axis=0), rtol=0, atol=1e-12):
                    return False
        except ValueError:
            return False
        return True


# ---------------------------------------------------------------------------

#: (d, atoms, weights, seed offset): the two criterion-09 step laws
WALKS = [
    (2, [[0.5, -0.5]], [1.0], 0),
    (3, [[1.0, 0.0, -1.0], [0.5, 0.0, -0.5]], [0.5, 0.5], 1),
]
WALK_STEPS = 5000
WALK_REPLICAS = 2
#: criterion 09's tolerance on every replica's ||q(S_n)/n - limit||
WALK_TOL = 0.05


class StrongLaw(Workload):
    """``run_group_walk`` on the criterion-09 step laws over a long horizon."""

    name = "strong-law"

    def __init__(self, cw, seed, workdir):
        super().__init__(cw, seed, workdir)
        self.limits = None

    def _config(self, d, atoms, weights, offset, n_steps, replicas):
        return self.cw.walk.WalkConfig(d=d, atoms=atoms, weights=weights, n_steps=n_steps,
                                       n_replicas=replicas, seed=self.seed + offset)

    def warm(self, rng) -> None:
        for walk in WALKS:
            self.cw.walk.run_group_walk(self._config(*walk, n_steps=4, replicas=1))

    def execute(self, k):
        return [self.cw.walk.run_group_walk(
                    self._config(*walk, n_steps=WALK_STEPS, replicas=WALK_REPLICAS))
                for walk in WALKS]

    def verify(self, k, raw) -> Verdict:
        if self.limits is None:
            self.limits = [oracles.m1_limit_a1(atoms[0][0]) if d == 2
                           else oracles.m1_limit(atoms, weights)
                           for d, atoms, weights, _ in WALKS]
        v = Verdict()
        for (d, *_), limit, rep in zip(WALKS, self.limits, raw):
            problems = []
            if np.max(np.abs(rep.limit_c - limit)) > 1e-12:
                problems.append(f"d={d} limit_c {rep.limit_c} != {limit}")
            if len(rep.final_errors) != WALK_REPLICAS or not all(
                    e <= WALK_TOL for e in rep.final_errors):
                problems.append(f"d={d} final errors {rep.final_errors} above {WALK_TOL}")
            if rep.checkpoints[-1] != WALK_STEPS or len(rep.trajectory) != len(rep.checkpoints):
                problems.append(f"d={d} trajectory does not reach n={WALK_STEPS}")
            traj = np.array(rep.trajectory)
            problems += [f"d={d} trajectory: {p}"
                         for p in oracles.chamber_rows_problems(traj, tol=1e-12)]
            if abs(np.linalg.norm(traj[-1] - limit) - rep.final_errors[0]) > 1e-9:
                problems.append(f"d={d} final error does not match the trajectory")
            v.op(not problems, False, problems)
        return v


# ---------------------------------------------------------------------------

#: (d, x, n_steps, replicas, known fault)
CROSSCHECKS = [
    (2, [0.5, -0.5], 50, 2000, False),
    (3, [0.5, 0.0, -0.5], 50, 1000, False),
    # raw product: svd returns 0 for the small singular value, KS is NaN
    (2, [2.0, -2.0], 100, 200, True),
    # raw product loses ~43 log units of spread, KS far above critical
    (3, [1.0, 0.0, -1.0], 50, 500, True),
]


class Crosscheck(Workload):
    """``euclidean_walk_crosscheck`` at the criterion-11 size and its d = 3 analogue."""

    name = "crosscheck"

    def _config(self, d, x, n_steps, replicas):
        return self.cw.walk.WalkConfig(d=d, atoms=[x], weights=[1.0], n_steps=n_steps,
                                       n_replicas=replicas, seed=self.seed)

    def warm(self, rng) -> None:
        for d, x, *_ in CROSSCHECKS[:2]:
            self.cw.walk.euclidean_walk_crosscheck(self._config(d, x, 2, 8))

    def execute(self, k):
        results = []
        for d, x, n, reps, _ in CROSSCHECKS:
            try:
                results.append(self.cw.walk.euclidean_walk_crosscheck(
                    self._config(d, x, n, reps)))
            except (ValueError, ArithmeticError) as exc:
                results.append(exc)
        return results

    def verify(self, k, raw) -> Verdict:
        v = Verdict()
        for (d, x, n, reps, fault), rep in zip(CROSSCHECKS, raw):
            if isinstance(rep, Exception):
                v.op(False, fault, [f"crosscheck d={d} x={x} raised {rep!r}"])
                continue
            crit = oracles.ks_critical_1pct(reps, reps)
            problems = []
            if len(rep.ks_distances) != d or rep.n_replicas != reps:
                problems.append(f"crosscheck d={d} x={x} report has the wrong shape")
            if not all(math.isfinite(s) and s < crit for s in rep.ks_distances):
                problems.append(f"crosscheck d={d} x={x} KS {rep.ks_distances} "
                                f"not below {crit:.4f}")
            if not rep.passed:
                problems.append(f"crosscheck d={d} x={x} reports fail")
            v.op(not problems, fault, problems)
        return v


WORKLOADS = {w.name: w for w in (SelftestFast, Clouds, StrongLaw, Crosscheck)}


