"""Self-contained verification suite behind `chamberwalk selftest`.

Runs reduced (fast) or full-scale versions of the acceptance checks and
writes machine-readable artifacts.  Everything is driven by a single seed
through the documented substream scheme, so two runs with the same seed
produce byte-identical artifact files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import convolve, kernels, walk
from .roots import (_check_count, build_root_system, chamber_project, in_chamber,
                    min_root_pairing)
from .special import (
    m1_closed,
    m1_closed_rows,
    m1_mc,
    semicharacter,
    spherical_phi,
    spherical_psi,
)
from .walk import WalkConfig, substream

RHO_FORMULAS = {
    "A": lambda r: np.arange(r, -r - 1, -2, dtype=float),
    "B": lambda r: np.arange(2 * r - 1, 0, -2, dtype=float),
    "C": lambda r: np.arange(2 * r, 0, -2, dtype=float),
    "D": lambda r: np.arange(2 * r - 2, -1, -2, dtype=float),
}

FAST = dict(n_mc=30_000, n_conv=20_000, n_supp=2_000,
            lln_steps=800, lln_reps=2, ks_reps=400, ks_steps=30, qr_walks=20,
            contract_pairs=100, n_pts=3)
FULL = dict(n_mc=1_000_000, n_conv=100_000, n_supp=10_000,
            lln_steps=5_000, lln_reps=5, ks_reps=2_000, ks_steps=50,
            qr_walks=100, contract_pairs=1_000, n_pts=5)
#: sample size of the support check's two extent clouds, at both levels
N_EXTENT = 200_000
#: root systems of the Haar-orbit oracle for psi; each draws one orbit-map stack
PSI_MC_SYSTEMS = (("A", 1), ("A", 2))


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    details: dict
    #: wall time of the check, reported on stderr and kept out of the artifacts
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


def _random_regular(rs, rng, scale=1.0, min_gap=0.05):
    # min |<alpha, v>| is W-invariant, so the chamber point of a regular
    # vector is regular
    return chamber_project(rs, _random_regular_vec(rs, rng, scale, min_gap))


def _random_regular_vec(rs, rng, scale=1.0, min_gap=0.05):
    while True:
        v = rng.standard_normal(rs.ambient_dim) * scale
        if rs.family == "A":
            v -= v.mean()
        if min_root_pairing(rs, v) > min_gap:
            return v


def check_rho_tables(p, rng) -> CheckOutcome:
    ranges = {"A": range(1, 8), "B": range(2, 7), "C": range(3, 7), "D": range(4, 7)}
    bad = []
    for fam, rr in ranges.items():
        for rank in rr:
            rs = build_root_system(fam, rank)
            if not np.array_equal(rs.rho, RHO_FORMULAS[fam](rank)):
                bad.append(f"{fam}_{rank}")
    return CheckOutcome("rho_tables", not bad, {"mismatches": bad})


def check_psi_vs_haar_mc(p, rng) -> CheckOutcome:
    worst = 0.0
    failures = 0
    for fam, rank in PSI_MC_SYSTEMS:
        rs = build_root_system(fam, rank)
        maps = kernels.orbit_maps(rs, p["n_mc"], rng)
        for _ in range(p["n_pts"]):
            x = _random_regular(rs, rng)
            lam = _random_regular_vec(rs, rng)
            mc, se = kernels._mean_stderr(np.exp(1j * ((maps @ x) @ lam)))
            res = convolve.CheckResult(mc, spherical_psi(rs, lam, x).value, se, 0.0)
            worst = max(worst, res.z)
            failures += not res.passed
    return CheckOutcome("psi_vs_haar_mc", failures == 0,
                        {"worst_z": worst, "failures": failures})


def _worst_gap(systems, rng, gap) -> float:
    """Largest gap(rs, x, lam) over 50 random regular (x, lam), x drawn first, per system."""
    worst = 0.0
    for rs in systems:
        for _ in range(50):
            x = _random_regular(rs, rng)
            worst = max(worst, gap(rs, x, _random_regular_vec(rs, rng)))
    return worst


def check_ratio_identity(p, rng) -> CheckOutcome:
    worst = _worst_gap(
        [build_root_system(*fr) for fr in (("A", 2), ("B", 2), ("C", 3), ("D", 4))], rng,
        lambda rs, x, lam: abs(spherical_phi(rs, lam, x).value * semicharacter(rs, x)
                               - spherical_psi(rs, lam, x).value))
    return CheckOutcome("ratio_identity", worst <= 1e-10, {"worst_abs": worst})


def check_bc_coincidence(p, rng) -> CheckOutcome:
    rc = {rank: build_root_system("C", rank) for rank in (3, 4)}
    worst = _worst_gap(
        [build_root_system("B", rank) for rank in rc], rng,
        lambda rb, x, lam: abs(spherical_psi(rb, lam, x).value
                               - spherical_psi(rc[rb.rank], lam, x).value))
    return CheckOutcome("bc_coincidence", worst <= 1e-9, {"worst_abs": worst})


def check_m1_consistency(p, rng) -> CheckOutcome:
    worst_z = 0.0
    failures = 0
    for d in (2, 3):
        rs = build_root_system("A", d - 1)
        for _ in range(p["n_pts"]):
            x = _random_regular(rs, rng)
            est, se = m1_mc(rs, x, p["n_mc"], rng)
            res = [convolve.CheckResult(e, c, s, 0.0)
                   for e, c, s in zip(est, m1_closed(rs, x), se)]
            worst_z = max(worst_z, *(float(r.z) for r in res))
            failures += not all(r.passed for r in res)
    # membership and contraction across all four families
    geo_bad = 0
    for fam, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        rs = build_root_system(fam, rank)
        xs = np.array([_random_regular(rs, rng, min_gap=0.0) for _ in range(200)])
        for x, m1 in zip(xs, m1_closed_rows(rs, xs)):
            if not in_chamber(rs, m1, tol=1e-9):
                geo_bad += 1
            if np.linalg.norm(m1) > np.linalg.norm(x) + 1e-9:
                geo_bad += 1
    return CheckOutcome("m1_consistency", failures == 0 and geo_bad == 0,
                        {"worst_z": worst_z, "mc_failures": failures,
                         "geometry_violations": geo_bad})


DEFORMATION_CASES = [
    (2, [0.5, -0.5], [0.5, -0.5], "bump"),
    (2, [1.0, -1.0], [0.5, -0.5], "bump"),
    (2, [1.0, -1.0], [1.0, -1.0], "phi-rho"),
    (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], "phi-rho"),
    (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], "bump"),
]


def _resolve_f(d, tag):
    if tag == "phi-rho":
        return ("phi", build_root_system("A", d - 1).rho)
    return tag


def check_deformation(p, rng) -> CheckOutcome:
    results = []
    for d, x, y, tag in DEFORMATION_CASES:
        res = convolve.deformation_check(d, x, y, _resolve_f(d, tag), p["n_conv"], rng)
        results.append({"d": d, "x": x, "y": y, "f": tag,
                        "lhs": abs(res.lhs), "rhs": abs(res.rhs),
                        "pass": res.passed})
    return CheckOutcome("deformation", all(r["pass"] for r in results), {"cases": results})


MULT_CASES = [
    (2, [1.0, -1.0], [1.0, -1.0]),
    (2, [0.5, -0.5], [1.0, -1.0]),
    (3, [1.0, 0.0, -1.0], [1.0, 0.0, -1.0]),
    (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5]),
]


def check_multiplicativity(p, rng) -> CheckOutcome:
    ok = True
    worst = 0.0
    for d, x, y in MULT_CASES:
        res = convolve.semicharacter_multiplicativity(d, x, y, p["n_conv"], rng)
        worst = max(worst, res.z)
        ok &= res.passed
    return CheckOutcome("multiplicativity", ok, {"worst_z": worst})


SUPPORT_CASES = [
    (2, [1.0, -1.0], [1.0, -1.0]),
    (2, [0.5, -0.5], [1.0, -1.0]),
    (2, [2.0, -2.0], [0.5, -0.5]),
    (2, [1.0, -1.0], [0.25, -0.25]),
    (2, [1.5, -1.5], [0.7, -0.7]),
    (3, [1.0, 0.0, -1.0], [2.0, 0.0, -2.0]),
    (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5]),
    (3, [1.5, 0.5, -2.0], [1.0, 0.0, -1.0]),
    (3, [0.5, 0.0, -0.5], [0.5, 0.0, -0.5]),
    (3, [2.0, 0.5, -2.5], [0.8, 0.2, -1.0]),
]


def check_support(p, rng) -> CheckOutcome:
    reports = []
    for d, x, y in SUPPORT_CASES:
        rep = convolve.support_equivalence(d, x, y, p["n_supp"], rng)
        reports.append({"d": d, "x": x, "y": y, "hausdorff": rep.hausdorff,
                        "pass": rep.passed})
    # extent of the d=2, x=y=(1,-1) clouds against the exact support [0, 2];
    # the density vanishes linearly at s=0, so the min needs a large sample
    ch = convolve.conv_hermitian_cloud(2, [1, -1], [1, -1], N_EXTENT, rng)[:, 0]
    cg = convolve.conv_group_cloud(2, [1, -1], [1, -1], N_EXTENT, rng)[:, 0]
    extent_ok = bool(
        ch.max() > 2 - 0.02 and ch.min() < 0.02 and cg.max() > 2 - 0.02 and cg.min() < 0.02
    )
    return CheckOutcome("support", all(r["pass"] for r in reports) and extent_ok,
                        {"cases": reports, "extent_ok": extent_ok,
                         "extents": [float(ch.min()), float(ch.max()),
                                     float(cg.min()), float(cg.max())]})


def _lln_tolerance(cfg) -> float:
    # CLT-scale slack around the a.s. limit: max(0.05, 5 sigma / sqrt(n)), with
    # sigma^2 the step law's variance per coordinate, exact from the atoms and
    # weights, since q of one step U e^x V is its atom x
    var = cfg.weights @ (cfg.atoms - cfg.weights @ cfg.atoms) ** 2
    return max(0.05, 5.0 * math.sqrt(var.mean()) / math.sqrt(cfg.n_steps))


def check_strong_law(p, seed: int) -> tuple[CheckOutcome, walk.WalkReport]:
    cases = [
        (2, [[0.5, -0.5]], [1.0]),
        (3, [[1.0, 0.0, -1.0], [0.5, 0.0, -0.5]], [0.5, 0.5]),
    ]
    ok = True
    detail = []
    for i, (d, atoms, weights) in enumerate(cases):
        cfg = WalkConfig(d=d, atoms=atoms, weights=weights, n_steps=p["lln_steps"],
                         n_replicas=p["lln_reps"], seed=seed + i)
        run = walk.run_group_walk(cfg)
        tol = _lln_tolerance(cfg)
        ok &= run.final_error <= tol
        detail.append({"d": d, "final_errors": run.final_errors, "tol": tol,
                       "limit": run.limit_c.tolist()})
    return CheckOutcome("strong_law", ok, {"cases": detail}), run


def check_qr_exactness(p, rng) -> CheckOutcome:
    worst = 0.0
    for _ in range(p["qr_walks"]):
        d = int(rng.integers(2, 4))
        rs = build_root_system("A", d - 1)
        n = int(rng.integers(1, 51))
        x = _random_regular(rs, rng, scale=0.15, min_gap=0.0)
        acc = walk.ProductAccumulator(d)
        prod = np.eye(d, dtype=complex)
        for _ in range(n):
            z = kernels.sample_biinvariant(x, rng)
            acc.update(z)
            prod = prod @ z
        direct = kernels.log_singular_spectrum(prod)
        worst = max(worst, float(np.max(np.abs(acc.readout() - direct))))
    return CheckOutcome("qr_exactness", worst <= 1e-6, {"worst_abs": worst})


def check_crosscheck_law(p, seed: int) -> CheckOutcome:
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0],
                     n_steps=p["ks_steps"], n_replicas=p["ks_reps"], seed=seed)
    rep = walk.euclidean_walk_crosscheck(cfg)
    return CheckOutcome("crosscheck_law", rep.passed,
                        {"ks": rep.ks_distances, "critical": rep.critical_1pct})


def check_contractivity(p, rng) -> CheckOutcome:
    violations = 0
    for _ in range(p["contract_pairs"]):
        d = int(rng.integers(2, 5))
        a = _random_hermitian(d, rng)
        b = _random_hermitian(d, rng)
        lhs = np.linalg.norm(kernels.hermitian_spectrum(a) - kernels.hermitian_spectrum(b))
        if lhs > np.linalg.norm(a - b) + 1e-10:
            violations += 1
    return CheckOutcome("contractivity", violations == 0, {"violations": violations})


def _random_hermitian(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + z.conj().T) / 2.0
    return h - np.trace(h).real / d * np.eye(d)


def run_selftest(level: str, seed: int, out_dir) -> tuple[list[CheckOutcome], dict]:
    """Run all checks; write report + artifacts under out_dir; return outcomes."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    seed = _check_count(seed, 0, "seed")
    p = FAST if level == "fast" else FULL
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # substreams 1000 + i for the (p, rng) checks; the walk checks take the seed
    runs = [(fn, substream(seed, 1000 + i)) for i, fn in enumerate((
        check_rho_tables, check_psi_vs_haar_mc, check_ratio_identity, check_bc_coincidence,
        check_m1_consistency, check_deformation, check_multiplicativity, check_support,
        check_qr_exactness, check_contractivity))]
    runs += [(check_strong_law, seed), (check_crosscheck_law, seed)]
    outcomes = []
    for fn, stream in runs:
        t0 = time.perf_counter()
        outcome = fn(p, stream)
        if isinstance(outcome, tuple):  # the strong law also returns its walk
            outcome, lln_report = outcome
        outcome.seconds = time.perf_counter() - t0
        outcomes.append(outcome)

    report = {
        "level": level,
        "seed": seed,
        "pass": all(o.passed for o in outcomes),
        "checks": [o.as_dict() for o in outcomes],
    }
    (out_dir / "selftest_report.json").write_text(json.dumps(report, indent=2) + "\n")
    (out_dir / "walk_trajectory.csv").write_text(lln_report.to_csv())
    return outcomes, report
