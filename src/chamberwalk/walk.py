"""Biinvariant random walks on SL(d,C) and their Euclidean counterparts.

The group walk multiplies i.i.d. biinvariant steps Z_i = U_i e^{x_i} V_i and
tracks the log-singular spectrum q(S_n) through an overflow-safe accumulator.
The strong law says q(S_n)/n converges to the m1-average of the step measure;
`run_group_walk` verifies that, `euclidean_walk_crosscheck` compares the walk
in law against the additive walk of tilted orbit samples, and `mz_rate_scan`
probes the Marcinkiewicz-Zygmund rate.

Accumulator note: the product is kept as Q . diag(e^L) . C with Q unitary,
L the accumulated log-diagonal of the QR recursion (Benettin) and C a bounded
scaled triangular factor.  Keeping C makes the read-out an *exact* singular
spectrum whenever the spread of L is representable in double precision; the
plain Benettin diagonal alone has an O(1) offset from the true log-singular
values at finite n and would fail the short-horizon exactness contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import ks_2samp, theilslopes

from . import kernels
from .roots import RootSystem, build_root_system, in_chamber
from .special import log_semicharacter, m1_expectation

#: L-spread (in logs) up to which the read-out reconstructs the product
_SVD_SPREAD = 40.0

#: two-sample KS coefficient at the 1% level
KS_COEFF_1PCT = 1.628

_REJECTION_RHO_X_MAX = 30.0


def substream(seed: int, index: int) -> np.random.Generator:
    """The documented substream scheme: spawn_key = (index,) under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class WalkConfig:
    d: int
    atoms: np.ndarray      # (k, d) chamber points
    weights: np.ndarray    # (k,)
    n_steps: int
    n_replicas: int = 1
    seed: int = 0
    renorm_period: int = 1
    r_exponent: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.n_steps < 1:
            raise ValueError("n_steps >= 1 required")
        if self.renorm_period < 1:
            raise ValueError("renorm_period >= 1 required")
        if not (1.0 <= self.r_exponent < 2.0):
            raise ValueError("r_exponent must lie in [1, 2)")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise ValueError("step measure must be a probability vector")
        rs = build_root_system("A", self.d - 1)
        for a in self.atoms:
            if not in_chamber(rs, a, tol=1e-9):
                raise ValueError(f"atom {a} is not in the A_{self.d-1} chamber")
            if np.linalg.norm(a) > 5.0:
                raise ValueError("atom norms are capped at 5 to keep conditioning analyzable")

    @classmethod
    def from_json(cls, text: str) -> "WalkConfig":
        data = json.loads(text)
        return cls(
            d=int(data["d"]),
            atoms=np.asarray(data["atoms"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            n_steps=int(data["n_steps"]),
            n_replicas=int(data.get("n_replicas", 1)),
            seed=int(data.get("seed", 0)),
            renorm_period=int(data.get("renorm_period", 1)),
            r_exponent=float(data.get("r_exponent", 1.0)),
        )


@dataclass
class WalkReport:
    checkpoints: list[int]
    trajectory: list[np.ndarray]            # q(S_n)/n at each checkpoint, replica 0
    limit_c: np.ndarray
    final_error: float                      # max over replicas
    final_errors: list[float]
    mz_scaled_deviation: list[float]        # n^{-1/r} ||q(S_n) - n c||, replica 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "checkpoints": self.checkpoints,
                "trajectory": [t.tolist() for t in self.trajectory],
                "limit_c": self.limit_c.tolist(),
                "final_error": self.final_error,
                "final_errors": self.final_errors,
                "mz_scaled_deviation": self.mz_scaled_deviation,
            }
        )

    def to_csv(self) -> str:
        d = len(self.limit_c)
        lines = [",".join(["n"] + [f"q{i+1}_over_n" for i in range(d)] + ["mz_scaled_dev"])]
        for n, t, dev in zip(self.checkpoints, self.trajectory, self.mz_scaled_deviation):
            lines.append(",".join(map(repr, [n] + t.tolist() + [dev])))
        return "\n".join(lines) + "\n"


class ProductAccumulator:
    """Overflow-safe factored form of a growing matrix product.

    Internally tracks the conjugate-transposed product (same singular
    values), so updates are plain left QR steps.
    """

    def __init__(self, d: int):
        self.d = d
        self.q = np.eye(d, dtype=complex)
        self.logs = np.zeros(d)
        self.tri = np.eye(d, dtype=complex)

    def update(self, z: np.ndarray) -> None:
        q2, r = np.linalg.qr(z.conj().T @ self.q)
        rd = np.abs(np.diagonal(r))
        if np.any(rd == 0.0) or not np.all(np.isfinite(rd)):
            raise FloatingPointError("R diagonal underflow in the QR accumulator")
        # T' = R diag(e^L) C, rows rescaled back to unit log-diagonal
        diff = np.triu(self.logs[None, :] - self.logs[:, None])
        m = np.triu(r) * np.exp(diff) / rd[:, None]
        self.tri = m @ self.tri
        self.logs = self.logs + np.log(rd)
        self.q = q2

    def readout(self) -> np.ndarray:
        """Descending, zero-centered log-singular spectrum of the product."""
        spread = float(self.logs.max() - self.logs.min())
        if spread <= _SVD_SPREAD:
            t = np.exp(self.logs - self.logs.mean())[:, None] * self.tri
            s = np.linalg.svd(t, compute_uv=False)
            out = np.log(s) + self.logs.mean()
        else:
            # far regime: the Benettin diagonal (O(1) absolute offset,
            # vanishing after the /n normalization)
            out = np.sort(self.logs)[::-1].copy()
        out = np.sort(out)[::-1]
        return out - out.mean()


def qr_accumulate(state: ProductAccumulator, z: np.ndarray) -> ProductAccumulator:
    """Fold one step into the product state (mutates and returns it)."""
    state.update(z)
    return state


def _checkpoints(n: int) -> list[int]:
    cps = []
    k = 1
    while 2**k < n:
        cps.append(2**k)
        k += 1
    cps.append(n)
    return cps


def _step_matrices(cfg: WalkConfig, idx: np.ndarray, rng) -> np.ndarray:
    """Biinvariant steps U e^{x} V for the given atom indices, shape (m,d,d)."""
    m = idx.shape[0]
    u = kernels.haar_unitary_batch(cfg.d, m, rng, special=True)
    v = kernels.haar_unitary_batch(cfg.d, m, rng, special=True)
    ex = np.exp(cfg.atoms[idx])
    return (u * ex[:, None, :]) @ v


def run_group_walk(cfg: WalkConfig) -> WalkReport:
    """Run the biinvariant product walk and compare against the m1 limit."""
    rs = build_root_system("A", cfg.d - 1)
    limit_c = m1_expectation(rs, cfg.atoms, cfg.weights)
    cps = _checkpoints(cfg.n_steps)

    trajectories: list[list[np.ndarray]] = []
    final_errors = []
    for rep in range(cfg.n_replicas):
        rng = substream(cfg.seed, rep)
        idx = rng.choice(len(cfg.weights), size=cfg.n_steps, p=cfg.weights)
        acc = ProductAccumulator(cfg.d)
        traj = []
        chunk = 1024
        pos = 0
        cp_iter = iter(cps)
        next_cp = next(cp_iter)
        while pos < cfg.n_steps:
            m = min(chunk, cfg.n_steps - pos)
            zs = _step_matrices(cfg, idx[pos : pos + m], rng)
            for i in range(m):
                acc.update(zs[i])
                step = pos + i + 1
                if step == next_cp:
                    traj.append(acc.readout() / step)
                    next_cp = next(cp_iter, None)
            pos += m
        trajectories.append(traj)
        final_errors.append(float(np.linalg.norm(traj[-1] - limit_c)))

    r = cfg.r_exponent
    mz = [
        float(n ** (-1.0 / r) * np.linalg.norm(n * t - n * limit_c))
        for n, t in zip(cps, trajectories[0])
    ]
    return WalkReport(
        checkpoints=cps,
        trajectory=trajectories[0],
        limit_c=limit_c,
        final_error=max(final_errors),
        final_errors=final_errors,
        mz_scaled_deviation=mz,
    )


# ---------------------------------------------------------------------------
# The tilted (e_rho-weighted) orbit sampler and the Euclidean counterpart


def rejection_rate(rs: RootSystem, x) -> float:
    """Theoretical acceptance rate psi_{-i rho}(x) * exp(-<rho, x>)."""
    x = np.asarray(x, dtype=float)
    return math.exp(log_semicharacter(rs, x) - float(rs.rho @ x))


def tilted_orbit_batch(d: int, x, n: int, rng):
    """n accepted samples from the e_rho-tilted SU(d) orbit measure at x.

    Rejection sampling against the Haar orbit with envelope exp(<rho, x>)
    (dominance of the rho-pairing at the chamber representative).  Returns
    (matrices (n,d,d), n_proposed).
    """
    rs = build_root_system("A", d - 1)
    x = np.asarray(x, dtype=float)
    if not in_chamber(rs, x, tol=1e-9):
        raise ValueError("x must be a chamber point")
    rho_x = float(rs.rho @ x)
    if rho_x > _REJECTION_RHO_X_MAX:
        raise ValueError("<rho, x> too large for rejection sampling (cap 30)")
    if not x.any():
        u = kernels.haar_unitary_batch(d, n, rng, special=True)
        return np.zeros((n, d, d), dtype=complex), n

    rate = rejection_rate(rs, x)
    out = np.empty((n, d, d), dtype=complex)
    got = 0
    proposed = 0
    while got < n:
        m = max(int(math.ceil((n - got) / rate * 1.2)), 16)
        u = kernels.haar_unitary_batch(d, m, rng, special=True)
        mats = (u * x[None, None, :]) @ np.conj(np.transpose(u, (0, 2, 1)))
        v = np.einsum("nii->ni", mats).real
        log_acc = v @ rs.rho - rho_x
        if np.any(log_acc > 1e-9):
            raise RuntimeError(
                "rejection envelope violated: <rho, k.x> exceeded <rho, x> "
                "(this falsifies the dominance invariant and is a bug)"
            )
        keep = np.log(rng.random(m)) < log_acc
        take = min(int(keep.sum()), n - got)
        out[got : got + take] = mats[keep][:take]
        got += take
        proposed += m
    return out, proposed


def sample_orbit_weighted(rs: RootSystem, x, rng) -> np.ndarray:
    """One orbit element distributed with density e^{<rho, k.x>} against Haar."""
    if rs.family != "A":
        raise ValueError("the tilted orbit sampler is realized for family A only")
    mats, _ = tilted_orbit_batch(rs.ambient_dim, x, 1, rng)
    return mats[0]


@dataclass
class CrosscheckReport:
    ks_distances: list[float]
    critical_1pct: float
    n_replicas: int

    @property
    def passed(self) -> bool:
        return all(d < self.critical_1pct for d in self.ks_distances)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ks_distances": self.ks_distances,
                "critical_1pct": self.critical_1pct,
                "n_replicas": self.n_replicas,
                "pass": self.passed,
            }
        )


def euclidean_walk_crosscheck(cfg: WalkConfig) -> CrosscheckReport:
    """Equality in law of the group walk and the tilted additive walk.

    Runs both walks over cfg.n_replicas replicas of cfg.n_steps steps and
    compares the per-coordinate empirical laws of q(S_n) and p(T_n) by
    two-sample Kolmogorov-Smirnov distances.
    """
    if cfg.n_steps > 200:
        raise ValueError("crosscheck is a short-horizon tool; n_steps <= 200")
    d, reps, n = cfg.d, cfg.n_replicas, cfg.n_steps

    # group side, batched across replicas
    rng_g = substream(cfg.seed, 0)
    idx = rng_g.choice(len(cfg.weights), size=(reps, n), p=cfg.weights)
    prod = np.tile(np.eye(d, dtype=complex), (reps, 1, 1))
    for step in range(n):
        z = _step_matrices(cfg, idx[:, step], rng_g)
        prod = prod @ z
    s = np.linalg.svd(prod, compute_uv=False)
    q_logs = np.log(s)
    q_logs -= q_logs.mean(axis=1, keepdims=True)

    # Euclidean side: sums of tilted orbit samples
    rng_e = substream(cfg.seed, 1)
    idx_e = rng_e.choice(len(cfg.weights), size=(reps, n), p=cfg.weights)
    total = np.zeros((reps, d, d), dtype=complex)
    for a_i, atom in enumerate(cfg.atoms):
        count = int(np.sum(idx_e == a_i))
        if count == 0:
            continue
        mats, _ = tilted_orbit_batch(d, atom, count, rng_e)
        rows = np.repeat(np.arange(reps), np.sum(idx_e == a_i, axis=1))
        np.add.at(total, rows, mats)
    p_vals = np.linalg.eigvalsh(total)[:, ::-1]

    ks = [float(ks_2samp(q_logs[:, i], p_vals[:, i]).statistic) for i in range(d)]
    crit = KS_COEFF_1PCT * math.sqrt(2.0 / reps)
    return CrosscheckReport(ks, crit, reps)


def mz_rate_scan(cfg: WalkConfig):
    """Scaled deviations n^{-1/r}(q(S_n) - n c) plus their log-log trend slope.

    Returns (checkpoints, deviations, slope); a negative Theil-Sen slope is
    the numeric surrogate for the almost-sure Marcinkiewicz-Zygmund law.
    """
    report = run_group_walk(cfg)
    devs = report.mz_scaled_deviation
    ns = report.checkpoints
    live = [(n, v) for n, v in zip(ns, devs) if v > 0]
    if len(live) >= 2:
        slope = float(
            theilslopes([math.log(v) for _, v in live], [math.log(n) for n, _ in live])[0]
        )
    else:
        slope = 0.0
    return ns, devs, slope
