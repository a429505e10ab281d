"""Biinvariant random walks on SL(d,C) and their Euclidean counterparts.

The group walk multiplies i.i.d. biinvariant steps Z_i = U_i e^{x_i} V_i and
tracks the log-singular spectrum q(S_n) through an overflow-safe accumulator.
The strong law says q(S_n)/n converges to the m1-average of the step measure;
`run_group_walk` verifies that and records the Marcinkiewicz-Zygmund scaled
deviations n^{-1/r} ||q(S_n) - n c||, and `euclidean_walk_crosscheck` compares
the walk in law against the additive walk of tilted orbit samples.

Accumulator note: the product is kept as Q . diag(e^L) . T with Q unitary,
L the log-diagonal of the QR recursion and T triangular with unit-modulus
diagonal.  The read-out is one-sided Jacobi on the column-graded factor
T^H diag(e^L) with no e^L ever formed, the high-relative-accuracy regime of
Demmel & Veselic (SIAM J. Matrix Anal. Appl. 1992): exact to rounding at
every spread, reducing to Gram-Schmidt deflation where e^{-spread} underflows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .roots import (RootSystem, _check_chamber, _check_count, _check_real, _check_vec,
                    _check_weights, build_root_system)
from .special import log_semicharacter, m1_expectation

#: two-sample KS coefficient at the 1% level
KS_COEFF_1PCT = 1.628

_REJECTION_RHO_X_MAX = 30.0

#: read-out sweeps stop once every pair of unit columns has |<u_p, u_q>| below this
_JACOBI_TOL = 1e-14
_JACOBI_SWEEPS = 30

#: steps drawn per replica at a time (fixes each replica's sample path), and
#: the cap on the entries of one replica block's step buffer and of one
#: tilted-sampler chunk
_CHUNK = 1024
_STEP_ENTRIES = 1 << 20


def substream(seed: int, index: int) -> np.random.Generator:
    """The documented substream scheme: spawn_key = (index,) under ``seed``, both >= 0."""
    seed, index = _check_count(seed, 0, "seed"), _check_count(index, 0, "index")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class WalkConfig:
    """A biinvariant walk: step law, horizon, replicas and seed.

    Every field is checked on construction, from Python and JSON alike, and
    a bad one raises ValueError naming it.  Numbers must be real, not bool;
    an integral float counts as an integer.  d >= 2.  atoms: a (k, d) array
    of A_{d-1} chamber points (within 1e-9) of norm at most 5.  weights: a
    (k,) probability vector, nonnegative with sum within 1e-12 of 1.  Both
    are stored as floats.  n_steps, n_replicas >= 1.  seed >= 0.
    r_exponent, the Marcinkiewicz-Zygmund exponent, in [1, 2).
    """

    d: int
    atoms: np.ndarray
    weights: np.ndarray
    n_steps: int
    n_replicas: int = 1
    seed: int = 0
    r_exponent: float = 1.0

    def __post_init__(self):
        for name, rule, *args in (("d", _check_count, 2), ("n_steps", _check_count, 1),
                                  ("n_replicas", _check_count, 1), ("seed", _check_count, 0),
                                  ("atoms", _check_real, 2), ("weights", _check_weights)):
            value = rule(getattr(self, name), *args, f"WalkConfig field {name!r}")
            object.__setattr__(self, name, value)
        r = float(_check_real(self.r_exponent, 0, "WalkConfig field 'r_exponent'"))
        if not 1.0 <= r < 2.0:
            raise ValueError(f"WalkConfig field 'r_exponent' must lie in [1, 2), got {r}")
        object.__setattr__(self, "r_exponent", r)
        # atoms are real floats now: shape against d and weights, then the chamber
        if self.atoms.shape != (self.weights.size, self.d):
            raise ValueError(f"need atoms of shape (k, {self.d}) and k weights")
        _check_chamber(build_root_system("A", self.d - 1), self.atoms, "atom", rows=True)
        if np.any(np.linalg.norm(self.atoms, axis=1) > 5.0):
            raise ValueError("atom norms are capped at 5 to keep conditioning analyzable")

    @classmethod
    def from_json(cls, text: str) -> "WalkConfig":
        """Parse a JSON object; a malformed config raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a WalkConfig must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown WalkConfig keys: {', '.join(unknown)}")
        missing = [k for k in ("d", "atoms", "weights", "n_steps") if k not in data]
        if missing:
            raise ValueError(f"missing WalkConfig keys: {', '.join(missing)}")
        return cls(**data)


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
    values), so updates are plain left QR steps.  A stack of steps, shape
    (..., d, d), advances a batch of products with the same leading axes.
    ``np.linalg.qr`` already returns R upper triangular, so R is used as it
    comes; the grading's lower triangle is zeroed through an upper-triangle
    mask built once here, which keeps ``exp`` finite below the diagonal.
    """

    def __init__(self, d: int):
        self.d = d
        self.q = np.eye(d, dtype=complex)
        self.logs = np.zeros(d)
        self.tri = np.eye(d, dtype=complex)
        self._upper = np.triu(np.ones((d, d), dtype=bool))

    def update(self, z: np.ndarray) -> None:
        q2, r = np.linalg.qr(z.conj().mT @ self.q)
        rd = np.abs(r.diagonal(0, -2, -1))
        if not ((rd > 0.0) & (rd < np.inf)).all():  # 0, inf and NaN all fail
            raise FloatingPointError("R diagonal underflow in the QR accumulator")
        # T' = R diag(e^L) T, rows rescaled back to unit log-diagonal
        diff = np.where(self._upper, self.logs[..., None, :] - self.logs[..., :, None], 0.0)
        m = r * np.exp(diff) / rd[..., :, None]
        self.tri = m @ self.tri
        self.logs = self.logs + np.log(rd)
        self.q = q2

    def readout(self) -> np.ndarray:
        """Descending, zero-centered log-singular spectrum, shape (..., d).

        Column j of T^H diag(e^L) is a unit vector u_j and a log norm s_j.
        With g = <u_hi, u_lo> = |g| ph, r = e^{-|s_hi - s_lo|}, w = (1-r^2)/(2|g|)
        and tau = 1/(w + sqrt(r^2 + w^2)), the pair becomes the orthogonal
        (u_hi + r^2 tau conj(ph) u_lo, u_lo - tau ph u_hi) / sqrt(1 + r^2 tau^2).
        Raises FloatingPointError when the sweeps do not converge.
        """
        norms = np.linalg.norm(self.tri, axis=-1)
        u = np.conj(self.tri) / norms[..., None]
        s = self.logs + np.log(norms)
        for _ in range(_JACOBI_SWEEPS):
            converged = True
            for p in range(self.d - 1):
                for q in range(p + 1, self.d):
                    a, b = u[..., p, :], u[..., q, :]
                    g = np.sum(np.conj(a) * b, axis=-1)
                    live = ~(np.abs(g) <= _JACOBI_TOL)  # NaN never converges
                    if not live.any():
                        continue
                    converged = False
                    ag = np.where(live, np.abs(g), 1.0)
                    ph = g / ag
                    r = np.exp(-np.abs(s[..., p] - s[..., q]))
                    w = (1.0 - r * r) / (2.0 * ag)
                    tau = np.where(live, 1.0 / (w + np.sqrt(r * r + w * w)), 0.0)
                    p_hi = s[..., p] >= s[..., q]
                    k_p = np.where(p_hi, r * r * tau, -tau) * np.conj(ph)
                    k_q = np.where(p_hi, -tau, r * r * tau) * ph
                    new_p, new_q = a + k_p[..., None] * b, b + k_q[..., None] * a
                    log_c = -0.5 * np.log1p((r * tau) ** 2)
                    for j, v in ((p, new_p), (q, new_q)):
                        norm = np.linalg.norm(v, axis=-1)
                        s[..., j] += log_c + np.log(norm)
                        u[..., j, :] = v / norm[..., None]
            if converged:
                break
        else:
            raise FloatingPointError(
                f"Jacobi read-out did not converge in {_JACOBI_SWEEPS} sweeps")
        out = -np.sort(-s, axis=-1)
        return out - out.mean(axis=-1, keepdims=True)


def _checkpoints(n: int) -> list[int]:
    """The powers of two below n, then n."""
    return [2**k for k in range(1, (n - 1).bit_length())] + [n]


def run_group_walk(cfg: WalkConfig) -> WalkReport:
    """Run the biinvariant product walk and compare against the m1 limit.

    Replica r draws from substream(seed, r); replicas step together in blocks.
    """
    rs = build_root_system("A", cfg.d - 1)
    limit_c = m1_expectation(rs, cfg.atoms, cfg.weights)
    cps = _checkpoints(cfg.n_steps)
    block = max(1, _STEP_ENTRIES // (_CHUNK * cfg.d * cfg.d))
    final_errors = []
    for first in range(0, cfg.n_replicas, block):
        rngs = [substream(cfg.seed, rep)
                for rep in range(first, min(first + block, cfg.n_replicas))]
        idx = [rng.choice(len(cfg.weights), size=cfg.n_steps, p=cfg.weights)
               for rng in rngs]
        acc = ProductAccumulator(cfg.d)
        traj = []
        for pos in range(0, cfg.n_steps, _CHUNK):
            zs = np.stack([kernels._biinvariant_batch(cfg.atoms[ix[pos : pos + _CHUNK]], rng)
                           for ix, rng in zip(idx, rngs)], axis=1)
            for step, z in enumerate(zs, start=pos + 1):
                acc.update(z)
                if step in cps:
                    traj.append(acc.readout() / step)
        if first == 0:
            trajectory = [t[0] for t in traj]
        final_errors += [float(np.linalg.norm(t - limit_c)) for t in traj[-1]]

    r = cfg.r_exponent
    mz = [
        float(n ** (-1.0 / r) * np.linalg.norm(n * t - n * limit_c))
        for n, t in zip(cps, trajectory)
    ]
    return WalkReport(
        checkpoints=cps,
        trajectory=trajectory,
        limit_c=limit_c,
        final_error=max(final_errors),
        final_errors=final_errors,
        mz_scaled_deviation=mz,
    )


# ---------------------------------------------------------------------------
# The tilted (e_rho-weighted) orbit sampler and the Euclidean counterpart


def rejection_rate(rs: RootSystem, x) -> float:
    """Theoretical acceptance rate psi_{-i rho}(x) * exp(-<rho, x>)."""
    x = _check_vec(rs, x, name="x")
    return math.exp(log_semicharacter(rs, x) - float(rs.rho @ x))


def tilted_orbit_batch(d: int, x, n: int, rng):
    """n accepted samples from the e_rho-tilted SU(d) orbit measure at x.

    Rejection sampling against the Haar orbit with envelope exp(<rho, x>)
    (dominance of the rho-pairing at the chamber representative).  The
    orbit U x U* is drawn with U Haar in U(d), the positive-R Q of a
    Ginibre draw, whose phase cancels.  Each round draws its proposals'
    Ginibre stack and uniforms up front, then works in place on that one
    stack in chunks of at most 2^20 entries: Gram-Schmidt on the first
    d - 1 columns of every proposal, whose |U|^2 gives the acceptance
    exponent <rho, |U|^2 x> = sum_{j<d} (x_j - x_d) <rho, |u_j|^2> (each
    row of |U|^2 sums to 1 and rho to 0), and every proposal checked
    against the envelope; the last column is completed, and U x U* formed,
    for the accepted proposals alone.
    Returns (matrices (n,d,d), n_proposed).
    """
    rs = build_root_system("A", d - 1)
    d, x, n = rs.ambient_dim, _check_chamber(rs, x, "x"), _check_count(n, 0, "sample size n")
    rho_x = float(rs.rho @ x)
    if rho_x > _REJECTION_RHO_X_MAX:
        raise ValueError("<rho, x> too large for rejection sampling (cap 30)")
    if not x.any():
        return np.zeros((n, d, d), dtype=complex), n

    rate = rejection_rate(rs, x)
    rows = max(1, _STEP_ENTRIES // (d * d))
    dx = x[:-1] - x[-1]
    out = np.empty((n, d, d), dtype=complex)
    got = 0
    proposed = 0
    while got < n:
        m = max(int(math.ceil((n - got) / rate * 1.2)), 16)
        zs = kernels._ginibre(d, m, rng)
        log_u = np.log(rng.random(m))
        for lo in range(0, m, rows):
            u = kernels._positive_qr_q(zs[lo : lo + rows], stop=d - 1)
            log_acc = (rs.rho @ np.abs(u[:, :, :-1]) ** 2) @ dx - rho_x
            if np.any(log_acc > 1e-9):
                raise RuntimeError(
                    "rejection envelope violated: <rho, k.x> exceeded <rho, x> "
                    "(this falsifies the dominance invariant and is a bug)"
                )
            keep = np.flatnonzero(log_u[lo : lo + rows] < log_acc)[: n - got]
            u = kernels._positive_qr_q(u[keep], start=d - 1)
            out[got : got + keep.size] = (u * x) @ np.conj(np.swapaxes(u, -1, -2))
            got += keep.size
        proposed += m
    return out, proposed


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance of two samples of one size n.

    The largest gap between the counts of a and of b at or below a pooled
    point, divided once by n: exactly scipy's ``ks_2samp`` statistic up to
    n = 10000, where scipy rounds it to h/n.  Above that scipy does not
    round; it subtracts the two empirical CDFs as floats, up to 80 ulps off
    this value on 200 random pairs.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    return float(np.abs(gap).max()) / a.size


@dataclass
class CrosscheckReport:
    ks_distances: list[float]
    critical_1pct: float
    n_replicas: int

    @property
    def passed(self) -> bool:
        return all(d < self.critical_1pct for d in self.ks_distances)


def euclidean_walk_crosscheck(cfg: WalkConfig) -> CrosscheckReport:
    """Equality in law of the group walk and the tilted additive walk.

    Runs both walks over cfg.n_replicas replicas of cfg.n_steps steps and
    compares the per-coordinate empirical laws of q(S_n) and p(T_n) by
    two-sample Kolmogorov-Smirnov distances, computed in integer counts
    (`_ks_distance`).
    """
    if cfg.n_steps > 200:
        raise ValueError("crosscheck is a short-horizon tool; n_steps <= 200")
    d, reps, n = cfg.d, cfg.n_replicas, cfg.n_steps

    # group side: one accumulator over the replica batch
    rng_g = substream(cfg.seed, 0)
    idx = rng_g.choice(len(cfg.weights), size=(reps, n), p=cfg.weights)
    acc = ProductAccumulator(d)
    for step in range(n):
        acc.update(kernels._biinvariant_batch(cfg.atoms[idx[:, step]], rng_g))
    q_logs = acc.readout()

    # Euclidean side: sums of tilted orbit samples
    rng_e = substream(cfg.seed, 1)
    idx_e = rng_e.choice(len(cfg.weights), size=(reps, n), p=cfg.weights)
    total = np.zeros((reps, d, d), dtype=complex)
    for a_i, atom in enumerate(cfg.atoms):
        per_rep = np.sum(idx_e == a_i, axis=1)
        if per_rep.any():
            mats, _ = tilted_orbit_batch(d, atom, int(per_rep.sum()), rng_e)
            np.add.at(total, np.repeat(np.arange(reps), per_rep), mats)
    p_vals = kernels._p(total)

    ks = [_ks_distance(q_logs[:, i], p_vals[:, i]) for i in range(d)]
    crit = KS_COEFF_1PCT * math.sqrt(2.0 / reps)
    return CrosscheckReport(ks, crit, reps)
