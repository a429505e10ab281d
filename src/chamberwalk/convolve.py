"""Monte-Carlo estimators for the two convolutions on the A-family chamber.

delta_x * delta_y  (Hermitian sum side):   p(diag(x) + U diag(y) U*),
delta_x . delta_y  (group product side):   q(e^diag(x) U e^diag(y)),
                                           p and q by `kernels._p` and `_q`,
with U Haar in U(d).  The paper takes U Haar in SU(d); the laws agree,
because a central phase e^{i theta} on U cancels in U diag(y) U* and leaves
the singular values of e^diag(x) U e^diag(y) unchanged.  Both clouds run one
chunked sampling loop and differ only in the map applied to each chunk of
U draws.  On top of the samplers: the deformation-identity check,
semicharacter multiplicativity, the support-equivalence test, the empirical
spherical transform and its homomorphism check.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .roots import (RootSystem, _check_chamber, _check_count, _check_real, _check_vec,
                    _check_weights, build_root_system)
from .special import (
    _LOG_FLOAT_MAX,
    log_semicharacter,
    log_semicharacter_rows,
    spherical_phi_rows,
    spherical_psi,
    spherical_psi_rows,
)

#: slack added to the self-calibrated Hausdorff threshold
EPS_SUPP = 1e-3

_CHUNK = 50_000
#: random split halves per cloud in `support_equivalence`
_SELF_SPLITS = 4
#: rows formatted per write by `EmpiricalMeasure.write_csv`
_CSV_BLOCK = 4096
#: gap between the sides of a `CheckResult`, in eps of the larger side, that is rounding
_ROUNDING_ULPS = 16.0


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted chamber points: a probability measure on the chamber.

    Atoms (n, d) and weights (n,) are arrays of real numbers, not bool,
    stored as floats.  Atoms must be finite, and the weights nonnegative with
    sum within 1e-12 of 1; anything else raises ValueError.
    """

    atoms: np.ndarray    # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        object.__setattr__(self, "atoms", _check_real(self.atoms, 2, "atoms"))
        object.__setattr__(self, "weights", _check_weights(self.weights))
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise ValueError("one weight per atom required")

    @classmethod
    def uniform(cls, atoms) -> "EmpiricalMeasure":
        atoms = _check_real(atoms, 2, "atoms")
        n = atoms.shape[0]
        if n < 1:
            raise ValueError("a uniform measure needs at least one atom")
        return cls(atoms, np.full(n, 1.0 / n))

    def write_csv(self, f) -> None:
        """Write header ``x1,...,xd,weight`` and one row per atom to text file f.

        Every field is the repr of a plain float.  Rows go out in blocks of
        `_CSV_BLOCK`, one write each; each distinct weight (by bit pattern,
        so 0.0 and -0.0 stay apart) is formatted once.
        """
        d = self.atoms.shape[1]
        f.write(",".join([f"x{i+1}" for i in range(d)] + ["weight"]) + "\n")
        bits = self.weights.view(f"u{self.weights.itemsize}")
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        labels = [repr(w) for w in self.weights[first].tolist()]
        for start in range(0, self.atoms.shape[0], _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            f.write("".join([
                ",".join([*map(repr, row), labels[k]]) + "\n"
                for row, k in zip(self.atoms[start:stop].tolist(),
                                  inverse[start:stop].tolist())
            ]))

    def to_csv(self) -> str:
        """The text that `write_csv` writes."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class SupportReport:
    hausdorff: float
    self_a: float
    self_b: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "hausdorff": self.hausdorff,
                "self_a": self.self_a,
                "self_b": self.self_b,
                "pass": self.passed,
            }
        )


@dataclass(frozen=True)
class CheckResult:
    """Two sides of an identity, each a Monte-Carlo mean or an exact value with
    standard error 0.0.  ``z`` is |lhs - rhs| over the summed standard errors, and
    the check passes when the sides are within 3 of them.  A gap of at most
    `_ROUNDING_ULPS` eps max(|lhs|, |rhs|) is rounding and counts as 0 in both: at a
    degenerate point (x or y = 0) the cloud is constant and the identity exact."""

    lhs: complex
    rhs: complex
    stderr_lhs: float
    stderr_rhs: float

    @property
    def _gap(self) -> float:
        gap = abs(self.lhs - self.rhs)
        scale = max(abs(self.lhs), abs(self.rhs))
        return 0.0 if gap <= _ROUNDING_ULPS * np.finfo(float).eps * scale else gap

    @property
    def z(self) -> float:
        gap, se = self._gap, self.stderr_lhs + self.stderr_rhs
        return gap / se if se else (math.inf if gap else 0.0)

    @property
    def passed(self) -> bool:
        return self._gap <= 3.0 * (self.stderr_lhs + self.stderr_rhs)


def _cloud(d: int, x, y, n: int, rng, spectra) -> np.ndarray:
    """n rows of ``spectra(x, y, u)``, by `kernels._p` or `_q`, over Haar U(d) stacks u.

    u is drawn in chunks of `_CHUNK`; a zero x or y makes every sample the
    other point, with no draw.
    """
    n = _check_count(n, 1, "sample size n")
    rs = build_root_system("A", d - 1)
    d, x, y = rs.ambient_dim, _check_chamber(rs, x, "x"), _check_chamber(rs, y, "y")
    if not y.any():
        return np.tile(x, (n, 1))
    if not x.any():
        return np.tile(y, (n, 1))
    out = np.empty((n, d))
    for done in range(0, n, _CHUNK):
        m = min(_CHUNK, n - done)
        out[done : done + m] = spectra(x, y, kernels.haar_unitary_batch(d, m, rng))
    return out


def _hermitian_spectra(x, y, u):
    return kernels._p((u * y) @ np.conj(np.transpose(u, (0, 2, 1))) + np.diag(x))


def _group_spectra(x, y, u):
    return kernels._q(np.exp(x)[:, None] * u * np.exp(y))


def conv_hermitian_cloud(d: int, x, y, n: int, rng) -> np.ndarray:
    """n samples from delta_x * delta_y: p(diag(x) + U diag(y) U*)."""
    return _cloud(d, x, y, n, rng, _hermitian_spectra)


def conv_group_cloud(d: int, x, y, n: int, rng) -> np.ndarray:
    """n samples from delta_x . delta_y: q(e^diag(x) U e^diag(y))."""
    return _cloud(d, x, y, n, rng, _group_spectra)


def _test_function(rs: RootSystem, f):
    """Resolve a test-function tag: 'bump' or ('phi', lambda)."""
    if f == "bump":
        return lambda z: np.exp(-np.sum(z * z, axis=1))
    if isinstance(f, tuple) and len(f) == 2 and f[0] == "phi":
        lam = _check_vec(rs, f[1], name="lambda")
        return lambda z: spherical_phi_rows(rs, lam, z).value
    raise ValueError(f"unknown test function {f!r}; use 'bump' or ('phi', lambda)")


def deformation_check(d: int, x, y, f, n: int, rng) -> CheckResult:
    """Both sides of the point-measure deformation identity.

    lhs: plain MC mean of f over the group convolution.
    rhs: semicharacter-weighted MC mean over the Hermitian convolution,
    normalized by the semicharacter values at x and y (weights handled in
    the log domain).
    """
    rs = build_root_system("A", d - 1)
    fn = _test_function(rs, f)

    zg = conv_group_cloud(d, x, y, n, rng)
    lhs, se_lhs = kernels._mean_stderr(fn(zg))

    zh = conv_hermitian_cloud(d, x, y, n, rng)
    log_w = log_semicharacter_rows(rs, zh)
    log_w -= log_semicharacter(rs, x) + log_semicharacter(rs, y)
    rhs, se_rhs = kernels._mean_stderr(fn(zh) * np.exp(log_w))
    return CheckResult(lhs, rhs, se_lhs, se_rhs)


def semicharacter_multiplicativity(d: int, x, y, n: int, rng) -> CheckResult:
    """MC mean of the semicharacter over delta_x * delta_y (lhs) against the
    exact product of its values at x and y (rhs).  Where either overflows a
    float it raises ValueError naming x and y."""
    rs = build_root_system("A", d - 1)
    z = conv_hermitian_cloud(d, x, y, n, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = kernels._mean_stderr(np.exp(log_semicharacter_rows(rs, z)))
    log_target = log_semicharacter(rs, x) + log_semicharacter(rs, y)
    if not (np.isfinite([mean, se]).all() and log_target <= _LOG_FLOAT_MAX):
        raise ValueError(f"semicharacter multiplicativity overflows a float at x = "
                         f"{_check_vec(rs, x).tolist()}, y = {_check_vec(rs, y).tolist()}")
    return CheckResult(mean.real, math.exp(log_target), se, 0.0)


def transform_homomorphism(d: int, x, y, lam, n: int, rng) -> CheckResult:
    """The spherical transform of delta_x * delta_y at lambda, the mean of
    conj(psi_lambda) over n Hermitian-cloud samples (lhs), against the product of
    the transforms of delta_x and delta_y, the exact conj(psi_lambda(x) psi_lambda(y))."""
    rs = build_root_system("A", d - 1)
    lam = _check_vec(rs, lam, name="lambda")
    cloud = conv_hermitian_cloud(d, x, y, n, rng)
    est, se = spherical_transform_empirical(EmpiricalMeasure.uniform(cloud), lam, "psi", rs)
    target = np.conj(spherical_psi(rs, lam, x).value * spherical_psi(rs, lam, y).value)
    return CheckResult(est, complex(target), se, 0.0)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    # imported here so that only the support check pays scipy's import time
    from scipy.spatial import cKDTree

    ta = cKDTree(a)
    tb = cKDTree(b)
    return float(max(tb.query(a)[0].max(), ta.query(b)[0].max()))


def support_equivalence(d: int, x, y, n: int, rng) -> SupportReport:
    """Numeric test that the two convolutions share their support.

    Hausdorff distance between the two n-point clouds, compared against the
    split-half self-distances of each cloud: pass iff
    hausdorff <= 2 * max(self_a, self_b) + EPS_SUPP.

    The threshold self-calibrates to the sampling resolution: equal supports
    keep the cross distance at the same scale as the split-half distances,
    while a genuine support gap survives as n grows.  Near degenerate
    corners (x, y with repeated coordinates) the two densities can vanish
    at different rates and the comparison needs much larger n.
    """
    n = _check_count(n, 100, "sample size n")
    ch = conv_hermitian_cloud(d, x, y, n, rng)
    cg = conv_group_cloud(d, x, y, n, rng)
    h = _hausdorff(ch, cg)
    # split-half self-distances; max over a few random splits so the
    # threshold tracks the upper tail of the same-law Hausdorff statistic
    self_a = _self_split(ch, rng)
    self_b = _self_split(cg, rng)
    passed = h <= 2.0 * max(self_a, self_b) + EPS_SUPP
    return SupportReport(h, self_a, self_b, passed)


def _self_split(cloud: np.ndarray, rng) -> float:
    half = cloud.shape[0] // 2
    worst = 0.0
    for _ in range(_SELF_SPLITS):
        idx = rng.permutation(cloud.shape[0])
        worst = max(worst, _hausdorff(cloud[idx[:half]], cloud[idx[half:]]))
    return worst


def spherical_transform_empirical(
    measure: EmpiricalMeasure, lam, which: str, rs: RootSystem | None = None
) -> tuple[complex, float]:
    """Weighted mean of conj(psi_lambda) or conj(phi_lambda) over the atoms.

    Returns (estimate, standard error), by `kernels._mean_stderr` under the
    measure's weights.
    """
    if which not in ("psi", "phi"):
        raise ValueError("which must be 'psi' or 'phi'")
    if rs is None:
        rs = build_root_system("A", measure.atoms.shape[1] - 1)
    rows = spherical_psi_rows if which == "psi" else spherical_phi_rows
    vals = np.conj(rows(rs, _check_vec(rs, lam, name="lambda"), measure.atoms).value)
    return kernels._mean_stderr(vals, measure.weights)
