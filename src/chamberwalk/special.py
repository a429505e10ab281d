"""Spherical functions on the chamber and the modified first-moment map.

The closed forms, evaluated in the log domain:

* ``semicharacter``   -- the positive semicharacter prod sinh<a,x>/<a,x>,
* ``spherical_psi``   -- the flat (orbit hypergroup) spherical function,
* ``spherical_phi``   -- the group spherical function, psi / semicharacter,
* ``m1_closed``       -- the chamber-valued moment map driving the walk limit.

psi, phi and m1 are alternating sums over the Weyl group W, all computed by
one batched kernel over a (rows x |W|) array: the numerator
sum_w det w e^{i<w.x, lambda>}, the denominator sum_w det w e^{<w.x, rho>}
and the first moment sum_w det w (w.x) e^{<w.x, rho>}.  The row forms
``spherical_psi_rows``, ``spherical_phi_rows`` and ``m1_closed_rows`` take a
batch ``xs`` of shape (n, dim) (one lambda for all rows) in one call; the
per-point functions are their one-row cases and give bit-identical values.

The alternating-sum prefactor is pinned by the normalization psi_lambda(0)=1:
with rho the *sum* of positive roots it is pi(rho) / 2**n_roots, i.e.
pi(rho/2).  This is cross-checked against the Haar-integral Monte Carlo
oracle in the test suite.

Accuracy.  ``est_abs_error`` is an error bound computed in the same pass:
  * at a regular point, the rounding bound
    eps * sum_w (1 + |z_w|) |e^{z_w - m}| times the prefactor's modulus, for
    each alternating sum (z_w its exponents, m their largest real part).  The
    sums cancel when x is small or near a wall, most in C_3, D_4 and higher
    rank; there the bound grows with the lost digits, up to inf when a sum
    cancels to exactly 0, and the value means no more than the bound says.
  * on a wall (min |<alpha, x>| or min |<alpha, lambda>| below EPS_REG),
    where the sums are 0/0, the value is the mean of the regular values at
    four fixed offsets of size 1e-5, with ``regularized=True``, and the
    bound is their spread plus their largest rounding bound.  m1 uses the
    same offsets of x.
  * x = 0 or lambda = 0 gives exactly 1 (m1: exactly 0), with bound 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .roots import RootSystem, _check_vec, build_root_system, enumerate_weyl

#: regularity threshold on min |<alpha, x>|, |<alpha, lambda>|
EPS_REG = 1e-8

#: magnitude of the fixed wall-rule perturbations
_PERTURB = 1e-5

#: cap on the entries of one chunk's (rows x |W| x dim) work array
_CHUNK_ENTRIES = 1 << 20

#: orbit samples per m1_mc chunk
_M1_MC_CHUNK = 100_000

_EPS = float(np.finfo(float).eps)

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SphericalValue:
    value: complex
    regularized: bool = False
    est_abs_error: float = 0.0


@lru_cache(maxsize=None)
def _constants(family: str, rank: int) -> tuple[float, float, np.ndarray]:
    """log pi(rho/2) (psi's normalization), log pi(rho), and m1's shift."""
    rs = build_root_system(family, rank)
    pairings = rs.positive_roots @ rs.rho
    log_pi_rho = float(np.sum(np.log(pairings)))
    shift = rs.positive_roots.T @ (1.0 / pairings)
    shift.setflags(write=False)
    return log_pi_rho - rs.n_positive_roots * _LOG2, log_pi_rho, shift


def _log_sinhc(t):
    """log(sinh t / t), elementwise, stable at 0 and for large |t|."""
    t = np.abs(np.asarray(t, dtype=float))
    small = t < 1e-4
    ts = np.where(small, t, 0.0)
    tl = np.where(small, 1.0, t)
    out_small = np.log1p(ts * ts / 6.0 + ts**4 / 120.0)
    out_large = tl + np.log1p(-np.exp(-2.0 * tl)) - np.log(2.0 * tl)
    return np.where(small, out_small, out_large)


def log_semicharacter(rs: RootSystem, x) -> float:
    x = _check_vec(rs, x)
    return float(np.sum(_log_sinhc(rs.positive_roots @ x)))


def semicharacter(rs: RootSystem, x) -> float:
    """psi_{-i rho}(x) = prod sinh<a,x>/<a,x>; strictly positive, 1 at x=0."""
    return math.exp(log_semicharacter(rs, x))


def log_semicharacter_rows(rs: RootSystem, xs) -> np.ndarray:
    """log_semicharacter applied to each row of ``xs``."""
    xs = np.asarray(xs, dtype=float)
    return np.sum(_log_sinhc(xs @ rs.positive_roots.T), axis=-1)


def _log_pi_rows(rs: RootSystem, vs: np.ndarray) -> np.ndarray:
    # complex log of the alternating polynomial per row; no factor may be 0
    return np.log((vs @ rs.positive_roots.T).astype(complex)).sum(axis=1)


def _wall_offsets(family: str, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fixed (dx, dlambda) pairs of the wall rule, each of norm _PERTURB."""
    rng = np.random.default_rng(0x5EED)
    pairs = []
    for _ in range(4):
        dx = rng.standard_normal(dim)
        dx *= _PERTURB / np.linalg.norm(dx)
        if family == "A":
            dx -= dx.mean()
        dl = rng.standard_normal(dim)
        dl *= _PERTURB / np.linalg.norm(dl)
        pairs.append((dx, dl))
    return pairs


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    # a strictly left-to-right sum: ndarray.sum's pairwise order depends on
    # the layout, and a row's value must not depend on the rows beside it
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis)


def _pairing(wx: np.ndarray, v: np.ndarray) -> np.ndarray:
    # <w.x, v> for every row and w
    if np.iscomplexobj(v) and v.imag.any():
        return _ordered_sum(wx * v, axis=2)
    return _ordered_sum(wx * v.real, axis=2)


def _alt_terms(z: np.ndarray, dets: np.ndarray):
    """Row-wise terms det w * e^(z_w - m) of an alternating sum, m = max Re z_w."""
    m = z.real.max(axis=1, keepdims=True)
    return dets * np.exp(z - m), m[:, 0]


def _rounding_bound(z: np.ndarray, terms: np.ndarray) -> np.ndarray:
    # eps * sum_w (1 + |z_w|) |e^(z_w - m)|: each exponential's own rounding
    # plus the absolute rounding of z_w that it amplifies
    return _EPS * ((1.0 + np.abs(z)) * np.abs(terms)).sum(axis=1)


def _regular_rows(rs: RootSystem, kind: str, lam, xs: np.ndarray):
    """The alternating-sum closed forms at rows off every wall.

    Returns (values, rounding bounds): the values are psi or phi at
    (lam, row), or m1 at the row (kind "m1": lam unused, bounds 0).  Rows
    go through in chunks whose (rows x |W| x dim) work arrays stay below
    _CHUNK_ENTRIES entries.
    """
    weyl = enumerate_weyl(rs)
    log_c0, log_pi_rho, shift = _constants(rs.family, rs.rank)
    n, dim = xs.shape
    values = np.empty((n, dim)) if kind == "m1" else np.empty(n, dtype=complex)
    bounds = np.zeros(n)
    if n == 0:
        return values, bounds
    if kind != "m1":
        log_pi_lam = _log_pi_rows(rs, 1j * lam[None, :])
    step = max(1, _CHUNK_ENTRIES // (weyl.dets.size * dim))
    for lo in range(0, n, step):
        x = xs[lo : lo + step]
        wx = weyl.images(x)  # (rows, |W|, dim): every w.x
        if kind != "psi":
            zd = _pairing(wx, rs.rho)
            td, md = _alt_terms(zd, weyl.dets)
            sd = _ordered_sum(td, axis=1)
        if kind == "m1":
            moment = _ordered_sum(td[:, :, None] * wx, axis=1)
            values[lo : lo + step] = moment / sd[:, None] - shift
            continue
        zn = 1j * _pairing(wx, lam)
        tn, mn = _alt_terms(zn, weyl.dets)
        sn = _ordered_sum(tn, axis=1)
        bn = _rounding_bound(zn, tn)
        if kind == "psi":
            pre = np.exp(log_c0 + mn - _log_pi_rows(rs, x) - log_pi_lam)
            bounds[lo : lo + step] = bn * np.abs(pre)
        else:
            pre = np.exp(log_pi_rho - log_pi_lam + (mn - md)) / sd
            bd = _rounding_bound(zd, td)
            bounds[lo : lo + step] = (bn + np.abs(sn / sd) * bd) * np.abs(pre)
        values[lo : lo + step] = sn * pre
    return values, bounds


def _kernel(rs: RootSystem, kind: str, lam, xs: np.ndarray):
    """psi, phi or m1 on every row of ``xs``, with the zero and wall rules.

    Returns (values, regularized, est_abs_error).  A zero row (or lam = 0)
    gives exactly 1 for psi and phi, and 0 for m1.  A row with
    min |<alpha, x>| or min |<alpha, lam>| below EPS_REG sits on a wall,
    where the sums are 0/0: its value is the mean of the regular
    evaluations at the four fixed offsets of _wall_offsets, and its error
    estimate is their spread plus their largest rounding bound.
    """
    n = xs.shape[0]
    if kind == "m1":
        values = np.zeros((n, rs.ambient_dim))
        live = xs.any(axis=1)
        gap_lam = math.inf
    else:
        values = np.ones(n, dtype=complex)
        live = xs.any(axis=1) & bool(lam.any())
        gap_lam = float(np.abs(rs.positive_roots @ lam).min())
    errors = np.zeros(n)
    gaps = np.abs(xs @ rs.positive_roots.T).min(axis=1)
    wall = live & (np.minimum(gaps, gap_lam) < EPS_REG)
    regular = live & ~wall
    if regular.all():
        values, errors = _regular_rows(rs, kind, lam, xs)
    else:
        values[regular], errors[regular] = _regular_rows(rs, kind, lam, xs[regular])
    if wall.any():
        xw = xs[wall]
        near = [_regular_rows(rs, kind, None if lam is None else lam + dl, xw + dx)
                for dx, dl in _wall_offsets(rs.family, rs.ambient_dim)]
        vals = np.stack([v for v, _ in near])
        mean = _ordered_sum(vals, axis=0) / len(near)
        spread = np.abs(vals - mean)
        if kind == "m1":
            spread = np.linalg.norm(spread, axis=-1)
        values[wall] = mean
        errors[wall] = spread.max(axis=0) + np.max([b for _, b in near], axis=0)
    if kind != "m1":
        # a sum that cancelled to exactly 0 leaves no digits to bound
        errors[~np.isfinite(values)] = np.inf
    return values, wall, errors


def _check_rows(rs: RootSystem, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != rs.ambient_dim:
        raise ValueError(
            f"expected rows of length {rs.ambient_dim}, got shape {xs.shape}"
        )
    if not np.all(np.isfinite(xs)):
        raise ValueError("rows have non-finite entries")
    return xs


@dataclass(frozen=True)
class SphericalRows:
    """Row-wise SphericalValue fields: one entry per row of the input."""

    value: np.ndarray          # (n,) complex
    regularized: np.ndarray    # (n,) bool
    est_abs_error: np.ndarray  # (n,) float


def _spherical_rows(kind: str, rs: RootSystem, lam, xs) -> SphericalRows:
    lam = _check_vec(rs, lam, dtype=complex)
    return SphericalRows(*_kernel(rs, kind, lam, _check_rows(rs, xs)))


def _spherical_value(kind: str, rs: RootSystem, lam, x) -> SphericalValue:
    lam = _check_vec(rs, lam, dtype=complex)
    value, wall, error = _kernel(rs, kind, lam, _check_vec(rs, x)[None, :])
    return SphericalValue(complex(value[0]), bool(wall[0]), float(error[0]))


def spherical_psi_rows(rs: RootSystem, lam, xs) -> SphericalRows:
    """spherical_psi at (lam, x) for every row x of ``xs``, in one pass."""
    return _spherical_rows("psi", rs, lam, xs)


def spherical_phi_rows(rs: RootSystem, lam, xs) -> SphericalRows:
    """spherical_phi at (lam, x) for every row x of ``xs``, in one pass."""
    return _spherical_rows("phi", rs, lam, xs)


def spherical_psi(rs: RootSystem, lam, x) -> SphericalValue:
    """Spherical function of the orbit hypergroup (Harish-Chandra sum form).

    W-invariant in both arguments; equals the Haar integral of
    exp(i<lambda, k.x>) over the compact group.  On chamber walls the value
    is the wall rule's average, with ``regularized=True``; ``est_abs_error``
    bounds the rounding error (see the module docstring).
    """
    return _spherical_value("psi", rs, lam, x)


def spherical_phi(rs: RootSystem, lam, x) -> SphericalValue:
    """Spherical function of the double-coset hypergroup: psi / semicharacter."""
    return _spherical_value("phi", rs, lam, x)


def m1_closed_rows(rs: RootSystem, xs) -> np.ndarray:
    """m1_closed applied to each row of ``xs``, shape (n, dim)."""
    return _kernel(rs, "m1", None, _check_rows(rs, xs))[0]


def m1_closed(rs: RootSystem, x) -> np.ndarray:
    """The modified moment map m1(x), a chamber point with ||m1(x)|| <= ||x||.

    Alternating-sum closed form; exact 0 at x = 0, the wall rule's average
    on chamber walls.
    """
    return _kernel(rs, "m1", None, _check_vec(rs, x)[None, :])[0][0]


def m1_mc(rs: RootSystem, x, n: int, rng):
    """Monte-Carlo estimate of m1(x) from the defining orbit integral.

    Averages (k.x) * exp(<rho, k.x>) over Haar-random orbit elements and
    divides by the closed-form semicharacter.  Returns (estimate, stderr),
    both per coordinate.  Families A, B and D have matrix realizations;
    family C is rejected (use the B<->C spherical-function identity).
    """
    x = _check_vec(rs, x)
    if n < 1:
        raise ValueError(f"sample size n must be at least 1, got {n}")
    if rs.family == "C":
        raise ValueError(
            "family C has no matrix orbit realization; its spherical data "
            "coincides with family B (B<->C identity)"
        )
    if not x.any():
        return np.zeros(rs.ambient_dim), np.zeros(rs.ambient_dim)

    # weights rescaled by exp(-<rho, x>) so they stay in [0, 1]
    c = float(rs.rho @ x)
    log_norm = log_semicharacter(rs, x) - c

    sums = np.zeros(rs.ambient_dim)
    sq_sums = np.zeros(rs.ambient_dim)
    for done in range(0, n, _M1_MC_CHUNK):
        m = min(_M1_MC_CHUNK, n - done)
        v = kernels.orbit_diagonal_batch(rs, x, m, rng)
        w = np.exp(v @ rs.rho - c)
        vw = v * w[:, None]
        sums += vw.sum(axis=0)
        sq_sums += (vw * vw).sum(axis=0)
    mean = sums / n
    var = np.maximum(sq_sums / n - mean**2, 0.0)
    scale = math.exp(-log_norm)
    return mean * scale, np.sqrt(var / n) * scale


def m1_expectation(rs: RootSystem, atoms, weights) -> np.ndarray:
    """Integral of m1 against a finite measure sum_i weights_i * delta_atoms_i."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if atoms.shape[0] != weights.shape[0]:
        raise ValueError("one weight per atom required")
    if np.any(weights < 0) or not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    live = weights > 0
    return weights[live] @ m1_closed_rows(rs, atoms[live])
