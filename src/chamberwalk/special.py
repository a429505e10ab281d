"""Spherical functions on the chamber and the modified first-moment map.

The closed forms, evaluated in the log domain:

* ``semicharacter``   -- the positive semicharacter prod sinh<a,x>/<a,x>,
* ``spherical_psi``   -- the flat (orbit hypergroup) spherical function,
* ``spherical_phi``   -- the group spherical function, psi / semicharacter,
* ``m1_closed``       -- the chamber-valued moment map driving the walk limit.

psi and m1 are alternating sums over the Weyl group W, computed by one
batched kernel over a (rows x |W|) array: psi's sum_w det w e^{i<w.x, lambda>},
and m1's sum_w det w (w.x) e^{<w.x, rho>} over sum_w det w e^{<w.x, rho>}.
phi_lambda = psi_lambda / psi_{-i rho} divides psi by the semicharacter, a
stable product, inside psi's log-domain prefactor.  The row forms take a
batch ``xs`` of shape (n, dim) (one lambda for all rows); the per-point
functions are their one-row cases and give bit-identical values.

psi's prefactor is pinned by the normalization psi_lambda(0)=1: with rho the
*sum* of positive roots it is pi(rho/2), cross-checked against the
Haar-integral Monte Carlo oracle in the test suite.

Accuracy.  ``est_abs_error`` is an error bound computed in the same pass:
  * at a regular point, psi's rounding bound eps * sum_w (1 + |z_w|)
    |e^{z_w - m}| times the prefactor's modulus (z_w the exponents, m their
    largest real part).  The sum cancels when x is small, most in C_3, D_4
    and higher rank; the bound grows with the lost digits.
  * within EPS_REG of a wall (min |<alpha, x>| or |<alpha, lambda>|), where
    the sums are 0/0, the contour rule runs (``regularized=True``): each
    argument on a wall moves to z + zeta v, v = rho/|rho|, and the value is
    the trapezoid mean over the nodes zeta_k = R e^{2 pi i (k+1/2)/64}, which
    is Cauchy's mean value.  The bound is |that mean - the mean over every
    second node| plus the largest node bound.  psi is entire and keeps per
    row the R in 1, 2, 4, 8 of smallest bound; m1 is analytic for
    |Im<alpha, z>| < pi and takes R = pi / (2 max <alpha, v>).
  * x = 0 or lambda = 0 gives psi exactly 1, and x = 0 gives m1 exactly 0.
  * phi's bound is psi's divided by the semicharacter, plus eps |phi|.
  * psi, phi and m1 refuse an x or lambda unless max |v_i| times |rho|_1 is a
    finite float (`_check_reach`), and a value or bound that still overflows
    is reported with bound inf (psi, phi) or refused (m1, the semicharacter),
    never with a RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .roots import (RootSystem, _check_count, _check_vec, _check_weights, build_root_system,
                    enumerate_weyl)

#: regularity threshold on min |<alpha, x>|, |<alpha, lambda>|
EPS_REG = 1e-4

#: the contour rule's trapezoid nodes on the unit circle, e^{2 pi i (k+1/2)/64}
_CIRCLE = np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64)

#: psi's contour radii, tried in turn
_PSI_RADII = (1.0, 2.0, 4.0, 8.0)

#: a wall row whose estimate is below this times max(1, |psi|) climbs no further
_LADDER_TOL = 1e-13

#: cap on the entries of one chunk's (rows x |W| x dim) work array
_CHUNK_ENTRIES = 1 << 20

#: orbit samples per m1_mc chunk
_M1_MC_CHUNK = 100_000

_EPS = float(np.finfo(float).eps)
#: log of the largest float; math.exp overflows above it
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class SphericalValue:
    value: complex
    regularized: bool = False
    est_abs_error: float = 0.0


@lru_cache(maxsize=None)
def _constants(family: str, rank: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """log pi(rho/2), m1's shift, v = rho/|rho| and m1's contour radius."""
    rs = build_root_system(family, rank)
    pairings = rs.positive_roots @ rs.rho
    shift = rs.positive_roots.T @ (1.0 / pairings)
    v = rs.rho / np.linalg.norm(rs.rho)
    shift.setflags(write=False)
    v.setflags(write=False)
    log_c0 = float(np.sum(np.log(pairings))) - rs.n_positive_roots * math.log(2.0)
    return log_c0, shift, v, math.pi / (2.0 * float(np.max(rs.positive_roots @ v)))


def _log_sinhc(t):
    """log(sinh t / t), elementwise, stable at 0 and for large |t|, and inf at inf.

    Past 2^1022, where 2t overflows, log 2t is far below t's last bit and is
    taken at 2^1022 instead.
    """
    t = np.abs(t)
    small = t < 1e-4
    tl = np.where(small, 1.0, t)
    out = tl + np.log1p(-np.exp(-2.0 * tl)) - np.log(2.0 * np.minimum(tl, 2.0**1022))
    if small.any():
        ts = np.where(small, t, 0.0)
        out = np.where(small, np.log1p(ts * ts / 6.0 + ts**4 / 120.0), out)
    return out


def log_semicharacter(rs: RootSystem, x) -> float:
    """log semicharacter(x), inf where it overflows a float."""
    x = _check_vec(rs, x)
    with np.errstate(over="ignore"):
        return float(np.sum(_log_sinhc(rs.positive_roots @ x)))


def semicharacter(rs: RootSystem, x) -> float:
    """psi_{-i rho}(x) = prod sinh<a,x>/<a,x>; strictly positive, 1 at x=0.
    Beyond the float range it raises ValueError naming x."""
    log_value = log_semicharacter(rs, x)
    if log_value > _LOG_FLOAT_MAX:
        raise ValueError(f"semicharacter is not finite at x = {_check_vec(rs, x).tolist()}: "
                         "it overflows a float")
    return math.exp(log_value)


def log_semicharacter_rows(rs: RootSystem, xs) -> np.ndarray:
    """log_semicharacter applied to each row of ``xs``."""
    xs = _check_vec(rs, xs, rows=True)
    with np.errstate(over="ignore"):
        return np.sum(_log_sinhc(xs @ rs.positive_roots.T), axis=-1)


def _log_pi_rows(rs: RootSystem, vs: np.ndarray) -> np.ndarray:
    # complex log of the alternating polynomial per row; no factor may be 0
    return np.log((vs @ rs.positive_roots.T).astype(complex)).sum(axis=1)


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    # a strictly left-to-right sum: ndarray.sum's pairwise order depends on
    # the layout, and a row's value must not depend on the rows beside it
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis)


def _pairing(wx: np.ndarray, v: np.ndarray) -> np.ndarray:
    # <w.x, v> for every row and w, summed left to right as _ordered_sum does
    p = wx * v if np.iscomplexobj(v) and v.imag.any() else wx * v.real
    out = p[..., 0].copy()
    for i in range(1, p.shape[-1]):
        out += p[..., i]
    return out


def _alt_terms(z: np.ndarray, dets: np.ndarray):
    """Row-wise terms det w * e^(z_w - m) of an alternating sum, m = max Re z_w."""
    m = z.real.max(axis=1, keepdims=True)
    return dets * np.exp(z - m), m[:, 0]


def _rounding_bound(z: np.ndarray, terms: np.ndarray) -> np.ndarray:
    # eps * sum_w (1 + |z_w|) |e^(z_w - m)|: each exponential's own rounding
    # plus the absolute rounding of z_w that it amplifies
    return _EPS * ((1.0 + np.abs(z)) * np.abs(terms)).sum(axis=1)


def _regular_rows(rs: RootSystem, kind: str, lam, xs: np.ndarray, log_scale):
    """The closed forms at rows off every wall, in chunks whose
    (rows x |W| x dim) work arrays stay below _CHUNK_ENTRIES entries.

    Returns (values, rounding bounds): psi at (lam, row) / e^{log_scale[row]},
    or m1 at the row (bounds 0).  Rows may be complex, and lam one per row.
    """
    weyl = enumerate_weyl(rs)
    log_c0, shift = _constants(rs.family, rs.rank)[:2]
    n, dim = xs.shape
    values = np.empty((n, dim), xs.dtype) if kind == "m1" else np.empty(n, complex)
    bounds = np.zeros(n)
    if n == 0:
        return values, bounds
    if kind == "psi":
        lam = lam.reshape(-1, dim)
        log_pi_lam = _log_pi_rows(rs, 1j * lam)
    step = max(1, _CHUNK_ENTRIES // (weyl.dets.size * dim))
    for lo in range(0, n, step):
        x = xs[lo : lo + step]
        wx = weyl.images(x)  # (rows, |W|, dim): every w.x
        if kind == "m1":
            td = _alt_terms(_pairing(wx, rs.rho), weyl.dets)[0]
            moment = _ordered_sum(td[:, :, None] * wx, axis=1)
            values[lo : lo + step] = moment / _ordered_sum(td, axis=1)[:, None] - shift
            continue
        own = slice(lo, lo + step) if len(lam) > 1 else slice(None)
        zn = 1j * _pairing(wx, lam[own, None, :])
        tn, mn = _alt_terms(zn, weyl.dets)
        pre = np.exp(log_c0 + mn - _log_pi_rows(rs, x) - log_pi_lam[own]
                     - log_scale[lo : lo + step])
        bounds[lo : lo + step] = _rounding_bound(zn, tn) * np.abs(pre)
        values[lo : lo + step] = _ordered_sum(tn, axis=1) * pre
    return values, bounds


def _circle_mean(rs: RootSystem, kind: str, lam, xs, log_scale, move_x, move_lam, radius):
    """(trapezoid mean, estimate) of _regular_rows on one circle: rows with
    ``move_x`` go to x + zeta_k v, and lam to lam + zeta_k v if ``move_lam``."""
    zv = (radius * _CIRCLE)[:, None, None] * _constants(rs.family, rs.rank)[2]
    nodes = (xs + zv * move_x[:, None]).reshape(-1, xs.shape[1])
    if move_lam:
        lam = np.repeat(lam + zv[:, 0], len(xs), axis=0)
    vals, bounds = _regular_rows(rs, kind, lam, nodes, np.tile(log_scale, _CIRCLE.size))
    vals = vals.reshape(_CIRCLE.size, len(xs), *vals.shape[1:])  # (nodes, rows[, dim])
    mean = _ordered_sum(vals, axis=0) / _CIRCLE.size
    spread = np.abs(mean - _ordered_sum(vals[::2], axis=0) / (_CIRCLE.size // 2))
    if kind == "m1":
        mean, spread = mean.real, np.linalg.norm(spread, axis=-1)
    return mean, spread + bounds.reshape(_CIRCLE.size, len(xs)).max(axis=0)


def _contour_rule(rs: RootSystem, kind: str, lam, xs, log_scale, move_x, move_lam):
    """Wall rows by Cauchy's mean value: psi climbs _PSI_RADII, keeping per
    row the radius of smallest estimate until that estimate is at rounding level."""
    radii = _PSI_RADII if kind == "psi" else _constants(rs.family, rs.rank)[3:]
    values, errors = _circle_mean(rs, kind, lam, xs, log_scale, move_x, move_lam, radii[0])
    for radius in radii[1:]:
        rows = np.flatnonzero(errors > _LADDER_TOL * np.maximum(1.0, np.abs(values)))
        val, err = _circle_mean(rs, kind, lam, xs[rows], log_scale[rows], move_x[rows],
                                move_lam, radius)
        better = err < errors[rows]
        values[rows[better]], errors[rows[better]] = val[better], err[better]
    return values, errors


def _kernel(rs: RootSystem, kind: str, lam, xs: np.ndarray, log_scale=None):
    """(values, regularized, est_abs_error) of psi / e^{log_scale} or m1.

    A zero row (or lam = 0) gives exactly e^{-log_scale} for psi and 0 for m1.
    """
    n = xs.shape[0]
    log_scale = np.zeros(n) if log_scale is None else log_scale
    if kind == "m1":
        values = np.zeros((n, rs.ambient_dim))
        live = xs.any(axis=1)
        lam_wall = False
    else:
        values = np.exp(-log_scale).astype(complex)
        live = xs.any(axis=1) & bool(lam.any())
        lam_wall = bool(np.abs(rs.positive_roots @ lam).min() < EPS_REG)
    errors = np.zeros(n)
    x_wall = np.abs(xs @ rs.positive_roots.T).min(axis=1) < EPS_REG
    wall = live & (x_wall | lam_wall)
    regular = live & ~wall
    values[regular], errors[regular] = _regular_rows(rs, kind, lam, xs[regular],
                                                     log_scale[regular])
    if wall.any():
        values[wall], errors[wall] = _contour_rule(rs, kind, lam, xs[wall], log_scale[wall],
                                                   x_wall[wall], lam_wall)
    return values, wall, errors


@dataclass(frozen=True)
class SphericalRows:
    """Row-wise SphericalValue fields: one entry per row of the input."""

    value: np.ndarray          # (n,) complex
    regularized: np.ndarray    # (n,) bool
    est_abs_error: np.ndarray  # (n,) float


def _check_reach(rs: RootSystem, v: np.ndarray, name: str) -> None:
    """Refuse a point, or a row of ``v``, unless max |v_i| times |rho|_1 is a finite float.

    W permutes coordinates up to sign, so that bounds every root pairing,
    every <w.v, rho> and each partial sum of one: the kernels' exponents stay finite.
    """
    rows = np.atleast_2d(v)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(np.isinf(np.abs(rows).max(axis=-1) * np.abs(rs.rho).sum()))
    if bad.size:
        point = np.real_if_close(rows[bad[0]]).tolist()
        raise ValueError(f"{name} {point} is out of range: max |{name}_i| times the 1-norm "
                         "of rho exceeds the largest float")


def _psi_or_phi(kind: str, rs: RootSystem, lam, xs: np.ndarray):
    lam = _check_vec(rs, lam, dtype=complex)
    _check_reach(rs, xs, "x")
    _check_reach(rs, lam, "lambda")
    with np.errstate(over="ignore", invalid="ignore"):
        # phi = psi / semicharacter, divided inside psi's log-domain prefactor
        log_scale = log_semicharacter_rows(rs, xs) if kind == "phi" else None
        values, wall, errors = _kernel(rs, "psi", lam, xs, log_scale)
        if kind == "phi":
            errors += _EPS * np.abs(values)
    # a value that overflowed leaves no digits to bound, nor does a bound that did
    errors[~(np.isfinite(values) & np.isfinite(errors))] = np.inf
    return values, wall, errors


def _spherical_value(kind: str, rs: RootSystem, lam, x) -> SphericalValue:
    value, wall, error = _psi_or_phi(kind, rs, lam, _check_vec(rs, x)[None, :])
    return SphericalValue(complex(value[0]), bool(wall[0]), float(error[0]))


def spherical_psi_rows(rs: RootSystem, lam, xs) -> SphericalRows:
    """spherical_psi at (lam, x) for every row x of ``xs``, in one pass."""
    return SphericalRows(*_psi_or_phi("psi", rs, lam, _check_vec(rs, xs, rows=True)))


def spherical_phi_rows(rs: RootSystem, lam, xs) -> SphericalRows:
    """spherical_phi at (lam, x) for every row x of ``xs``, in one pass."""
    return SphericalRows(*_psi_or_phi("phi", rs, lam, _check_vec(rs, xs, rows=True)))


def spherical_psi(rs: RootSystem, lam, x) -> SphericalValue:
    """Spherical function of the orbit hypergroup (Harish-Chandra sum form).

    W-invariant in both arguments; equals the Haar integral of
    exp(i<lambda, k.x>) over the compact group.  Within EPS_REG of a chamber
    wall the value is the contour rule's mean, with ``regularized=True``;
    ``est_abs_error`` bounds the error (see the module docstring).
    """
    return _spherical_value("psi", rs, lam, x)


def spherical_phi(rs: RootSystem, lam, x) -> SphericalValue:
    """Spherical function of the double-coset hypergroup.

    phi_lambda = psi_lambda / psi_{-i rho}: psi's value and bound divided by
    the semicharacter, so phi is finite wherever psi is.
    """
    return _spherical_value("phi", rs, lam, x)


def _m1_rows(rs: RootSystem, xs: np.ndarray) -> np.ndarray:
    # m1 divides by an alternating sum, which can cancel to 0: refuse that row.
    # A term e^{<w.x, rho> - max} whose exponent overflows to -inf is 0, as it should be
    _check_reach(rs, xs, "x")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = _kernel(rs, "m1", None, xs)[0]
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"m1 is not finite at x = {xs[bad[0]].tolist()}: its alternating "
                         "sum cancels to 0 in double precision")
    return values


def m1_closed_rows(rs: RootSystem, xs) -> np.ndarray:
    """m1_closed applied to each row of ``xs``, shape (n, dim)."""
    return _m1_rows(rs, _check_vec(rs, xs, rows=True))


def m1_closed(rs: RootSystem, x) -> np.ndarray:
    """The modified moment map m1(x), a chamber point with ||m1(x)|| <= ||x||.

    Alternating-sum closed form; exact 0 at x = 0, and within EPS_REG of a
    chamber wall the contour rule's mean over a circle of x + zeta rho/|rho|.
    That claim fails at small scale in rank >= 3, where the sums cancel below
    double precision, as a strict xfail pins on D4 (ROADMAP direction 1); a
    non-finite value raises ValueError naming its row x.
    """
    return _m1_rows(rs, _check_vec(rs, x)[None, :])[0]


def m1_mc(rs: RootSystem, x, n: int, rng):
    """Monte-Carlo estimate of m1(x) from the defining orbit integral.

    `kernels._mean_stderr` of the orbit coordinates v = k.x of chunked
    `kernels.orbit_diagonal_batch` draws, weighted by exp(<rho, v - x>), over the
    semicharacter times exp(-<rho, x>); C samples B's orbit (psi_B = psi_C) with
    C's rho.  Returns (estimate, stderr) per coordinate, zeros at x = 0.
    """
    x = _check_vec(rs, x)
    n = _check_count(n, 1, "sample size n")
    if not x.any():
        return np.zeros(rs.ambient_dim), np.zeros(rs.ambient_dim)

    # weights rescaled by exp(-<rho, x>) so they stay in [0, 1]
    c = float(rs.rho @ x)
    vw = np.empty((n, rs.ambient_dim))
    for done in range(0, n, _M1_MC_CHUNK):
        v = kernels.orbit_diagonal_batch(rs, x, min(_M1_MC_CHUNK, n - done), rng)
        vw[done : done + len(v)] = v * np.exp(v @ rs.rho - c)[:, None]
    mean, se = kernels._mean_stderr(vw)
    scale = math.exp(c - log_semicharacter(rs, x))
    return mean * scale, se * scale


def m1_expectation(rs: RootSystem, atoms, weights) -> np.ndarray:
    """Integral of m1 against a finite measure sum_i weights_i * delta_atoms_i."""
    atoms = _check_vec(rs, atoms, rows=True, name="atoms")
    weights = _check_weights(weights)
    if atoms.shape[0] != weights.shape[0]:
        raise ValueError("one weight per atom required")
    live = weights > 0
    return weights[live] @ m1_closed_rows(rs, atoms[live])
