"""Matrix realizations: Haar sampling, spectra, and orbit samplers.

Family A lives on traceless Hermitian matrices (conjugation by SU(d)) and on
SL(d, C) (the biinvariant side).  Families B and D are realized on real
antisymmetric matrices conjugated by SO(m), via the block embedding
x -> blockdiag([[0, x_j], [-x_j, 0]], ...) with a zero padding row for B.
Family C deliberately has no matrix realization here; its spherical data
coincides with family B.

Single-matrix spectra go through a cyclic Jacobi eigensolver (high relative
accuracy, trivially verifiable).  Batched Monte-Carlo paths use LAPACK via
numpy for throughput; the two are cross-checked in the tests.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .roots import RootSystem

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_DET_TOL = 1e-8


class EigenConvergenceError(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"Jacobi eigensolver did not converge; residual {residual:g}")
        self.residual = residual


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitary_batch(d: int, n: int, rng, special: bool = False) -> np.ndarray:
    """n Haar-distributed elements of U(d) (or SU(d)), shape (n, d, d).

    Ginibre + QR with the R-diagonal phase fix; the SU correction divides by
    a d-th root of the determinant (the branch choice is invisible to
    biinvariant statistics).
    """
    if d < 2:
        raise ValueError("d >= 2 required")
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    if special:
        det = np.linalg.det(q)
        q = q * np.exp(-1j * np.angle(det) / d)[:, None, None]
    return q


def haar_unitary(d: int, rng, special: bool = False) -> np.ndarray:
    """One Haar-random element of U(d), or SU(d) when ``special`` is set."""
    return haar_unitary_batch(d, 1, rng, special=special)[0]


def haar_orthogonal_batch(m: int, n: int, rng) -> np.ndarray:
    """n Haar-distributed elements of SO(m), shape (n, m, m)."""
    if m < 2:
        raise ValueError("m >= 2 required")
    z = rng.standard_normal((n, m, m))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.sign(diag)[:, None, :]
    det = np.linalg.det(q)
    flip = det < 0
    q[flip, :, -1] = -q[flip, :, -1]
    return q


def haar_orthogonal(m: int, rng) -> np.ndarray:
    return haar_orthogonal_batch(m, 1, rng)[0]


# ---------------------------------------------------------------------------
# Eigensolver


def _off_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diagonal(a))))


def jacobi_eigh(a, max_sweeps: int = 30, tol: float = 1e-14):
    """Cyclic Jacobi for Hermitian matrices.

    Returns (eigenvalues ascending, unitary V) with a = V diag(w) V^H.
    Raises EigenConvergenceError when the off-diagonal norm has not dropped
    below tol * ||a||_F after max_sweeps sweeps.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    fro = np.linalg.norm(a)
    if fro == 0.0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        off = _off_norm(a)
        if off <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= tol * fro / n:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # J = diag(1, conj(phase)) . [[c, s], [-s, c]] in the (p,q) plane
                jpp, jpq = c, s
                jqp, jqq = -s * np.conj(phase), c * np.conj(phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = col_p * jpp + col_q * jqp
                a[:, q] = col_p * jpq + col_q * jqq
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = row_p * np.conj(jpp) + row_q * np.conj(jqp)
                a[q, :] = row_p * np.conj(jpq) + row_q * np.conj(jqq)
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = col_p * jpp + col_q * jqp
                v[:, q] = col_p * jpq + col_q * jqq
    off = _off_norm(a)
    if off > 1e-10 * fro:
        raise EigenConvergenceError(off)
    w = np.diagonal(a).real.copy()
    order = np.argsort(w)
    return w[order], v[:, order]


def _check_hermitian_traceless(a: np.ndarray) -> None:
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > _HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if abs(np.trace(a)) > _TRACE_TOL * scale:
        raise ValueError("matrix trace exceeds the 1e-10 tolerance")


def hermitian_spectrum(a) -> np.ndarray:
    """Ordered eigenvalues of a traceless Hermitian matrix (the map p).

    Descending, re-centered to coordinate sum exactly 0.
    """
    a = np.asarray(a, dtype=complex)
    _check_hermitian_traceless(a)
    w, _ = jacobi_eigh(a)
    out = w[::-1].copy()
    out -= out.mean()
    return out


def log_singular_spectrum(b) -> np.ndarray:
    """The map q: descending logs of the singular values, centered to sum 0.

    Computed as half the log-eigenvalues of B B*.  Raises when the spread of
    singular values exhausts double precision (use the walk's QR accumulator
    for long products).
    """
    b = np.asarray(b, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        h = b @ b.conj().T
    if not np.all(np.isfinite(h)):
        raise ValueError(
            "singular-value spread beyond double precision; accumulate long "
            "products with the QR accumulator instead"
        )
    det = np.linalg.det(b)
    if abs(det - 1.0) > _DET_TOL * max(1.0, np.abs(b).max() ** b.shape[0]):
        raise ValueError(f"expected a unimodular matrix, got det = {det:.3g}")
    w, _ = jacobi_eigh(h)
    d = b.shape[0]
    if w[0] <= d * 1e-13 * w[-1]:
        raise ValueError(
            "singular-value spread beyond double precision; accumulate long "
            "products with the QR accumulator instead"
        )
    out = 0.5 * np.log(w[::-1])
    out -= out.mean()
    return out


# ---------------------------------------------------------------------------
# Orbit and biinvariant samplers


def sample_biinvariant(x, rng) -> np.ndarray:
    """One SL(d,C) element Z = U diag(e^x) V with independent Haar U, V in SU(d).

    By construction log_singular_spectrum(Z) = x; the law is SU(d)-biinvariant.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if abs(x.sum()) > 1e-9:
        raise ValueError("chamber point must have zero coordinate sum")
    u = haar_unitary(d, rng, special=True)
    v = haar_unitary(d, rng, special=True)
    return (u * np.exp(x)[None, :]) @ v


def block_embed(rs: RootSystem, x) -> np.ndarray:
    """Antisymmetric block embedding of a B/D chamber point."""
    x = np.asarray(x, dtype=float)
    n = rs.rank
    m = 2 * n + (1 if rs.family == "B" else 0)
    a = np.zeros((m, m))
    for j in range(n):
        a[2 * j, 2 * j + 1] = x[j]
        a[2 * j + 1, 2 * j] = -x[j]
    return a


def sample_orbit(rs: RootSystem, x, rng) -> np.ndarray:
    """One Haar-random element of the compact-group orbit through x.

    Family A: U diag(x) U* with U Haar in SU(d).  B/D: Q iota(x) Q^T with Q
    Haar in SO(m).  Family C is rejected (no matrix realization).
    """
    if rs.family == "C":
        raise ValueError(
            "family C has no matrix orbit realization; use the B<->C identity"
        )
    x = np.asarray(x, dtype=float)
    if rs.family == "A":
        u = haar_unitary(x.shape[0], rng, special=True)
        return (u * x[None, :]) @ u.conj().T
    q = haar_orthogonal(2 * rs.rank + (1 if rs.family == "B" else 0), rng)
    return q @ block_embed(rs, x) @ q.T


def orbit_diagonal_batch(rs: RootSystem, x, n: int, rng) -> np.ndarray:
    """Chamber-coordinate projections of n Haar orbit samples, shape (n, dim).

    For A these are the matrix diagonals |U|^2 x, with U Haar in U(d): the
    SU(d) phase correction cannot change |U|^2.  For B/D they are the block
    coordinates A[2j, 2j+1] of Q iota(x) Q^T.
    """
    if rs.family == "C":
        raise ValueError("family C has no matrix orbit realization")
    x = np.asarray(x, dtype=float)
    if rs.family == "A":
        u = haar_unitary_batch(x.shape[0], n, rng)
        return np.abs(u) ** 2 @ x
    m = 2 * rs.rank + (1 if rs.family == "B" else 0)
    q = haar_orthogonal_batch(m, n, rng)
    a = q @ block_embed(rs, x) @ np.transpose(q, (0, 2, 1))
    idx = 2 * np.arange(rs.rank)
    return a[:, idx, idx + 1]


def orbit_chamber(rs: RootSystem, a) -> np.ndarray:
    """Recover the chamber point of an orbit element produced by sample_orbit."""
    a = np.asarray(a)
    if rs.family == "A":
        return hermitian_spectrum(a)
    if rs.family == "C":
        raise ValueError("family C has no matrix orbit realization")
    s = np.linalg.svd(a, compute_uv=False)
    vals = s[::2][: rs.rank].copy()
    if rs.family == "D":
        # orbit invariant beyond |x|: the sign of the Pfaffian
        t, z = scipy.linalg.schur(a.real, output="real")
        blocks = t[2 * np.arange(rs.rank), 2 * np.arange(rs.rank) + 1]
        pf_sign = np.sign(np.linalg.det(z)) * np.prod(np.sign(blocks))
        if pf_sign < 0:
            vals[-1] = -vals[-1]
    return vals
