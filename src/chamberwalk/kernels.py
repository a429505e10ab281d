"""Matrix realizations: Haar sampling, spectra, and orbit samplers.

Family A lives on traceless Hermitian matrices (conjugation by SU(d)) and on
SL(d, C) (the biinvariant side).  Families B and D are realized on real
antisymmetric matrices Q iota(x) Q^T, Q in SO(m), iota(x) = blockdiag([[0, x_j],
[-x_j, 0]], ...) with a zero padding row for B.  Family C uses B's orbit: psi_B =
psi_C, so their projected orbit measures are equal.  `orbit_maps` turns a Haar
draw into chamber coordinates, linear in x, for every family.

The maps p and q are `_p` (eigvalsh) and `_q` (svd), one batched LAPACK call
each, descending and centred, behind the clouds at d >= 3, the crosscheck and
the public entries, which take a matrix by `roots._check_matrix`; the d = 2
clouds read their Ginibre draws in closed form instead (see `convolve`).
Haar U(d) and SO(m) samples come from one vectorised Gram-Schmidt QR of a
complex or real Ginibre stack, which can also run over a range of columns
(the tilted sampler's acceptance test needs the first d - 1 only); every
complex stack is drawn by `_ginibre`, in one order: all real parts, then all
imaginary parts, filled in bounded blocks that continue one bulk draw number
for number.  Every Monte-Carlo mean and standard error in the package comes
from `_mean_stderr`.
"""

from __future__ import annotations

import numpy as np

from .roots import RootSystem, _check_count, _check_matrix, _check_real, _check_vec

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_DET_TOL = 1e-8
#: normals drawn at a time by `_ginibre`
_NORMAL_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Haar sampling


def _positive_qr_q(z: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The Q of z = QR with a positive R diagonal, for a stack (n, d, d).

    z may be complex or real; a real z gives a real orthogonal Q.
    Classical Gram-Schmidt over the columns, projecting twice before each
    normalisation; the second pass restores orthogonality to working
    precision (Giraud, Langou & Rozloznik 2005).  Only columns start to
    stop - 1 (by default all) are orthonormalised, against the earlier ones,
    which must be done already; a column's bits do not depend on how the
    range is split.  Overwrites and returns z.
    """
    real = not np.iscomplexobj(z)
    for j in range(start, z.shape[-1] if stop is None else stop):
        v = z[:, :, j]
        if j:
            done = z[:, :, :j]
            for _ in range(2):
                c = np.einsum("nik,ni->nk", done, v if real else v.conj())
                v -= np.einsum("nk,nik->ni", c if real else np.conj(c, out=c), done)
        v /= np.sqrt(np.einsum("ni,ni->n", v.real, v.real)
                     + (0.0 if real else np.einsum("ni,ni->n", v.imag, v.imag)))[:, None]
    return z


def _ginibre(d: int, n: int, rng) -> np.ndarray:
    """n complex Ginibre matrices, shape (n, d, d): real normals, then imaginary normals.

    The package's one complex draw order: `haar_unitary_batch`, the tilted
    sampler and the clouds read the same stream through it.  Each part is
    filled in blocks of _NORMAL_BLOCK normals, which continue one bulk draw
    number for number, so no temporary grows with n.
    """
    z = np.empty((n, d, d), dtype=complex)
    flat = z.reshape(-1)
    for part in (flat.real, flat.imag):
        for lo in range(0, flat.size, _NORMAL_BLOCK):
            part[lo : lo + _NORMAL_BLOCK] = rng.standard_normal(min(_NORMAL_BLOCK, flat.size - lo))
    return z


def haar_unitary_batch(d: int, n: int, rng) -> np.ndarray:
    """n Haar-distributed elements of U(d), shape (n, d, d).

    The Q factor, with positive R diagonal, of a complex Ginibre stack from
    `_ginibre` is exactly Haar (Mezzadri 2007); it is taken by
    `_positive_qr_q`, and Q does not depend on the Ginibre scale.
    Every law the package draws through it is blind to a central phase on
    U, so there is no SU(d) correction; `sample_biinvariant` makes det Z = 1
    on its product instead.
    """
    d, n = _check_count(d, 2, "d"), _check_count(n, 0, "sample size n")
    return _positive_qr_q(_ginibre(d, n, rng))


def haar_orthogonal_batch(m: int, n: int, rng) -> np.ndarray:
    """n Haar-distributed elements of SO(m), shape (n, m, m).

    The positive-R Q factor of a real Ginibre stack, by `_positive_qr_q`, is
    Haar in O(m); negating the last column where det Q = -1 maps it to SO(m).
    """
    m, n = _check_count(m, 2, "m"), _check_count(n, 0, "sample size n")
    q = _positive_qr_q(rng.standard_normal((n, m, m)))
    flip = np.linalg.det(q) < 0
    q[flip, :, -1] = -q[flip, :, -1]
    return q


def _mean_stderr(vals, weights=None):
    """Monte-Carlo mean and standard error of ``vals`` along axis 0, under weights u
    (ones by default): sum u v / sum u and sqrt(sum u^2 |v - mean|^2 / sum u / sum u).
    A 1-d ``vals`` gives a Python (complex, float); a (n, k) one, arrays of k.
    """
    vals = np.asarray(vals)
    u = np.ones(len(vals)) if weights is None else np.asarray(weights, dtype=float)
    u = u.reshape(-1, *(1,) * (vals.ndim - 1))
    total = u.sum()
    mean = (u * vals).sum(axis=0) / total
    dev = vals - mean
    se = np.sqrt((u * u * (dev.real**2 + dev.imag**2)).sum(axis=0) / total / total)
    return (complex(mean), float(se)) if vals.ndim == 1 else (mean, se)


# ---------------------------------------------------------------------------
# Spectra


def _p(a: np.ndarray) -> np.ndarray:
    """The map p of a Hermitian matrix or stack: eigvalsh's eigenvalues reversed, centred."""
    w = np.linalg.eigvalsh(a)[..., ::-1]
    return w - w.mean(axis=-1, keepdims=True)


def _q(b: np.ndarray) -> np.ndarray:
    """The map q of a matrix or stack: logs of svd's (descending) singular values, centred."""
    w = np.log(np.linalg.svd(b, compute_uv=False))
    return w - w.mean(axis=-1, keepdims=True)


def hermitian_spectrum(a) -> np.ndarray:
    """The map p, `_p`, of a traceless Hermitian matrix taken by `_check_matrix`.

    LAPACK's eigvalsh is backward stable, so each eigenvalue is right to a
    small multiple of eps * ||a||_2 in absolute terms.
    """
    a = _check_matrix(a)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > _HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if abs(np.trace(a)) > _TRACE_TOL * scale:
        raise ValueError("matrix trace exceeds the 1e-10 tolerance")
    return _p(a)


def log_singular_spectrum(b) -> np.ndarray:
    """The map q, `_q`, of a unimodular matrix taken by `_check_matrix`.

    LAPACK's singular values are right to a small multiple of eps * sigma_1, so
    log sigma_i is right to about eps * sigma_1 / sigma_i, and centering passes
    the worst of these, eps * e^{q_1 - q_d}, to every coordinate (the tests hold
    it to 10 eps e^{q_1 - q_d} against mpmath).  Raises ValueError when det b is
    not 1 and when q_1 - q_d >= log(1e13 / d) / 2, where that error would pass
    about 7e-10 / sqrt(d) (a log spread of 14.4 at d = 3); accumulate long
    products with the walk's ProductAccumulator instead.
    """
    b = _check_matrix(b)
    with np.errstate(all="ignore"):
        det = np.linalg.det(b)
        if abs(det - 1.0) > _DET_TOL * max(1.0, np.abs(b).max() ** b.shape[0]):
            raise ValueError(f"expected a unimodular matrix, got det = {det:.3g}")
        out = _q(b)
    if not out[0] - out[-1] < 0.5 * np.log(1e13 / b.shape[0]):
        raise ValueError("singular-value spread beyond double precision; accumulate long "
                         "products with the QR accumulator instead")
    return out


# ---------------------------------------------------------------------------
# Orbit and biinvariant samplers


def _biinvariant_batch(xs, rng) -> np.ndarray:
    """U diag(e^x) V for each row x of ``xs``, shape (n, d, d).

    U and V are Haar in U(d), the U stack drawn first.  A central phase
    cannot change a singular value, so under q these steps have the law of
    the SU(d)-biinvariant ones.
    """
    n, d = xs.shape
    u = haar_unitary_batch(d, n, rng)
    v = haar_unitary_batch(d, n, rng)
    return (u * np.exp(xs)[:, None, :]) @ v


def sample_biinvariant(x, rng) -> np.ndarray:
    """One SL(d,C) element Z = U diag(e^x) V, SU(d)-biinvariant in law.

    One row of `_biinvariant_batch`, times the scalar e^{-i arg(det Z)/d} that
    makes det Z = 1; the scalar is central, so the law is that of U, V Haar
    in SU(d), and log_singular_spectrum(Z) = x.
    """
    x = _check_real(x, 1, "chamber point")
    if abs(x.sum()) > 1e-9:
        raise ValueError("chamber point must have zero coordinate sum")
    z = _biinvariant_batch(x[None], rng)[0]
    return z * np.exp(-1j * np.angle(np.linalg.det(z)) / x.shape[0])


def orbit_maps(rs: RootSystem, n: int, rng) -> np.ndarray:
    """n Haar orbit maps M, shape (n, dim, dim): k.x has chamber coordinates M @ x.

    For A, M = |U|^2 with U Haar in U(d): the diagonal of U diag(x) U*, blind
    to the SU(d) phase correction.  For B, C and D, M[j, k] is the 2x2 minor
    det Q[{2j, 2j+1}, {2k, 2k+1}] of Q Haar in SO(m), which is the block
    coordinate (Q iota(x) Q^T)[2j, 2j+1]; C draws B's SO(2n + 1).
    """
    n = _check_count(n, 0, "sample size n")
    if rs.family == "A":
        return np.abs(haar_unitary_batch(rs.ambient_dim, n, rng)) ** 2
    k = 2 * rs.rank
    q = haar_orthogonal_batch(k if rs.family == "D" else k + 1, n, rng)[:, :k, :k]
    return q[:, ::2, ::2] * q[:, 1::2, 1::2] - q[:, ::2, 1::2] * q[:, 1::2, ::2]


def orbit_diagonal_batch(rs: RootSystem, x, n: int, rng) -> np.ndarray:
    """Chamber coordinates of n Haar orbit samples, shape (n, dim): `orbit_maps` @ x.

    That is the diagonal |U|^2 x of U diag(x) U* for A, and for B, C and D the
    block coordinates (Q iota(x) Q^T)[2j, 2j+1], read as 2x2 minors of Q.
    """
    x = _check_vec(rs, x, name="x")
    return orbit_maps(rs, n, rng) @ x
