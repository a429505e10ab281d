import mpmath
import numpy as np
import pytest
import scipy.linalg

from chamberwalk.kernels import (
    _positive_qr_q,
    block_embed,
    haar_orthogonal_batch,
    haar_unitary_batch,
    hermitian_spectrum,
    log_singular_spectrum,
    orbit_diagonal_batch,
    sample_biinvariant,
)
from chamberwalk.roots import build_root_system, chamber_project, in_chamber
from chamberwalk.walk import substream


def test_haar_unitary_is_unitary():
    rng = substream(0, 0)
    for d in (2, 3, 5):
        u = haar_unitary_batch(d, 1, rng)[0]
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_haar_special_unitary_determinant():
    rng = substream(0, 1)
    u = haar_unitary_batch(3, 50, rng, special=True)
    dets = np.linalg.det(u)
    assert np.allclose(dets, 1.0, atol=1e-10)


def test_haar_unitary_moment():
    # E|u_11|^2 = 1/d for Haar U(d)
    rng = substream(0, 2)
    d, n = 3, 200_000
    u = haar_unitary_batch(d, n, rng)
    m = np.mean(np.abs(u[:, 0, 0]) ** 2)
    assert abs(m - 1.0 / d) < 5.0 / np.sqrt(n)


def test_haar_orthogonal_is_special_orthogonal():
    rng = substream(0, 3)
    q = haar_orthogonal_batch(4, 50, rng)
    assert np.allclose(q @ np.transpose(q, (0, 2, 1)), np.eye(4), atol=1e-12)
    assert np.allclose(np.linalg.det(q), 1.0)
    q1 = haar_orthogonal_batch(5, 1, rng)[0]
    assert np.isclose(np.linalg.det(q1), 1.0)


def test_hermitian_spectrum_handles_degenerate_and_zero():
    assert np.array_equal(hermitian_spectrum(np.zeros((3, 3))), np.zeros(3))
    assert np.allclose(hermitian_spectrum(np.diag([2.0, -4.0, 2.0])), [2.0, 2.0, -4.0])


def test_hermitian_spectrum_validation():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        hermitian_spectrum(np.eye(2))  # nonzero trace


def test_hermitian_spectrum_is_descending_centered():
    rng = substream(0, 5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (z + z.conj().T) / 2.0
    a -= np.trace(a).real / 4.0 * np.eye(4)
    s = hermitian_spectrum(a)
    assert np.all(np.diff(s) <= 0)
    assert abs(s.sum()) < 1e-12
    assert np.allclose(s, np.sort(np.linalg.eigvalsh(a))[::-1] - np.mean(np.linalg.eigvalsh(a)), atol=1e-10)


def test_log_singular_spectrum_against_lapack():
    rng = substream(0, 6)
    for _ in range(50):
        x = np.array([0.8, -0.1, -0.7])
        b = sample_biinvariant(x, rng)
        q = log_singular_spectrum(b)
        # independent of svd: sigma_i^2 are the eigenvalues of b b*
        ref = 0.5 * np.log(np.linalg.eigvalsh(b @ b.conj().T))[::-1]
        ref -= ref.mean()
        assert np.allclose(q, ref, atol=1e-10)
        assert np.all(np.diff(q) <= 0)


def test_sample_biinvariant_singular_values():
    # q(U e^x V) = x exactly (up to roundoff)
    rng = substream(0, 7)
    x = np.array([1.2, 0.3, -1.5])
    for _ in range(10):
        z = sample_biinvariant(x, rng)
        assert np.allclose(log_singular_spectrum(z), x, atol=1e-12)
        assert np.isclose(abs(np.linalg.det(z)), 1.0)  # SL(d, C)


def test_block_embed_antisymmetric():
    for fam, rank in [("B", 2), ("D", 4)]:
        rs = build_root_system(fam, rank)
        x = np.arange(rank, 0, -1, dtype=float)
        a = block_embed(rs, x)
        m = 2 * rank + 1 if fam == "B" else 2 * rank
        assert a.shape == (m, m)
        assert np.allclose(a + a.T, 0.0)


def _sample_orbit(rs, x, rng):
    # one Haar-random element of the compact-group orbit through x:
    # U diag(x) U* for A, Q iota(x) Q^T with Q Haar in SO(m) for B/D
    if rs.family == "A":
        u = haar_unitary_batch(x.shape[0], 1, rng, special=True)[0]
        return (u * x[None, :]) @ u.conj().T
    q = haar_orthogonal_batch(2 * rs.rank + (1 if rs.family == "B" else 0), 1, rng)[0]
    return q @ block_embed(rs, x) @ q.T


def _orbit_chamber(rs, a):
    # the chamber point of an orbit element: p for A; for B/D the paired
    # singular values, and for D the Pfaffian sign on the last coordinate
    if rs.family == "A":
        return hermitian_spectrum(a)
    vals = np.linalg.svd(a, compute_uv=False)[::2][: rs.rank].copy()
    if rs.family == "D":
        t, z = scipy.linalg.schur(a.real, output="real")
        blocks = t[2 * np.arange(rs.rank), 2 * np.arange(rs.rank) + 1]
        if np.sign(np.linalg.det(z)) * np.prod(np.sign(blocks)) < 0:
            vals[-1] = -vals[-1]
    return vals


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("D", 4)])
def test_orbit_chamber_recovers_projection(family, rank):
    rs = build_root_system(family, rank)
    rng = substream(0, 8)
    for _ in range(10):
        v = rng.standard_normal(rs.ambient_dim)
        if family == "A":
            v -= v.mean()
        x = chamber_project(rs, v)
        rec = _orbit_chamber(rs, _sample_orbit(rs, x, rng))
        assert np.allclose(rec, x, atol=1e-8)


def test_orbit_rejected_for_family_c():
    rs = build_root_system("C", 3)
    with pytest.raises(ValueError):
        orbit_diagonal_batch(rs, np.array([3.0, 2.0, 1.0]), 10, substream(0, 9))


def test_orbit_diagonal_batch_a_family():
    rs = build_root_system("A", 2)
    x = np.array([1.0, 0.0, -1.0])
    rng = substream(0, 10)
    v = orbit_diagonal_batch(rs, x, 50_000, rng)
    assert v.shape == (50_000, 3)
    # diagonal entries of U x U* sum to tr(x) = 0 and average to 0 by symmetry
    assert np.allclose(v.sum(axis=1), 0.0, atol=1e-12)
    assert np.all(np.abs(v.mean(axis=0)) < 0.02)
    # each diagonal entry lies in [min x, max x]
    assert v.max() <= x.max() + 1e-12 and v.min() >= x.min() - 1e-12


def test_d_family_orbit_sign_recovery():
    # the D-family chamber has a sign-carrying last coordinate; the block
    # embedding must carry it as the Pfaffian sign, not just |x_n|
    rs = build_root_system("D", 4)
    rng = substream(0, 11)
    x = np.array([4.0, 3.0, 2.0, -1.0])
    assert in_chamber(rs, x)
    for _ in range(5):
        rec = _orbit_chamber(rs, _sample_orbit(rs, x, rng))
        assert np.allclose(rec, x, atol=1e-8)


def test_log_singular_spectrum_conditioning_guard():
    # a singular-value spread beyond double precision, graded or dense, and
    # a non-finite matrix must raise rather than return garbage
    dense = sample_biinvariant(np.array([20.0, 0.0, -20.0]), substream(0, 12))
    nan = np.full((3, 3), np.nan, dtype=complex)
    for b in (np.diag([1e200, 1.0, 1e-200]).astype(complex), dense, nan):
        with pytest.raises(ValueError):
            log_singular_spectrum(b)


@pytest.mark.parametrize("spread", [2.0, 8.0, 14.0])
def test_log_singular_spectrum_against_mpmath(spread):
    # LAPACK's singular values are right to about eps * sigma_1, so after
    # centering every coordinate of q is right to about eps * e^{spread}
    x = np.array([spread / 2, 0.0, -spread / 2])
    for seed in range(3):
        b = sample_biinvariant(x, substream(seed, 13))
        with mpmath.workdps(80):
            logs = [mpmath.log(v) for v in
                    mpmath.svd_c(mpmath.matrix(b.tolist()), compute_uv=False)]
            exact = np.array([float(v - mpmath.fsum(logs) / 3) for v in logs])
        err = np.abs(log_singular_spectrum(b) - exact).max()
        assert err <= 10 * np.finfo(float).eps * np.exp(spread)


def _lapack_positive_q(z):
    # LAPACK's Householder Q with the R-diagonal phases moved into Q
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _ginibre(rng, n, d):
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


@pytest.mark.parametrize("d", range(2, 9))
def test_positive_qr_q_matches_lapack(d):
    z = _ginibre(substream(6, d), 2000, d)
    ref = _lapack_positive_q(z)
    q = _positive_qr_q(z.copy())
    assert np.abs(q - ref).max() < 1e-12


def test_positive_qr_q_near_singular_columns():
    # column 2 = column 1 + 1e-9 noise: r_22 is about 1e-9, so the second
    # column of Q moves by about eps / r_22 ~ 1e-7 under rounding in any QR
    # algorithm (LAPACK on z and on z(1 + eps) differ that much too).  Q
    # must still be unitary, z = QR with R upper triangular and positive on
    # the diagonal, and Q within the conditioning bound of LAPACK's.
    rng = substream(6, 100)
    for d in (2, 3, 4, 8):
        z = _ginibre(rng, 1, d)
        z[0, :, 1] = z[0, :, 0] + 1e-9 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        q = _positive_qr_q(z.copy())[0]
        scale = np.linalg.norm(z[0])
        assert np.abs(q.conj().T @ q - np.eye(d)).max() < 1e-14
        r = q.conj().T @ z[0]
        assert np.abs(np.tril(r, -1)).max() < 1e-14 * scale
        diag = np.diagonal(r)
        assert np.all(np.abs(diag.imag) < 1e-14 * scale) and np.all(diag.real > 0)
        ref = _lapack_positive_q(z)[0]
        assert np.abs(q[:, 0] - ref[:, 0]).max() < 1e-12
        assert np.abs(q - ref).max() < 100 * np.finfo(float).eps * scale / diag[1].real


@pytest.mark.parametrize("d", (2, 3, 4))
def test_haar_unitary_batch_unitarity(d):
    u = haar_unitary_batch(d, 100_000, substream(6, 200 + d))
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    assert np.abs(gram - np.eye(d)).max() < 1e-14


def test_haar_special_unitary_determinant_every_d():
    for d in range(2, 9):
        u = haar_unitary_batch(d, 1000, substream(6, 300 + d), special=True)
        assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-12
