import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from chamberwalk import kernels
from chamberwalk.kernels import (
    _biinvariant_batch,
    _mean_stderr,
    _positive_qr_q,
    haar_orthogonal_batch,
    haar_unitary_batch,
    hermitian_spectrum,
    log_singular_spectrum,
    orbit_diagonal_batch,
    orbit_maps,
    sample_biinvariant,
)
from chamberwalk.convolve import conv_hermitian_cloud
from chamberwalk.roots import RootSystemError, build_root_system, chamber_project, in_chamber
from chamberwalk.walk import substream, tilted_orbit_batch


def test_haar_unitary_is_unitary():
    rng = substream(0, 0)
    for d in (2, 3, 5):
        u = haar_unitary_batch(d, 1, rng)[0]
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_haar_unitary_moment():
    # E|u_11|^2 = 1/d for Haar U(d)
    rng = substream(0, 2)
    d, n = 3, 200_000
    u = haar_unitary_batch(d, n, rng)
    m = np.mean(np.abs(u[:, 0, 0]) ** 2)
    assert abs(m - 1.0 / d) < 5.0 / np.sqrt(n)


def test_haar_orthogonal_is_special_orthogonal():
    rng = substream(0, 3)
    for m in range(2, 10):
        q = haar_orthogonal_batch(m, 500, rng)
        assert q.dtype == float and q.shape == (500, m, m)
        assert np.abs(q @ np.transpose(q, (0, 2, 1)) - np.eye(m)).max() < 1e-14
        assert np.abs(np.linalg.det(q) - 1.0).max() < 1e-12


def test_hermitian_spectrum_handles_degenerate_and_zero():
    assert np.array_equal(hermitian_spectrum(np.zeros((3, 3))), np.zeros(3))
    assert np.allclose(hermitian_spectrum(np.diag([2.0, -4.0, 2.0])), [2.0, 2.0, -4.0])


def test_hermitian_spectrum_validation():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        hermitian_spectrum(np.eye(2))  # nonzero trace
    # NaN makes every tolerance comparison false, so it must be refused by name
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, -np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_spectrum(bad)


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


@pytest.mark.parametrize("d", range(2, 7))
def test_sample_biinvariant_is_unimodular(d):
    # the determinant correction on the product gives det Z = 1 and leaves
    # the singular values, so q(Z) = x
    rng = substream(6, 300 + d)
    x = np.linspace(1.0, -1.0, d)
    for _ in range(200):
        z = sample_biinvariant(x, rng)
        assert abs(np.linalg.det(z) - 1.0) <= 1e-12
        assert np.abs(log_singular_spectrum(z) - x).max() <= 1e-12


def test_biinvariant_batch_stream_layout():
    # the U stack, then the V stack, from the caller's generator and nothing else
    xs = np.array([[0.5, 0.0, -0.5], [1.0, -0.2, -0.8], [0.0, 0.0, 0.0]])
    rng = substream(6, 400)
    z = _biinvariant_batch(xs, rng)
    ref_rng = substream(6, 400)
    u = haar_unitary_batch(3, 3, ref_rng)
    v = haar_unitary_batch(3, 3, ref_rng)
    ref = np.stack([u[i] @ np.diag(np.exp(xs[i])) @ v[i] for i in range(3)])
    assert np.abs(z - ref).max() <= 1e-14
    assert rng.random() == ref_rng.random()


def test_sample_biinvariant_rejects_non_finite():
    for x in ([np.nan, 0.0], [np.inf, -np.inf], [1.0, np.nan, -1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            sample_biinvariant(x, substream(6, 401))


def test_sample_biinvariant_singular_values():
    # q(U e^x V) = x exactly (up to roundoff)
    rng = substream(0, 7)
    x = np.array([1.2, 0.3, -1.5])
    for _ in range(10):
        z = sample_biinvariant(x, rng)
        assert np.allclose(log_singular_spectrum(z), x, atol=1e-12)
        assert np.isclose(abs(np.linalg.det(z)), 1.0)  # SL(d, C)


def _block_embed(rs, x):
    # iota(x) = blockdiag([[0, x_j], [-x_j, 0]], ...), with a zero padding row for B
    m = 2 * rs.rank + (1 if rs.family == "B" else 0)
    a = np.zeros((m, m))
    for j, xj in enumerate(x):
        a[2 * j, 2 * j + 1], a[2 * j + 1, 2 * j] = xj, -xj
    return a


def _sample_orbit(rs, x, rng):
    # one Haar-random element of the compact-group orbit through x:
    # U diag(x) U* for A (a phase on U cancels, so U(d) serves for SU(d)),
    # Q iota(x) Q^T with Q Haar in SO(m) for B/D
    if rs.family == "A":
        u = haar_unitary_batch(x.shape[0], 1, rng)[0]
        return (u * x[None, :]) @ u.conj().T
    q = haar_orthogonal_batch(2 * rs.rank + (1 if rs.family == "B" else 0), 1, rng)[0]
    return q @ _block_embed(rs, x) @ q.T


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


@pytest.mark.parametrize("family, x", [
    ("B", [1.2, 0.7, 0.3]),
    ("B", [1.1, 0.8, 0.5, 0.3]),
    ("D", [1.1, 0.8, 0.5, -0.3]),
    ("D", [1.3, 0.9, 0.6, 0.4, 0.2]),
])
def test_orbit_maps_read_the_conjugated_block_coordinates(family, x):
    # M @ x is (Q iota(x) Q^T)[2j, 2j+1] on the same Haar Q, the D point with a
    # negative last coordinate included
    rs = build_root_system(family, len(x))
    m = 2 * rs.rank + (1 if family == "B" else 0)
    x = np.array(x)
    q = haar_orthogonal_batch(m, 200, substream(0, 9))
    a = q @ _block_embed(rs, x) @ np.swapaxes(q, 1, 2)
    idx = 2 * np.arange(rs.rank)
    expected = a[:, idx, idx + 1]
    got = orbit_maps(rs, 200, substream(0, 9)) @ x
    assert np.abs(got - expected).max() <= 1e-14 * np.linalg.norm(x)
    assert np.array_equal(orbit_diagonal_batch(rs, x, 200, substream(0, 9)), got)


def test_orbit_maps_of_a_are_the_squared_unitary_moduli():
    for d in (2, 3, 4):
        rs = build_root_system("A", d - 1)
        u = haar_unitary_batch(d, 500, substream(1, d))
        assert np.array_equal(orbit_maps(rs, 500, substream(1, d)), np.abs(u) ** 2)


def test_family_c_orbit_is_the_b_orbit():
    # psi_B = psi_C, so C draws B's SO(2n + 1) orbit of the same rank
    for rank in (3, 4):
        rb, rc = build_root_system("B", rank), build_root_system("C", rank)
        assert np.array_equal(orbit_maps(rc, 50, substream(0, 9)),
                              orbit_maps(rb, 50, substream(0, 9)))


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


@pytest.mark.parametrize("d", range(2, 10))
def test_positive_qr_q_matches_lapack(d):
    z = _ginibre(substream(6, d), 2000, d)
    ref = _lapack_positive_q(z)
    q = _positive_qr_q(z.copy())
    assert np.abs(q - ref).max() < 1e-12
    # a real stack, as haar_orthogonal_batch draws it, gives a real Q
    z = substream(6, 50 + d).standard_normal((2000, d, d))
    q = _positive_qr_q(z.copy())
    assert q.dtype == float
    assert np.abs(q - _lapack_positive_q(z)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_positive_qr_q_column_ranges_keep_the_bits(d):
    # the leading columns of every row, then the rest for a subset of rows,
    # give the bits of one full pass on those rows
    z = _ginibre(substream(6, 20 + d), 3000, d)
    full = _positive_qr_q(z.copy())
    for split in range(d + 1):
        part = _positive_qr_q(z.copy(), stop=split)
        rows = np.flatnonzero(substream(6, 30 + split).random(len(z)) < 0.3)
        assert np.array_equal(part[:, :, :split], full[:, :, :split])
        assert np.array_equal(_positive_qr_q(part[rows], start=split), full[rows])
        assert np.array_equal(_positive_qr_q(part[rows[:1]], start=split), full[rows[:1]])


def test_ginibre_blocks_continue_one_bulk_draw():
    # 900,027 normals per part span 14 blocks, the last one partial
    d, n = 3, 100_003
    assert d * d * n > 13 * kernels._NORMAL_BLOCK
    rng, ref_rng = substream(4, 0), substream(4, 0)
    z = kernels._ginibre(d, n, rng)
    ref = np.empty((n, d, d), dtype=complex)
    ref.real = ref_rng.standard_normal((n, d, d))
    ref.imag = ref_rng.standard_normal((n, d, d))
    assert z.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()


def test_ginibre_peak_memory_is_its_output():
    tracemalloc.start()
    try:
        z = kernels._ginibre(3, 100_003, substream(4, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * z.nbytes


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



_A1 = build_root_system("A", 1)


@pytest.mark.parametrize("sample, empty_shape", [
    (lambda n, rng: haar_unitary_batch(2, n, rng), (0, 2, 2)),
    (lambda n, rng: haar_orthogonal_batch(3, n, rng), (0, 3, 3)),
    (lambda n, rng: orbit_diagonal_batch(_A1, [1.0, -1.0], n, rng), (0, 2)),
    (lambda n, rng: tilted_orbit_batch(2, [1.0, -1.0], n, rng)[0], (0, 2, 2)),
])
def test_sample_sizes_go_through_the_count_rule(sample, empty_shape):
    for n, named in ((2.5, "sample size n must be an integer, got 2.5"),
                     (True, "sample size n must be an integer, got True"),
                     (-1, "sample size n must be at least 0, got -1")):
        with pytest.raises(ValueError, match=re.escape(named)):
            sample(n, substream(0, 20))
    assert sample(0, substream(0, 20)).shape == empty_shape
    assert np.array_equal(sample(3.0, substream(0, 21)), sample(3, substream(0, 21)))


@pytest.mark.parametrize("sample", [
    lambda d, rng: tilted_orbit_batch(d, [1.0, -1.0], 4, rng)[0],
    lambda d, rng: conv_hermitian_cloud(d, [1.0, -1.0], [0.5, -0.5], 4, rng),
])
def test_the_dimension_goes_through_the_rank_rule(sample):
    with pytest.raises(RootSystemError, match=re.escape("rank must be an integer, got 1.5")):
        sample(2.5, substream(0, 22))
    assert np.array_equal(sample(2.0, substream(0, 23)), sample(2, substream(0, 23)))


def _two_pass(vals, u):
    # the weighted mean, then the weighted squared deviations from it, column by column
    vals, u = np.atleast_2d(vals.T).T, np.asarray(u, dtype=float)
    mean = np.array([sum(ui * v for ui, v in zip(u, col)) / sum(u) for col in vals.T])
    var = np.array([sum(ui**2 * abs(v - m) ** 2 for ui, v in zip(u, col))
                    for col, m in zip(vals.T, mean)])
    return mean, np.sqrt(var) / sum(u)


@pytest.mark.parametrize("kind", ["complex-1d", "real-2d", "weighted-complex-1d",
                                  "weighted-real-2d"])
def test_mean_stderr_matches_the_two_pass_formula(kind):
    rng = substream(5, 0)
    n = 500
    vals = (rng.standard_normal((n, 3)) if "2d" in kind
            else rng.standard_normal(n) + 1j * rng.standard_normal(n))
    u = rng.random(n) if "weighted" in kind else None
    mean, se = _mean_stderr(vals, u)
    ref_mean, ref_se = _two_pass(vals, np.ones(n) if u is None else u)
    if "1d" in kind:
        # a 1-d sample gives plain Python numbers, which JSON takes as they are
        assert type(mean) is complex and type(se) is float
        ref_mean, ref_se = ref_mean[0], ref_se[0]
    else:
        assert mean.shape == se.shape == (3,)
    assert np.allclose(mean, ref_mean, rtol=1e-13, atol=0.0)
    assert np.allclose(se, ref_se, rtol=1e-12, atol=0.0)


def test_mean_stderr_is_exact_on_a_constant_sample():
    # dyadic values and weights make every sum exact, so the mean is the
    # constant and every deviation 0
    mean, se = _mean_stderr(np.full(1000, 0.375 - 0.75j))
    assert mean == 0.375 - 0.75j and se == 0.0
    mean, se = _mean_stderr(np.full((4, 2), 1.5), np.array([0.25, 0.5, 1.0, 2.0]))
    assert np.array_equal(mean, [1.5, 1.5]) and np.array_equal(se, [0.0, 0.0])
    # otherwise the mean is rounded, and the standard error stays at rounding level
    _, se = _mean_stderr(np.full(1000, 0.3 - 0.7j))
    assert se <= np.finfo(float).eps * abs(0.3 - 0.7j)
