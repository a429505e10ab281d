import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from chamberwalk import convolve, kernels
from chamberwalk.convolve import (
    CheckResult,
    EmpiricalMeasure,
    conv_group_cloud,
    conv_hermitian_cloud,
    deformation_check,
    semicharacter_multiplicativity,
    spherical_transform_empirical,
    support_equivalence,
    transform_homomorphism,
)
from chamberwalk.roots import build_root_system, in_chamber
from chamberwalk.special import semicharacter, spherical_phi, spherical_psi
from chamberwalk.walk import substream


def grid_support_d2(x1, y1, n_grid=20_001):
    """Brute-force oracle for d=2: sweep the one-parameter family U(theta).

    For diag(x) + U diag(y) U*, the top eigenvalue as a function of the
    mixing angle covers the full support; returns (s_min, s_max) of the
    centered top coordinate.
    """
    c = np.cos(np.linspace(0.0, math.pi / 2.0, n_grid)) ** 2
    # eigenvalues of [[x1 + c y1 + (1-c)(-y1), off], ...]; use the exact
    # 2x2 formula: s = sqrt(x1^2 + y1^2 + 2 x1 y1 (2c - 1))
    s = np.sqrt(x1**2 + y1**2 + 2.0 * x1 * y1 * (2.0 * c - 1.0))
    return float(s.min()), float(s.max())


def test_identity_atom_hermitian():
    rng = substream(1, 0)
    x = np.array([1.0, 0.0, -1.0])
    for _ in range(20):
        out = conv_hermitian_cloud(3, x, np.zeros(3), 1, rng)[0]
        assert np.allclose(out, x, atol=1e-9)
        out = conv_hermitian_cloud(3, np.zeros(3), x, 1, rng)[0]
        assert np.allclose(out, x, atol=1e-9)


def test_identity_atom_group():
    rng = substream(1, 1)
    x = np.array([1.0, 0.0, -1.0])
    for _ in range(20):
        out = conv_group_cloud(3, x, np.zeros(3), 1, rng)[0]
        assert np.allclose(out, x, atol=1e-9)
        out = conv_group_cloud(3, np.zeros(3), x, 1, rng)[0]
        assert np.allclose(out, x, atol=1e-9)


def test_clouds_lie_in_chamber_with_zero_sum():
    rs = build_root_system("A", 2)
    rng = substream(1, 2)
    for cloud_fn in (conv_hermitian_cloud, conv_group_cloud):
        cloud = cloud_fn(3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], 500, rng)
        assert cloud.shape == (500, 3)
        assert np.all(np.abs(cloud.sum(axis=1)) < 1e-9)
        for row in cloud[:50]:
            assert in_chamber(rs, row, tol=1e-9)


def test_d2_support_matches_grid_oracle():
    s_lo, s_hi = grid_support_d2(1.0, 1.0)
    assert s_lo < 1e-4 and abs(s_hi - 2.0) < 1e-8  # exact support [0, 2]
    rng = substream(1, 3)
    for cloud_fn in (conv_hermitian_cloud, conv_group_cloud):
        s = cloud_fn(2, [1.0, -1.0], [1.0, -1.0], 20_000, rng)[:, 0]
        assert s.min() >= -1e-12 and s.max() <= 2.0 + 1e-9
        assert s.max() > 2.0 - 0.01 and s.min() < 0.05


def test_d2_weyl_inequality():
    # max coordinate <= x1 + y1 on every sample
    rng = substream(1, 4)
    x, y = [1.5, -1.5], [0.5, -0.5]
    for cloud_fn in (conv_hermitian_cloud,):
        cloud = cloud_fn(2, x, y, 5_000, rng)
        assert cloud[:, 0].max() <= 2.0 + 1e-9
        # and the grid oracle shows both edges are attained
        lo, hi = grid_support_d2(1.5, 0.5)
        assert abs(hi - 2.0) < 1e-8 and abs(lo - 1.0) < 1e-8
        assert cloud[:, 0].min() >= lo - 1e-9


@pytest.mark.parametrize("i, a, b", [(0, 1.0, 0.5), (1, 0.7, 0.7), (2, 1.5, 0.3)])
def test_a1_clouds_follow_exact_laws(i, a, b):
    """Exact A_1 laws of s, the first coordinate, on [|a - b|, a + b].

    For x = (a, -a) and y = (b, -b), s has CDF (s^2 - (a-b)^2) / (4ab) on
    the Hermitian side and (cosh 2s - cosh 2(a-b)) / (2 sinh 2a sinh 2b) on
    the group side: the Hermitian law reweighted by the semicharacter.  The
    group samples must also reject the Hermitian law, which they follow
    only without that weight.
    """
    x, y = np.array([a, -a]), np.array([b, -b])
    herm = conv_hermitian_cloud(2, x, y, 100_000, substream(0, 2 * i))[:, 0]
    group = conv_group_cloud(2, x, y, 100_000, substream(0, 2 * i + 1))[:, 0]

    def herm_cdf(s):
        return np.clip((s**2 - (a - b) ** 2) / (4.0 * a * b), 0.0, 1.0)

    def group_cdf(s):
        num = np.cosh(2.0 * s) - np.cosh(2.0 * (a - b))
        return np.clip(num / (2.0 * np.sinh(2.0 * a) * np.sinh(2.0 * b)), 0.0, 1.0)

    assert kstest(herm, herm_cdf).pvalue > 0.01
    assert kstest(group, group_cdf).pvalue > 0.01
    assert kstest(group, herm_cdf).pvalue < 1e-6


def test_rejects_non_chamber_inputs():
    rng = substream(1, 5)
    with pytest.raises(ValueError):
        conv_hermitian_cloud(2, [-1.0, 1.0], [1.0, -1.0], 10, rng)
    with pytest.raises(ValueError):
        conv_group_cloud(3, [1.0, 0.0, -1.0], [0.0, 1.0, -1.0], 10, rng)


def test_empirical_measure_uniform_and_csv():
    atoms = np.array([[1.0, -1.0], [0.5, -0.5]])
    m = EmpiricalMeasure.uniform(atoms)
    assert np.allclose(m.weights.sum(), 1.0)
    csv = m.to_csv()
    assert csv.splitlines()[0] == "x1,x2,weight"
    assert len(csv.splitlines()) == 3


def _per_row_csv(measure):
    """Reference writer: one repr per field, one write per row."""
    buf = io.StringIO()
    d = measure.atoms.shape[1]
    buf.write(",".join([f"x{i+1}" for i in range(d)] + ["weight"]) + "\n")
    for a, w in zip(measure.atoms, measure.weights):
        buf.write(",".join(map(repr, a.tolist() + [w.item()])) + "\n")
    return buf.getvalue()


def _csv_cases():
    rng = np.random.default_rng(20)
    block = convolve._CSV_BLOCK
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        atoms = rng.standard_normal((n, 3))
        odd = [-0.0, 0.0, 1e-5, 1e16, 5e-324, -5e-324]
        atoms.flat[: min(atoms.size, len(odd))] = odd[: atoms.size]
        if n:
            yield f"uniform-{n}", EmpiricalMeasure.uniform(atoms)
            yield f"dirichlet-{n}", EmpiricalMeasure(atoms, rng.dirichlet(np.ones(n)))
        if n >= 4:
            w = np.zeros(n)
            w[:4] = [-0.0, 5e-324, 1e-5, 1.0 - 1e-5]
            yield f"zero-{n}", EmpiricalMeasure(atoms, w)


def _first_difference(got, ref):
    """None, or the first pair of differing lines (cheap to report on failure)."""
    if got == ref:
        return None
    got, ref = got.splitlines(keepends=True), ref.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b), min(len(got), len(ref)))
    return i, got[i : i + 1], ref[i : i + 1]


def test_csv_writers_match_per_row_writer(tmp_path):
    for name, m in _csv_cases():
        ref = _per_row_csv(m)
        assert _first_difference(m.to_csv(), ref) is None, name
        path = tmp_path / "m.csv"
        with path.open("w") as f:
            m.write_csv(f)
        assert _first_difference(path.read_bytes().decode(), ref) is None, name


def test_write_csv_peak_memory(tmp_path):
    m = EmpiricalMeasure.uniform(np.random.default_rng(21).standard_normal((100_000, 3)))
    with (tmp_path / "m.csv").open("w") as f:
        tracemalloc.start()
        try:
            m.write_csv(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("atoms, weights", [
    ([[0.0, np.nan], [1.0, -1.0]], [0.5, 0.5]),
    ([[0.0, np.inf], [1.0, -1.0]], [0.5, 0.5]),
    ([[0.0, 0.0], [1.0, -1.0]], [np.nan, np.nan]),
    ([[0.0, 0.0], [1.0, -1.0]], [np.inf, 0.5]),
])
def test_empirical_measure_rejects_non_finite(atoms, weights):
    with pytest.raises(ValueError, match="finite"):
        EmpiricalMeasure(np.array(atoms), np.array(weights))


@pytest.mark.parametrize("atoms, weights", [
    (np.zeros(3), np.full(3, 1 / 3)),
    (np.zeros((1, 2, 2)), np.ones(1)),
    (np.zeros((1, 2)), np.ones((1, 1))),
])
def test_empirical_measure_rejects_bad_shapes(atoms, weights):
    with pytest.raises(ValueError, match="shape"):
        EmpiricalMeasure(atoms, weights)


def test_sample_size_below_one_rejected():
    rng = substream(1, 16)
    with pytest.raises(ValueError, match="at least one atom"):
        EmpiricalMeasure.uniform(np.zeros((0, 2)))
    for n in (0, -1):
        for cloud_fn in (conv_hermitian_cloud, conv_group_cloud):
            with pytest.raises(ValueError, match="at least 1"):
                cloud_fn(2, [1.0, -1.0], [0.0, 0.0], n, rng)
        with pytest.raises(ValueError, match="at least 1"):
            deformation_check(2, [1.0, -1.0], [0.5, -0.5], "bump", n, rng)
        with pytest.raises(ValueError, match="at least 1"):
            semicharacter_multiplicativity(2, [1.0, -1.0], [0.5, -0.5], n, rng)


def _su_clouds(d, x, y, n, rng):
    """Both clouds from one SU(d) Haar stack, as the paper states them."""
    u = kernels.haar_unitary_batch(d, n, rng)
    u = u * np.exp(-1j * np.angle(np.linalg.det(u)) / d)[:, None, None]
    herm = np.linalg.eigvalsh(np.diag(x) + (u * y) @ np.conj(np.swapaxes(u, 1, 2)))[:, ::-1]
    logs = np.log(np.linalg.svd(np.exp(x)[:, None] * u * np.exp(y), compute_uv=False))
    return herm - herm.mean(axis=1, keepdims=True), logs - logs.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("d, x, y", [
    (2, [1.0, -1.0], [0.6, -0.6]),
    (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5]),
    (4, [1.5, 0.5, -0.5, -1.5], [0.7, 0.2, -0.1, -0.8]),
])
def test_clouds_equal_su_clouds(d, x, y):
    # a central phase on U changes neither cloud, so the U(d) draws of the
    # samplers give the SU(d) samples of the same substream up to rounding
    x, y = np.array(x), np.array(y)
    su_herm, su_group = _su_clouds(d, x, y, 3_000, substream(1, 17))
    herm = conv_hermitian_cloud(d, x, y, 3_000, substream(1, 17))
    group = conv_group_cloud(d, x, y, 3_000, substream(1, 17))
    assert np.max(np.abs(herm - su_herm)) <= 1e-13
    assert np.max(np.abs(group - su_group)) <= 1e-13


def test_deformation_check_bump():
    rng = substream(1, 6)
    res = deformation_check(2, [0.5, -0.5], [0.5, -0.5], "bump", 40_000, rng)
    assert res.passed
    assert res.stderr_lhs > 0 and res.stderr_rhs > 0


def test_deformation_check_phi():
    rng = substream(1, 7)
    rs = build_root_system("A", 2)
    res = deformation_check(
        3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], ("phi", rs.rho), 40_000, rng
    )
    assert res.passed


def test_deformation_identity_atom_exact():
    rng = substream(1, 8)
    res = deformation_check(2, [1.0, -1.0], [0.0, 0.0], "bump", 2_000, rng)
    # y = 0: both sides are f(x) deterministically
    f_x = math.exp(-2.0)  # exp(-||(1,-1)||^2)
    assert abs(res.lhs - f_x) < 1e-12 and abs(res.rhs - f_x) < 1e-12


def test_semicharacter_multiplicativity_value():
    rng = substream(1, 9)
    res = semicharacter_multiplicativity(2, [1.0, -1.0], [1.0, -1.0], 50_000, rng)
    mean, se, target = res.lhs, res.stderr_lhs, res.rhs
    assert np.isclose(target, math.sinh(2.0) ** 2 / 4.0)
    assert np.isclose(target, 3.2885290)
    assert abs(mean - target) <= 3.0 * se


def test_semicharacter_multiplicativity_identity_atom():
    rng = substream(1, 10)
    rs = build_root_system("A", 1)
    res = semicharacter_multiplicativity(2, [1.0, -1.0], [0.0, 0.0], 500, rng)
    mean, se, target = res.lhs, res.stderr_lhs, res.rhs
    assert np.isclose(mean, semicharacter(rs, [1.0, -1.0]))
    assert se < 1e-12


@pytest.mark.parametrize("n", [10, 1_000, 100_000])
@pytest.mark.parametrize("d, x, y", [
    (2, [1.0, -1.0], [0.0, 0.0]),
    (3, [1.5, 0.5, -2.0], [0.0, 0.0, 0.0]),
    (2, [0.0, 0.0], [1.0, -1.0]),
])
def test_exact_side_checks_pass_at_a_degenerate_point(d, x, y, n):
    """delta_x * delta_0 = delta_x: the cloud is constant and the identity exact, so
    the gap between the sides is rounding and counts as 0."""
    lam = [0.7, -0.7] if d == 2 else [1.2, 0.3, -1.5]
    for res in (semicharacter_multiplicativity(d, x, y, n, substream(n, 0)),
                transform_homomorphism(d, x, y, lam, n, substream(n, 1))):
        assert res.passed and res.z == 0.0, res


def test_check_result_rounding_floor():
    eps = np.finfo(float).eps
    at_floor = CheckResult(4.0, 4.0 + 16 * eps * 4.0, 0.0, 0.0)
    assert at_floor.passed and at_floor.z == 0.0
    above = CheckResult(4.0, 4.0 + 32 * eps * 4.0, 0.0, 0.0)
    assert not above.passed and above.z == math.inf
    # every larger gap keeps gap / (summed standard errors), bit for bit
    res = CheckResult(1.0 + 0.5j, 1.25, 0.1, 0.05)
    assert res.z == abs(res.lhs - res.rhs) / (0.1 + 0.05) and not res.passed


def test_support_equivalence_identity_atom():
    rng = substream(1, 11)
    rep = support_equivalence(2, [1.0, -1.0], [0.0, 0.0], 500, rng)
    assert rep.passed
    assert rep.hausdorff < 1e-9


def test_support_equivalence_requires_n():
    with pytest.raises(ValueError):
        support_equivalence(2, [1.0, -1.0], [1.0, -1.0], 50, substream(1, 12))


def test_support_report_json():
    import json

    rng = substream(1, 13)
    rep = support_equivalence(2, [1.0, -1.0], [0.5, -0.5], 2_000, rng)
    data = json.loads(rep.to_json())
    assert set(data) == {"hausdorff", "self_a", "self_b", "pass"}
    assert data["pass"] == rep.passed


def test_transform_of_point_measures():
    rs = build_root_system("A", 2)
    lam = np.array([0.4, 0.1, -0.5])
    x = np.array([1.0, 0.0, -1.0])
    # delta_0 -> 1 for any lambda
    m0 = EmpiricalMeasure.uniform(np.zeros((1, 3)))
    est, se = spherical_transform_empirical(m0, lam, "psi", rs)
    assert est == 1.0 + 0.0j and se == 0.0
    # delta_x -> conj of the closed form
    mx = EmpiricalMeasure.uniform(x[None, :])
    est, _ = spherical_transform_empirical(mx, lam, "phi", rs)
    assert abs(est - np.conj(spherical_phi(rs, lam, x).value)) < 1e-12


def test_transform_homomorphism_group_side():
    # transform of the sampled delta_x . delta_y at lambda equals
    # phi_lambda(x) phi_lambda(y) within MC error
    rng = substream(1, 14)
    rs = build_root_system("A", 1)
    lam = np.array([0.7, -0.7])
    x = np.array([1.0, -1.0])
    y = np.array([0.5, -0.5])
    cloud = conv_group_cloud(2, x, y, 4_000, rng)
    est, se = spherical_transform_empirical(EmpiricalMeasure.uniform(cloud), lam, "phi", rs)
    target = np.conj(spherical_phi(rs, lam, x).value * spherical_phi(rs, lam, y).value)
    assert abs(est - target) <= 4.0 * se


def test_transform_homomorphism_hermitian_side():
    rng = substream(1, 15)
    rs = build_root_system("A", 1)
    lam = np.array([0.9, -0.9])
    x = np.array([1.0, -1.0])
    y = np.array([0.5, -0.5])
    cloud = conv_hermitian_cloud(2, x, y, 4_000, rng)
    est, se = spherical_transform_empirical(EmpiricalMeasure.uniform(cloud), lam, "psi", rs)
    target = np.conj(spherical_psi(rs, lam, x).value * spherical_psi(rs, lam, y).value)
    assert abs(est - target) <= 4.0 * se


def test_empirical_measure_takes_lists_and_stores_floats():
    m = EmpiricalMeasure([[0.0, 0.0], [1.0, -1.0]], [1, 0])
    assert m.atoms.dtype == m.weights.dtype == np.float64
    text = m.to_csv()
    assert text == "x1,x2,weight\n0.0,0.0,1.0\n1.0,-1.0,0.0\n"
    rows = [[float(t) for t in line.split(",")] for line in text.splitlines()[1:]]
    assert np.array_equal(np.array(rows), np.column_stack([m.atoms, m.weights]))


@pytest.mark.parametrize("atoms, weights, named", [
    ([[0.0, 0.0]], np.array([True]), "weights must be a 1-d array of numbers, real and not bool"),
    ([[0.0, 0.0]], [True], "weights must be a 1-d array of numbers, real and not bool"),
    ([[0.0, 0.0]], [1 + 0j], "weights must be a 1-d array of numbers, real and not bool"),
    ([[0.0, 1j]], [1.0], "atoms must be a 2-d array of numbers, real and not bool"),
    (np.array([[False, True]]), [1.0], "atoms must be a 2-d array of numbers, real and not bool"),
    ([[0.0, "0"]], [1.0], "atoms must be a 2-d array of numbers, real and not bool"),
])
def test_empirical_measure_refuses_non_real_entries(atoms, weights, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        EmpiricalMeasure(atoms, weights)


@pytest.mark.parametrize("atoms", [[[True, False]], [["0.5", "-0.5"]], [[1, True]],
                                   np.array([[0.5, -0.5j]]), [0.5, -0.5]])
def test_uniform_measure_takes_atoms_by_the_same_rule(atoms):
    with pytest.raises(ValueError, match="atoms must be a 2-d array of numbers"):
        EmpiricalMeasure.uniform(atoms)
    m = EmpiricalMeasure.uniform([[1, -1], [0.5, -0.5]])
    assert m.atoms.dtype == np.float64 and m.weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("n", [2.5, True, "10"])
def test_sample_size_must_be_an_integer(n):
    rng = substream(1, 17)
    for cloud_fn in (conv_hermitian_cloud, conv_group_cloud):
        with pytest.raises(ValueError, match="sample size n must be an integer"):
            cloud_fn(2, [1.0, -1.0], [0.5, -0.5], n, rng)
    with pytest.raises(ValueError, match="sample size n must be an integer"):
        support_equivalence(2, [1.0, -1.0], [0.5, -0.5], n, rng)


def test_integral_float_sample_size_draws_as_the_int():
    for cloud_fn in (conv_hermitian_cloud, conv_group_cloud):
        a = cloud_fn(2, [1.0, -1.0], [0.5, -0.5], 50.0, substream(1, 18))
        b = cloud_fn(2, [1.0, -1.0], [0.5, -0.5], 50, substream(1, 18))
        assert np.array_equal(a, b)


def test_measure_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        EmpiricalMeasure(atoms=np.zeros((2, 2)), weights=np.array([1.0, 1.0]))
