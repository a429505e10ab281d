import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberwalk import special
from chamberwalk.kernels import haar_unitary_batch
from chamberwalk.roots import (
    build_root_system,
    chamber_project,
    enumerate_weyl,
    in_chamber,
    min_root_pairing,
)
from chamberwalk.special import (
    log_semicharacter,
    log_semicharacter_rows,
    m1_closed,
    m1_closed_rows,
    m1_expectation,
    m1_mc,
    semicharacter,
    spherical_phi,
    spherical_phi_rows,
    spherical_psi,
    spherical_psi_rows,
)
from chamberwalk.walk import substream


def test_semicharacter_su2_value():
    # sinh(2)/2 for the rank-1 system at (1,-1)
    rs = build_root_system("A", 1)
    assert np.isclose(semicharacter(rs, [1.0, -1.0]), math.sinh(2.0) / 2.0)
    assert np.isclose(semicharacter(rs, [1.0, -1.0]), 1.8134302039235092)


def test_semicharacter_su3_value():
    rs = build_root_system("A", 2)
    expected = math.sinh(1.0) ** 2 * math.sinh(2.0) / 2.0
    assert np.isclose(semicharacter(rs, [1.0, 0.0, -1.0]), expected)


def test_semicharacter_product_formula_all_families():
    rng = np.random.default_rng(1)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        for _ in range(10):
            x = rng.standard_normal(rs.ambient_dim)
            if fam == "A":
                x -= x.mean()
            direct = 1.0
            for alpha in rs.positive_roots:
                t = float(alpha @ x)
                direct *= math.sinh(t) / t if t != 0.0 else 1.0
            assert np.isclose(semicharacter(rs, x), direct, rtol=1e-12)


def test_semicharacter_weyl_invariance():
    rs = build_root_system("B", 2)
    x = np.array([0.7, 0.3])
    val = semicharacter(rs, x)
    for wx in enumerate_weyl(rs).images(x):
        assert np.isclose(semicharacter(rs, wx), val)


def test_semicharacter_at_zero_and_large_argument():
    rs = build_root_system("A", 2)
    assert semicharacter(rs, np.zeros(3)) == 1.0
    # far regime: log-domain evaluation stays finite and tracks <rho, x>
    x = np.array([40.0, 0.0, -40.0])
    log_val = log_semicharacter(rs, x)
    assert np.isfinite(log_val)
    # asymptotically log psi = <rho, x> - sum log(2 <alpha, x>)
    expected = float(rs.rho @ x) - sum(
        math.log(2.0 * float(a @ x)) for a in rs.positive_roots
    )
    assert np.isclose(log_val, expected, atol=1e-10)


def test_weyl_denominator_identity():
    """Alternating rho-exponential sum equals the product of 2 sinh<alpha,x>."""
    rng = np.random.default_rng(2)
    for fam, rank in [("A", 2), ("B", 2), ("D", 4)]:
        rs = build_root_system(fam, rank)
        x = rng.standard_normal(rs.ambient_dim) * 0.5
        if fam == "A":
            x -= x.mean()
        weyl = enumerate_weyl(rs)
        lhs = sum(
            det * math.exp(float(rs.rho @ wx)) for wx, det in zip(weyl.images(x), weyl.dets)
        )
        rhs = 1.0
        for alpha in rs.positive_roots:
            rhs *= 2.0 * math.sinh(float(alpha @ x))
        assert np.isclose(lhs, rhs, rtol=1e-9)


def test_psi_normalization_at_zero():
    for fam, rank in [("A", 1), ("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        dim = rs.ambient_dim
        sv = spherical_psi(rs, np.zeros(dim), np.zeros(dim))
        assert sv.value == 1.0 + 0.0j
        sv = spherical_phi(rs, np.zeros(dim), np.zeros(dim))
        assert sv.value == 1.0 + 0.0j


def test_psi_su2_closed_form():
    # rank 1: psi_lambda(x) = sin(<lambda, x>/... ) -- compare against the
    # direct 2-term Weyl sum: sin(l1 x1 - l1 x2 ... ) / (pairing * sinh-free)
    rs = build_root_system("A", 1)
    lam = np.array([0.8, -0.8])
    x = np.array([0.6, -0.6])
    lx = float(lam @ x)
    expected = math.sin(lx) * 2.0 / (lx * 2.0)  # sin(<l,x>)/<l,x>
    assert np.isclose(spherical_psi(rs, lam, x).value.real, expected)


def test_psi_haar_mc_oracle_small():
    """MC of the compact-group integral E[exp(i <lambda, diag(UxU*)>)]."""
    rng = substream(12, 0)
    for d in (2, 3):
        rs = build_root_system("A", d - 1)
        x = np.linspace(1.0, -1.0, d)
        x -= x.mean()
        lam = np.linspace(0.9, -0.9, d)
        lam -= lam.mean()
        u = haar_unitary_batch(d, 200_000, rng)
        v = (np.abs(u) ** 2) @ x
        samples = np.exp(1j * (v @ lam))
        mc = samples.mean()
        se = math.sqrt(
            np.mean((samples - mc).real ** 2 + (samples - mc).imag ** 2) / len(samples)
        )
        closed = spherical_psi(rs, lam, x).value
        assert abs(closed - mc) <= 4.0 * se


def test_phi_ratio_identity():
    rng = np.random.default_rng(5)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        for _ in range(20):
            x = rng.standard_normal(rs.ambient_dim)
            lam = rng.standard_normal(rs.ambient_dim)
            if fam == "A":
                x -= x.mean()
                lam -= lam.mean()
            lhs = spherical_phi(rs, lam, x).value * semicharacter(rs, x)
            rhs = spherical_psi(rs, lam, x).value
            assert abs(lhs - rhs) < 1e-10


def test_psi_weyl_invariance_in_lambda_and_x():
    rs = build_root_system("A", 2)
    lam = np.array([0.9, -0.2, -0.7])
    x = np.array([1.1, 0.2, -1.3])
    ref = spherical_psi(rs, lam, x).value
    weyl = enumerate_weyl(rs)
    for wlam, wx in zip(weyl.images(lam), weyl.images(x)):
        assert abs(spherical_psi(rs, wlam, x).value - ref) < 1e-12
        assert abs(spherical_psi(rs, lam, wx).value - ref) < 1e-12


def test_bc_spherical_coincidence():
    rng = np.random.default_rng(9)
    for rank in (3, 4):
        rb = build_root_system("B", rank)
        rc = build_root_system("C", rank)
        for _ in range(20):
            x = rng.standard_normal(rank)
            lam = rng.standard_normal(rank)
            assert abs(
                spherical_psi(rb, lam, x).value - spherical_psi(rc, lam, x).value
            ) < 1e-11


def test_wall_regularization():
    rs = build_root_system("A", 2)
    lam = np.array([0.5, -0.1, -0.4])
    # x exactly on a wall: x1 == x2
    x_wall = np.array([0.5, 0.5, -1.0])
    sv = spherical_psi(rs, lam, x_wall)
    assert sv.regularized
    assert np.isfinite(sv.value.real) and np.isfinite(sv.value.imag)
    assert sv.est_abs_error < 1e-4
    # continuity: value close to a nearby regular point
    x_near = np.array([0.5 + 1e-4, 0.5 - 1e-4, -1.0])
    ref = spherical_psi(rs, lam, x_near)
    assert not ref.regularized
    assert abs(sv.value - ref.value) < 1e-3


def test_lambda_zero_is_exact():
    # psi_0 == 1 identically; no regularization needed at the lambda origin
    rs = build_root_system("A", 1)
    sv = spherical_psi(rs, np.zeros(2), np.array([1.0, -1.0]))
    assert sv.value == 1.0 + 0.0j
    ref = spherical_psi(rs, np.array([1e-4, -1e-4]), np.array([1.0, -1.0]))
    assert abs(sv.value - ref.value) < 1e-6


def test_phi_at_lambda_zero_is_the_inverse_semicharacter():
    # psi_0 == 1, so phi_0 = 1 / semicharacter, the limit of phi_lambda as lambda -> 0
    # (rank <= 2: at small lambda the sums cancel, more digits the more roots)
    for fam, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(fam, rank)
        x = chamber_project(rs, _centered(rs, np.linspace(1.0, -0.5, rs.ambient_dim)))
        sv = spherical_phi(rs, np.zeros(rs.ambient_dim), x)
        assert sv.value == math.exp(-log_semicharacter(rs, x))
        near = spherical_phi(rs, 1e-2 * _centered(rs, np.arange(rs.ambient_dim, 0, -1.0)), x)
        assert abs(sv.value - near.value) < 0.05 * sv.value.real


def test_lambda_wall_regularization():
    rs = build_root_system("A", 2)
    x = np.array([1.0, 0.2, -1.2])
    lam_wall = np.array([0.5, 0.5, -1.0])  # lambda_1 == lambda_2 wall
    sv = spherical_psi(rs, lam_wall, x)
    assert sv.regularized
    assert np.isfinite(sv.value.real)
    ref = spherical_psi(rs, np.array([0.5 + 1e-4, 0.5 - 1e-4, -1.0]), x)
    assert not ref.regularized
    assert abs(sv.value - ref.value) < 1e-3


def test_m1_su2_closed_form():
    rs = build_root_system("A", 1)
    # (coth(2) - 1/2) * (1, -1)
    c = 1.0 / math.tanh(2.0) - 0.5
    assert np.allclose(m1_closed(rs, [1.0, -1.0]), [c, -c])
    assert np.allclose(m1_closed(rs, [1.0, -1.0]), [0.5373147207275482, -0.5373147207275482])
    c2 = 0.5 * (1.0 / math.tanh(1.0) - 1.0)
    assert np.allclose(m1_closed(rs, [0.5, -0.5]), [c2, -c2])
    assert np.isclose(c2, 0.15651764274966565)


def test_m1_at_zero():
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        assert np.allclose(m1_closed(rs, np.zeros(rs.ambient_dim)), 0.0)


def test_m1_chamber_membership_and_contraction():
    rng = np.random.default_rng(11)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        for _ in range(50):
            v = rng.standard_normal(rs.ambient_dim)
            if fam == "A":
                v -= v.mean()
            from chamberwalk.roots import chamber_project

            x = chamber_project(rs, v)
            m1 = m1_closed(rs, x)
            assert in_chamber(rs, m1, tol=1e-9)
            assert np.linalg.norm(m1) <= np.linalg.norm(x) + 1e-9


def test_m1_mc_oracle():
    rng = substream(21, 0)
    for d, x in [(2, [1.0, -1.0]), (3, [1.0, 0.0, -1.0])]:
        rs = build_root_system("A", d - 1)
        est, se = m1_mc(rs, x, 300_000, rng)
        closed = m1_closed(rs, x)
        assert np.all(np.abs(est - closed) <= 4.0 * se)
    # B and D read 2x2 minors of a Haar SO(m) draw, and the sign of D's last
    # coordinate is an orbit invariant that the minors must carry
    for fam, x in [("B", [1.0, 0.4]), ("B", [1.2, 0.7, 0.3]),
                   ("D", [1.1, 0.8, 0.5, 0.3]), ("D", [1.1, 0.8, 0.5, -0.3])]:
        rs = build_root_system(fam, len(x))
        est, se = m1_mc(rs, x, 200_000, rng)
        closed = m1_closed(rs, x)
        assert np.all(np.abs(est - closed) <= 4.0 * se)


@pytest.mark.parametrize("n", [0, -5])
def test_m1_mc_rejects_sample_size_below_one(n):
    rs = build_root_system("A", 2)
    for x in ([1.0, 0.0, -1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="sample size n must be at least 1"):
            m1_mc(rs, x, n, substream(0, 0))


@pytest.mark.parametrize("n", [2.5, True, None])
def test_m1_mc_rejects_a_non_integer_sample_size(n):
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="sample size n must be an integer"):
        m1_mc(rs, [1.0, 0.0, -1.0], n, substream(0, 0))


def test_m1_mc_answers_family_c():
    # C samples B's orbit (psi_B = psi_C) weighted by C's rho
    rng = substream(22, 0)
    for x in ([1.2, 0.7, 0.3], [0.9, 0.5, 0.1], [1.1, 0.8, 0.5, 0.3]):
        rs = build_root_system("C", len(x))
        est, se = m1_mc(rs, x, 100_000, rng)
        assert np.all(np.abs(est - m1_closed(rs, x)) <= 4.0 * se)
    # at x = 0 nothing is sampled and the estimate is exactly m1(0) = 0
    est, se = m1_mc(build_root_system("C", 3), [0.0, 0.0, 0.0], 1000, substream(0, 0))
    assert not est.any() and not se.any()


def test_m1_expectation_mixture():
    rs = build_root_system("A", 2)
    atoms = np.array([[1.0, 0.0, -1.0], [0.5, 0.0, -0.5]])
    weights = np.array([0.25, 0.75])
    expected = 0.25 * m1_closed(rs, atoms[0]) + 0.75 * m1_closed(rs, atoms[1])
    assert np.allclose(m1_expectation(rs, atoms, weights), expected)


def test_m1_refuses_a_non_finite_value():
    # m1's alternating sum cancels to 0 at this small B3 point; every m1 entry
    # refuses it, naming the point, and no RuntimeWarning leaks
    rs = build_root_system("B", 3)
    x, good = [0.0065, 0.0035, 0.0012], [1.0, 0.5, 0.2]
    for call in (lambda: m1_closed(rs, x), lambda: m1_closed_rows(rs, [good, x]),
                 lambda: m1_expectation(rs, [good, x], [0.5, 0.5])):
        with pytest.raises(ValueError, match=r"^m1 is not finite at x = \[0\.0065, 0\.0035, "):
            call()
    # an atom of weight 0 is not evaluated
    assert np.all(m1_expectation(rs, [good, x], [1.0, 0.0]) == m1_closed(rs, good))


def test_semicharacter_refuses_a_value_beyond_the_float_range():
    # log of the semicharacter at (400, -400) is 800 - log 1600 = 792.6, above
    # log of the largest float, 709.8; the log form still answers
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError, match=r"^semicharacter is not finite at x = \[400\.0, "):
        semicharacter(rs, [400.0, -400.0])
    assert abs(log_semicharacter(rs, [400.0, -400.0]) - (800.0 - math.log(1600.0))) < 1e-12
    assert math.isfinite(semicharacter(rs, [300.0, -300.0]))


def test_semicharacter_refuses_a_value_past_2_to_the_1022(recwarn):
    # at (8e307, -8e307) the root pairing t = 1.6e308 is finite but 2t is not;
    # log 2t once overflowed there and the log form read -inf
    rs = build_root_system("A", 1)
    for x in ([8e307, -8e307], [1e308, -1e308]):
        with pytest.raises(ValueError, match=r"^semicharacter is not finite at x = .*: it "
                                             r"overflows a float$"):
            semicharacter(rs, x)
    assert log_semicharacter(rs, [8e307, -8e307]) == 1.6e308
    assert log_semicharacter(rs, [1e308, -1e308]) == math.inf
    assert np.array_equal(log_semicharacter_rows(rs, [[8e307, -8e307], [1.0, -1.0]]),
                          [1.6e308, log_semicharacter(rs, [1.0, -1.0])])
    assert not recwarn.list


def test_log_sinhc_keeps_its_bits_in_range():
    t = np.concatenate([np.geomspace(1e-4, 2.0**1022, 20_000), [2.0**1022], [0.0, 3e-5]])
    tl = np.where(t < 1e-4, 1.0, t)
    old = tl + np.log1p(-np.exp(-2.0 * tl)) - np.log(2.0 * tl)
    ts = np.where(t < 1e-4, t, 0.0)
    old = np.where(t < 1e-4, np.log1p(ts * ts / 6.0 + ts**4 / 120.0), old)
    assert np.array_equal(special._log_sinhc(t), old)
    assert np.array_equal(special._log_sinhc(-t), old)


@pytest.mark.parametrize("family, rank, x", [
    ("A", 1, [1e308, -1e308]),
    ("A", 2, [8e307, 0.0, -8e307]),   # each root pairing is finite, <x, rho> is not
    ("B", 2, [5e307, 1e307]),
])
def test_psi_phi_and_m1_refuse_a_point_out_of_reach(family, rank, x, recwarn):
    rs = build_root_system(family, rank)
    lam = rs.rho / np.abs(rs.rho).max()
    message = r"^x \[.*\] is out of range: max \|x_i\| times the 1-norm of rho exceeds"
    for call in (lambda: spherical_psi(rs, lam, x), lambda: spherical_phi(rs, lam, x),
                 lambda: spherical_phi_rows(rs, lam, [0.5 * lam, x]), lambda: m1_closed(rs, x),
                 lambda: m1_closed_rows(rs, [0.5 * lam, x])):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match=r"^lambda \[.*\] is out of range"):
        spherical_psi(rs, x, lam)
    assert not recwarn.list


def test_m1_and_psi_answer_at_8e307_without_a_warning(recwarn):
    # e^{<w.x, rho> - max} overflows to e^{-inf} = 0 for the far image, so m1 = x - shift
    rs = build_root_system("A", 1)
    assert np.array_equal(m1_closed(rs, [8e307, -8e307]), [8e307, -8e307])
    assert np.array_equal(m1_closed(rs, [6e307, -6e307]), [6e307, -6e307])
    # psi decays like 1 / pi(x); eps scales each term of its bound, which stays finite
    sv = spherical_psi(rs, [0.5, -0.5], [6e307, -6e307])
    assert abs(sv.value) < 1e-300 and sv.est_abs_error < 1e-15
    sv = spherical_psi(rs, [1.0, -1.0], [8e307, -8e307])
    assert abs(sv.value) < 1e-300 and sv.est_abs_error < 1e-15
    sv = spherical_phi(rs, [1.0, -1.0], [8e307, -8e307])
    assert sv.value == 0.0 and sv.est_abs_error < 1e-15
    assert not recwarn.list


def test_dimension_mismatch_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        spherical_psi(rs, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        semicharacter(rs, np.zeros(4))


_X = [1.0, -1.0]


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, -1.0], [1.0, -np.inf]],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda rs, v: spherical_psi(rs, _X, v), id="psi-x"),
    pytest.param(lambda rs, v: spherical_psi(rs, v, _X), id="psi-lambda"),
    pytest.param(lambda rs, v: spherical_psi(rs, [complex(1.0, t) for t in v], _X),
                 id="psi-complex-lambda"),
    pytest.param(lambda rs, v: spherical_phi(rs, _X, v), id="phi-x"),
    pytest.param(lambda rs, v: spherical_phi(rs, v, _X), id="phi-lambda"),
    pytest.param(lambda rs, v: m1_closed(rs, v), id="m1"),
    pytest.param(lambda rs, v: semicharacter(rs, v), id="semicharacter"),
    pytest.param(lambda rs, v: log_semicharacter(rs, v), id="log-semicharacter"),
    pytest.param(lambda rs, v: m1_mc(rs, v, 10, substream(0, 0)), id="m1-mc"),
    pytest.param(lambda rs, v: spherical_psi_rows(rs, _X, [_X, v]), id="psi-rows"),
    pytest.param(lambda rs, v: spherical_phi_rows(rs, _X, [v]), id="phi-rows"),
    pytest.param(lambda rs, v: spherical_phi_rows(rs, v, [_X]), id="phi-rows-lambda"),
    pytest.param(lambda rs, v: m1_closed_rows(rs, [_X, v]), id="m1-rows"),
    pytest.param(lambda rs, v: m1_expectation(rs, [_X, v], [0.5, 0.5]), id="m1-expectation"),
])
def test_non_finite_inputs_raise(call, bad):
    # NaN passes every shape and comparison check, so it must be refused by name
    with pytest.raises(ValueError, match="non-finite"):
        call(build_root_system("A", 1), bad)


@pytest.mark.parametrize("weights, named", [
    ([[1.0]], "weights must be a 1-d array of numbers"),
    ([True], "weights must be a 1-d array of numbers"),
    ([0.5, 0.5], "one weight per atom required"),
    ([-0.5, 1.5], "weights must be a probability vector"),
])
def test_m1_expectation_names_bad_weights(weights, named):
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError, match=named):
        m1_expectation(rs, [[1, -1]], weights)


@pytest.mark.parametrize("weights", [[np.nan], [np.inf], [0.5, np.nan]])
def test_m1_expectation_rejects_non_finite_weights(weights):
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError, match="sum to 1"):
        m1_expectation(rs, [_X] * len(weights), weights)


# ---------------------------------------------------------------------------
# Row forms, rounding bounds and m1 geometry

ROW_FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4)]


def _centered(rs, v):
    v = np.asarray(v, dtype=float)
    return v - v.mean(axis=-1, keepdims=True) if rs.family == "A" else v


def _mixed_rows(rs, rng, n):
    """Chamber points and plain vectors, with zero rows and wall rows mixed in."""
    xs = _centered(rs, rng.standard_normal((n, rs.ambient_dim)) * rng.uniform(0.2, 2.0, (n, 1)))
    xs[::2] = [chamber_project(rs, x) for x in xs[::2]]
    xs[3::7] = 0.0
    pair = xs[5::7, :2].mean(axis=1)
    xs[5::7, 0] = pair  # x1 == x2: on the wall of e1 - e2
    xs[5::7, 1] = pair
    return xs


def _assert_rows_match(rows, singles):
    np.testing.assert_allclose(rows.value, [s.value for s in singles], rtol=1e-14, atol=0)
    assert rows.regularized.tolist() == [s.regularized for s in singles]
    np.testing.assert_allclose(rows.est_abs_error, [s.est_abs_error for s in singles],
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("family, rank", ROW_FAMILIES)
def test_rows_match_per_point(family, rank, monkeypatch):
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(31)
    # three rows per chunk, so that the batch crosses many chunk boundaries
    monkeypatch.setattr(special, "_CHUNK_ENTRIES", 3 * rs.weyl_order * rs.ambient_dim)
    xs = _mixed_rows(rs, rng, 40)
    lam = _centered(rs, rng.standard_normal(rs.ambient_dim))
    lam_wall = lam.copy()
    lam_wall[1] = lam_wall[0]
    lam_wall = _centered(rs, lam_wall)
    for lv in (lam, lam_wall, np.zeros(rs.ambient_dim)):
        for rows_fn, one_fn in ((spherical_psi_rows, spherical_psi),
                                (spherical_phi_rows, spherical_phi)):
            _assert_rows_match(rows_fn(rs, lv, xs), [one_fn(rs, lv, x) for x in xs])
    m1 = m1_closed_rows(rs, xs)
    np.testing.assert_allclose(m1, [m1_closed(rs, x) for x in xs], rtol=1e-14, atol=0)
    assert np.all(m1[3::7] == 0.0)


def test_rows_cross_the_default_chunk_boundary():
    rs = build_root_system("D", 4)
    step = special._CHUNK_ENTRIES // (rs.weyl_order * rs.ambient_dim)
    rng = np.random.default_rng(32)
    xs = rng.standard_normal((step + 4, 4))
    lam = rng.standard_normal(4)
    rows = spherical_phi_rows(rs, lam, xs)
    near = range(step - 3, step + 3)
    _assert_rows_match(
        special.SphericalRows(rows.value[near], rows.regularized[near], rows.est_abs_error[near]),
        [spherical_phi(rs, lam, xs[i]) for i in near])
    np.testing.assert_allclose(m1_closed_rows(rs, xs)[near],
                               [m1_closed(rs, xs[i]) for i in near], rtol=1e-14, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_pairing_sums_left_to_right(dtype):
    # the kernel's bits rest on this order, and its bounds on a C-ordered result
    rng = np.random.default_rng(36)
    weyl = enumerate_weyl(build_root_system("D", 4))
    wx = weyl.images(rng.standard_normal((5, 4)).astype(dtype) * (1 + 1j * (dtype is complex)))
    for v in (rng.standard_normal(4).astype(complex), rng.standard_normal((5, 1, 4)) + 1j):
        z = special._pairing(wx, v)
        ref = np.add.accumulate(wx * (v if v.imag.any() else v.real), axis=2)[..., -1]
        assert np.array_equal(z, ref) and z.flags.c_contiguous


def test_rows_reject_bad_shapes():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        spherical_psi_rows(rs, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        m1_closed_rows(rs, np.zeros((4, 2)))


def _oracle(rs, lam, x, dps=60, offset=None):
    """psi, phi and m1 from their alternating sums at ``dps`` digits.

    With ``offset``, x and lam first move by that much in a generic
    direction, which takes a wall point off every wall: at 700 digits an
    offset of 1e-80 leaves the sums hundreds of digits to cancel.
    """
    with mpmath.workdps(dps):
        lam = [mpmath.mpf(float(v)) for v in lam]
        x = [mpmath.mpf(float(v)) for v in x]
        if offset is not None:
            gen = [mpmath.sqrt(p) for p in (2, 3, 5, 7, 11)[: len(x)]]
            if rs.family == "A":
                gen = [g - mpmath.fsum(gen) / len(gen) for g in gen]
            x = [v + mpmath.mpf(offset) * g for v, g in zip(x, gen)]
            lam = [v + mpmath.mpf(offset) * g * g for v, g in zip(lam, gen)]
        rho = [mpmath.mpf(float(v)) for v in rs.rho]
        roots = [[mpmath.mpf(float(v)) for v in a] for a in rs.positive_roots]

        def dot(a, b):
            return mpmath.fsum(p * q for p, q in zip(a, b))

        num = mpmath.mpc(0)
        den = mpmath.mpf(0)
        moment = [mpmath.mpf(0)] * len(x)
        weyl = enumerate_weyl(rs)
        for perm, signs, det in zip(weyl.perms.tolist(), weyl.signs.tolist(),
                                    weyl.dets.tolist()):
            wx = [signs[i] * x[perm[i]] for i in range(len(x))]
            num += det * mpmath.exp(1j * dot(wx, lam))
            term = det * mpmath.exp(dot(wx, rho))
            den += term
            moment = [m + term * v for m, v in zip(moment, wx)]

        def pi(v):
            return mpmath.fprod(dot(a, v) for a in roots)

        pi_ilam = mpmath.fprod(1j * dot(a, lam) for a in roots)
        psi = pi([r / 2 for r in rho]) * num / (pi(x) * pi_ilam)
        phi = pi(rho) * num / (pi_ilam * den)
        shift = [mpmath.fsum(a[i] / dot(a, rho) for a in roots) for i in range(len(x))]
        m1 = [m / den - s for m, s in zip(moment, shift)]
        return complex(psi), complex(phi), np.array([float(v) for v in m1])


#: a regular D4 point far from every wall where the double-precision sums
#: lose every digit (phi ~ 1e5 against the true 0.969), and the rounded
#: D4 point at which `selftest --seed 3` used to fail ratio_identity
D4_CANCELLING = ([0.1584, 0.0524, 0.0479, 0.0225], [-0.5347, 0.6533, 0.8793, 0.2875])
D4_SEED3 = ([0.353, 0.191, 0.112, -0.02], [-0.141, 1.312, -0.019, 1.219])


def _oracle_points():
    rng = np.random.default_rng(33)
    d4 = build_root_system("D", 4)
    points = [(d4, np.array(D4_CANCELLING[0]), np.array(D4_CANCELLING[1])),
              (d4, np.array(D4_SEED3[0]), np.array(D4_SEED3[1]))]
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        for _ in range(6):
            scale = rng.uniform(0.05, 1.0)
            x = chamber_project(rs, _centered(rs, rng.standard_normal(rs.ambient_dim)) * scale)
            points.append((rs, x, _centered(rs, rng.standard_normal(rs.ambient_dim))))
    return points


def test_est_abs_error_bounds_the_mpmath_oracle():
    for rs, x, lam in _oracle_points():
        psi_ref, phi_ref, _ = _oracle(rs, lam, x)
        for fn, rows_fn, ref in ((spherical_psi, spherical_psi_rows, psi_ref),
                                 (spherical_phi, spherical_phi_rows, phi_ref)):
            sv = fn(rs, lam, x)
            assert not sv.regularized
            assert abs(sv.value - ref) <= sv.est_abs_error, (rs.family, x, lam, fn.__name__)
            rows = rows_fn(rs, lam, x[None, :])
            assert abs(rows.value[0] - ref) <= rows.est_abs_error[0]
    # the cancelling D4 point is reported as the garbage it is
    d4 = build_root_system("D", 4)
    sv = spherical_phi(d4, D4_CANCELLING[1], D4_CANCELLING[0])
    assert sv.est_abs_error > 1e3


def test_est_abs_error_is_never_nan_and_inf_for_non_finite_values():
    # at small scale the rank-3 sums can cancel to exactly 0 (phi = inf/nan)
    rng = np.random.default_rng(34)
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        xs = _centered(rs, rng.standard_normal((500, rs.ambient_dim)) * 0.02)
        lam = _centered(rs, np.linspace(1.0, 0.2, rs.ambient_dim))
        for rows_fn in (spherical_psi_rows, spherical_phi_rows):
            rows = rows_fn(rs, lam, xs)
            assert not np.isnan(rows.est_abs_error).any()
            bad = ~np.isfinite(rows.value)
            assert np.all(rows.est_abs_error[bad] == np.inf)


def _chamber_rows(draw_vectors, rs, min_gap):
    xs = [chamber_project(rs, _centered(rs, v)) for v in draw_vectors]
    return np.array([x for x in xs if min_root_pairing(rs, x) >= min_gap])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_m1_rows_stay_in_chamber_and_contract(data):
    """Regular points at least 0.1 from every wall, coordinates in [-3, 3].

    Nearer the walls, and at small scale in rank >= 3, the double-precision
    sums lose their digits and m1 leaves the chamber (next test).
    """
    family, rank = data.draw(st.sampled_from(ROW_FAMILIES))
    rs = build_root_system(family, rank)
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    vectors = data.draw(st.lists(st.lists(coord, min_size=rs.ambient_dim,
                                          max_size=rs.ambient_dim),
                                 min_size=1, max_size=8))
    xs = _chamber_rows(vectors, rs, min_gap=0.1)
    if xs.size == 0:
        return
    for x, m1 in zip(xs, m1_closed_rows(rs, xs)):
        assert in_chamber(rs, m1, tol=1e-9), (x, m1)
        assert np.linalg.norm(m1) <= np.linalg.norm(x) + 1e-9


#: (family, rank, x, lambda): x on walls of multiplicity 1-3, each with a
#: regular lambda, and the A2 point 3e-8 from a wall
X_WALLS = [
    ("A", 3, [1.0, 1.0, 0.0, -2.0], [0.9, 0.3, -0.2, -1.0]),
    ("A", 3, [1.2, 1.2, -1.2, -1.2], [0.9, 0.3, -0.2, -1.0]),
    ("A", 3, [1.0, 1.0, 1.0, -3.0], [0.9, 0.3, -0.2, -1.0]),
    ("B", 3, [1.2, 0.5, 0.0], [1.0, 0.7, 0.45]),
    ("B", 3, [1.0, 1.0, 0.0], [1.0, 0.7, 0.45]),
    ("C", 3, [1.0, 1.0, 0.4], [1.0, 0.7, 0.45]),
    ("C", 3, [0.8, 0.8, 0.8], [1.0, 0.7, 0.45]),
    ("D", 4, [1.0, 1.0, 0.5, 0.0], [1.1, 0.8, 0.5, 0.3]),
    ("D", 4, [1.0, 0.5, 0.5, 0.5], [1.1, 0.8, 0.5, 0.3]),
    ("A", 2, [1.0, 1.0 - 3e-8, -2.0 + 3e-8], [0.7, 0.1, -0.8]),
]
#: x on walls at large scale, |x||lambda| up to about 50; listed after the
#: other wall cases, so that the ids of those keep their indices
X_WALLS_LARGE = [
    ("A", 2, [5.0, 5.0, -10.0], [3.0, -1.0, -2.0]),
    ("A", 3, [4.0, 4.0, -4.0, -4.0], [3.0, 1.0, -1.0, -3.0]),
    ("B", 3, [6.0, 6.0, 2.0], [3.0, 2.0, 1.0]),
]
#: lambda on walls of multiplicity 1-3, each with a regular x
LAMBDA_WALLS = [
    ("A", 3, [1.1, 0.4, -0.3, -1.2], [1.0, 1.0, -1.0, -1.0]),
    ("B", 3, [1.2, 0.5, 0.3], [1.0, 1.0, 0.45]),
    ("C", 3, [1.2, 0.5, 0.3], [0.7, 0.7, 0.7]),
    ("D", 4, [1.1, 0.8, 0.5, 0.3], [1.0, 1.0, 0.5, 0.2]),
]
#: x and lambda both on walls
BOTH_WALLS = [
    ("A", 3, [1.0, 1.0, 1.0, -3.0], [1.0, 1.0, -1.0, -1.0]),
    ("B", 3, [1.0, 1.0, 0.0], [1.0, 0.7, 0.0]),
    ("D", 4, [1.0, 0.5, 0.5, 0.5], [1.0, 1.0, 0.5, 0.2]),
]


@pytest.mark.parametrize("family, rank, x, lam",
                         X_WALLS + LAMBDA_WALLS + BOTH_WALLS + X_WALLS_LARGE)
def test_contour_rule_meets_the_mpmath_oracle_at_walls(family, rank, x, lam):
    rs = build_root_system(family, rank)
    x, lam = np.array(x), np.array(lam)
    psi_ref, phi_ref, m1_ref = _oracle(rs, lam, x, dps=700, offset="1e-80")
    both = min_root_pairing(rs, x) < special.EPS_REG and min_root_pairing(rs, lam) == 0.0
    for fn, ref in ((spherical_psi, psi_ref), (spherical_phi, phi_ref)):
        sv = fn(rs, lam, x)
        assert sv.regularized
        err = abs(sv.value - ref)
        assert err <= sv.est_abs_error, (fn.__name__, err, sv.est_abs_error)
        if not both:
            assert err <= 1e-12, (fn.__name__, err)
    if not both:
        assert np.abs(m1_closed(rs, x) - m1_ref).max() <= 1e-11


@pytest.mark.parametrize("family, rank, x", [case[:3] for case in X_WALLS + X_WALLS_LARGE])
def test_m1_stays_in_chamber_at_and_near_walls(family, rank, x):
    rs = build_root_system(family, rank)
    m1 = m1_closed(rs, np.array(x))
    assert in_chamber(rs, m1, tol=1e-9)
    assert np.linalg.norm(m1) <= np.linalg.norm(x) + 1e-9


@pytest.mark.xfail(strict=True, reason="at small scale in rank >= 3 the alternating "
                   "sums cancel below double precision; small-scale series are open")
def test_m1_loses_the_chamber_at_small_scale():
    rs = build_root_system("D", 4)
    m1 = m1_closed(rs, np.array([0.04, 0.03, 0.02, 0.01]))
    assert in_chamber(rs, m1, tol=1e-9)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
                                          ("C", 3), ("C", 4), ("D", 4)])
def test_psi_at_minus_i_rho_is_the_semicharacter(family, rank):
    """The Weyl denominator identity that phi = psi / semicharacter rests on."""
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(35)
    xs = _chamber_rows(rng.standard_normal((2000, rs.ambient_dim)), rs, min_gap=0.05)[:200]
    assert len(xs) == 200
    rows = spherical_psi_rows(rs, -1j * rs.rho, xs)
    expected = np.exp(log_semicharacter_rows(rs, xs))
    assert not rows.regularized.any()
    err = np.abs(rows.value - expected)
    assert np.all(err <= rows.est_abs_error + 4 * special._EPS * expected)
