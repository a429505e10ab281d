import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp, theilslopes

from chamberwalk import kernels, walk
from chamberwalk.roots import build_root_system
from chamberwalk.special import m1_closed, m1_expectation, semicharacter
from chamberwalk.walk import (
    CrosscheckReport,
    ProductAccumulator,
    WalkConfig,
    euclidean_walk_crosscheck,
    rejection_rate,
    run_group_walk,
    substream,
    tilted_orbit_batch,
)


def test_substream_determinism_and_independence():
    a1 = substream(7, 0).standard_normal(4)
    a2 = substream(7, 0).standard_normal(4)
    b = substream(7, 1).standard_normal(4)
    c = substream(8, 0).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[1.0, -1.0]], weights=[0.5], n_steps=10)  # not a prob vector
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[-1.0, 1.0]], weights=[1.0], n_steps=10)  # not in chamber
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[1.0, -1.0]], weights=[1.0], n_steps=0)
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[1.0, -1.0]], weights=[1.0], n_steps=10, n_replicas=0)
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[6.0, -6.0]], weights=[1.0], n_steps=10)  # norm cap
    with pytest.raises(ValueError):
        WalkConfig(d=2, atoms=[[1.0, -1.0]], weights=[1.0], n_steps=10, r_exponent=2.0)


def test_walk_config_from_json():
    cfg = WalkConfig.from_json(json.dumps({
        "d": 2, "atoms": [[0.5, -0.5]], "weights": [1.0], "n_steps": 64, "seed": 3,
    }))
    assert cfg.d == 2 and cfg.n_steps == 64 and cfg.seed == 3
    assert cfg.n_replicas == 1 and cfg.r_exponent == 1.0


def test_walk_config_from_json_rejects_unknown_keys():
    base = {"d": 2, "atoms": [[0.5, -0.5]], "weights": [1.0], "n_steps": 64}
    for extra, named in (({"renorm_period": 4}, "renorm_period"),
                         ({"sed": 1, "n_step": 10}, "n_step, sed")):
        with pytest.raises(ValueError, match=named):
            WalkConfig.from_json(json.dumps({**base, **extra}))


_GOOD = dict(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=10)


@pytest.mark.parametrize("bad, named", [
    ({"n_steps": 3.5}, "'n_steps' must be an integer"),
    ({"n_replicas": 2.5}, "'n_replicas' must be an integer"),
    ({"seed": 1.5}, "'seed' must be an integer"),
    ({"seed": -1}, "'seed' must be at least 0"),
    ({"d": 2.5}, "'d' must be an integer"),
    ({"d": 1, "atoms": [[0.0]]}, "'d' must be at least 2"),
    ({"n_steps": True}, "'n_steps' must be an integer"),
    ({"n_replicas": np.True_}, "'n_replicas' must be an integer"),
    ({"atoms": [[0.5 + 0j, -0.5]]}, "'atoms' must be a 2-d array"),
    ({"atoms": np.array([[0.5 + 0j, -0.5]])}, "'atoms' must be a 2-d array"),
    ({"atoms": [[1, True]]}, "'atoms' must be a 2-d array"),
    ({"atoms": [0.5, -0.5]}, "'atoms' must be a 2-d array"),
    ({"weights": np.array([True])}, "'weights' must be a 1-d array"),
    ({"r_exponent": True}, "'r_exponent' must be a number"),
    ({"r_exponent": 2.0}, "'r_exponent' must lie in [1, 2)"),
])
def test_walk_config_names_a_bad_field(bad, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        WalkConfig(**{**_GOOD, **bad})


def test_walk_config_takes_integral_floats_as_ints():
    cfg = WalkConfig(**{**_GOOD, "d": 2.0, "n_steps": 4.0, "n_replicas": np.int64(2),
                        "seed": 3.0, "r_exponent": 1})
    assert (cfg.d, cfg.n_steps, cfg.n_replicas, cfg.seed) == (2, 4, 2, 3)
    assert all(type(v) is int for v in (cfg.d, cfg.n_steps, cfg.n_replicas, cfg.seed))
    assert type(cfg.r_exponent) is float
    assert cfg.atoms.dtype == cfg.weights.dtype == np.float64
    assert WalkConfig.from_json(json.dumps({**_GOOD, "n_steps": 4.0})).n_steps == 4


@pytest.mark.parametrize("seed, index, named", [
    (1.5, 0, "seed must be an integer, got 1.5"),
    (True, 0, "seed must be an integer, got True"),
    (-1, 0, "seed must be at least 0, got -1"),
    (0, -2, "index must be at least 0, got -2"),
    (0, "1", "index must be an integer"),
])
def test_substream_names_a_bad_seed_or_index(seed, index, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        substream(seed, index)


def test_substream_takes_integral_floats_as_ints():
    assert np.array_equal(substream(7.0, np.int64(1)).standard_normal(3),
                          substream(7, 1).standard_normal(3))


@pytest.mark.parametrize("weights", [[np.nan], [np.inf], [0.5, np.nan]])
def test_walk_config_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="probability vector"):
        WalkConfig(d=2, atoms=[[0.5, -0.5]] * len(weights), weights=weights, n_steps=10)


def test_accumulator_matches_direct_product():
    rng = substream(2, 0)
    for d in (2, 3):
        x = np.linspace(0.2, -0.2, d)
        x -= x.mean()
        acc = ProductAccumulator(d)
        prod = np.eye(d, dtype=complex)
        for _ in range(40):
            z = kernels.sample_biinvariant(x, rng)
            acc.update(z)
            prod = prod @ z
        assert np.allclose(acc.readout(), kernels.log_singular_spectrum(prod), atol=1e-8)


def test_accumulator_survives_long_products():
    # 5000 steps would overflow a naive product (log sigma ~ 0.5 * 5000)
    rng = substream(2, 1)
    x = np.array([1.0, -1.0])
    acc = ProductAccumulator(2)
    for _ in range(5000):
        acc.update(kernels.sample_biinvariant(x, rng))
    out = acc.readout()
    assert np.all(np.isfinite(out))
    assert abs(out.sum()) < 1e-9
    # per-step drift approaches m1(x) ~ 0.5373
    assert abs(out[0] / 5000 - 0.5373147207275482) < 0.05


@pytest.mark.parametrize("x, checkpoints", [
    ([2.0, -2.0], (17, 150, 300)),
    ([2.0, 0.0, -2.0], (20, 180, 360)),
    ([2.0, 1.0, -1.0, -2.0], (20, 170, 360)),
])
def test_readout_matches_mpmath_at_every_spread(x, checkpoints):
    # the same float steps multiplied at 560 digits, enough for spread 1000;
    # checkpoints sit near log spreads 50, 450 and 900
    d = len(x)
    rng = substream(7, d)
    acc = ProductAccumulator(d)
    spreads = []
    with mpmath.workdps(560):
        prod = mpmath.eye(d)
        for n in range(1, checkpoints[-1] + 1):
            z = kernels.sample_biinvariant(np.array(x), rng)
            acc.update(z)
            prod = prod * mpmath.matrix(z.tolist())
            if n in checkpoints:
                logs = [mpmath.log(v) for v in mpmath.svd_c(prod, compute_uv=False)]
                ref = np.array(sorted((float(v - sum(logs) / d) for v in logs), reverse=True))
                err = np.max(np.abs(acc.readout() - ref))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(ref))), (n, err)
                spreads.append(ref[0] - ref[-1])
    assert 40 < spreads[0] < 60 and 400 < spreads[1] < 500 and 850 < spreads[2] < 950


def test_batched_accumulator_rows_match_single_products():
    rng = substream(2, 3)
    d, reps = 3, 5
    x = np.array([1.0, 0.0, -1.0])
    steps = np.array([[kernels.sample_biinvariant(x, rng) for _ in range(reps)]
                      for _ in range(60)])
    batch = ProductAccumulator(d)
    for z in steps:
        batch.update(z)
    out = batch.readout()
    assert out.shape == (reps, d)
    for k in range(reps):
        single = ProductAccumulator(d)
        for z in steps[:, k]:
            single.update(z)
        np.testing.assert_allclose(out[k], single.readout(), rtol=0, atol=1e-12)


def test_readout_raises_on_a_non_finite_product():
    acc = ProductAccumulator(3)
    acc.tri[0, 1] = np.nan
    with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
        acc.readout()


def _update_by_explicit_triangles(acc, z):
    # the accumulator step with every triangle and check spelled out: np.triu on R and
    # on the grading, and separate zero and finiteness checks
    q2, r = np.linalg.qr(np.conj(np.swapaxes(z, -1, -2)) @ acc.q)
    rd = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(rd == 0.0) or not np.all(np.isfinite(rd)):
        raise FloatingPointError("R diagonal underflow in the QR accumulator")
    diff = np.triu(acc.logs[..., None, :] - acc.logs[..., :, None])
    m = np.triu(r) * np.exp(diff) / rd[..., :, None]
    acc.tri = m @ acc.tri
    acc.logs = acc.logs + np.log(rd)
    acc.q = q2


def _steps_against_explicit_triangles(x, batch, n_steps, rng):
    d = len(x)
    acc, ref = ProductAccumulator(d), ProductAccumulator(d)
    for _ in range(n_steps):
        z = kernels._biinvariant_batch(np.tile(x, (math.prod(batch), 1)), rng)
        z = z.reshape(*batch, d, d)
        acc.update(z)
        _update_by_explicit_triangles(ref, z)
        for name in ("q", "logs", "tri"):
            assert np.array_equal(getattr(acc, name), getattr(ref, name)), name
    out = acc.readout()
    assert np.array_equal(out, ref.readout())
    return out


@pytest.mark.parametrize("batch", [(), (5,)])
@pytest.mark.parametrize("d", [2, 3, 8])
def test_update_is_bit_identical_to_explicit_triangles(d, batch):
    x = np.linspace(1.0, -1.0, d)
    _steps_against_explicit_triangles(x, batch, 40, substream(11, d))


@pytest.mark.parametrize("batch", [(), (5,)])
@pytest.mark.parametrize("x", [[3.0, -3.0], [3.0, 0.0, -3.0]])
def test_update_is_bit_identical_past_log_spread_700(x, batch):
    # an unmasked lower triangle of the grading overflows exp here
    out = _steps_against_explicit_triangles(np.array(x), batch, 200, substream(12, len(x)))
    assert np.all(out[..., 0] - out[..., -1] > 700)


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_update_refuses_a_zero_or_nan_step(bad, batch, recwarn):
    rng = substream(13, 0)
    acc = ProductAccumulator(3)
    acc.update(kernels._biinvariant_batch(np.tile([1.0, 0.0, -1.0], (math.prod(batch), 1)),
                                          rng).reshape(*batch, 3, 3))
    before = [acc.q.copy(), acc.logs.copy(), acc.tri.copy()]
    z = kernels._biinvariant_batch(np.tile([1.0, 0.0, -1.0], (math.prod(batch), 1)), rng)
    z = z.reshape(*batch, 3, 3)
    last = z.reshape(-1, 3, 3)[-1]  # a view: one bad replica refuses the whole batch
    if bad == 0.0:
        last[...] = 0.0
    else:
        last[1, 2] = bad
    with pytest.raises(FloatingPointError,
                       match=r"^R diagonal underflow in the QR accumulator$"):
        acc.update(z)
    assert not recwarn.list
    for old, new in zip(before, (acc.q, acc.logs, acc.tri)):
        assert np.array_equal(old, new)


def test_update_takes_an_empty_stack():
    acc = ProductAccumulator(3)
    acc.update(np.zeros((0, 3, 3), dtype=complex))
    assert acc.readout().shape == (0, 3)


@pytest.mark.parametrize("atoms, weights, n_steps, replicas, counts", [
    ([[0.5, -0.5]], [1.0], 20, 300, [10, 10]),
    ([[1.0, 0.0, -1.0]], [1.0], 10, 200, [12, 20, 14]),
    ([[1.0, 0.0, -1.0], [0.5, 0.0, -0.5]], [0.5, 0.5], 10, 200, [13, 18, 24]),
])
def test_crosscheck_streams_are_pinned(atoms, weights, n_steps, replicas, counts):
    # KS distances are counts over n: they ignore last-bit rounding, but move with any
    # draw or accept/reject decision, so a change to a stream must update them on purpose
    rep = euclidean_walk_crosscheck(WalkConfig(
        d=len(atoms[0]), atoms=atoms, weights=weights, n_steps=n_steps,
        n_replicas=replicas, seed=0))
    assert rep.ks_distances == [c / replicas for c in counts]


def test_run_group_walk_converges_to_m1():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=3000,
                     n_replicas=2, seed=5)
    rep = run_group_walk(cfg)
    rs = build_root_system("A", 1)
    assert np.allclose(rep.limit_c, m1_closed(rs, [0.5, -0.5]))
    assert rep.final_error <= 0.05
    assert len(rep.final_errors) == 2
    assert rep.checkpoints[-1] == 3000


def test_run_group_walk_mixture_limit():
    atoms = [[1.0, 0.0, -1.0], [0.5, 0.0, -0.5]]
    weights = [0.25, 0.75]
    cfg = WalkConfig(d=3, atoms=atoms, weights=weights, n_steps=2000, seed=6)
    rep = run_group_walk(cfg)
    rs = build_root_system("A", 2)
    assert np.allclose(rep.limit_c, m1_expectation(rs, np.array(atoms), np.array(weights)))
    assert rep.final_error <= 0.08


def test_run_group_walk_deterministic():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=200, seed=9)
    r1 = run_group_walk(cfg)
    r2 = run_group_walk(cfg)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_walk_report_csv_shape():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=100, seed=1)
    rep = run_group_walk(cfg)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "n,q1_over_n,q2_over_n,mz_scaled_dev"
    assert len(lines) == len(rep.checkpoints) + 1


def test_rejection_rate_closed_form():
    rs = build_root_system("A", 1)
    x = np.array([1.0, -1.0])
    assert np.isclose(rejection_rate(rs, x), math.sinh(2.0) / (2.0 * math.exp(2.0)))
    assert np.isclose(rejection_rate(rs, x), semicharacter(rs, x) * math.exp(-2.0))


def test_tilted_orbit_batch_acceptance_rate():
    rng = substream(3, 0)
    rs = build_root_system("A", 1)
    x = np.array([1.0, -1.0])
    mats, proposed = tilted_orbit_batch(2, x, 20_000, rng)
    rate = rejection_rate(rs, x)
    # proposals overshoot by design, so n/proposed only lower-bounds the
    # acceptance rate; the exact rate is E_Haar[exp(<rho, k.x> - <rho, x>)]
    assert 20_000 / proposed <= rate + 0.01
    u = kernels.haar_unitary_batch(2, 100_000, rng)
    v = (np.abs(u) ** 2) @ x
    observed = float(np.mean(np.exp(v @ rs.rho - float(rs.rho @ x))))
    assert abs(observed - rate) < 0.005
    # every accepted matrix is on the orbit: eigenvalues equal x
    for a in mats[:10]:
        assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [-1.0, 1.0], atol=1e-10)


def test_tilted_orbit_tilt_direction():
    # e_rho tilting shifts the mean diagonal toward the chamber: the mean of
    # a_11 equals m1(x)_1 in expectation
    rng = substream(3, 1)
    x = np.array([1.0, -1.0])
    mats, _ = tilted_orbit_batch(2, x, 100_000, rng)
    rs = build_root_system("A", 1)
    diag = np.einsum("nii->ni", mats).real
    m1 = m1_closed(rs, x)
    assert np.allclose(diag.mean(axis=0), m1, atol=0.01)


def test_tilted_orbit_guards():
    with pytest.raises(ValueError):
        tilted_orbit_batch(2, [-1.0, 1.0], 10, substream(3, 2))
    with pytest.raises(ValueError):
        tilted_orbit_batch(2, [31.0, -31.0], 10, substream(3, 3))


def _tilted_reference(d, x, n, rng):
    """The tilted sampler built the direct way: LAPACK QR with the phase
    fix, U x U* for every proposal, acceptance read off its diagonal."""
    rs = build_root_system("A", d - 1)
    x = np.asarray(x, dtype=float)
    rho_x = float(rs.rho @ x)
    rate = rejection_rate(rs, x)
    out, got, proposed = [], 0, 0
    while got < n:
        m = max(int(math.ceil((n - got) / rate * 1.2)), 16)
        z = (rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))) / math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        u = q * (diag / np.abs(diag))[:, None, :]
        mats = (u * x) @ np.conj(np.swapaxes(u, -1, -2))
        log_acc = np.einsum("nii->ni", mats).real @ rs.rho - rho_x
        keep = np.log(rng.random(m)) < log_acc
        out.append(mats[keep][: n - got])
        got += out[-1].shape[0]
        proposed += m
    return np.concatenate(out), proposed


@pytest.mark.parametrize("d, x, n", [
    (2, [0.5, -0.5], 4000),
    (3, [0.5, 0.0, -0.5], 4000),
    (2, [2.0, -2.0], 4000),
    (3, [1.0, 0.0, -1.0], 6000),    # two 2^20-entry chunks per round
    (4, [0.6, 0.2, -0.3, -0.5], 3000),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_tilted_orbit_batch_matches_direct_sampler(d, x, n, seed):
    ref, ref_proposed = _tilted_reference(d, x, n, substream(seed, 1))
    mats, proposed = tilted_orbit_batch(d, x, n, substream(seed, 1))
    assert proposed == ref_proposed
    assert mats.shape == ref.shape == (n, d, d)
    assert np.abs(mats - ref).max() < 1e-13


def _tilted_full_qr(d, x, n, rng):
    """The tilted sampler with a full Haar stack per round: Gram-Schmidt on every
    column of every proposal, the exponent read off all of |U|^2 x, and U x U*
    formed for the accepted proposals; the chunked sampler must match its bits."""
    rs = build_root_system("A", d - 1)
    x = np.asarray(x, dtype=float)
    rho_x = float(rs.rho @ x)
    if not x.any():
        return np.zeros((n, d, d), dtype=complex), n
    rate = rejection_rate(rs, x)
    rows = max(1, walk._STEP_ENTRIES // (d * d))
    out = np.empty((n, d, d), dtype=complex)
    got = 0
    proposed = 0
    while got < n:
        m = max(int(math.ceil((n - got) / rate * 1.2)), 16)
        us = kernels.haar_unitary_batch(d, m, rng)
        log_u = np.log(rng.random(m))
        for lo in range(0, m, rows):
            u = us[lo : lo + rows]
            log_acc = (np.abs(u) ** 2 @ x) @ rs.rho - rho_x
            assert not np.any(log_acc > 1e-9)
            keep = np.flatnonzero(log_u[lo : lo + rows] < log_acc)[: n - got]
            u = u[keep]
            out[got : got + keep.size] = (u * x) @ np.conj(np.swapaxes(u, -1, -2))
            got += keep.size
        proposed += m
    return out, proposed


@pytest.mark.parametrize("d, x, n", [
    (2, [0.5, -0.5], 4000),
    (3, [0.5, 0.0, -0.5], 4000),
    (4, [0.6, 0.2, -0.3, -0.5], 3000),
    (3, [1.0, 0.0, -1.0], 6000),    # two 2^20-entry chunks per round
    (3, [1.0, 0.0, -1.0], 5),       # seeds 0, 1 and 2 need a second round
    (2, [0.5, -0.5], 0),
    (3, [0.0, 0.0, 0.0], 7),
])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tilted_orbit_batch_is_bit_identical_to_full_gram_schmidt(d, x, n, seed):
    ref, ref_proposed = _tilted_full_qr(d, x, n, substream(seed, 1))
    rng = substream(seed, 1)
    mats, proposed = tilted_orbit_batch(d, x, n, rng)
    assert proposed == ref_proposed
    assert mats.shape == (n, d, d) and np.array_equal(mats, ref)
    # both left the stream at the same point
    ref_rng = substream(seed, 1)
    _tilted_full_qr(d, x, n, ref_rng)
    assert rng.random() == ref_rng.random()


def test_tilted_orbit_batch_memory_stays_near_its_draws():
    # one round at d=3, x=(1,0,-1), n=25000 draws 0.65 M proposals; their
    # Ginibre stack takes 2 * m * d^2 * 8 bytes, and Gram-Schmidt, the
    # acceptance test and U x U* work in place on it, chunk by chunk
    d, x, n = 3, [1.0, 0.0, -1.0], 25_000
    m = math.ceil(n / rejection_rate(build_root_system("A", 2), x) * 1.2)
    tracemalloc.start()
    try:
        _, proposed = tilted_orbit_batch(d, x, n, substream(0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proposed == m
    assert peak < 1.4 * (2 * m * d * d * 8)


def test_tilted_orbit_batch_checks_the_envelope_past_the_last_acceptance(monkeypatch):
    # at d = 2, x = (0.5, -0.5) the rate is 0.43, so n = 1e5 draws 277,565
    # proposals, read in chunks of 2^18 rows, and the first chunk alone
    # accepts about 113,000; Gram-Schmidt leaves the last proposal, in the
    # second chunk, with first column 2 e_1 (so <rho, k.x> = 4 <rho, x>),
    # and the envelope check must still catch it
    ginibre, positive_qr_q = kernels._ginibre, kernels._positive_qr_q
    sizes, chunks = [], []

    def drawn(d, n, rng):
        sizes.append(n)
        return ginibre(d, n, rng)

    def spoiled(z, start=0, stop=None):
        q = positive_qr_q(z, start, stop)
        if start == 0:
            chunks.append(len(q))
            if len(chunks) == 2:
                q[-1, :, :stop] = 2.0 * np.eye(q.shape[-1])[:, :stop]
        return q

    monkeypatch.setattr(kernels, "_ginibre", drawn)
    monkeypatch.setattr(kernels, "_positive_qr_q", spoiled)
    with pytest.raises(RuntimeError, match="envelope"):
        tilted_orbit_batch(2, [0.5, -0.5], 100_000, substream(0, 1))
    assert sizes == [277_565]
    assert chunks == [1 << 18, 277_565 - (1 << 18)]


def test_crosscheck_equality_in_law():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=30,
                     n_replicas=500, seed=4)
    rep = euclidean_walk_crosscheck(cfg)
    assert isinstance(rep, CrosscheckReport)
    assert rep.passed
    assert len(rep.ks_distances) == 2
    assert np.isclose(rep.critical_1pct, 1.628 * math.sqrt(2.0 / 500.0))


@pytest.mark.parametrize("x, n_steps, reps", [
    ([2.0, -2.0], 100, 200),
    ([1.0, 0.0, -1.0], 50, 500),
])
def test_crosscheck_passes_at_wide_spread(x, n_steps, reps):
    # log spreads near 300 and 43, past the 36 (= -ln eps) at which a raw
    # matrix product loses the smallest singular value
    cfg = WalkConfig(d=len(x), atoms=[x], weights=[1.0], n_steps=n_steps,
                     n_replicas=reps, seed=0)
    rep = euclidean_walk_crosscheck(cfg)
    assert all(math.isfinite(k) for k in rep.ks_distances)
    assert rep.passed, rep.ks_distances


def _ks_pair(kind, n, rng):
    a = rng.normal(size=n)
    if kind == "continuous":
        return a, rng.normal(0.1, 1.0, size=n)
    if kind == "ties":
        return np.round(a, 1), np.round(rng.normal(0.05, 1.0, size=n), 1)
    if kind == "identical":
        return a, rng.permutation(a)
    return a, a + 100.0  # disjoint


# at small n scipy's exact p-value can fail; it warns and keeps the rounded statistic
@pytest.mark.filterwarnings("ignore:ks_2samp. Exact calculation unsuccessful:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 7, 500, 2_000, 10_000])
@pytest.mark.parametrize("kind", ["continuous", "ties", "identical", "disjoint"])
def test_ks_distance_is_scipys_statistic(kind, n):
    """Up to n = 10000 scipy rounds its statistic to h/n; the count form has those bits."""
    rng = substream(n, 0)
    for _ in range(10):
        a, b = _ks_pair(kind, n, rng)
        ks = walk._ks_distance(a, b)
        assert ks == float(ks_2samp(a, b).statistic)
        assert ks == {"identical": 0.0, "disjoint": 1.0}.get(kind, ks)


def test_crosscheck_false_alarm_keeps_its_distances():
    """The one crosscheck the benchmark counts as failed: a 1% gate on three
    coordinates rejects this seed.  A change to the crosscheck stream, the tilted
    sampler, the accumulator or the KS distance moves these numbers."""
    cfg = WalkConfig(d=3, atoms=[[1.0, 0.0, -1.0]], weights=[1.0], n_steps=50,
                     n_replicas=500, seed=14)
    rep = euclidean_walk_crosscheck(cfg)
    assert rep.ks_distances == [0.078, 0.108, 0.032]
    assert rep.passed is False


def test_crosscheck_horizon_guard():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=500,
                     n_replicas=10, seed=4)
    with pytest.raises(ValueError):
        euclidean_walk_crosscheck(cfg)


def test_mz_scaled_deviation_negative_slope():
    cfg = WalkConfig(d=2, atoms=[[0.5, -0.5]], weights=[1.0], n_steps=4096,
                     seed=11, r_exponent=1.0)
    report = run_group_walk(cfg)
    assert report.checkpoints[-1] == 4096
    live = [(n, v) for n, v in zip(report.checkpoints, report.mz_scaled_deviation) if v > 0]
    assert len(live) >= 2
    # scaled deviation n^{-1}(q(S_n) - n c) must trend to zero: CLT rate -1/2;
    # its Theil-Sen slope in log-log is the numeric surrogate for the a.s. law
    slope = theilslopes([math.log(v) for _, v in live], [math.log(n) for n, _ in live])[0]
    assert slope < -0.1
