import itertools
import re

import numpy as np
import pytest

from chamberwalk.roots import (
    RootSystemError,
    build_root_system,
    chamber_project,
    enumerate_weyl,
    in_chamber,
    min_root_pairing,
)

RHO = {
    ("A", 1): [1, -1],
    ("A", 2): [2, 0, -2],
    ("A", 3): [3, 1, -1, -3],
    ("B", 2): [3, 1],
    ("B", 3): [5, 3, 1],
    ("C", 3): [6, 4, 2],
    ("C", 4): [8, 6, 4, 2],
    ("D", 4): [6, 4, 2, 0],
    ("D", 5): [8, 6, 4, 2, 0],
}

N_POS = {"A": lambda r: (r + 1) * r // 2, "B": lambda r: r * r,
         "C": lambda r: r * r, "D": lambda r: r * (r - 1)}


@pytest.mark.parametrize("family,rank", sorted(RHO))
def test_rho_tables(family, rank):
    rs = build_root_system(family, rank)
    assert np.array_equal(rs.rho, np.array(RHO[(family, rank)], dtype=float))


@pytest.mark.parametrize("family,rank", sorted(RHO))
def test_rho_is_sum_of_positive_roots(family, rank):
    rs = build_root_system(family, rank)
    assert np.allclose(rs.positive_roots.sum(axis=0), rs.rho)


@pytest.mark.parametrize("family,rank", sorted(RHO))
def test_positive_root_count(family, rank):
    rs = build_root_system(family, rank)
    assert rs.n_positive_roots == N_POS[family](rank)


def test_ambient_dimensions():
    assert build_root_system("A", 3).ambient_dim == 4
    for fam in "BCD":
        rs = build_root_system(fam, 4)
        assert rs.ambient_dim == 4


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24),
     ("B", 2, 8), ("B", 3, 48), ("C", 3, 48),
     ("D", 4, 192)],
)
def test_weyl_order(family, rank, order):
    rs = build_root_system(family, rank)
    assert rs.weyl_order == order
    weyl = enumerate_weyl(rs)
    assert weyl.dets.shape == (order,)
    assert weyl.perms.shape == weyl.signs.shape == (order, rs.ambient_dim)


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 6)])
def test_rank_guards(family, rank):
    with pytest.raises(RootSystemError):
        build_root_system(family, rank)


@pytest.mark.parametrize("family, rank, named", [
    ("A", True, "family A requires rank >= 1: rank must be an integer, got True"),
    ("B", 2.5, "family B requires rank >= 2: rank must be an integer, got 2.5"),
    ("D", "4", "family D requires rank >= 4: rank must be an integer, got '4'"),
    ("C", 2, "family C requires rank >= 3: rank must be at least 3, got 2"),
])
def test_rank_takes_the_count_rule(family, rank, named):
    with pytest.raises(RootSystemError, match=re.escape(named)):
        build_root_system(family, rank)
    rs = build_root_system("B", 3.0)
    assert type(rs.rank) is int and rs.rank == 3 and rs.weyl_order == 48


def test_weyl_elements_are_isometries():
    rng = np.random.default_rng(0)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        v = rng.standard_normal(rs.ambient_dim)
        for wv in enumerate_weyl(rs).images(v):
            assert np.isclose(np.linalg.norm(wv), np.linalg.norm(v))


def test_weyl_det_signs():
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        dets = enumerate_weyl(rs).dets.tolist()
        assert set(dets) == {-1, 1}
        assert sum(dets) == 0  # equal split between even and odd elements


def test_d_family_even_sign_flips_only():
    rs = build_root_system("D", 4)
    for signs in enumerate_weyl(rs).signs:
        assert np.prod(signs) == 1


def _itertools_weyl(family, dim):
    """(perms, signs, dets) of W, permutation-major, by brute force."""
    if family == "A":
        patterns = [(1,) * dim]
    else:
        patterns = [p for p in itertools.product((1, -1), repeat=dim)
                    if family != "D" or np.prod(p) == 1]
    perms, signs, dets = [], [], []
    for perm in itertools.permutations(range(dim)):
        inversions = sum(perm[i] > perm[j] for i in range(dim) for j in range(i + 1, dim))
        for pattern in patterns:
            perms.append(perm)
            signs.append(pattern)
            dets.append((-1) ** inversions * np.prod(pattern))
    return np.array(perms), np.array(signs, dtype=float), np.array(dets, dtype=float)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5),
])
def test_weyl_group_arrays_match_itertools(family, rank):
    rs = build_root_system(family, rank)
    weyl = enumerate_weyl(rs)
    assert enumerate_weyl(rs) is weyl
    for got, ref in zip((weyl.perms, weyl.signs, weyl.dets),
                        _itertools_weyl(family, rs.ambient_dim)):
        assert got.dtype.kind == ref.dtype.kind
        assert np.array_equal(got, ref)
        assert not got.flags.writeable
    v = np.random.default_rng(5).standard_normal((2, 3, rs.ambient_dim))
    images = weyl.images(v)
    assert images.shape == (2, 3, rs.weyl_order, rs.ambient_dim)
    for k in range(rs.weyl_order):
        assert np.array_equal(images[..., k, :], weyl.signs[k] * v[..., weyl.perms[k]])


def test_weyl_images_reject_wrong_dimension():
    weyl = enumerate_weyl(build_root_system("B", 3))
    for v in (np.zeros(2), np.zeros(4), np.zeros((5, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="3-vectors"):
            weyl.images(v)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chamber_project_rejects_non_finite(family, rank, bad):
    rs = build_root_system(family, rank)
    v = np.zeros(rs.ambient_dim)
    v[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        chamber_project(rs, v)


def test_chamber_project_a_family():
    rs = build_root_system("A", 2)
    out = chamber_project(rs, np.array([-1.0, 2.0, -1.0]))
    assert np.allclose(out, [2.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        chamber_project(rs, np.array([1.0, 1.0, 1.0]))  # nonzero coordinate sum


def test_chamber_project_bc_families():
    for fam, rank in [("B", 3), ("C", 3)]:
        rs = build_root_system(fam, rank)
        out = chamber_project(rs, np.array([-2.0, 1.0, -3.0]))
        assert np.allclose(out, [3.0, 2.0, 1.0])


def test_chamber_project_d_family_parity():
    rs = build_root_system("D", 4)
    # odd number of negatives and no zero coordinate: last entry stays negative
    out = chamber_project(rs, np.array([-1.0, -2.0, -3.0, -5.0]))
    assert np.allclose(out, [5.0, 3.0, 2.0, 1.0])
    out = chamber_project(rs, np.array([1.0, -2.0, 3.0, 5.0]))
    assert np.allclose(out, [5.0, 3.0, 2.0, -1.0])
    # a zero coordinate absorbs the sign: fully nonnegative result
    out = chamber_project(rs, np.array([0.0, -2.0, -3.0, -5.0]))
    assert np.allclose(out, [5.0, 3.0, 2.0, 0.0])


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_chamber_project_is_weyl_orbit_representative(family, rank):
    """Brute-force oracle: the projection is the unique orbit point in C."""
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(7)
    weyl = enumerate_weyl(rs)
    for _ in range(25):
        v = rng.standard_normal(rs.ambient_dim)
        if family == "A":
            v -= v.mean()
        out = chamber_project(rs, v)
        assert in_chamber(rs, out, tol=1e-9)
        orbit = weyl.images(v)
        assert min(np.linalg.norm(out - o) for o in orbit) < 1e-12
        in_c = [o for o in orbit if in_chamber(rs, o, tol=1e-12)]
        for o in in_c:
            assert np.allclose(o, out)


def test_in_chamber():
    rs = build_root_system("A", 2)
    assert in_chamber(rs, np.array([1.0, 0.0, -1.0]))
    assert not in_chamber(rs, np.array([0.0, 1.0, -1.0]))
    rd = build_root_system("D", 4)
    assert in_chamber(rd, np.array([3.0, 2.0, 1.0, -0.5]))  # last entry may be < 0
    assert not in_chamber(rd, np.array([3.0, 2.0, -1.0, 0.5]))


@pytest.mark.parametrize("family,point", [("A", [1.0, 0.0, -1.0]), ("B", [2.0, 1.0]),
                                          ("C", [3.0, 1.0, 0.5]), ("D", [3.0, 2.0, 1.0, 0.5])])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_in_chamber_rejects_non_finite(family, point, bad):
    # every comparison with NaN is False, so no coordinate test alone catches it
    rs = build_root_system(family, len(point) - (family == "A"))
    assert in_chamber(rs, point)
    for i in range(len(point)):
        x = np.array(point)
        x[i] = bad
        assert not in_chamber(rs, x), (x, i)


def test_alt_polynomial_antisymmetry():
    """pi(w.v) = det w * pi(v), with pi(v) the product of <alpha, v>."""
    rng = np.random.default_rng(3)
    for fam, rank in [("A", 2), ("B", 2), ("D", 4)]:
        rs = build_root_system(fam, rank)
        v = rng.standard_normal(rs.ambient_dim)
        weyl = enumerate_weyl(rs)
        pv = np.prod(rs.positive_roots @ v)
        for wv, det in zip(weyl.images(v), weyl.dets):
            assert np.isclose(np.prod(rs.positive_roots @ wv), det * pv)


def test_min_root_pairing_zero_on_walls():
    rs = build_root_system("A", 2)
    assert min_root_pairing(rs, np.array([1.0, 1.0, -2.0])) == 0.0
    assert min_root_pairing(rs, np.array([2.0, 0.0, -2.0])) == 2.0


def test_root_system_to_json_roundtrip():
    import json

    rs = build_root_system("B", 3)
    data = json.loads(rs.to_json())
    assert data["family"] == "B"
    assert data["rank"] == 3
    assert np.allclose(np.array(data["rho"]), rs.rho)
    assert len(data["positive_roots"]) == rs.n_positive_roots
