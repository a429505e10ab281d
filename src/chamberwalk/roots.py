"""Root data for the classical families A, B, C and D.

Everything downstream (spherical functions, samplers, walks) consumes the
objects built here: the positive roots, the vector rho (sum of the positive
roots), the Weyl group W as cached arrays of signed permutations, the
closed chamber C, and one private validator per kind of input, each raising
ValueError that names the input: `_check_vec` (ambient vectors and rows,
converted by numpy's float conversion), `_check_chamber` (chamber points),
`_check_real` (arrays whose entries are real numbers, not bool or strings),
`_check_weights` (probability vectors) and `_check_count` (integer counts).

Conventions: vectors live in R^ambient_dim with the standard dot product.
For family A the ambient dimension is rank+1 and all roots and chamber
points have coordinate sum zero.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}

#: refuse to enumerate Weyl groups larger than this
WEYL_ENUM_LIMIT = 10**6

_A_SUM_TOL = 1e-9


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient_dim: int
    positive_roots: np.ndarray  # (n_roots, ambient_dim), read-only
    rho: np.ndarray             # (ambient_dim,), read-only
    weyl_order: int

    @property
    def n_positive_roots(self) -> int:
        return self.positive_roots.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "rank": self.rank,
                "positive_roots": self.positive_roots.tolist(),
                "rho": self.rho.tolist(),
                "weyl_order": self.weyl_order,
            }
        )


@dataclass(frozen=True)
class WeylGroup:
    """W as signed permutations, one row per element w.

    (w.v)[i] = signs[w, i] * v[perms[w, i]], and dets[w] = det w = +-1.
    Rows run permutation-major, sign pattern minor.  The arrays are read-only.
    """

    perms: np.ndarray  # (|W|, dim) int
    signs: np.ndarray  # (|W|, dim) float
    dets: np.ndarray   # (|W|,) float

    def images(self, v) -> np.ndarray:
        """Every w.v, shape (..., |W|, dim), for v of shape (..., dim)."""
        v = np.asarray(v)
        if v.shape[-1:] != self.perms.shape[1:]:
            raise ValueError(f"W acts on {self.perms.shape[1]}-vectors, got shape {v.shape}")
        return self.signs * v[..., self.perms]


def build_root_system(family: str, rank: int) -> RootSystem:
    """Build the root data for ``family`` in {A, B, C, D} at the given rank.

    Rank bounds follow the classical series: A needs rank >= 1, B >= 2,
    C >= 3, D >= 4.
    """
    if family not in FAMILIES:
        raise RootSystemError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if rank < _MIN_RANK[family]:
        raise RootSystemError(
            f"family {family} requires rank >= {_MIN_RANK[family]}, got {rank}"
        )

    dim = rank + 1 if family == "A" else rank
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    roots = [_e(i, dim) - _e(j, dim) for i, j in pairs]
    if family == "A":
        order = math.factorial(dim)
    else:
        roots += [_e(i, dim) + _e(j, dim) for i, j in pairs]
        if family == "B":
            roots += [_e(i, dim) for i in range(dim)]
            order = 2**rank * math.factorial(rank)
        elif family == "C":
            roots += [2.0 * _e(i, dim) for i in range(dim)]
            order = 2**rank * math.factorial(rank)
        else:  # D
            order = 2 ** (rank - 1) * math.factorial(rank)

    mat = np.array(roots)
    rho = mat.sum(axis=0)
    mat.setflags(write=False)
    rho.setflags(write=False)
    return RootSystem(family, rank, dim, mat, rho, order)


def _e(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = 1.0
    return v


@lru_cache(maxsize=None)
def _enumerate_weyl_cached(family: str, rank: int) -> WeylGroup:
    rs = build_root_system(family, rank)
    if rs.weyl_order > WEYL_ENUM_LIMIT:
        raise RootSystemError(
            f"Weyl group of {family}_{rank} has {rs.weyl_order} elements, "
            f"above the enumeration guard {WEYL_ENUM_LIMIT}; lower the rank"
        )
    dim = rs.ambient_dim
    perms = np.array(list(itertools.permutations(range(dim))))
    # each permutation's parity from its inversion count
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    parity = 1.0 - 2.0 * (inversions % 2)
    if family == "A":
        patterns = np.ones((1, dim))
    else:
        patterns = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
        if family == "D":
            patterns = patterns[patterns.prod(axis=1) == 1.0]
    k = patterns.shape[0]
    perms = np.repeat(perms, k, axis=0)
    signs = np.tile(patterns, (perms.shape[0] // k, 1))
    dets = np.repeat(parity, k) * signs.prod(axis=1)
    assert dets.size == rs.weyl_order
    for a in (perms, signs, dets):
        a.setflags(write=False)
    return WeylGroup(perms, signs, dets)


def enumerate_weyl(rs: RootSystem) -> WeylGroup:
    """The Weyl group of ``rs`` as arrays, built on first use and cached.

    Raises RootSystemError above WEYL_ENUM_LIMIT elements.
    """
    return _enumerate_weyl_cached(rs.family, rs.rank)


def _check_vec(rs: RootSystem, v, dtype=float, rows: bool = False, name=None) -> np.ndarray:
    """``v`` as a finite array of the given dtype and shape (ambient_dim,),
    or (n, ambient_dim) with ``rows``."""
    v = np.asarray(v, dtype=dtype)
    what = f"{name} has" if name else "rows have" if rows else "vector has"
    if v.ndim != 1 + rows or v.shape[-1] != rs.ambient_dim:
        raise ValueError(f"{what} shape {v.shape}, expected length {rs.ambient_dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} non-finite entries")
    return v


def _check_chamber(rs: RootSystem, v, name: str, rows: bool = False) -> np.ndarray:
    """`_check_vec`, and each point within 1e-9 of the closed chamber."""
    v = _check_vec(rs, v, rows=rows, name=name)
    for p in np.atleast_2d(v):
        if not in_chamber(rs, p, tol=1e-9):
            raise ValueError(f"{name} {p} is not in the {rs.family}_{rs.rank} chamber")
    return v


def _check_real(v, ndim: int, name: str) -> np.ndarray:
    """``v`` as a float array with ``ndim`` axes.  Every entry must be a
    numbers.Real: bool, complex, strings and other types raise ValueError."""
    a = v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
    types = {type(e) for e in a.flat} if a.dtype == object else {a.dtype.type}
    real = all(issubclass(t, numbers.Real) and t is not bool for t in types)
    if a.ndim != ndim or not real:
        kind = "a number" if ndim == 0 else f"a {ndim}-d array of numbers"
        raise ValueError(f"{name} must be {kind}, real and not bool; "
                         f"got shape {a.shape}: {reprlib.repr(v)}")
    try:
        return np.asarray(a, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} has an entry too large for a float") from None


def _check_weights(w, name: str = "weights") -> np.ndarray:
    """``w`` as a float probability vector: 1-d, real, finite, nonnegative
    and summing to 1 within 1e-12."""
    w = _check_real(w, 1, name)
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails both
        raise ValueError(f"{name} must be a probability vector: finite, nonnegative "
                         f"entries that sum to 1 within 1e-12; got {reprlib.repr(w)}")
    return w


def _check_count(n, minimum: int, name: str) -> int:
    """``n`` as an int >= ``minimum``; an integral float counts, bool does not."""
    whole = isinstance(n, (float, np.floating)) and float(n).is_integer()
    if not (whole or isinstance(n, numbers.Integral)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {n}")
    return int(n)


def chamber_project(rs: RootSystem, v) -> np.ndarray:
    """The unique chamber representative of the Weyl orbit of ``v``.

    Family A inputs must have coordinate sum within 1e-9 of zero; they are
    re-centered exactly before sorting.  Raises ValueError on a wrong
    length or a non-finite entry.
    """
    v = _check_vec(rs, v)
    if rs.family == "A":
        if abs(v.sum()) > _A_SUM_TOL:
            raise ValueError(
                f"A-family vector must have zero coordinate sum, got {v.sum():g}"
            )
        v = v - v.mean()
        return np.sort(v)[::-1].copy()
    out = np.sort(np.abs(v))[::-1]
    if rs.family == "D" and int(np.sum(v < 0)) % 2 == 1:
        # odd number of sign flips absorbed into the last coordinate;
        # a zero coordinate makes the negation a no-op, which is correct
        out[-1] = -out[-1]
    return out


def in_chamber(rs: RootSystem, x, tol: float = 1e-12) -> bool:
    """Whether ``x`` is a finite point of the closed chamber, within ``tol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rs.ambient_dim,) or not np.all(np.isfinite(x)):
        return False
    d = np.diff(x)
    if np.any(d > tol):
        return False
    if rs.family == "A":
        return abs(x.sum()) <= max(tol, _A_SUM_TOL)
    if rs.family in ("B", "C"):
        return x[-1] >= -tol
    return x[-2] >= abs(x[-1]) - tol  # D


def min_root_pairing(rs: RootSystem, v) -> float:
    """min over positive roots of |<alpha, v>|; zero iff v lies on a wall."""
    v = np.asarray(v)
    return float(np.min(np.abs(rs.positive_roots @ v)))
