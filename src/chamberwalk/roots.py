"""Root data for the classical families A, B, C and D.

Everything downstream (spherical functions, samplers, walks) consumes the
objects built here: the positive roots, the vector rho (sum of the positive
roots), the Weyl group W as cached arrays of signed permutations, the
closed chamber C, and one private validator per kind of input, each raising
ValueError that names the input: `_check_real` (the number rule: finite real
numbers, or complex for lambda, never bool or strings) and, built on it,
`_check_vec` (ambient vectors and rows), `_check_chamber` (chamber points),
`_check_weights` (probability vectors) and `_check_matrix` (square complex
matrices); `_check_count` takes integer counts.

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
    low = _MIN_RANK[family]
    try:
        rank = _check_count(rank, low, "rank")
    except ValueError as exc:
        raise RootSystemError(f"family {family} requires rank >= {low}: {exc}") from None

    dim = rank + 1 if family == "A" else rank
    e = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    roots = [e[i] - e[j] for i, j in pairs]
    if family == "A":
        order = math.factorial(dim)
    else:
        roots += [e[i] + e[j] for i, j in pairs]
        if family == "B":
            roots += list(e)
            order = 2**rank * math.factorial(rank)
        elif family == "C":
            roots += list(2.0 * e)
            order = 2**rank * math.factorial(rank)
        else:  # D
            order = 2 ** (rank - 1) * math.factorial(rank)

    mat = np.array(roots)
    rho = mat.sum(axis=0)
    mat.setflags(write=False)
    rho.setflags(write=False)
    return RootSystem(family, rank, dim, mat, rho, order)


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
    """`_check_real` for an ambient vector, or with ``rows`` a stack of them:
    ``v`` as a finite array of shape (ambient_dim,) or (n, ambient_dim)."""
    name = name or ("xs" if rows else "vector")
    v = _check_real(v, 1 + rows, name, dtype)
    if v.shape[-1] != rs.ambient_dim:
        raise ValueError(f"{name} has shape {v.shape}, expected length {rs.ambient_dim}")
    return v


def _check_chamber(rs: RootSystem, v, name: str, rows: bool = False) -> np.ndarray:
    """`_check_vec`, and each point within 1e-9 of the closed chamber."""
    v = _check_vec(rs, v, rows=rows, name=name)
    for p in np.atleast_2d(v):
        if not in_chamber(rs, p, tol=1e-9):
            raise ValueError(f"{name} {p} is not in the {rs.family}_{rs.rank} chamber")
    return v


def _check_real(v, ndim: int, name: str, dtype=float,
                nonfinite: str = "has non-finite entries") -> np.ndarray:
    """The number rule: ``v`` as a finite ``dtype`` array with ``ndim`` axes, each entry a
    numbers.Real (numbers.Complex for a complex dtype) and not bool.  Anything else raises
    ValueError naming ``name``; ``nonfinite`` ends the message for a non-finite entry."""
    a = v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
    kind = numbers.Complex if dtype is complex else numbers.Real
    types = {type(e) for e in a.flat} if a.dtype == object else {a.dtype.type}
    if a.ndim != ndim or not all(issubclass(t, kind) and t is not bool for t in types):
        shape = "a number" if ndim == 0 else f"a {ndim}-d array of numbers"
        field = "real" if kind is numbers.Real else "real or complex"
        raise ValueError(f"{name} must be {shape}, {field} and not bool; "
                         f"got shape {a.shape}: {reprlib.repr(v)}")
    try:
        a = np.asarray(a, dtype=dtype)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} has an entry too large for a float") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{name} {nonfinite}")
    return a


def _check_matrix(a, name: str = "matrix") -> np.ndarray:
    """`_check_real` for a matrix: ``a`` as a finite complex (d, d) array, d >= 1."""
    a = _check_real(a, 2, name, complex)
    if a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} must be square and nonempty, got shape {a.shape}")
    return a


def _check_weights(w, name: str = "weights") -> np.ndarray:
    """``w`` as a float probability vector: 1-d, real, finite, nonnegative
    and summing to 1 within 1e-12."""
    rule = "must be a probability vector: finite, nonnegative entries that sum to 1 within 1e-12"
    w = _check_real(w, 1, name, nonfinite=rule)
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError(f"{name} {rule}; got {reprlib.repr(w)}")
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
    v = _check_vec(rs, v)
    return float(np.min(np.abs(rs.positive_roots @ v)))
