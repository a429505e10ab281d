"""Reference values and properties the benchmark checks outputs against.

Everything here is computed without calling chamberwalk: the Weyl group of
A_{d-1} is enumerated from scratch, the strong-law limit is evaluated in
50-digit mpmath, and the cloud checks use partial-sum inequalities every
exact sample must satisfy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: two-sample Kolmogorov-Smirnov coefficient c(alpha) = sqrt(-ln(alpha/2)/2)
KS_COEFF_1PCT = math.sqrt(-math.log(0.01 / 2.0) / 2.0)


def rho_a(d: int) -> list[int]:
    """rho (sum of positive roots e_i - e_j, i < j) for A_{d-1}."""
    return [d - 1 - 2 * i for i in range(d)]


def semicharacter_a(x) -> float:
    """prod over i < j of sinh(t)/t with t = x_i - x_j (1 where t = 0)."""
    out = 1.0
    for i, j in itertools.combinations(range(len(x)), 2):
        t = float(x[i]) - float(x[j])
        out *= math.sinh(t) / t if t else 1.0
    return out


def tilted_acceptance(x) -> float:
    """Acceptance rate of rejection sampling e^<rho, k.x> against Haar at x."""
    rho_x = sum(r * float(v) for r, v in zip(rho_a(len(x)), x))
    return semicharacter_a(x) * math.exp(-rho_x)


def _perm_sign(perm) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def m1_limit(atoms, weights, dps: int = 50) -> list[float]:
    """Strong-law limit sum_k weights_k m1(atoms_k) for A_{d-1}, in mpmath.

    m1(x) = sum_w det w (w.x) e^<w.x, rho> / sum_w det w e^<w.x, rho>
            - sum_alpha alpha / <alpha, rho>.
    """
    import mpmath

    d = len(atoms[0])
    rho = rho_a(d)
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(d))]
    with mpmath.workdps(dps):
        shift = [mpmath.mpf(0)] * d
        for i, j in itertools.combinations(range(d), 2):
            pairing = rho[i] - rho[j]
            shift[i] += mpmath.mpf(1) / pairing
            shift[j] -= mpmath.mpf(1) / pairing
        total = [mpmath.mpf(0)] * d
        for atom, weight in zip(atoms, weights):
            x = [mpmath.mpf(repr(float(v))) for v in atom]
            num = [mpmath.mpf(0)] * d
            den = mpmath.mpf(0)
            for perm, sign in perms:
                wx = [x[perm[i]] for i in range(d)]
                e = sign * mpmath.exp(sum(r * v for r, v in zip(rho, wx)))
                den += e
                for i in range(d):
                    num[i] += e * wx[i]
            w = mpmath.mpf(repr(float(weight)))
            for i in range(d):
                total[i] += w * (num[i] / den - shift[i])
        return [float(v) for v in total]


def m1_limit_a1(a: float, dps: int = 50) -> list[float]:
    """Closed form for A_1 at x = (a, -a): (a coth 2a - 1/2, -(a coth 2a - 1/2))."""
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(repr(float(a)))
        c = a * mpmath.coth(2 * a) - mpmath.mpf(1) / 2
        return [float(c), float(-c)]


def ks_critical_1pct(n1: int, n2: int) -> float:
    return KS_COEFF_1PCT * math.sqrt((n1 + n2) / (n1 * n2))


def chamber_rows_problems(z: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Rows must be finite, descending and sum to zero."""
    problems = []
    if not np.all(np.isfinite(z)):
        problems.append("non-finite sample")
    if np.any(np.diff(z, axis=1) > tol):
        problems.append("sample not in descending order")
    if np.any(np.abs(z.sum(axis=1)) > tol):
        problems.append("sample does not sum to zero")
    return problems


def partial_sum_problems(z: np.ndarray, x, y, tol: float = 1e-9) -> list[str]:
    """Ky Fan bounds on the top-k partial sums of each descending row of z.

    For Hermitian A, B with spectra x, y, every k < d satisfies
        top_k(x) + bottom_k(y) <= top_k(spec(A + B)) <= top_k(x) + top_k(y)
    and symmetrically in x, y; the multiplicative form holds for the log
    singular values of e^diag(x) U e^diag(y).
    """
    xs = np.sort(np.asarray(x, dtype=float))[::-1]
    ys = np.sort(np.asarray(y, dtype=float))[::-1]
    top = np.cumsum(z, axis=1)[:, :-1]
    upper = (np.cumsum(xs) + np.cumsum(ys))[:-1]
    lower = np.maximum(np.cumsum(xs) + np.cumsum(ys[::-1]),
                       np.cumsum(ys) + np.cumsum(xs[::-1]))[:-1]
    problems = []
    if np.any(top > upper + tol):
        problems.append("partial sums exceed the Ky Fan upper bound")
    if np.any(top < lower - tol):
        problems.append("partial sums fall below the Ky Fan lower bound")
    return problems
