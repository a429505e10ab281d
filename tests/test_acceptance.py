"""Acceptance gate: one test (and one verbose pass/fail line) per criterion.

Each criterion runs at full scale with a fixed seed; statistical checks use
the tolerances stated in their docstrings.  The helper prints an explicit
CRITERION line so the log carries one pass/fail record per criterion even
outside verbose mode.
"""

import filecmp
import math

import numpy as np
import pytest

from chamberwalk import selftest as st
from chamberwalk.selftest import FULL, run_selftest
from chamberwalk.walk import substream

SEED = 0


def _record(num, name, outcome):
    status = "PASS" if outcome.passed else "FAIL"
    print(f"CRITERION {num:02d} [{name}]: {status}  {outcome.details}")
    assert outcome.passed, f"criterion {num} ({name}) failed: {outcome.details}"


def test_criterion_01_rho_tables():
    """Exact rho formulas for A (d=2..8), B (n=2..6), C (n=3..6), D (n=4..6)."""
    _record(1, "rho-tables", st.check_rho_tables(FULL, substream(SEED, 1000)))


def test_criterion_02_psi_vs_haar_integral():
    """Closed form vs 1e6-sample Haar MC within 3 stderr, d in {2,3}, 5 points each."""
    _record(2, "psi-vs-haar-mc", st.check_psi_vs_haar_mc(FULL, substream(SEED, 1001)))


def test_criterion_03_ratio_identity():
    """phi_lambda * psi_{-i rho} = psi_lambda to 1e-10, 50 points per family."""
    _record(3, "ratio-identity", st.check_ratio_identity(FULL, substream(SEED, 1002)))


def test_criterion_04_bc_coincidence():
    """B and C spherical functions agree to 1e-9 at 50 points, ranks 3 and 4."""
    _record(4, "bc-coincidence", st.check_bc_coincidence(FULL, substream(SEED, 1003)))


def test_criterion_05_m1_consistency():
    """m1 closed form vs 1e6-sample MC within 3 stderr; chamber membership and
    contraction on 200 random points per family."""
    _record(5, "m1-consistency", st.check_m1_consistency(FULL, substream(SEED, 1004)))


def test_criterion_06_deformation_identity():
    """3-sigma MC agreement of the deformation identity on the regression list,
    n = 1e5 per side."""
    _record(6, "deformation", st.check_deformation(FULL, substream(SEED, 1005)))


def test_criterion_07_semicharacter_multiplicativity():
    """3-sigma agreement with psi_{-i rho}(x) psi_{-i rho}(y) on the regression list."""
    _record(7, "multiplicativity", st.check_multiplicativity(FULL, substream(SEED, 1006)))


def test_criterion_08_support_equivalence():
    """SupportReport.pass on 10 regression pairs at n = 1e4, plus the d = 2
    support-extent oracle: [0, 2] matched within 0.02 on both clouds."""
    _record(8, "support", st.check_support(FULL, substream(SEED, 1007)))


def test_criterion_09_strong_law():
    """Every replica's final ||q(S_n)/n - limit|| <= 0.05 at n = 5000,
    5 replicas, for the single-atom d = 2 case and the d = 3 mixture."""
    outcome, _ = st.check_strong_law(FULL, SEED)
    for case in outcome.details["cases"]:
        assert all(e <= 0.05 for e in case["final_errors"])
    _record(9, "strong-law", outcome)


def test_criterion_10_qr_accumulator_exactness():
    """Accumulator readout vs direct log-singular spectrum to 1e-6,
    100 random walks of n <= 50 steps, d in {2,3}."""
    _record(10, "qr-exactness", st.check_qr_exactness(FULL, substream(SEED, 1008)))


def test_criterion_11_equality_in_law_crosscheck():
    """Two-sample KS distances below the 1% critical value for d = 2,
    n = 50 steps, 2000 replicas."""
    _record(11, "crosscheck-law", st.check_crosscheck_law(FULL, SEED))


def test_criterion_12_contractivity():
    """||p(A) - p(B)||_2 <= ||A - B||_F on 1000 random Hermitian pairs."""
    _record(12, "contractivity", st.check_contractivity(FULL, substream(SEED, 1009)))


def test_criterion_13_determinism(tmp_path):
    """Fast selftest run twice with the same seed produces byte-identical
    artifacts."""
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    _, report_a = run_selftest("fast", SEED, dir_a)
    _, report_b = run_selftest("fast", SEED, dir_b)
    assert report_a["pass"] and report_b["pass"]
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    assert len(names) >= 2
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    identical = not mismatch and not errors
    print(f"CRITERION 13 [determinism]: {'PASS' if identical else 'FAIL'}  "
          f"files={names} mismatch={mismatch}")
    assert identical
