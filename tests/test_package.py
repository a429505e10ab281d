import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chamberwalk
from chamberwalk.convolve import (EmpiricalMeasure, conv_group_cloud, conv_hermitian_cloud,
                                  deformation_check, semicharacter_multiplicativity,
                                  spherical_transform_empirical, support_equivalence,
                                  transform_homomorphism)
from chamberwalk.kernels import (hermitian_spectrum, log_singular_spectrum,
                                 orbit_diagonal_batch, sample_biinvariant)
from chamberwalk.roots import build_root_system, chamber_project, min_root_pairing
from chamberwalk.special import (log_semicharacter_rows, m1_closed, m1_closed_rows,
                                 m1_expectation, m1_mc, semicharacter, spherical_phi,
                                 spherical_phi_rows, spherical_psi, spherical_psi_rows)
from chamberwalk.walk import WalkConfig, rejection_rate, substream, tilted_orbit_batch

SRC = Path(chamberwalk.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in chamberwalk.__all__ if not hasattr(chamberwalk, name)]
    assert missing == []
    assert len(set(chamberwalk.__all__)) == len(chamberwalk.__all__)


def test_no_public_name_is_test_only():
    """Each public top-level function or class is exported or used in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in chamberwalk.__all__
        and node.name not in used
    ]
    assert unused == []


def test_no_private_name_is_unread():
    """Each module-level private function, class or constant is read somewhere in the
    package, so a formula that nothing calls any more cannot stay behind."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    assert len(defined) > 60  # the walk found the package's private names
    assert [f"{module}:{name}" for module, name in defined if name not in read] == []


def test_only_roots_converts_an_argument():
    """No public function outside roots hands one of its own parameters to a numpy
    converter: vectors, rows, measures and matrices go through the validators in roots."""
    converters = {"asarray", "array", "atleast_2d"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "roots.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name.startswith("_")):
                continue
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "np" and call.func.attr in converters
                        and any(isinstance(a, ast.Name) and a.id in params for a in call.args)):
                    offenders.append(f"{path.name}:{fn.name}")
    assert offenders == []


def test_one_draw_order_for_normals():
    """`standard_normal` is called only by the Ginibre and SO(m) draws in kernels and two
    selftest helpers, so no second inline Ginibre draw forks a substream."""
    allowed = {"kernels.py:_ginibre", "kernels.py:haar_orthogonal_batch",
               "selftest.py:_random_regular_vec", "selftest.py:_random_hermitian"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(node): fn.name for node in ast.walk(fn)})
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "standard_normal"):
                callers.add(f"{path.name}:{owner.get(id(call), '<module>')}")
    assert callers == allowed


A1 = build_root_system("A", 1)
_BAD = {"bool": [True, -1], "string": ["1", "-1"], "complex": [1 + 0j, -1],
        "nan": [np.nan, -1.0], "length": [1.0, 0.0, -1.0]}


def _rng():
    return substream(0, 0)


#: (id, call on the bad vector, the name its error starts with, cases that do not apply)
_VECTOR_ENTRIES = [
    ("chamber_project", lambda v: chamber_project(A1, v), "vector", ()),
    ("min_root_pairing", lambda v: min_root_pairing(A1, v), "vector", ()),
    ("semicharacter", lambda v: semicharacter(A1, v), "vector", ()),
    ("log_semicharacter_rows", lambda v: log_semicharacter_rows(A1, [v]), "xs", ()),
    ("psi-x", lambda v: spherical_psi(A1, [0.3, -0.3], v), "vector", ()),
    ("psi-lambda", lambda v: spherical_psi(A1, v, [1.0, -1.0]), "vector", ("complex",)),
    ("phi-x", lambda v: spherical_phi(A1, [0.3, -0.3], v), "vector", ()),
    ("phi-lambda", lambda v: spherical_phi(A1, v, [1.0, -1.0]), "vector", ("complex",)),
    ("psi-rows", lambda v: spherical_psi_rows(A1, [0.3, -0.3], [v]), "xs", ()),
    ("phi-rows-lambda", lambda v: spherical_phi_rows(A1, v, [[1.0, -1.0]]), "vector",
     ("complex",)),
    ("m1_closed", lambda v: m1_closed(A1, v), "vector", ()),
    ("m1_closed_rows", lambda v: m1_closed_rows(A1, [v]), "xs", ()),
    ("m1_mc", lambda v: m1_mc(A1, v, 10, _rng()), "vector", ()),
    ("m1_expectation", lambda v: m1_expectation(A1, [v], [1.0]), "atoms", ()),
    ("sample_biinvariant", lambda v: sample_biinvariant(v, _rng()), "chamber point",
     ("length",)),  # any length of at least 2 is a chamber point of some A_n
    ("orbit_diagonal_batch", lambda v: orbit_diagonal_batch(A1, v, 4, _rng()), "x", ()),
    ("conv_hermitian_cloud",
     lambda v: conv_hermitian_cloud(2, v, [1.0, -1.0], 10, _rng()), "x", ()),
    ("conv_group_cloud", lambda v: conv_group_cloud(2, [1.0, -1.0], v, 10, _rng()), "y", ()),
    ("semicharacter_multiplicativity",
     lambda v: semicharacter_multiplicativity(2, v, [1.0, -1.0], 10, _rng()), "x", ()),
    ("support_equivalence",
     lambda v: support_equivalence(2, [1.0, -1.0], v, 100, _rng()), "y", ()),
    ("deformation_check-lambda",
     lambda v: deformation_check(2, [1.0, -1.0], [1.0, -1.0], ("phi", v), 10, _rng()),
     "lambda", ()),
    ("spherical_transform_empirical",
     lambda v: spherical_transform_empirical(EmpiricalMeasure.uniform([[1.0, -1.0]]), v,
                                             "psi"), "lambda", ()),
    ("transform_homomorphism-lambda",
     lambda v: transform_homomorphism(2, [1.0, -1.0], [1.0, -1.0], v, 10, _rng()), "lambda", ()),
    ("EmpiricalMeasure.uniform", lambda v: EmpiricalMeasure.uniform([v]), "atoms",
     ("length",)),  # a measure takes its dimension from its atoms
    ("rejection_rate", lambda v: rejection_rate(A1, v), "x", ()),
    ("tilted_orbit_batch", lambda v: tilted_orbit_batch(2, v, 4, _rng()), "x", ()),
    ("WalkConfig", lambda v: WalkConfig(d=2, atoms=[v], weights=[1.0], n_steps=4),
     "WalkConfig field 'atoms'|need atoms", ()),
]


@pytest.mark.parametrize("call, name, case", [
    pytest.param(call, name, case, id=f"{entry}-{case}")
    for entry, call, name, skip in _VECTOR_ENTRIES for case in _BAD if case not in skip
])
def test_every_vector_entry_takes_numbers_by_one_rule(call, name, case):
    with pytest.raises(ValueError, match=f"^({name}) "):
        call(_BAD[case])
    call([1.0, -1.0])  # the same entry answers a good vector


_BAD_MATRIX = {"bool": [[True, False], [False, True]], "string": [["1", "0"], ["0", "-1"]],
               "nan": [[np.nan, 0.0], [0.0, 0.0]], "ragged": [[1.0, 0.0], [0.0]],
               "non-square": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], "1-d": [1.0, -1.0],
               "3-d": [[[1.0, 0.0], [0.0, -1.0]]], "empty": np.zeros((0, 0))}
_MATRIX_FUNCS = {"hermitian_spectrum": hermitian_spectrum,
                 "log_singular_spectrum": log_singular_spectrum}


@pytest.mark.parametrize("entry", _MATRIX_FUNCS)
@pytest.mark.parametrize("case", _BAD_MATRIX)
def test_every_matrix_entry_takes_numbers_by_one_rule(entry, case):
    with pytest.raises(ValueError, match="^matrix "):
        _MATRIX_FUNCS[entry](_BAD_MATRIX[case])


def test_matrix_entries_answer_a_complex_hermitian_list():
    a = [[1.0, 2j], [-2j, -1.0]]  # traceless Hermitian, eigenvalues +-sqrt(5)
    assert np.allclose(hermitian_spectrum(a), [5**0.5, -5**0.5], rtol=0, atol=1e-14)
    b = [[2.0, 1j], [1j, 0.0]]  # det 1, singular values sqrt(2) +- 1
    assert np.allclose(log_singular_spectrum(b), [np.log(2**0.5 + 1), -np.log(2**0.5 + 1)],
                       rtol=0, atol=1e-14)


def test_complex_lambda_is_still_a_spherical_parameter():
    x = [1.0, -1.0]
    lam = -1j * A1.rho
    assert abs(spherical_psi(A1, lam, x).value - semicharacter(A1, x)) <= 1e-12
    assert abs(spherical_phi(A1, lam, x).value - 1.0) <= 1e-12
    assert spherical_phi_rows(A1, lam, [x]).value.shape == (1,)


def test_importing_the_cli_loads_no_scipy():
    """Start-up stays light: only the support check loads scipy, when it runs."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, chamberwalk.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert json.loads(out) == []
