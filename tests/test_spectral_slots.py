"""Spectra enter a stack only at birth or through its lazy caches.

``HermitianStack`` keeps what it knows of its spectrum in three private
slots.  A kernel that knows a spectrum passes it to the constructor
(``_seal``, reached through ``_trusted`` and ``_derive``); otherwise
``_eigenvalues`` and ``_spectrum`` fill the caches on first use.  These
tests scan the package source so that a write from anywhere else (a
kernel seeding a stack after birth, or overwriting one already in use)
fails here, and check the one composition body that the spectral calculus
and the ``spectrum`` draws share, and the one Cholesky certificate behind
every gate and verdict that reads no eigenvalue.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from tmlab.core import HermitianStack, TensorShape, _composed
from tmlab.harness import EnsembleSpec, _draw, sample

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tmlab"
SLOTS = {"_evals", "_eig", "_factor"}
# The only functions of core.py that assign a slot.
WRITERS = {"_seal", "_eigenvalues", "_spectrum"}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
    """Every identifier and string constant under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            yield sub.name


def _slot_writes(tree):
    """``(enclosing function, slot)`` of every assignment to a slot."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr in SLOTS:
                        found.append((owner, sub.attr))
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) in (
                "setattr", "__setattr__"
            ):
                for arg in child.args:
                    if isinstance(arg, ast.Constant) and arg.value in SLOTS:
                        found.append((owner, arg.value))
            visit(child, owner)

    visit(tree, None)
    return found


def test_no_module_outside_core_names_a_spectral_slot():
    for name, tree in _trees().items():
        if name == "core.py":
            continue
        assert not SLOTS & set(_names(tree)), name


def test_seed_spectrum_is_gone():
    for name, tree in _trees().items():
        assert "_seed_spectrum" not in set(_names(tree)), name


def test_core_assigns_slots_only_at_birth_and_in_the_lazy_caches():
    writes = _slot_writes(_trees()["core.py"])
    assert writes and {owner for owner, _ in writes} <= WRITERS
    assert {slot for _, slot in writes} == SLOTS


def test_scan_sees_a_write_after_birth():
    tree = ast.parse("def seed(s, w):\n    s._evals = w\n    setattr(s, '_eig', w)\n")
    assert _slot_writes(tree) == [("seed", "_evals"), ("seed", "_eig")]


def _cholesky_callers(tree):
    """``(enclosing function, line)`` of every call to an attribute named ``cholesky``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "cholesky":
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, None)
    return found


def test_cholesky_runs_only_in_the_one_certificate():
    callers = {name: {owner for owner, _ in _cholesky_callers(tree)} for name, tree in _trees().items()}
    assert {name: owners for name, owners in callers.items() if owners} == {"core.py": {"_certified"}}
    defined = {name for name, tree in _trees().items()
               if any(isinstance(n, ast.FunctionDef) and n.name == "_certified" for n in ast.walk(tree))}
    assert defined == {"core.py"}


def test_cholesky_scan_sees_a_call():
    tree = ast.parse("def check(a):\n    return np.linalg.cholesky(a)\n")
    assert _cholesky_callers(tree) == [("check", 2)]


def test_calculus_and_draws_share_one_composition_body():
    trees = _trees()

    def calls(module, function):
        body = next(n for n in ast.walk(trees[module]) if isinstance(n, ast.FunctionDef) and n.name == function)
        return {getattr(n.func, "id", None) for n in ast.walk(body) if isinstance(n, ast.Call)}

    assert "_composed" in calls("core.py", "apply_spectral")
    assert "_composed" in calls("harness.py", "_rotated")


class TestComposed:
    def test_ascending_spectra_share_the_vectors(self, rng):
        q = np.linalg.qr(rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)))[0]
        w = np.sort(rng.normal(size=(2, 4)), axis=-1)
        matrix, values, vectors = _composed(w, q)
        assert values is w and vectors is q
        assert np.array_equal(matrix, matrix.conj().swapaxes(-1, -2))

    def test_unsorted_spectra_sort_stably_with_their_vectors(self, rng):
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        w = np.array([2.0, -1.0, 2.0, 0.5])
        matrix, values, vectors = _composed(w, q)
        assert values.tolist() == [-1.0, 0.5, 2.0, 2.0]
        assert np.array_equal(vectors, q[:, [1, 3, 0, 2]])
        assert np.allclose((vectors * values) @ vectors.conj().T, matrix, atol=1e-13)


class TestBirth:
    def test_decomposed_is_born_with_its_one_eigh(self, rng):
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        s = HermitianStack.from_matrices(a + a.conj().swapaxes(-1, -2))
        w, v = np.linalg.eigh(s.unfold())
        born = s._decomposed()
        assert born is not s and born.unfold() is s.unfold()
        assert np.array_equal(born._eigenvalues(), w)
        assert np.array_equal(born._spectrum()[0], w) and np.array_equal(born._spectrum()[1], v)

    @pytest.mark.parametrize("bounds", [(0.5, 2.0), (1.5, 1.5)], ids=["spectrum", "identity"])
    def test_sample_is_the_first_member_of_its_draw(self, bounds):
        spec = EnsembleSpec(TensorShape((2, 2)), "spectrum", 11, m=bounds[0], M=bounds[1])
        stack, one = _draw(spec, (4,)), sample(spec, 4)
        assert np.array_equal(one.unfold(), stack.unfold()[0])
        for mine, theirs in zip(one._spectrum(), stack._spectrum()):
            assert np.array_equal(mine, theirs[0])
        assert np.array_equal(one._eigenvalues(), stack._eigenvalues()[0])
