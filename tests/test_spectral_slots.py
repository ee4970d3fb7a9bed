"""Spectra enter a stack only at birth or through its lazy caches.

``HermitianStack`` keeps what it knows of its spectrum in three private
slots.  A kernel that knows a spectrum passes it to the constructor
(``_seal``, reached through ``_trusted`` and ``_derive``); otherwise
``_eigenvalues`` and ``_spectrum`` fill the caches on first use.  Two
more slots hold the matrices: stored by ``_form``, at birth or on the
first read of the recipe a stack born with its eigenpairs may hold
instead.  These tests scan the package source so that a write from
anywhere else (a kernel seeding a stack after birth, or overwriting one
already in use) fails here, and check the one composition body that the
spectral calculus and the ``spectrum`` draws share, and the one Cholesky
certificate behind every gate and verdict that reads no eigenvalue (the
one code that catches a ``LinAlgError``), and the one call that passes a
mean's graded factor (``_finish_mean``).  The same scans keep
every module free of imports it never uses, of ``__all__`` entries it
neither defines nor imports, and of private module-level names that
nothing else in the package reads, and keep positivity decided
by the gates alone (no package code asks ``HermitianTensor.is_pd``), and
keep the kernel protocol the stack's alone: ``HermitianTensor`` overrides
none of it, so every kernel has one behaviour for tensors and stacks.  No
module but ``functions`` reads a generator's ``value_at_1``, so whether a
generator is normalized has one rule (``functions._admit``).  No code but
``functions.power_exponent`` reads a ``partial``'s ``keywords``, so whether
a generator is a power, and which, has one rule.  No code but
``ConnectionFunction._run_probes`` calls the class probe
``functions._class_readings``, so a generator's tags have one rule, run
once, at construction.  No code but
``core._quiet`` enters ``np.errstate``, so which numpy floating-point
warnings the package silences is one decision.  No module but
``data_processing`` names the congruence body ``_congruence``, so every
congruence is built by ``congruence`` and applied by ``apply_map``.
"""

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tmlab as tm
from tmlab import data_processing, harness, lie_trotter, means
from tmlab.core import (HermitianStack, TensorShape, _ascending, _composed, _ct, _NORM_SAFE, _spectral_map,
                        _symmetrize, apply_spectral)
from tmlab.harness import EnsembleSpec, ExperimentConfig, SuiteId, _draw, _increments, run_suite, sample
from tmlab.means import _eta_pairs

from conftest import SHAPE22, rand_pd, rand_psd_rank

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tmlab"
# The spectral slots, the stored matrices and the recipe that forms them.
SLOTS = {"_evals", "_eig", "_factor", "_formed", "_recipe"}
# The only functions of core.py that assign a slot.
WRITERS = {"_seal", "_form", "_eigenvalues", "_spectrum"}
# The kernel protocol, which HermitianStack alone may define; the scalar
# rule (_coefficient) is inline in HermitianStack.__mul__.
PROTOCOL = {"_trusted", "_derive", "_coefficient", "_check_same_shape", "_seal", "_eigenvalues", "_spectrum"}


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


def _owners(tree, matches):
    """``(enclosing function, line)`` of every node that ``matches``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, None)
    return found


def _cholesky_callers(tree):
    """Every call to an attribute named ``cholesky``."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cholesky")


def _factor_births(tree):
    """Every call that passes a graded factor as ``factor=``."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and any(k.arg == "factor" for k in node.keywords))


def _linalg_handlers(tree):
    """Every ``except`` clause that catches a ``LinAlgError``."""
    return _owners(tree, lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                   and "LinAlgError" in set(_names(node.type)))


def test_cholesky_runs_only_in_the_one_certificate():
    callers = {name: {owner for owner, _ in _cholesky_callers(tree)} for name, tree in _trees().items()}
    assert {name: owners for name, owners in callers.items() if owners} == {"core.py": {"_certified"}}
    defined = {name for name, tree in _trees().items()
               if any(isinstance(n, ast.FunctionDef) and n.name == "_certified" for n in ast.walk(tree))}
    assert defined == {"core.py"}


def test_cholesky_scan_sees_a_call():
    tree = ast.parse("def check(a):\n    return np.linalg.cholesky(a)\n")
    assert _cholesky_callers(tree) == [("check", 2)]


def test_only_the_certificate_catches_a_linalg_error():
    # A failed factorization is the certificate's expected answer; anywhere
    # else LAPACK would be deciding what a non-finite operand means.
    handlers = {name: {owner for owner, _ in _linalg_handlers(tree)} for name, tree in _trees().items()}
    assert {name: owners for name, owners in handlers.items() if owners} == {"core.py": {"_certified"}}


def test_handler_scan_sees_a_second_handler():
    tree = ast.parse("def certify(a):\n    try:\n        return f(a)\n    except np.linalg.LinAlgError:\n"
                     "        return False\ndef decompose(c):\n    try:\n        return g(c)\n"
                     "    except (ValueError, LinAlgError):\n        raise\n    except Exception:\n        pass\n")
    assert _linalg_handlers(tree) == [("certify", 4), ("decompose", 9)]


def _value_at_1_reads(tree):
    """Every read of an attribute named ``value_at_1``."""
    return _owners(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "value_at_1")


def test_only_functions_reads_a_value_at_one():
    # normalized is read from fn(1) once; everywhere else _admit decides it.
    reads = {name: _value_at_1_reads(tree) for name, tree in _trees().items()}
    assert {name for name, found in reads.items() if found} == {"functions.py"}


def test_value_scan_sees_a_read_in_another_module():
    tree = ast.parse("def lt_limit(x, y, g):\n    if abs(g.value_at_1 - 1.0) > 1e-12:\n        raise ValueError\n"
                     "def weight(g):\n    return g.derivative_at_1\n")
    assert _value_at_1_reads(tree) == [("lt_limit", 2)]


def _keyword_reads(tree):
    """Every read of an attribute named ``keywords`` (a ``partial``'s)."""
    return _owners(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "keywords")


def test_only_power_exponent_reads_a_partials_keywords():
    # The chain rule for powers (lift: n + a, transpose: 1 - a) is one function.
    reads = {name: {owner for owner, _ in _keyword_reads(tree)} for name, tree in _trees().items()}
    assert {name: owners for name, owners in reads.items() if owners} == {"functions.py": {"power_exponent"}}


def test_keyword_scan_sees_a_second_reader():
    tree = ast.parse("def power_exponent(f):\n    return f.fn.keywords['a']\n"
                     "def _exponent(fn):\n    inner = fn.keywords['f']\n    return fn.keywords.get('n')\n"
                     "def call(g):\n    return g(keywords=1)\n")
    assert _keyword_reads(tree) == [("power_exponent", 2), ("_exponent", 4), ("_exponent", 5)]


def _probe_calls(tree):
    """Every call of the class probe ``_class_readings``."""
    return _owners(tree, lambda node: isinstance(node, ast.Call)
                   and "_class_readings" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)})


def test_only_the_constructor_runs_the_class_probe():
    # transpose_fn carries its tags and lets the constructor check them.
    callers = {name: [owner for owner, _ in _probe_calls(tree)] for name, tree in _trees().items()}
    assert {name: owners for name, owners in callers.items() if owners} == {"functions.py": ["_run_probes"]}


def test_probe_scan_sees_a_second_caller():
    tree = ast.parse("class F:\n    def _run_probes(self):\n        return _class_readings(v, self.tags)\n"
                     "def transpose_fn(g):\n    h = partial(_transposed, f=g.fn)\n"
                     "    return functions._class_readings(h(POINTS), {'TC'})\n")
    assert _probe_calls(tree) == [("_run_probes", 3), ("transpose_fn", 6)]


def test_a_mean_factor_is_formed_only_where_the_mean_is_born():
    births = {name: [owner for owner, _ in _factor_births(tree)] for name, tree in _trees().items()}
    assert {name: owners for name, owners in births.items() if owners} == {"means.py": ["_finish_mean"]}


def test_factor_scan_sees_a_second_birth():
    tree = ast.parse("def mean(x, f, g):\n    return x._derive(f @ g, factor=(f, g))\n")
    assert _factor_births(tree) == [("mean", 2)]


def _errstate_entries(tree):
    """``(top-level definition, line)`` of every name or attribute ``errstate``."""
    return [(getattr(stmt, "name", None), node.lineno) for stmt in tree.body for node in ast.walk(stmt)
            if "errstate" in {getattr(node, "attr", None), getattr(node, "id", None)}]


def test_only_quiet_enters_a_floating_point_state():
    entries = {name: [owner for owner, _ in _errstate_entries(tree)] for name, tree in _trees().items()}
    assert {name: owners for name, owners in entries.items() if owners} == {"core.py": ["_quiet"]}


def test_errstate_scan_sees_a_local_block():
    tree = ast.parse("def _quiet(fn):\n    def run():\n        with np.errstate(over='ignore'):\n"
                     "            return fn()\n    return run\nclass F:\n    def probe(self):\n"
                     "        with errstate(all='ignore'):\n            pass\n")
    assert _errstate_entries(tree) == [("_quiet", 3), ("F", 8)]


def _congruence_names(tree):
    """Every name, attribute, imported name or string ``_congruence``."""
    return _owners(tree, lambda node: "_congruence" in {
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "value", None),
        node.name if isinstance(node, ast.alias) else None})


def test_only_data_processing_names_the_congruence_body():
    found = {name: _congruence_names(tree) for name, tree in _trees().items()}
    assert {name for name, hits in found.items() if hits} == {"data_processing.py"}


def test_congruence_scan_sees_a_bypass():
    tree = ast.parse("from .data_processing import _congruence, _congruence_mean\n"
                     "def body(k, h):\n    return _congruence(k, h) + dp._congruence(k, h)\n"
                     "def other(m):\n    return _congruence_mean(m, '_congruence')\n")
    assert _congruence_names(tree) == [(None, 1), ("body", 3), ("body", 3), ("other", 5)]


def test_calculus_and_draws_share_one_composition_body():
    trees = _trees()

    def calls(module, function):
        body = next(n for n in ast.walk(trees[module]) if isinstance(n, ast.FunctionDef) and n.name == function)
        return {getattr(n.func, "id", None) for n in ast.walk(body) if isinstance(n, ast.Call)}

    assert "_composed" in calls("core.py", "apply_spectral")
    assert "_composed" in calls("harness.py", "_rotated")


def _unused_imports(tree):
    """Names a module imports and never reads; a name listed in its
    ``__all__`` or in a string annotation counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return sorted(name for name in imported if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: _unused_imports(tree) for name, tree in _trees().items() if name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _phantom_exports(tree):
    """Names a module's ``__all__`` lists that the module neither defines
    at top level nor imports."""
    bound, exported = set(), []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in stmt.names}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [n.value for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)]
    return sorted(name for name in exported if name not in bound)


def test_every_exported_name_is_defined_or_imported():
    assert {name: phantoms for name, tree in _trees().items() if (phantoms := _phantom_exports(tree))} == {}


def test_export_scan_sees_a_phantom():
    tree = ast.parse("from .core import a\n__all__ = ['a', 'b', 'C', 'D']\nclass C:\n    pass\nD = 1\n")
    assert _phantom_exports(tree) == ["b"]


def test_import_scan_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\nfrom .core import a, b\n"
                     "__all__ = ['b']\ndef f(x: 'Stack'):\n    return np.sum(x)\n")
    assert _unused_imports(tree) == ["a"]


def test_no_package_code_decides_positivity_with_is_pd():
    for name, tree in _trees().items():
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "is_pd"]
        assert not calls, name


def _protocol_overrides(tree, owner="HermitianTensor"):
    """Names of the kernel protocol that class ``owner`` defines or assigns
    in its own body."""
    found = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == owner:
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    found |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(found & PROTOCOL)


def test_tensor_overrides_nothing_of_the_kernel_protocol():
    tree = _trees()["core.py"]
    assert any(isinstance(n, ast.ClassDef) and n.name == "HermitianTensor" for n in ast.walk(tree))
    assert _protocol_overrides(tree) == []
    assert set(_protocol_overrides(tree, "HermitianStack")) == PROTOCOL - {"_coefficient"}


def test_protocol_scan_sees_an_override():
    tree = ast.parse("class HermitianTensor(HermitianStack):\n    def _derive(self, m):\n        return m\n"
                     "    _coefficient = float\n    def shape(self):\n        return 1\n")
    assert _protocol_overrides(tree) == ["_coefficient", "_derive"]


class TestComposed:
    def test_ascending_spectra_share_the_vectors(self, rng):
        q = np.linalg.qr(rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)))[0]
        w = np.sort(rng.normal(size=(2, 4)), axis=-1)
        matrix, (values, vectors) = _composed(w, q), _ascending(w, q)
        assert values is w and vectors is q
        assert np.array_equal(matrix, matrix.conj().swapaxes(-1, -2))

    def test_unsorted_spectra_sort_stably_with_their_vectors(self, rng):
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        w = np.array([2.0, -1.0, 2.0, 0.5])
        matrix, (values, vectors) = _composed(w, q), _ascending(w, q)
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

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)], ids=["D4", "D16"])
    def test_decomposed_mean_keeps_the_values_of_its_factor(self, dims):
        """A mean's values come from its graded factor's values-only SVD;
        the full SVD that gives its eigenvectors rounds them otherwise, so
        ``_decomposed`` must not carry those into the values cache."""
        spec = EnsembleSpec(TensorShape(dims), "wishart", 5)
        m = tm.mean_pd(_draw(spec, range(20)), _draw(spec, range(20, 40)), tm.geometric())
        assert m._factor is not None
        assert np.array_equal(m._decomposed()._eigenvalues(), m._eigenvalues())

    @pytest.mark.parametrize("c", [np.array([0.5, 3.0, 1e-3]), 2.5], ids=["per-matrix", "number"])
    def test_scaled_is_born_with_its_source_values_times_c(self, rng, monkeypatch, c):
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        s = HermitianStack.from_matrices(a + a.conj().swapaxes(-1, -2))
        reads, read = [], HermitianStack._eigenvalues
        monkeypatch.setattr(HermitianStack, "_eigenvalues", lambda t: reads.append(t) or read(t))
        born = s._scaled(c)
        assert len(reads) == 1 and reads[0] is s
        monkeypatch.undo()
        assert born._eig is None
        assert np.array_equal(born._eigenvalues(), np.asarray(c)[..., None] * s._eigenvalues())
        assert np.array_equal(born.unfold(), (s * c).unfold())

    @pytest.mark.parametrize("bounds", [(0.5, 2.0), (1.5, 1.5)], ids=["spectrum", "identity"])
    def test_sample_is_the_first_member_of_its_draw(self, bounds):
        spec = EnsembleSpec(TensorShape((2, 2)), "spectrum", 11, m=bounds[0], M=bounds[1])
        stack, one = _draw(spec, (4,)), sample(spec, 4)
        assert np.array_equal(one.unfold(), stack.unfold()[0])
        for mine, theirs in zip(one._spectrum(), stack._spectrum()):
            assert np.array_equal(mine, theirs[0])
        assert np.array_equal(one._eigenvalues(), stack._eigenvalues()[0])


def _dead_private_names(trees):
    """Private module-level functions, classes and constants that no other
    statement of the package names: ``(module, name)`` pairs.  A statement's
    own body does not count, so a private function that only calls itself
    is dead too."""
    defined, uses = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
            read = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            read |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            read |= {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom) for a in n.names}
            read |= {n.value for n in ast.walk(stmt) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            uses.append((stmt, read))
    return sorted((module, name) for module, name, stmt in defined
                  if not any(name in read for other, read in uses if other is not stmt))


def test_every_private_module_name_is_used_elsewhere_in_the_package():
    assert _dead_private_names(_trees()) == []


def test_dead_name_scan_sees_a_leftover_helper():
    tree = ast.parse("_LIMIT = 2\ndef _left(v):\n    return _left(v - 1) if v else _LIMIT\n"
                     "def _used():\n    return 1\ndef run():\n    return _used()\n")
    assert _dead_private_names({"m.py": tree}) == [("m.py", "_left")]


def _stack(rng, n=3, d=4):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return HermitianStack.from_matrices(a + a.conj().swapaxes(-1, -2), TensorShape((2, 2)))


class TestRecipes:
    """A stack born with its eigenpairs holds a recipe in place of its
    matrices until they are read; the read forms the bits that the body
    forming them at birth would form."""

    @pytest.mark.parametrize("phi", [np.exp, np.negative], ids=["ascending", "reversed"])
    def test_apply_spectral(self, rng, phi):
        h = _stack(rng)
        w, v = h._spectrum()
        out = apply_spectral(h, phi)
        assert out._formed is None and out._recipe is not None
        assert np.array_equal(out.unfold(), _symmetrize(_spectral_map(v, phi(w))))
        assert out._recipe is None and out.unfold() is out.unfold()

    @pytest.mark.parametrize("draw", [lambda spec: _draw(spec, (0, 1, 2)), lambda spec: _increments(spec, (0, 1))],
                             ids=["spectrum draw", "L3 increment"])
    def test_rotated_spectra(self, monkeypatch, draw):
        seen, real = [], harness._rotated
        monkeypatch.setattr(harness, "_rotated", lambda q, lam, shape: seen.append((q, lam)) or real(q, lam, shape))
        out = draw(EnsembleSpec(SHAPE22, "spectrum", 7, m=0.5, M=2.0))
        (q, lam), = seen
        assert out._formed is None
        assert np.array_equal(out._spectrum()[0], np.sort(lam, axis=-1))
        assert np.array_equal(out.unfold(), _symmetrize(_spectral_map(q, lam)))

    @pytest.mark.parametrize("m", [2.0, -1.5])
    def test_identity_draw(self, m):
        out = _draw(EnsembleSpec(SHAPE22, "spectrum", 7, m=m, M=m), (0, 1))
        assert out._formed is None
        assert np.array_equal(out.unfold(), np.broadcast_to(np.eye(4, dtype=np.complex128), (2, 4, 4)) * m)

    @pytest.mark.parametrize("stacked", ["x", "y", "both"])
    def test_eta(self, rng, stacked):
        x = [rand_psd_rank(rng, 2) for _ in range(3)]
        y = [tm.HermitianTensor.from_matrix(t.unfold() + 0.5 * np.eye(4), SHAPE22) for t in x]
        x = HermitianStack.from_matrices([t.unfold() for t in x], SHAPE22) if stacked != "y" else x[0]
        y = HermitianStack.from_matrices([t.unfold() for t in y], SHAPE22) if stacked != "x" else y[0]
        out = tm.eta(x, y).eta
        # The class follows the result's shape, a stack, not y's vectors.
        assert type(out) is HermitianStack and out._formed is None
        _, _, c = _eta_pairs(x, y)
        v = y._spectrum()[1]
        assert np.array_equal(out.unfold(), _symmetrize(v @ c @ _ct(v)))

    def test_shifted_y(self, rng, monkeypatch):
        x, y = rand_psd_rank(rng, 2), rand_pd(rng)
        seen, real = [], means.mean_pd
        monkeypatch.setattr(means, "mean_pd", lambda a, b, g: seen.append(b) or real(a, b, g))
        grid = (1e-2, 1e-4)
        means.epsilon_mean_limit(x, y, tm.geometric(), grid)
        assert [s._formed for s in seen] == [None, None]
        for eps, shifted in zip(grid, seen):
            assert np.array_equal(shifted.unfold(), y.unfold() + np.eye(4) * eps)

    def test_threads_reading_at_once_form_the_same_bits(self, rng):
        h = _stack(rng, 2)
        stacks = [apply_spectral(h, lambda w, k=k: w + k) for k in range(200)]
        want = [_composed(s._eigenvalues(), h._spectrum()[1]) for s in stacks]
        seen, errors = [], []

        def read():
            try:
                seen.append([s.unfold() for s in stacks])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and errors == []
        assert all(np.array_equal(a, b) for got in seen for a, b in zip(got, want)) and len(seen) == 8

    def test_values_only_and_summed_stacks_form_at_birth(self, rng):
        h = _stack(rng)
        for out in (h._scaled(2.0), h + h, h * 2.0, tm.spectral_power(h, 3)):
            assert out._formed is not None and out._recipe is None

    def test_a_spectrum_near_the_double_max_forms_and_checks_at_birth(self):
        top = np.finfo(float).max
        overflowed = 0
        for seed in range(6):
            h = _stack(np.random.default_rng(seed), 1)
            w, v = h._spectrum()
            with np.errstate(over="ignore", invalid="ignore"):
                eager = _symmetrize(_spectral_map(v, np.full_like(w, top)))
            if np.isfinite(eager).all():
                assert apply_spectral(h, lambda w: np.full_like(w, top))._formed is not None
                continue
            overflowed += 1
            with pytest.raises(ValueError, match="entries must be finite"):
                apply_spectral(h, lambda w: np.full_like(w, top))
        assert overflowed
        # Below the bound a recipe waits for its read.
        assert apply_spectral(h, lambda w: np.full_like(w, _NORM_SAFE / 2.0))._formed is None


def test_a_factor_born_mean_reads_its_eigenvectors_from_its_factor(monkeypatch):
    """T3's q-th root at a non-integer ``1/q`` maps the eigenpairs of its
    powered means; they come from one SVD of each mean's graded factor, so
    no such mean's matrix reaches ``eigh``."""
    born, decomposed = [], []
    finish, eigh = means._finish_mean, np.linalg.eigh

    def finished(*args, **kwargs):
        born.append(finish(*args, **kwargs))
        return born[-1]

    def decompose(a, *args, **kwargs):
        decomposed.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(means, "_finish_mean", finished)
    monkeypatch.setattr(np.linalg, "eigh", decompose)
    run_suite(SuiteId.T3_LieTrotterTail,
              ExperimentConfig(trials=20, shape=(3, 3), exponents={"m": 24, "q": 0.46}, seed=1))
    factor_born = [m for m in born if m._factor is not None]
    assert any(m._eig is not None for m in factor_born)
    assert not [a for a in decomposed for m in factor_born if a is m._formed]


def test_a_default_pass_never_forms_the_unread_matrices(monkeypatch):
    """At the default config (D = 4), T2's ``exp(q y)``, the quotient
    ``eta`` a ``DominationPair`` certifies with, and T63's ``y + eps I``
    are read only through their eigenpairs."""
    born = {"exp(q y)": [], "eta": [], "y + eps I": []}

    def spy(module, name, kind, pick):
        real = getattr(module, name)

        def recorded(*args):
            out = real(*args)
            born[kind].append(pick(args, out))
            return out

        monkeypatch.setattr(module, name, recorded)

    spy(lie_trotter, "mean_pd", "exp(q y)", lambda args, out: args[1])
    spy(data_processing, "eta", "eta", lambda args, out: out.eta)
    spy(means, "mean_pd", "y + eps I", lambda args, out: args[1])
    for sid in (SuiteId.T2_LieTrotterLimit, SuiteId.T63_PsdLimit, SuiteId.APP_Fusion, SuiteId.APP_LinearTransform):
        run_suite(sid, ExperimentConfig())
    assert all(born.values())
    assert {kind: sum(s._formed is not None for s in stacks) for kind, stacks in born.items()} == dict.fromkeys(born, 0)
