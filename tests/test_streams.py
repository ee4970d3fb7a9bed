"""The per-trial random streams of the harness.

Every draw of trial ``t`` in role ``r`` comes from
``default_rng(SeedSequence(seed & (2**64 - 1), spawn_key=(t, r)))``.  The
harness builds those states in bulk (:func:`tmlab.harness._streams`) and
fills every trial's draws into stacks in one loop (:func:`tmlab.harness._stacked`);
these tests hold the states to numpy's own, every draw site to the per-trial
code it replaced, kept here as the reference, and the loop to one function.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import tmlab as tm
from tmlab.core import HermitianStack, _ct
from tmlab.harness import (
    _DOMINATED_ROLE,
    _INCREMENT_ROLE,
    _MAP_ROLE,
    _SECONDARY_ROLE,
    ConfigError,
    EnsembleSpec,
    ExperimentConfig,
    _draw,
    _increments,
    _random_maps,
    _streams,
    sample,
)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -20260809)
ROLES = (0, _DOMINATED_ROLE, _SECONDARY_ROLE, _MAP_ROLE, _INCREMENT_ROLE)
TRIALS = (*range(100), 2**32 - 1)


def _ref_rng(seed, trial, role):
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(int(trial), int(role)))
    return np.random.default_rng(ss)


def _ref_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _ref_rotated(q, lam):
    return HermitianStack.from_matrices((q * lam[:, None, :]) @ _ct(q)).unfold()


def _ref_draw(spec, trials, role):
    """The per-trial draw the bulk streams replaced, as matrices."""
    d = spec.shape.square_dim
    if spec.kind == "spectrum" and spec.m == spec.M:
        return np.repeat((np.eye(d, dtype=np.complex128) * float(spec.m))[None], len(trials), axis=0)
    rngs = [_ref_rng(spec.seed, t, role) for t in trials]
    if spec.kind == "wishart":
        g = np.stack([_ref_gaussian(rng, spec.dof, d) for rng in rngs])
        return HermitianStack.from_matrices(_ct(g) @ g / spec.dof + 1e-6 * np.eye(d)).unfold()
    if spec.kind == "spectrum":
        gauss = np.stack([_ref_gaussian(rng, d, d) for rng in rngs])
        lam = np.stack([rng.uniform(spec.m, spec.M, size=d) for rng in rngs])
        margin = 64.0 * np.finfo(float).eps * max(1.0, abs(spec.m), abs(spec.M))
        if spec.M - spec.m > 4.0 * margin:
            lam = np.clip(lam, spec.m + margin, spec.M - margin)
        return _ref_rotated(np.linalg.qr(gauss)[0], lam)
    g = np.stack([_ref_gaussian(rng, spec.rank, d) for rng in rngs])
    return HermitianStack.from_matrices(_ct(g) @ g / spec.rank).unfold()


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy(seed):
    for role in ROLES:
        states = [rng.bit_generator.state for rng in _streams(seed, TRIALS, role)]
        assert states == [_ref_rng(seed, t, role).bit_generator.state for t in TRIALS], role


def test_one_generator_is_reused():
    assert len({id(rng) for rng in _streams(5, range(4), 0)}) == 1


# Uniform spans that hold the bulk rescale to ``Generator.uniform`` bit for
# bit: a range near the top of double range and a narrow negative one.
SPANS = [(0.05, 0.3), (-1e300, 1e300), (-2.0, -2.0 + 1e-12)]

SPECS = [
    ("wishart", {"dof": 8}),
    ("wishart", {"dof": 1}),
    ("wishart", {"dof": 128}),
    ("spectrum", {"m": 0.3, "M": 2.0}),
    ("spectrum", {"m": -1.0, "M": 1.0}),
    ("spectrum", {"m": 1.0, "M": 1.0 + 1e-15}),
    ("spectrum", {"m": 0.7, "M": 0.7}),
    *(("spectrum", {"m": m, "M": big_m}) for m, big_m in SPANS[1:]),
    ("rank_deficient", {"rank": 1}),
    ("rank_deficient", {"rank": 3}),
]


@pytest.mark.parametrize("shape", [(2, 2), (3,), (8, 8)])
@pytest.mark.parametrize("kind, params", SPECS, ids=[f"{k}-{sorted(p.items())}" for k, p in SPECS])
def test_draw_matches_per_trial_reference(kind, params, shape):
    spec = EnsembleSpec(tm.TensorShape(shape), kind, 20260809 * 31, **params)
    for trials, role in ((range(7), 0), ((3, 17, 2**32 - 1), _SECONDARY_ROLE), (range(2), _DOMINATED_ROLE)):
        assert _same_bits(_draw(spec, trials, role).unfold(), _ref_draw(spec, trials, role))
    assert _same_bits(sample(spec, 11, 2).unfold(), _ref_draw(spec, (11,), 2)[0])


@pytest.mark.parametrize("shape", [(1,), (2, 2), (8, 8)])
def test_spectrum_draws_are_born_with_their_eigenpairs(shape, counts):
    spec = EnsembleSpec(tm.TensorShape(shape), "spectrum", 20260809 * 31, m=0.3, M=2.0)
    d, eps, trials = spec.shape.square_dim, np.finfo(float).eps, range(4)
    rngs = [_ref_rng(spec.seed, t, 0) for t in trials]
    for rng in rngs:
        rng.standard_normal((2, d, d))
    lam = np.stack([rng.uniform(spec.m, spec.M, size=d) for rng in rngs])
    margin = 64.0 * eps * spec.M
    lam = np.clip(lam, spec.m + margin, spec.M - margin)
    draw = _draw(spec, trials)
    assert _same_bits(draw.unfold(), _ref_draw(spec, trials, 0))
    w, v = draw._spectrum()
    assert draw._eigenvalues() is w and _same_bits(w, np.sort(lam, axis=-1))
    assert np.all((spec.m <= w) & (w <= spec.M))
    residual = np.linalg.norm(draw.unfold() @ v - v * w[:, None, :], axis=(-2, -1))
    assert np.all(residual <= 4.0 * d * eps * spec.M), residual.max()
    # The batch of one keeps the seeded pairs, so a mean of sample() draws
    # has the bits of the same slice of the stacked mean.
    x_spec = EnsembleSpec(spec.shape, "wishart", 7, dof=2 * d)
    for t in trials:
        one = sample(spec, t)
        assert _same_bits(one._spectrum()[0], w[t]) and _same_bits(one._spectrum()[1], v[t])
    assert not any(counts.calls.values())
    stacked = tm.mean_pd(_draw(x_spec, trials), draw, tm.geometric()).unfold()
    for t in trials:
        assert _same_bits(tm.mean_pd(sample(x_spec, t), sample(spec, t), tm.geometric()).unfold(), stacked[t])


def test_identity_draws_are_born_with_their_eigenpairs():
    spec = EnsembleSpec(tm.TensorShape((2, 2)), "spectrum", 5, m=0.7, M=0.7)
    w, v = _draw(spec, range(3))._spectrum()
    assert _same_bits(w, np.full((3, 4), 0.7))
    assert _same_bits(np.asarray(v), np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4)).copy())


def _check_l3_increments(shape, m, big_m):
    spec = EnsembleSpec(tm.TensorShape(shape), "spectrum", 99, m=m, M=big_m)
    d = spec.shape.square_dim
    trials = range(5)
    rngs = [_ref_rng(spec.seed, t, 7) for t in trials]
    lam = np.stack([rng.uniform(spec.m, spec.M, size=d) for rng in rngs])
    gauss = np.stack([_ref_gaussian(rng, d, d) for rng in rngs])
    assert _same_bits(_increments(spec, trials).unfold(), _ref_rotated(np.linalg.qr(gauss)[0], lam))


L3_SHAPES = [(2, 2), (3,), (4, 4), (8, 8)]


@pytest.mark.parametrize("shape", L3_SHAPES)
def test_l3_increments_match_per_trial_reference(shape):
    _check_l3_increments(shape, *SPANS[0])


@pytest.mark.parametrize("shape", L3_SHAPES)
@pytest.mark.parametrize("m, big_m", SPANS[1:])
def test_l3_increments_match_on_extreme_spans(shape, m, big_m):
    _check_l3_increments(shape, m, big_m)


@pytest.mark.parametrize("shape", [(2, 2), (3,), (4, 4)])
def test_transform_maps_match_per_trial_reference(shape):
    spec = EnsembleSpec(tm.TensorShape(shape), "wishart", 123, dof=8)
    d = spec.shape.square_dim
    trials = range(5)
    rngs = [_ref_rng(spec.seed, t, 6) for t in trials]
    cong = np.stack([_ref_gaussian(rng, d, d) for rng in rngs])
    unitary = np.ascontiguousarray(np.linalg.qr(np.stack([_ref_gaussian(rng, d, d) for rng in rngs]))[0])
    got_cong, got_unitary = _random_maps(spec, trials)
    assert _same_bits(np.ascontiguousarray(got_cong), cong)
    assert _same_bits(got_unitary, unitary)


@pytest.mark.parametrize("trial", [-1, 2**32, 2**70])
def test_out_of_range_trial_raises(trial):
    spec = EnsembleSpec(tm.TensorShape((2,)), "wishart", 1)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        sample(spec, trial)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        _draw(spec, (0, trial))


def test_out_of_range_role_raises():
    with pytest.raises(ValueError):
        next(_streams(1, (0,), 2**32))


def test_config_rejects_trial_counts_beyond_the_streams():
    assert ExperimentConfig(trials=2**32 - 1).trials == 2**32 - 1
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(trials=2**32)


def _references(tree, name):
    """The innermost enclosing function (None at module level) of every
    use of the name ``name``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name:
                found.append(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_one_draw_loop_iterates_the_streams():
    """Every trial's parts go into the stacks in one loop: ``_streams`` is
    named once in the package, as the iterable of a ``for`` in ``_stacked``."""
    package = Path(__file__).resolve().parent.parent / "src" / "tmlab"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    refs = {name: _references(tree, "_streams") for name, tree in trees.items()}
    assert {name: owners for name, owners in refs.items() if owners} == {"harness.py": ["_stacked"]}
    (stacked,) = [node for node in ast.walk(trees["harness.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "_stacked"]
    loops = [node for node in ast.walk(stacked) if isinstance(node, (ast.For, ast.comprehension))
             and any(isinstance(sub, ast.Name) and sub.id == "_streams" for sub in ast.walk(node.iter))]
    assert len(loops) == 1
