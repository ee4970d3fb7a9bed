import json
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmlab as tm
from tmlab.bounds import _ratio_extremes
from tmlab.core import (HermiticityError, HermitianStack, NotPositiveSemidefiniteError, _fix_phases, _gate, _gate_pd,
                         _gate_psd)
from tmlab.harness import ExperimentConfig, SuiteId, run_suite

from conftest import SHAPE2, SHAPE22, rand_hermitian, rand_pd, rand_psd_rank, rand_spectrum, rand_unitary


def naive_einstein(a, b, dims):
    """Quadruple-loop contraction oracle over the raw index groups."""
    n = len(dims)
    out = np.zeros(dims + dims, dtype=complex)
    for i in np.ndindex(*dims):
        for j in np.ndindex(*dims):
            acc = 0.0 + 0.0j
            for k in np.ndindex(*dims):
                acc += a[i + k] * b[k + j]
            out[i + j] = acc
    return out


class TestUnfold:
    def test_identity_unfolds_to_eye(self):
        ident = tm.HermitianTensor.identity(SHAPE22)
        assert np.array_equal(tm.unfold(ident), np.eye(4, dtype=complex))

    def test_fold_unfold_round_trip_bit_exact(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a + a.conj().T
        t = tm.fold(m, SHAPE22)
        assert np.array_equal(tm.unfold(t), m)
        again = tm.fold(tm.unfold(t), SHAPE22)
        assert np.array_equal(tm.unfold(again), tm.unfold(t))
        assert np.array_equal(again.entries, t.entries)

    def test_unfold_is_homomorphism_against_loop_oracle(self, rng):
        for _ in range(20):
            a = rand_hermitian(rng)
            b = rand_hermitian(rng)
            prod = tm.einstein_product(a, b)
            oracle = naive_einstein(a.entries, b.entries, (2, 2))
            assert np.max(np.abs(prod - oracle)) <= 1e-12 * max(1.0, np.abs(oracle).max())
            unfolded = prod.reshape(4, 4)
            direct = tm.unfold(a) @ tm.unfold(b)
            norms = np.linalg.norm(tm.unfold(a)) * np.linalg.norm(tm.unfold(b))
            assert np.max(np.abs(unfolded - direct)) <= 1e-10 * max(1.0, norms)


class TestEinsteinProduct:
    def test_identity_is_neutral(self, rng):
        x = rand_hermitian(rng)
        ident = tm.HermitianTensor.identity(SHAPE22)
        assert np.allclose(tm.einstein_product(ident, x), x.entries)
        assert np.allclose(tm.einstein_product(x, ident), x.entries)

    def test_inverse_gives_identity(self, rng):
        x = rand_pd(rng)
        x_inv = tm.apply_spectral(x, lambda v: 1.0 / v)
        prod = tm.einstein_product(x, x_inv).reshape(4, 4)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-10

    def test_associative(self, rng):
        a, b, c = (rand_hermitian(rng) for _ in range(3))
        left = tm.einstein_product(tm.einstein_product(a, b), c)
        right = tm.einstein_product(a, tm.einstein_product(b, c))
        assert np.allclose(left, right, atol=1e-10)

    def test_shape_mismatch(self, rng):
        a = rand_hermitian(rng)
        b = rand_hermitian(rng, SHAPE2)
        with pytest.raises(ValueError, match="shape mismatch"):
            tm.einstein_product(a, b)


class TestSpectralDecompose:
    def test_diagonal(self):
        t = tm.HermitianTensor.diag([3.0, 1.0], SHAPE2)
        dec = tm.spectral_decompose(t)
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_construct_then_recover(self, rng):
        u = rand_unitary(rng, 2)
        t = tm.fold(u @ np.diag([5.0, 2.0]) @ u.conj().T, SHAPE2)
        dec = tm.spectral_decompose(t)
        assert np.allclose(dec.eigenvalues, [5.0, 2.0])
        assert np.allclose(dec.reconstruct().unfold(), t.unfold(), atol=1e-12)

    def test_rank_one(self, rng):
        t = rand_psd_rank(rng, 1)
        assert tm.spectral_decompose(t).rank == 1

    def test_invariants(self, rng):
        for _ in range(10):
            h = rand_hermitian(rng)
            dec = tm.spectral_decompose(h)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            u = dec.eigenvectors
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12
            err = np.linalg.norm(dec.reconstruct().unfold() - h.unfold())
            assert err <= 1e-10 * max(1.0, np.linalg.norm(h.unfold()))

    def test_phase_determinism(self, rng):
        h = rand_hermitian(rng)
        a = tm.spectral_decompose(h)
        b = tm.spectral_decompose(h)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for k in range(4):
            col = a.eigenvectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_fix_phases_leaves_zero_columns(self):
        vectors = np.array([[0.0, 1j], [0.0, 0.5]])
        fixed = _fix_phases(vectors)
        assert np.array_equal(fixed[:, 0], [0.0, 0.0])
        assert np.allclose(fixed[:, 1], [1.0, -0.5j])


class TestSpectrumCache:
    def test_value_queries_share_one_eigvalsh(self, rng, counts):
        t = rand_pd(rng)
        t.lambda_min(), t.lambda_max(), t.spectral_scale(), t.eigenvalues(), t.is_pd()
        _gate_pd(t._eigenvalues(), "t"), _gate(t, "t", psd=True), tm.gauge_norm(t), tm.gauge_norm(t, tm.SPECTRAL)
        assert counts.calls == {"eigh": 0, "eigvalsh": 1, "svd": 0, "cholesky": 0}

    def test_mean_pd_decomposes_each_operand_once(self, rng, counts):
        x, y = rand_pd(rng), rand_pd(rng)
        tm.mean_pd(x, y, tm.geometric())
        # eigh serves y's roots and the quotient, whose values also clear x's PD gate.
        assert counts.calls == {"eigh": 2, "eigvalsh": 0, "svd": 0, "cholesky": 0}
        tm.mean_pd(x, y, tm.geometric())
        assert counts.calls == {"eigh": 3, "eigvalsh": 0, "svd": 0, "cholesky": 0}

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (8, 8)], ids=["D4", "D16", "D64"])
    def test_fresh_mean_pd_gates_x_by_the_quotient(self, rng, counts, shape):
        sh = tm.TensorShape(shape)
        x, y = rand_spectrum(rng, 0.5, 2.0, sh), rand_spectrum(rng, 0.5, 2.0, sh)
        tm.mean_pd(x, y, tm.geometric())
        # The quotient's eigenvalues clear the margin, so x needs no decomposition of its own.
        assert counts.calls == {"eigh": 2, "eigvalsh": 0, "svd": 0, "cholesky": 0}

    def test_mean_psd_decomposes_y_and_the_quotient(self, rng, counts):
        h = rand_psd_rank(rng, 2).unfold()
        x = tm.fold(h @ rand_pd(rng).unfold() @ h, SHAPE22)
        tm.mean_psd(x, tm.fold(h, SHAPE22), tm.geometric())
        # The certificate gates x; eigh serves y and eta, whose eigenpairs finish the mean.
        assert counts.calls == {"eigh": 2, "eigvalsh": 0, "svd": 0, "cholesky": 1}

    def test_loewner_compare_decomposes_only_the_difference(self, rng, counts):
        x, y = rand_pd(rng), rand_pd(rng)
        assert tm.loewner_compare(x, y).relation is tm.Relation.INCOMPARABLE
        # The scale bracket decides; neither side's values are read.
        assert counts.calls == {"eigh": 0, "eigvalsh": 1, "svd": 0, "cholesky": 0}

    @pytest.mark.parametrize("n", [2, 3, 256])
    def test_integer_power_decomposes_nothing(self, rng, counts, n):
        # Repeated squaring reads no spectrum, and with none given no gate.
        out = tm.spectral_power(rand_hermitian(rng), n)
        assert counts.calls == {"eigh": 0, "eigvalsh": 0, "svd": 0, "cholesky": 0}
        assert out._evals is None and out._eig is None

    @pytest.mark.parametrize("p, products", [(2.0**53, 53), (2.0**53 + 2.0, 0), (1e300, 0)])
    def test_squarings_stop_at_two_to_the_53(self, rng, monkeypatch, p, products):
        # Past 2**53 every double is an even integer, and binary powering
        # would make a product per bit: one eigh maps the values instead.
        h = rand_spectrum(rng, -0.9, 0.9)
        made, real = [], tm.core._symmetrize
        monkeypatch.setattr(tm.core, "_symmetrize", lambda m: made.append(m.shape) or real(m))
        out = tm.spectral_power(h, p)
        assert len(made) == products
        if not products:
            assert np.array_equal(out._eigenvalues(), np.sort(h._spectrum()[0] ** p))
        assert np.allclose(out.unfold(), 0.0)

    def test_fractional_power_decomposes_once(self, rng, counts):
        tm.spectral_power(rand_pd(rng), 0.5)
        assert counts.calls == {"eigh": 1, "eigvalsh": 0, "svd": 0, "cholesky": 0}

    def test_trace_tail_bound_at_integer_q_decomposes_only_its_gates(self, rng, counts):
        # A Cholesky certificate each for c and the sample stack; the power is a product.
        tm.trace_tail_bound([rand_pd(rng) for _ in range(3)], 2.0, rand_pd(rng))
        assert counts.calls == {"eigh": 0, "eigvalsh": 0, "svd": 0, "cholesky": 2}

    def test_cache_is_read_only(self, rng):
        t = rand_pd(rng)
        w, v = t._spectrum()
        ev = t._eigenvalues()
        assert not w.flags.writeable and not v.flags.writeable and not ev.flags.writeable
        out = t.eigenvalues()
        out[:] = 0.0
        assert t.lambda_max() > 0.0 and np.array_equal(t.eigenvalues(), ev[::-1])

    def test_value_reads_ignore_a_cached_eigh(self, rng):
        """Every eigenvalue read gives the same bits whether or not the
        tensor's ``eigh`` ran first."""
        f = tm.harmonic_like()
        reads = (
            lambda a, b: a.eigenvalues(),
            lambda a, b: (a.lambda_min(), a.lambda_max(), a.spectral_scale(), a.is_pd()),
            lambda a, b: (_gate_pd(a._eigenvalues(), "a"), _gate_psd(a._eigenvalues(), "a")),
            lambda a, b: [tm.gauge_norm(a, k) for k in (tm.SPECTRAL, tm.FROBENIUS, tm.TRACE, tm.ky_fan(2))],
            lambda a, b: tm.kyfan_stats(a, 3),
            lambda a, b: tm.loewner_compare(a, b),
            lambda a, b: _ratio_extremes(a._eigenvalues(), a._eigenvalues() > 0.0, f, 2.0),
            lambda a, b: tm.prop310_factors(a, 2.0),
            lambda a, b: tm.kk_factors(a, tm.ando_hiai_g(tm.power(0.5), 2), 3, 2.0),
        )
        x, y = rand_pd(rng), rand_pd(rng)
        # Not vacuous: the two LAPACK drivers disagree in the last bits here.
        assert not np.array_equal(np.linalg.eigvalsh(x.unfold()), x._spectrum()[0])
        y._spectrum()
        for read in reads:
            fresh = read(*(tm.HermitianTensor._trusted(t.unfold().copy(), t.shape) for t in (x, y)))
            assert _floats(read(x, y)) == _floats(fresh)


def _floats(value) -> list:
    """The numbers of a query result, flattened to Python floats."""
    if isinstance(value, tm.LoewnerVerdict):
        value = (value.witness, value.lam_min, value.lam_max)
    elif isinstance(value, tm.BoundFactors):
        value = value.kk_list
    if isinstance(value, (tuple, list)):
        return [f for v in value for f in _floats(v)]
    return np.atleast_1d(np.asarray(value, dtype=float)).tolist()


# Spectral maps of the cache contract: increasing, decreasing, clipping.
SPECTRAL_MAPS = {
    "exp(q x)": (lambda w: np.exp(0.25 * w), "hermitian"),
    "x**-0.5": (lambda w: w**-0.5, "pd"),
    "max(x, 0)**1.5": (lambda w: np.maximum(w, 0.0) ** 1.5, "hermitian"),
}


def _operand_stack(rng, d, kind, scale=1.0, count=3):
    a = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    if kind == "pd":
        m = a @ a.conj().swapaxes(-1, -2) / d + 0.1 * np.eye(d)
    else:
        m = (a + a.conj().swapaxes(-1, -2)) / 2.0
    return HermitianStack.from_matrices(m * scale)


class TestSpectralResultCaches:
    """Results of the spectral calculus are born with both caches: the
    sorted mapped operand spectrum and the operand's eigenvectors in the
    same order."""

    @pytest.mark.parametrize("name", list(SPECTRAL_MAPS))
    def test_born_with_sorted_mapped_spectrum(self, rng, counts, name):
        phi, kind = SPECTRAL_MAPS[name]
        h = _operand_stack(rng, 4, kind)
        w, v = h._spectrum()
        mapped = phi(w)
        order = np.argsort(mapped, axis=-1, kind="stable")
        if name == "max(x, 0)**1.5":
            assert (mapped == 0.0).sum(axis=-1).min() >= 2  # ties, kept in operand order
        elif name == "x**-0.5":
            assert np.array_equal(order, np.broadcast_to(np.arange(4)[::-1], order.shape))
        out = tm.apply_spectral(h, phi)
        counts.reset()
        got_w, got_v = out._spectrum()
        assert np.array_equal(got_w, np.sort(mapped, axis=-1))
        assert np.array_equal(got_v, np.take_along_axis(v, order[:, None, :], axis=-1))
        assert out._eigenvalues() is got_w
        assert not got_w.flags.writeable and not got_v.flags.writeable
        assert not any(counts.calls.values())

    def test_ascending_map_shares_operand_eigenvectors(self, rng):
        # np.exp keeps the ascending order, so the result shares the
        # operand's read-only V; x**-0.5 reverses it and gets its columns
        # permuted into a new array.
        h = _operand_stack(rng, 4, "hermitian")
        v, got_v = h._spectrum()[1], tm.apply_spectral(h, np.exp)._spectrum()[1]
        assert np.shares_memory(got_v, v) and not got_v.flags.writeable
        pd = _operand_stack(rng, 4, "pd")
        v, got_v = pd._spectrum()[1], tm.apply_spectral(pd, lambda w: w**-0.5)._spectrum()[1]
        assert not np.shares_memory(got_v, v) and np.array_equal(got_v, v[..., ::-1])

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        name=st.sampled_from(list(SPECTRAL_MAPS)),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_seeded_values_within_weyl_bound_of_eigvalsh(self, seed, d, name, log_scale):
        # Weyl: the formed V phi(w) V^H is within C D eps |phi(w)|_sp of the
        # exact one, and so are its eigenvalues (C = 16; at most 3 measured).
        phi, kind = SPECTRAL_MAPS[name]
        scale = 10.0**log_scale if kind == "pd" else 10.0 ** min(log_scale, 1.0)
        out = tm.apply_spectral(_operand_stack(np.random.default_rng(seed), d, kind, scale), phi)
        seeded = out._eigenvalues()
        bound = 16 * d * np.finfo(float).eps * np.abs(seeded).max(axis=-1, keepdims=True)
        assert np.all(np.abs(seeded - np.linalg.eigvalsh(out.unfold())) <= bound)


class TestApplySpectral:
    def test_sqrt_diag(self):
        t = tm.HermitianTensor.diag([4.0, 9.0], SHAPE2)
        s = tm.apply_spectral(t, np.sqrt)
        assert np.allclose(s.unfold(), np.diag([2.0, 3.0]))

    def test_reciprocal_times_self(self, rng):
        x = rand_pd(rng)
        w = tm.apply_spectral(x, lambda v: 1.0 / v)
        assert np.max(np.abs(tm.einstein_product(w, x).reshape(4, 4) - np.eye(4))) <= 1e-10

    def test_exp_matches_scaling_and_squaring_oracle(self, rng):
        from scipy.linalg import expm

        for _ in range(5):
            h = rand_hermitian(rng)
            ours = tm.apply_spectral(h, np.exp).unfold()
            assert np.max(np.abs(ours - expm(h.unfold()))) <= 1e-9

    def test_identity_function(self, rng):
        h = rand_hermitian(rng)
        assert np.max(np.abs(tm.apply_spectral(h, lambda v: v).unfold() - h.unfold())) <= 1e-12

    def test_domain_error(self, rng):
        h = tm.HermitianTensor.diag([1.0, -1.0], SHAPE2)
        with pytest.raises(ValueError, match="domain"):
            tm.apply_spectral(h, lambda v: v**-0.5)

    def test_fractional_power_asks_the_psd_gate(self):
        h = tm.HermitianTensor.diag([-1.0, -2.0, 3.0, 4.0], SHAPE22)
        with pytest.raises(NotPositiveSemidefiniteError, match="power input"):
            tm.spectral_power(h, 0.5)
        # Integer powers take any spectrum.
        assert np.allclose(tm.spectral_power(h, 2.0).eigenvalues(), [16.0, 9.0, 4.0, 1.0])
        # Noise the gate admits maps as 0.
        noisy = tm.HermitianTensor.diag([4.0, 1.0, 0.0, -1e-12], SHAPE22)
        assert np.array_equal(tm.spectral_power(noisy, 0.5).eigenvalues(), [2.0, 1.0, 0.0, 0.0])


class TestLoewnerCompare:
    def test_trivial_orders(self):
        a = tm.HermitianTensor.diag([1.0, 2.0], SHAPE2)
        b = tm.HermitianTensor.diag([2.0, 3.0], SHAPE2)
        assert tm.loewner_compare(a, b).relation is tm.Relation.LEQ
        assert tm.loewner_compare(b, a).relation is tm.Relation.GEQ

    def test_reflexive_eq(self, rng):
        x = rand_hermitian(rng)
        v = tm.loewner_compare(x, x)
        assert v.relation is tm.Relation.EQ
        assert abs(v.witness) <= 1e-12

    def test_incomparable(self):
        a = tm.HermitianTensor.diag([1.0, 3.0], SHAPE2)
        b = tm.HermitianTensor.diag([2.0, 2.0], SHAPE2)
        assert tm.loewner_compare(a, b).relation is tm.Relation.INCOMPARABLE

    def test_transitive_on_chains(self, rng):
        for _ in range(25):
            x = rand_pd(rng)
            y = x + rand_pd(rng, scale=0.5)
            z = y + rand_pd(rng, scale=0.5)
            assert tm.loewner_compare(x, y, 0.0).is_leq
            assert tm.loewner_compare(y, z, 0.0).is_leq
            assert tm.loewner_compare(x, z, 0.0).is_leq

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-3])
    @pytest.mark.parametrize("call", [
        lambda tol: tm.loewner_compare(tm.HermitianTensor.diag([1.0, 2.0], SHAPE2),
                                       tm.HermitianTensor.diag([3.0, 4.0], SHAPE2), tol),
        lambda tol: tm.HermitianTensor.diag([1.0, 2.0], SHAPE2).is_pd(tol),
        lambda tol: tm.fusion_gap(*(tm.DominationPair(tm.HermitianTensor.diag([1.0, 2.0, 3.0, 4.0], SHAPE22),
                                                      tm.HermitianTensor.identity(SHAPE22), "left"),) * 2,
                                  tm.square(), tol),
        lambda tol: tm.transform_gap(tm.pinching([(0, 1), (2, 3)], SHAPE22),
                                     tm.DominationPair(tm.HermitianTensor.diag([1.0, 2.0, 3.0, 4.0], SHAPE22),
                                                       tm.HermitianTensor.identity(SHAPE22), "left"),
                                     tm.square(), tol),
        lambda tol: tm.lt_ordering_check(*(0.25 * tm.HermitianTensor.identity(SHAPE22),) * 2, tm.geometric(),
                                         2, 0.25, "pmi", tol),
    ], ids=["loewner_compare", "is_pd", "fusion_gap", "transform_gap", "lt_ordering_check"])
    def test_a_non_finite_tolerance_is_refused(self, call, tol):
        # A NaN tol refused every order and an inf one granted both; a
        # negative one turned the tests around (x vs x read INCOMPARABLE).
        # lt_ordering_check read a -inf one in its premise test first.
        with pytest.raises(ValueError, match="tol must be finite"):
            call(tol)


class TestGaugeNorms:
    def test_named_values(self):
        t = tm.HermitianTensor.diag([3.0, -4.0], SHAPE2)
        assert tm.gauge_norm(t, tm.SPECTRAL) == 4.0
        assert tm.gauge_norm(t, tm.TRACE) == 7.0
        assert tm.gauge_norm(t, tm.FROBENIUS) == 5.0
        assert tm.gauge_norm(t, tm.ky_fan(1)) == 4.0
        assert tm.gauge_norm(t, tm.ky_fan(2)) == 7.0

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            h = rand_hermitian(rng)
            u = rand_unitary(rng, 4)
            rotated = tm.fold(u @ h.unfold() @ u.conj().T, SHAPE22)
            for kind in (tm.SPECTRAL, tm.FROBENIUS, tm.TRACE, tm.ky_fan(2)):
                assert abs(tm.gauge_norm(rotated, kind) - tm.gauge_norm(h, kind)) <= 1e-10 * max(
                    1.0, tm.gauge_norm(h, kind)
                )

    def test_trace_norm_of_psd_is_trace(self, rng):
        h = rand_pd(rng)
        assert abs(tm.gauge_norm(h, tm.TRACE) - h.trace()) <= 1e-10

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a = rand_hermitian(rng)
            b = rand_hermitian(rng)
            for kind in (tm.SPECTRAL, tm.FROBENIUS, tm.TRACE):
                lhs = tm.gauge_norm(a + b, kind)
                assert lhs <= tm.gauge_norm(a, kind) + tm.gauge_norm(b, kind) + 1e-10

    def test_frobenius_from_entries_matches_eigenvalue_form(self, rng):
        for kind, scale in (("hermitian", 1.0), ("pd", 1e-3), ("hermitian", 1e4)):
            for d in (1, 4, 9):
                h = _operand_stack(rng, d, kind, scale, count=5)
                want = np.sqrt(np.sum(np.linalg.eigvalsh(h.unfold()) ** 2, axis=-1))
                got = tm.gauge_norm(h, tm.FROBENIUS)
                assert np.allclose(got, want, rtol=8 * d * np.finfo(float).eps, atol=0.0)

    def test_ky_fan_range_error(self, rng):
        with pytest.raises(ValueError, match="Ky Fan k=5 exceeds unfolding dimension 4"):
            tm.gauge_norm(rand_hermitian(rng), tm.ky_fan(5))

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_ky_fan_ends_are_the_spectral_and_trace_norms(self, rng, d):
        h = _operand_stack(rng, d, "hermitian", count=5)
        for k, kind in ((1, tm.SPECTRAL), (d, tm.TRACE)):
            assert np.array_equal(tm.gauge_norm(h, tm.ky_fan(k)), tm.gauge_norm(h, kind))
            for i in range(5):
                member = h._member(i)
                assert tm.gauge_norm(member, tm.ky_fan(k)) == tm.gauge_norm(member, kind)

    def test_norms_are_equal_by_label(self):
        assert tm.ky_fan(2) == tm.ky_fan(np.int32(2)) and hash(tm.ky_fan(2)) == hash(tm.ky_fan(np.int64(2)))
        assert tm.ky_fan(2) != tm.ky_fan(3) and tm.ky_fan(4) != tm.TRACE
        assert [str(k) for k in (tm.SPECTRAL, tm.FROBENIUS, tm.TRACE, tm.ky_fan(2))] == [
            "spectral", "frobenius", "trace", "kyfan:2"]


class TestRangeProjector:
    def test_pd_gives_identity(self, rng):
        p = tm.range_projector(rand_pd(rng))
        assert np.max(np.abs(p.unfold() - np.eye(4))) <= 1e-10

    def test_diagonal(self):
        t = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        assert np.allclose(tm.range_projector(t).unfold(), np.diag([1.0, 0.0]))

    def test_rank_one_outer_product(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = tm.fold(np.outer(v, v.conj()), SHAPE2)
        expected = np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        assert np.max(np.abs(tm.range_projector(t).unfold() - expected)) <= 1e-10

    def test_idempotent_and_commutes(self, rng):
        h = rand_psd_rank(rng, 2)
        p = tm.range_projector(h)
        pm, hm = p.unfold(), h.unfold()
        assert np.max(np.abs(pm @ pm - pm)) <= 1e-10
        assert np.max(np.abs(pm @ hm - hm)) <= 1e-8
        assert np.max(np.abs(hm @ pm - hm)) <= 1e-8

    def test_rejects_indefinite(self):
        t = tm.HermitianTensor.diag([1.0, -1.0], SHAPE2)
        with pytest.raises(tm.core.NotPositiveSemidefiniteError):
            tm.range_projector(t)


class TestSerialization:
    def test_exact_round_trip(self, rng):
        t = rand_hermitian(rng)
        payload = json.loads(json.dumps(t.to_json_dict()))
        back = tm.HermitianTensor.from_json_dict(payload)
        assert np.array_equal(back.entries, t.entries)

    def test_payload_shape_checks(self):
        with pytest.raises(ValueError, match="entries"):
            tm.HermitianTensor.from_json_dict({"dims": [2], "re": [1.0], "im": [0.0]})

    def test_payload_format(self):
        t = tm.HermitianTensor(np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -3.0]]), (2,))
        assert t.to_json_dict() == {"dims": [2], "re": [2.0, 1.0, 1.0, -3.0], "im": [0.0, -0.5, 0.5, 0.0]}

    def test_file_round_trip(self, rng, tmp_path):
        t = rand_hermitian(rng)
        path = tmp_path / "t.json"
        tm.save_tensor(t, path)
        assert np.array_equal(tm.load_tensor(path).entries, t.entries)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHermiticity:
    def test_rejects_non_hermitian(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        with pytest.raises(HermiticityError):
            tm.fold(a + a.conj().T + 0.5j * np.eye(2), SHAPE2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("cells", [((0, 0),), ((0, 1),), ((0, 1), (1, 0))], ids=["diag", "off", "pair"])
    def test_rejects_non_finite_entries(self, value, cells):
        m = np.eye(2, dtype=complex)
        for cell in cells:
            m[cell] = value
        with pytest.raises(ValueError, match="finite"):
            tm.fold(m, SHAPE2)

    def test_symmetrizes_small_noise(self, rng):
        a = rng.normal(size=(2, 2))
        m = (a + a.T).astype(complex)
        m[0, 1] += 1e-12
        t = tm.fold(m, SHAPE2)
        u = t.unfold()
        assert np.array_equal(u, u.conj().T)

    @pytest.mark.parametrize(
        "m", [[[1e155, 5e153], [0.0, 1e155]], [[1e160, 1e160], [0.0, 1e160]], [[1.7e308, 1.7e308], [-1.7e308, 1.0]]],
        ids=["1e155", "1e160", "1.7e308"],
    )
    def test_rejects_non_hermitian_beyond_norm_range(self, m):
        # Frobenius norms of these finite matrices overflow unless scaled;
        # the last one's defect lies past double range.
        with pytest.raises(HermiticityError):
            tm.fold(np.array(m, dtype=complex), SHAPE2)

    @pytest.mark.parametrize("top", [1e200, 1.7e308])
    def test_accepts_exact_hermitian_at_large_scale(self, rng, top):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a + a.conj().T
        m = m * (top / np.abs(m).max())
        assert np.array_equal(tm.fold(m, SHAPE22).unfold(), m)


class TestShapeArguments:
    @pytest.mark.parametrize("size", [4, np.int64(4), np.int32(4), np.uint8(4)], ids=["int", "int64", "int32", "uint8"])
    def test_integral_scalars_are_one_mode_shapes(self, size):
        made = [tm.HermitianTensor(np.eye(4), size), tm.HermitianTensor.identity(size), tm.HermitianTensor.zero(size),
                tm.HermitianTensor.diag([1.0, 2.0, 3.0, 4.0], size), tm.fold(np.eye(4), size)]
        assert all(t.shape == tm.TensorShape((4,)) for t in made)

    @pytest.mark.parametrize("shape", [2.5, None, np.float64(4.0), True, np.bool_(True), "4", (2.5,)])
    def test_malformed_shapes_raise_value_error(self, shape):
        for make in (tm.HermitianTensor.identity, tm.HermitianTensor.zero, lambda s: tm.fold(np.eye(4), s),
                     lambda s: tm.HermitianTensor.diag([1.0] * 4, s)):
            with pytest.raises(ValueError, match="dims must be a nonempty list of integers >= 1"):
                make(shape)

    # Booleans are not real numbers here: diag([True, False]) was read as diag(1, 0).
    @pytest.mark.parametrize("values", [[1 + 1j, 2.0], np.array([1 + 1j, 2.0]), [None, 1.0], [True, False],
                                        np.array([True, False])], ids=["list", "array", "none", "bool-list", "bool-array"])
    def test_diag_rejects_values_that_are_not_real(self, values):
        with pytest.raises(ValueError, match="diagonal values must be real numbers"):
            tm.HermitianTensor.diag(values, 2)



class TestTrustedConstruction:
    @pytest.fixture
    def trusted(self, monkeypatch):
        """Patch the one store of a stack's matrices, where every matrix of
        a tensor or a stacked stage output is formed (at birth, or on the
        first read of a recipe's), to assert what the trusted constructor
        relies on: every matrix it receives is finite and exactly
        Hermitian.  Yields the received array shapes."""
        real = HermitianStack._form
        seen = []

        def checked(stack, matrix):
            assert np.all(np.isfinite(matrix))
            assert np.array_equal(matrix, matrix.conj().swapaxes(-1, -2))
            seen.append(matrix.shape)
            return real(stack, matrix)

        monkeypatch.setattr(HermitianStack, "_form", checked)
        return seen

    @pytest.mark.parametrize("shape", [(2, 2), (3,)], ids=["2x2", "3"])
    def test_every_suite_feeds_exactly_hermitian_results(self, trusted, shape):
        cfg = ExperimentConfig(trials=3, shape=shape)
        for sid in SuiteId:
            assert run_suite(sid, cfg).trials == 3
        d = int(np.prod(shape))
        assert trusted and {s[-2:] for s in trusted} == {(d, d)}
        # Stacked stage outputs: one matrix per trial of the chunk.
        assert {s[:-2] for s in trusted} == {(3,)}

    def test_library_results_are_exactly_hermitian(self, rng, trusted):
        x, y = rand_pd(rng), rand_pd(rng)
        low = rand_psd_rank(rng, 2)
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cong = tm.congruence(k, SHAPE22)
        pinch = tm.pinching([(0, 1), (2, 3)], SHAPE22)
        tm.mean_pd(x, y, tm.geometric())
        tm.mean_psd(low, y, tm.geometric())
        tm.mean_recursive(x, y, tm.power(0.5), 3)
        tm.eta(low, y)
        tm.range_projector(low)
        tm.lt_expression(0.5, x, y, tm.geometric())
        for lmap in (cong, pinch, tm.convex_combination([cong, pinch], [0.25, 0.75])):
            tm.apply_map(lmap, x)
        assert len(trusted) >= 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_results_raise(self):
        t = tm.HermitianTensor.diag([1e308, 1.0], SHAPE2)
        with pytest.raises(ValueError, match="finite"):
            (t * 1e308) * 1e308
        with pytest.raises(ValueError, match="finite"):
            t + t
        with pytest.raises(ValueError, match="finite"):
            t - (-t)


class TestValidationCounts:
    @pytest.fixture
    def validated(self, monkeypatch):
        calls = {"init": 0}
        real = tm.HermitianTensor.__init__

        def counted(self, *args, **kwargs):
            calls["init"] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(tm.HermitianTensor, "__init__", counted)
        return calls

    @pytest.fixture
    def eta_calls(self, monkeypatch):
        calls = {"eta": 0}
        real = tm.means.eta

        def counted(*args, **kwargs):
            calls["eta"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tm.means, "eta", counted)
        monkeypatch.setattr(tm.data_processing, "eta", counted)
        return calls

    def test_mean_pd_makes_no_validated_construction(self, rng, validated):
        x, y = rand_pd(rng), rand_pd(rng)
        before = validated["init"]
        tm.mean_pd(x, y, tm.geometric())
        assert validated["init"] == before

    def test_fusion_gap_reuses_the_pair_quotients(self, rng, eta_calls):
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        tm.fusion_gap(p1, p2, tm.square())
        assert eta_calls["eta"] == 3

    def test_from_matrices_checks_finiteness_in_one_pass(self, rng, monkeypatch):
        real, passes = np.isfinite, []

        def spy(a, *args, **kwargs):
            if np.shape(a) == (3, 4, 4):
                passes.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(tm.core.np, "isfinite", spy)
        raw = np.stack([rand_pd(rng).unfold() for _ in range(3)])
        HermitianStack.from_matrices(raw, SHAPE22)
        assert len(passes) == 1
        raw[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="entries must be finite"):
            HermitianStack.from_matrices(raw, SHAPE22)

    def test_public_constructors_reject_non_hermitian(self, rng, tmp_path):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        entries = a.reshape(2, 2, 2, 2)
        payload = {"dims": [2, 2], "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HermiticityError):
            tm.HermitianTensor(entries, SHAPE22)
        with pytest.raises(HermiticityError):
            tm.fold(a, SHAPE22)
        with pytest.raises(HermiticityError):
            tm.HermitianTensor.from_json_dict(payload)
        with pytest.raises(HermiticityError):
            tm.load_tensor(path)


@settings(deadline=None, max_examples=50)
@given(
    diag=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4),
    c=st.floats(0.25, 4.0),
)
def test_scaling_and_diagonal_properties(diag, c):
    t = tm.HermitianTensor.diag(diag, SHAPE22)
    assert tm.loewner_compare(t, t).relation is tm.Relation.EQ
    scaled = c * t
    assert np.allclose(scaled.eigenvalues(), np.sort(np.array(diag) * c)[::-1])
    assert abs(tm.gauge_norm(scaled, tm.TRACE) - c * tm.gauge_norm(t, tm.TRACE)) <= 1e-9 * max(
        1.0, tm.gauge_norm(t, tm.TRACE)
    )


@pytest.mark.parametrize(
    "re, im",
    [(["2.5"], [0.0]), ([2.5], [False]), ([True], [0]), ([None], [0.0]), ([[2.5]], [0.0]), ([10**400], [0])],
    ids=["string", "bool-im", "bool-re", "null", "nested", "int-past-double-range"],
)
def test_tensor_entries_must_be_json_numbers(re, im):
    # np.asarray would read "2.5" as 2.5 and True as 1.
    with pytest.raises(ValueError, match="entries must be"):
        tm.HermitianTensor.from_json_dict({"dims": [1], "re": re, "im": im})


def test_tensor_entries_take_ints_and_floats():
    t = tm.HermitianTensor.from_json_dict({"dims": [1], "re": [2], "im": [0.0]})
    assert t.shape.dims == (1,) and t.entries.tolist() == [[2.0 + 0.0j]]


def _defective(rng, d, ratio, scale=1.0):
    """A ``d x d`` matrix whose halved anti-Hermitian part has Frobenius norm
    ``ratio * HERMITICITY_RTOL`` times its halved norm, times ``scale`` (a
    power of two), with that defect and that halved norm."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    k = a - a.conj().T
    k /= np.linalg.norm(k)
    r = ratio * tm.core.HERMITICITY_RTOL / 2.0
    t = r * np.linalg.norm(h) / np.sqrt(1.0 - r * r)
    # h and k are orthogonal in the Frobenius inner product.
    return (h + t * k) * scale, t * scale, np.hypot(np.linalg.norm(h), t) / 2.0 * scale


def _message_numbers(exc) -> list[float]:
    return [float(v) for v in re.findall(r"[-+]?\d\.\d{3}e[-+]\d+", str(exc))]


class TestValidationBoundary:
    """The one-pass Hermiticity test keeps every verdict and message."""

    @pytest.mark.parametrize("scale", [1.0, 2.0**520], ids=["unit", "2**520"])
    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_verdicts_on_either_side_of_the_tolerance(self, rng, d, scale):
        inside, _, _ = _defective(rng, d, 0.9, scale)
        t = tm.fold(inside, (d,))
        half = inside * 0.5
        assert np.array_equal(t.unfold(), half + half.conj().T)
        outside, defect, norm = _defective(rng, d, 1.1, scale)
        with pytest.raises(HermiticityError) as info:
            tm.fold(outside, (d,))
        got, allowed = _message_numbers(info.value)
        assert got == pytest.approx(2.0 * defect, rel=1e-3)
        assert allowed == pytest.approx(2.0 * tm.core.HERMITICITY_RTOL * norm, rel=1e-3)

    @pytest.mark.parametrize("scale", [1.0, 2.0**520], ids=["unit", "2**520"])
    def test_the_first_bad_matrix_of_a_stack_is_named(self, rng, scale):
        good = [_defective(rng, 4, 0.5, scale)[0] for _ in range(2)]
        third, defect, norm = _defective(rng, 4, 1.1, scale)
        fourth = _defective(rng, 4, 50.0, scale)[0]
        stack = np.stack(good + [third, fourth])
        with pytest.raises(HermiticityError) as info:
            HermitianStack.from_matrices(stack, SHAPE22)
        got, allowed = _message_numbers(info.value)
        assert got == pytest.approx(2.0 * defect, rel=1e-3)
        assert allowed == pytest.approx(2.0 * tm.core.HERMITICITY_RTOL * norm, rel=1e-3)
        # The members alone give the same verdicts and the same message.
        for m in good:
            tm.fold(m, SHAPE22)
        with pytest.raises(HermiticityError, match=re.escape(str(info.value))):
            tm.fold(third, SHAPE22)

    @pytest.mark.parametrize("scale", [1.0, 2.0**520], ids=["unit", "2**520"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_a_non_finite_entry_is_refused_as_such(self, rng, value, scale):
        stack = np.stack([_defective(rng, 4, 0.5, scale)[0] for _ in range(4)])
        stack[2, 1, 3] = value
        with pytest.raises(ValueError, match="entries must be finite"):
            HermitianStack.from_matrices(stack, SHAPE22)
        with pytest.raises(ValueError, match="entries must be finite"):
            tm.fold(stack[2], SHAPE22)

    def test_hermitian_part_keeps_its_bits_in_any_layout(self, rng):
        a = np.stack([_defective(rng, 4, 0.5)[0] for _ in range(3)])
        for raw in (a, np.asfortranarray(a[0]), a[1].T, a[:, ::-1, ::-1]):
            half = raw * 0.5
            assert np.array_equal(tm.core._validated(raw), half + half.conj().swapaxes(-1, -2))

    def test_symmetrize_in_place_keeps_the_bits_of_the_formula(self, rng):
        for shape in ((4, 4), (5, 9, 9), (2, 3, 16, 16)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = (a + a.conj().swapaxes(-1, -2)) / 2.0
            got = tm.core._symmetrize(a.copy())
            assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErrorState:
    """numpy's error state is set once per public call, by its outermost kernel."""

    @pytest.fixture
    def entries(self, monkeypatch):
        """The ``np.errstate`` contexts that tmlab's own modules open."""
        seen, real = [], np.errstate

        def spy(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("tmlab"):
                seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "errstate", spy)
        return seen

    @pytest.mark.parametrize("shape", [SHAPE22, tm.TensorShape((4, 4))], ids=["D4", "D16"])
    def test_each_public_call_enters_one_error_state(self, rng, entries, shape):
        raw = [rand_pd(rng, shape).unfold().reshape(shape.dims * 2) for _ in range(2)]
        low = rand_psd_rank(rng, 2, shape).unfold().reshape(shape.dims * 2)
        g = tm.geometric()
        cfg = ExperimentConfig(trials=2, shape=shape.dims)
        calls = {
            "HermitianTensor": lambda x, y: tm.HermitianTensor(raw[0], shape),
            "mean_pd": lambda x, y: tm.mean_pd(x, y, g),
            "mean_psd": lambda x, y: tm.mean_psd(x, y, g),
            "loewner_compare": lambda x, y: tm.loewner_compare(x, y),
            "apply_spectral": lambda x, y: tm.apply_spectral(x, np.sqrt),
            "spectral_power": lambda x, y: tm.spectral_power(x, 0.5),
            "tensor_exp": lambda x, y: tm.tensor_exp(x),
            "tensor_log": lambda x, y: tm.tensor_log(x),
            "mean_recursive": lambda x, y: tm.mean_recursive(x, y, g, 3),
            "power": lambda x, y: tm.power(0.3),
            "run_suite": lambda x, y: run_suite("T9_TC", cfg),
        }
        for name, call in calls.items():
            x, y = (tm.HermitianTensor(r, shape) for r in ([low, raw[1]] if name == "mean_psd" else raw))
            entries.clear()
            call(x, y)
            assert len(entries) == 1, name

    def test_a_raising_call_leaves_no_state_behind(self, rng):
        before = np.geterr()
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.mean_pd(-rand_pd(rng), rand_pd(rng), tm.geometric())
        assert tm.core._QUIET.get() is False
        assert np.geterr() == before

    def test_the_quiet_state_is_per_thread(self):
        outside = (tm.core._QUIET.get(), np.geterr()["over"])
        seen = []

        @tm.core._quiet
        def kernel():
            worker = threading.Thread(target=lambda: seen.append((tm.core._QUIET.get(), np.geterr()["over"])))
            worker.start()
            worker.join()
            return tm.core._QUIET.get(), np.geterr()["over"]

        assert kernel() == (True, "ignore")
        assert seen == [outside]

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: tm.HermitianTensor(np.array([[1e308, 1e308], [-1e308, 1e308]]), s),
            lambda s: tm.mean_pd(tm.HermitianTensor.diag([1e300, 1e300], s), tm.HermitianTensor.diag([1.0, 2.0], s),
                                 tm.square()),
            lambda s: tm.mean_psd(tm.HermitianTensor.diag([1e300, 0.0], s), tm.HermitianTensor.diag([1.0, 0.0], s),
                                  tm.square()),
            lambda s: tm.loewner_compare(tm.HermitianTensor.diag([-1.5e308, 1.0], s),
                                         tm.HermitianTensor.diag([1.5e308, 1.0], s)),
        ],
        ids=["HermitianTensor", "mean_pd", "mean_psd", "loewner_compare"],
    )
    def test_overflow_near_the_double_range_raises_without_warning(self, call):
        with pytest.raises(ValueError):
            call(SHAPE2)

    @pytest.mark.parametrize("n", [2, 3, 2**60])
    def test_integer_power_past_the_double_range_says_so(self, n):
        with pytest.raises(ValueError, match=r"power input \*\* .* leaves the double range"):
            tm.spectral_power(tm.HermitianTensor.diag([1e200, 1.0], SHAPE2), n)

    def test_norms_near_the_double_range_warn_nothing(self):
        big = tm.HermitianTensor.diag([1e308, 1e308], SHAPE2)
        assert tm.gauge_norm(big, tm.FROBENIUS) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
        assert tm.gauge_norm(tm.HermitianTensor.diag([1.5e308, 1.5e308], SHAPE2), tm.FROBENIUS) == np.inf
        verdict = tm.loewner_compare(tm.HermitianTensor.diag([1e300, 1e300], SHAPE2),
                                     tm.HermitianTensor.diag([1e300, 2e300], SHAPE2))
        assert verdict.relation is tm.Relation.LEQ


@pytest.mark.parametrize("call, error, match", [
    (lambda: tm.HermitianTensor(np.eye(4).reshape(2, 2, 4)), ValueError, "entries of odd order"),
    (lambda: tm.HermitianTensor(np.eye(4), (2, 2)), ValueError,
     r"entries have shape \(4, 4\), expected \(2, 2, 2, 2\)"),
    (lambda: tm.HermitianTensor.from_matrix(np.eye(3), (2, 2)), ValueError,
     r"matrix has shape \(3, 3\), expected \(4, 4\)"),
    (lambda: tm.HermitianTensor.diag([1.0, 2.0, 3.0], (2, 2)), ValueError, "one diagonal value per unfolding index"),
    (lambda: tm.HermitianTensor.identity(2) + 3.0, TypeError, "expected HermitianStack, got float"),
], ids=["odd-order", "entries-mismatch", "from-matrix-size", "short-diag", "add-number"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
