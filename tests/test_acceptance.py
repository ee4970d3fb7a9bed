"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import tmlab as tm
from tmlab.harness import ExperimentConfig, run_suite

from conftest import SHAPE2, SHAPE22, rand_hermitian, rand_pd, rand_psd_rank, rand_spectrum


def _announce(num, elapsed, budget, text):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.2f}s): {text}")


def test_criterion_01_kantorovich_exactness(rng):
    t0 = time.time()
    assert abs(tm.kantorovich(1, 2, 2) - 1.125) <= 1e-12
    assert abs(tm.kantorovich(1, 4, 2) - 1.5625) <= 1e-12
    for _ in range(50):
        m = rng.uniform(0.05, 3.0)
        big = m + rng.uniform(1e-3, 4.0)
        cross = (big + m) ** 2 / (4 * m * big)
        assert abs(tm.kantorovich(m, big, 2.0) - cross) <= 1e-12 * max(1.0, cross)
    _announce(1, time.time() - t0, 1.0, "Kantorovich constant matches the quadratic closed form")


def test_criterion_02_unfolding_homomorphism(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        a = rand_hermitian(rng)
        b = rand_hermitian(rng)
        # independent contraction route over the raw index groups
        tensor_prod = np.einsum("ijkl,klmn->ijmn", a.entries, b.entries)
        matrix_prod = tm.unfold(a) @ tm.unfold(b)
        err = np.max(np.abs(tensor_prod.reshape(4, 4) - matrix_prod))
        scale = np.linalg.norm(tm.unfold(a)) * np.linalg.norm(tm.unfold(b))
        worst = max(worst, err / max(scale, 1e-300))
        assert err <= 1e-10 * scale
    _announce(2, time.time() - t0, 5.0, f"unfold is multiplicative on 500 pairs (worst rel {worst:.1e})")


def test_criterion_03_mean_algebra(rng):
    t0 = time.time()
    fns = {fid: tm.from_id(fid) for fid in ("geometric", "square", "harmonic_like")}
    for fid, g in fns.items():
        gt = tm.transpose_fn(g)
        for _ in range(200):
            x, y = rand_pd(rng), rand_pd(rng)
            m = tm.mean_pd(x, y, g)
            scale = max(1.0, m.spectral_scale())
            idem = tm.mean_pd(x, x, g)
            assert np.max(np.abs(idem.unfold() - x.unfold())) <= 1e-9 * max(1.0, x.spectral_scale())
            for c in (0.1, 3.0):
                hom = tm.mean_pd(c * x, c * y, g)
                assert np.max(np.abs(hom.unfold() - c * m.unfold())) <= 1e-9 * c * scale
            swap = tm.mean_pd(y, x, gt)
            assert np.max(np.abs(swap.unfold() - m.unfold())) <= 1e-9 * scale
    _announce(3, time.time() - t0, 10.0, "idempotence, homogeneity, transposition for 3 generators x 200 pairs")


def test_criterion_04_recursion_consistency(rng):
    t0 = time.time()
    f = tm.geometric()
    worst = 0.0
    for _ in range(100):
        x, y = rand_pd(rng), rand_pd(rng)
        for n in range(2, 7):
            a = tm.mean_recursive(x, y, f, n)
            b = tm.mean_pd(x, y, tm.power_lift(f, n))
            rel = np.linalg.norm(a.unfold() - b.unfold()) / np.linalg.norm(b.unfold())
            worst = max(worst, rel)
            assert rel <= 1e-8
    _announce(4, time.time() - t0, 10.0, f"recursion = direct lift for n in 2..6 (worst rel {worst:.1e})")


def test_criterion_05_lifted_ando_hiai_suite():
    t0 = time.time()
    for m in (2, 3):
        for q in (0.5, 1.0, 2.0):
            cfg = ExperimentConfig(trials=500, exponents={"q": q, "m": m}, function="power:0.5")
            report = run_suite("T1_AndoHiaiGeneralized", cfg)
            assert report.violations == 0, (m, q, report.regime_notes)
    _announce(5, time.time() - t0, 60.0, "zero violations across m in {2,3}, q in {0.5,1,2}, 500 trials each")


def test_criterion_06_lie_trotter_convergence(rng):
    t0 = time.time()
    g = tm.geometric()
    worst_final = 0.0
    for _ in range(200):
        x = rand_spectrum(rng, -1.0, 1.0)
        y = rand_spectrum(rng, -1.0, 1.0)
        st = tm.convergence_study(x, y, g)
        assert st.monotone
        assert st.final_relative_error <= 1e-2
        worst_final = max(worst_final, st.final_relative_error)
    for _ in range(20):
        d = rng.uniform(-1, 1, size=4)
        x = tm.HermitianTensor.diag(d, SHAPE22)
        y = tm.HermitianTensor.diag(rng.uniform(-1, 1, size=4), SHAPE22)
        st = tm.convergence_study(x, y, g)
        assert max(st.distances) <= 1e-9
    _announce(6, time.time() - t0, 30.0, f"monotone convergence on 200 pairs (worst final rel {worst_final:.1e})")


def test_criterion_07_psd_limit(rng):
    t0 = time.time()
    for gfun in (tm.geometric(), tm.square()):
        for _ in range(25):
            y = rand_psd_rank(rng, 3)
            w = rand_pd(rng)
            dec = tm.spectral_decompose(y)
            lam = np.maximum(dec.eigenvalues, 0.0)
            lam[lam <= 1e-10 * max(float(lam[0]), 0.0)] = 0.0
            root = (dec.eigenvectors * np.sqrt(lam)) @ dec.eigenvectors.conj().T
            x = tm.fold((root @ w.unfold() @ root + (root @ w.unfold() @ root).conj().T) / 2, SHAPE22)
            limit, diag = tm.epsilon_mean_limit(x, y, gfun, (1e-2, 1e-4, 1e-6, 1e-8))
            assert all(b < a for a, b in zip(diag.errors, diag.errors[1:])), diag.errors
            assert diag.errors[-1] <= 1e-3 * max(1.0, tm.gauge_norm(limit))
    _announce(7, time.time() - t0, 10.0, "regularized means decrease strictly to the eta-based limit")


def test_criterion_08_fusion_inequality(rng):
    t0 = time.time()
    g = tm.square()
    worst = math.inf
    for _ in range(1000):
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        gap, _ = tm.fusion_gap(p1, p2, g)
        worst = min(worst, gap)
        assert gap >= -1e-8
    ident = tm.HermitianTensor.identity(SHAPE2)
    for x1, y1, x2, y2 in ((1.0, 2.0, 3.0, 1.5), (0.3, 0.7, 2.0, 5.0), (4.0, 1.0, 0.2, 0.9)):
        pa = tm.DominationPair(x1 * ident, y1 * ident, "left")
        pb = tm.DominationPair(x2 * ident, y2 * ident, "left")
        gap, _ = tm.fusion_gap(pa, pb, g)
        closed = x1**2 / y1 + x2**2 / y2 - (x1 + x2) ** 2 / (y1 + y2)
        assert abs(gap - closed) <= 1e-10
    _announce(8, time.time() - t0, 30.0, f"1000 fused quadruples stay subadditive (min gap {worst:.1e})")


def test_criterion_09_linear_transform_inequality(rng):
    t0 = time.time()
    g = tm.square()
    pinch = tm.pinching([(0, 1), (2, 3)], SHAPE22)
    worst = math.inf
    worst_unitary = 0.0
    for trial in range(1000):
        pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cong = tm.congruence(k.reshape(2, 2, 2, 2), SHAPE22)
        lmap = cong if trial % 2 == 0 else pinch
        gap, _ = tm.transform_gap(lmap, pair, g)
        worst = min(worst, gap)
        assert gap >= -1e-8
        if trial % 20 == 0:
            u, _ = np.linalg.qr(k)
            ugap, _ = tm.transform_gap(tm.congruence(u.reshape(2, 2, 2, 2), SHAPE22), pair, g)
            worst_unitary = max(worst_unitary, abs(ugap))
            assert abs(ugap) <= 1e-9
    _announce(9, time.time() - t0, 30.0,
              f"1000 mapped pairs stay dominated (min gap {worst:.1e}, unitary |gap| <= {worst_unitary:.1e})")


def test_criterion_10_trace_tail_bounds():
    t0 = time.time()
    report = run_suite("L3_MarkovChebyshev", ExperimentConfig(trials=2000))
    assert report.violations == 0, report.regime_notes
    _announce(10, time.time() - t0, 60.0, "empirical tail frequencies below the clamped trace bounds (2000 trials)")


def test_criterion_11_power_function_collapse(rng):
    t0 = time.time()
    for _ in range(100):
        x, y = rand_pd(rng), rand_pd(rng)
        q = float(rng.uniform(1.0, 6.0))
        lo, up = tm.psi_factors(q, tm.power(0.5), x, y)
        assert abs(lo - 1.0) <= 1e-10 and abs(up - 1.0) <= 1e-10
        lo, up = tm.phi_factors(q, tm.power(-0.5), x, y)
        assert abs(lo - 1.0) <= 1e-10 and abs(up - 1.0) <= 1e-10
    _announce(11, time.time() - t0, 10.0, "dyadic factors collapse to 1 for power generators")


def test_criterion_12_report_determinism(tmp_path):
    t0 = time.time()
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "tmlab.cli", "verify", "--suite", "all", "--out", str(out), "--seed", "424242"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        assert out.exists()
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    reports = json.loads(bytes_a)
    assert len(reports) == 17
    _announce(12, time.time() - t0, 300.0, "verify --suite all is byte-identical across runs")
