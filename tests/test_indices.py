"""Threshold functions and gap indices against hand-written formulas."""

import math

import numpy as np
import pytest

from topm.errors import ConfigError
from topm.estimator import EstimatorState
from topm.indices import (CLASSICAL, HEURISTIC, INDIVIDUAL, PAIRED,
                          THEORETICAL, IndexConfig, ThresholdSpec,
                          index_components, normalize_threshold_kind,
                          threshold)


def heuristic_spec(delta=0.05):
    return ThresholdSpec(kind=HEURISTIC, delta=delta)


def test_heuristic_threshold_formula():
    """C(t) = sqrt(2 ln((ln t + 1)/delta)), exact at several rounds."""
    spec = heuristic_spec(0.05)
    for t in (1, 2, 10, 1000, 10 ** 7):
        expect = math.sqrt(2.0 * math.log((math.log(t) + 1.0) / 0.05))
        assert threshold(spec, t) == pytest.approx(expect, abs=0.0)
    assert threshold(spec, 1) == pytest.approx(math.sqrt(2.0 * math.log(20.0)))


def test_theoretical_threshold_formula():
    spec = ThresholdSpec(kind=THEORETICAL, delta=0.05, n_dim=3,
                         feature_bound=math.sqrt(2.0), param_bound=1.0,
                         lam=0.025, sigma=0.5)
    for t in (1, 50, 4096):
        core = 2.0 * math.log(1.0 / 0.05) + 3.0 * math.log(
            1.0 + t * 2.0 / (0.025 * 3.0)
        )
        expect = math.sqrt(core) + math.sqrt(0.025) * 1.0 / 0.5
        assert threshold(spec, t) == pytest.approx(expect, abs=0.0)


def test_classical_threshold_formula():
    """C(t) = sqrt(beta/2)/sigma with beta = ln(5 K t^4 / (4 delta))."""
    spec = ThresholdSpec(kind=CLASSICAL, delta=0.05, sigma=0.5, k_arms=4)
    for t in (1, 7, 300):
        beta = math.log(5.0 * 4 * t ** 4 / (4.0 * 0.05))
        assert threshold(spec, t) == pytest.approx(math.sqrt(beta / 2.0) / 0.5)


def test_threshold_monotonicity():
    """Non-decreasing in t; decreasing in delta."""
    spec = heuristic_spec(0.05)
    values = [threshold(spec, t) for t in range(1, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert threshold(heuristic_spec(0.01), 10) > threshold(heuristic_spec(0.2), 10)
    with pytest.raises(ConfigError):
        threshold(spec, 0)


def test_kind_normalization_and_aliases():
    assert normalize_threshold_kind("Heuristic") == HEURISTIC
    assert normalize_threshold_kind("theoretical-linear") == THEORETICAL
    assert normalize_threshold_kind("classical-lucb") == CLASSICAL
    with pytest.raises(ConfigError):
        normalize_threshold_kind("bogus")


def test_threshold_spec_validation():
    with pytest.raises(ConfigError):
        ThresholdSpec(kind=HEURISTIC, delta=1.0)
    with pytest.raises(ConfigError):
        ThresholdSpec(kind=THEORETICAL, delta=0.05, n_dim=3)  # missing bounds
    with pytest.raises(ConfigError):
        ThresholdSpec(kind=CLASSICAL, delta=0.05, sigma=0.5, k_arms=1)
    with pytest.raises(ConfigError):
        ThresholdSpec(kind=CLASSICAL, delta=0.05, k_arms=4)  # missing sigma


def test_index_config_validation():
    with pytest.raises(ConfigError):
        IndexConfig(kind="diagonal")
    cfg = IndexConfig(kind=PAIRED, threshold_kind="Classical")
    assert cfg.threshold_kind == CLASSICAL
    assert cfg.paired_code == 1
    assert IndexConfig(kind=INDIVIDUAL).paired_code == 0


def pulled_estimator(rng, n=3, k=4, pulls=60, sigma=0.5, lam=0.1):
    x = rng.standard_normal((n, k))
    x /= np.linalg.norm(x, axis=0)
    est = EstimatorState(x, sigma=sigma, lam=lam)
    for _ in range(pulls):
        est.update(int(rng.integers(k)), float(rng.standard_normal()))
    return est


def test_gap_index_formula_paired_and_individual():
    """B_ij = gap + C*sigma*||.||: paired uses the difference vector, the
    individual form adds the per-arm norms."""
    rng = np.random.default_rng(12)
    est = pulled_estimator(rng)
    spec = heuristic_spec()
    t = est.round
    level = threshold(spec, t)
    dinv = np.linalg.inv(est.amat)
    x = est.features
    for kind in (PAIRED, INDIVIDUAL):
        cfg = IndexConfig(kind=kind, threshold=spec)
        _, _, b = index_components(est, cfg, t)
        for i in range(4):
            for j in range(4):
                gap = est.empirical_mean(i) - est.empirical_mean(j)
                d = x[:, i] - x[:, j]
                if kind == PAIRED:
                    width = level * 0.5 * math.sqrt(d @ dinv @ d)
                else:
                    width = level * 0.5 * (
                        math.sqrt(x[:, i] @ dinv @ x[:, i])
                        + math.sqrt(x[:, j] @ dinv @ x[:, j])
                    )
                assert b[i, j] == pytest.approx(gap + width)


def test_paired_never_exceeds_individual():
    """Triangle inequality: paired widths, hence indices, are smaller."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        est = pulled_estimator(rng, pulls=int(rng.integers(5, 80)))
        spec = heuristic_spec()
        t = est.round
        _, _, b_pair = index_components(est, IndexConfig(PAIRED, spec), t)
        _, _, b_ind = index_components(est, IndexConfig(INDIVIDUAL, spec), t)
        for i in range(4):
            for j in range(4):
                assert b_pair[i, j] <= b_ind[i, j] + 1e-12


def test_index_matrix_agrees_with_components():
    """The fused kernel output equals B_ij built entry by entry from the
    estimator's means and deviations."""
    rng = np.random.default_rng(5)
    est = pulled_estimator(rng)
    spec = heuristic_spec()
    cfg = IndexConfig(kind=PAIRED, threshold=spec)
    t = est.round
    level = threshold(spec, t)
    x = est.features
    mat = np.array([[est.empirical_mean(i) - est.empirical_mean(j)
                     + level * est.deviation(x[:, i] - x[:, j])
                     for j in range(4)] for i in range(4)])
    mu, w, b = index_components(est, cfg, t)
    assert np.abs(mat - b).max() < 1e-10
    assert np.abs(np.diag(b)).max() == 0.0
    for a in range(4):
        assert mu[a] == pytest.approx(est.empirical_mean(a))
    skew = b + b.T  # B_ij + B_ji = 2 W_ij
    assert np.abs(skew - 2.0 * w).max() < 1e-10


def test_gap_index_without_threshold_raises():
    rng = np.random.default_rng(6)
    est = pulled_estimator(rng)
    with pytest.raises(ConfigError):
        index_components(est, IndexConfig(kind=PAIRED), 10)
