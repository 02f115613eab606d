"""Online regularized least squares against dense closed forms, through
kernels.record_pull, the update every trial makes."""

import numpy as np
import pytest

from topm import kernels
from topm.errors import ConfigError, DimensionMismatch
from topm.estimator import EstimatorState


def random_features(rng, n, k):
    x = rng.standard_normal((n, k))
    return x / np.linalg.norm(x, axis=0)


def test_theta_hat_matches_closed_form():
    """theta_hat = (lam I + sum x x^T)^-1 sum r x, checked per update."""
    rng = np.random.default_rng(2)
    x = random_features(rng, 3, 5)
    est = EstimatorState(x, sigma=0.5, lam=0.1, recompute_every=10 ** 9)
    design = 0.1 * np.eye(3)
    response = np.zeros(3)
    for _ in range(200):
        arm = int(rng.integers(5))
        r = float(rng.standard_normal())
        est.update(arm, r)
        design += np.outer(x[:, arm], x[:, arm])
        response += r * x[:, arm]
        expect = np.linalg.solve(design, response)
        assert np.abs(est.theta_hat - expect).max() < 1e-9
    assert est.round == 200
    assert est.counts.sum() == 200


def test_empirical_means_and_gaps():
    rng = np.random.default_rng(4)
    x = random_features(rng, 2, 3)
    est = EstimatorState(x, sigma=0.5, lam=0.05)
    for _ in range(30):
        est.update(int(rng.integers(3)), float(rng.standard_normal()))
    th = est.theta_hat
    for a in range(3):
        assert est.empirical_mean(a) == pytest.approx(float(x[:, a] @ th))


def test_deviation_is_sigma_scaled_design_norm():
    rng = np.random.default_rng(9)
    x = random_features(rng, 3, 4)
    est = EstimatorState(x, sigma=0.5, lam=0.2)
    for _ in range(40):
        est.update(int(rng.integers(4)), 0.0)
    dinv = np.linalg.inv(est.amat)
    y = x[:, 1] - x[:, 3]
    assert est.deviation(y) == pytest.approx(0.5 * np.sqrt(y @ dinv @ y))
    assert est.deviation(x[:, 2]) == pytest.approx(
        0.5 * np.sqrt(x[:, 2] @ dinv @ x[:, 2]))


def test_deviation_matches_direct_and_clips_at_zero():
    """(deviation / sigma)^2 is y^T A^-1 y to 1e-10, never negative, and
    exactly 0 at y = 0."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    est = EstimatorState(x, sigma=0.5, lam=4.0)
    for _ in range(30):
        est.update(int(rng.integers(6)), float(rng.standard_normal()))
    for _ in range(25):
        y = rng.standard_normal(4)
        direct = float(y @ np.linalg.inv(est.amat) @ y)
        dev = est.deviation(y)
        assert dev >= 0.0
        assert abs((dev / 0.5) ** 2 - direct) < 1e-10
    assert est.deviation(np.zeros(4)) == 0.0


def test_deviation_rejects_wrong_shape():
    est = EstimatorState(np.eye(3), sigma=0.5, lam=0.2)
    with pytest.raises(DimensionMismatch):
        est.deviation(np.ones(4))


def test_rank_one_update_tracks_dense_inverse():
    """The Sherman-Morrison chain of update() stays within 1e-10 of batch
    inversion when no recompute intervenes."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, 8))
        est = EstimatorState(x, sigma=0.5, lam=float(n),
                             recompute_every=10 ** 9)
        mat = float(n) * np.eye(n)
        for _ in range(50):
            arm = int(rng.integers(8))
            est.update(arm, 0.0)
            mat += np.outer(x[:, arm], x[:, arm])
        assert np.abs(est.amat - mat).max() < 1e-9
        assert np.abs(est.minv - np.linalg.inv(mat)).max() < 1e-10


def test_lam_zero_requires_identity_features():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigError):
        EstimatorState(random_features(rng, 2, 3), sigma=0.5, lam=0.0)
    with pytest.raises(ConfigError):
        EstimatorState(np.eye(3), sigma=0.5, lam=-0.1)


def test_lam_zero_design_defined_after_full_pass():
    """With lam=0 the estimates appear exactly when every arm has one pull."""
    est = EstimatorState(np.eye(3), sigma=1.0, lam=0.0)
    est.update(0, 1.0)
    est.update(1, 0.5)
    with pytest.raises(ConfigError):
        _ = est.theta_hat
    est.update(2, -0.25)
    assert np.allclose(est.theta_hat, [1.0, 0.5, -0.25])
    est.update(0, 0.0)
    assert est.empirical_mean(0) == pytest.approx(0.5)  # two pulls averaged


def test_update_validates_arm():
    est = EstimatorState(np.eye(2), sigma=0.5, lam=0.1)
    with pytest.raises(DimensionMismatch):
        est.update(5, 0.0)


def test_fresh_state_is_the_regularizer():
    est = EstimatorState(np.eye(3), sigma=0.5, lam=0.25)
    assert np.array_equal(est.amat, 0.25 * np.eye(3))
    assert np.allclose(est.minv, 4.0 * np.eye(3))
    assert est.round == 0


def test_periodic_recompute_bounds_drift():
    """With recompute_every=25 the inverse error stays tiny over 500 updates,
    and right after each recompute the inverse is the symmetrized dense
    inverse of the design, byte for byte."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 8))
    est = EstimatorState(x, sigma=0.5, lam=0.05, recompute_every=25)
    for step in range(1, 501):
        est.update(int(rng.integers(8)), float(rng.standard_normal()))
        if step % 25 == 0:
            fresh = np.linalg.inv(est.amat)
            kernels.symmetrize(fresh)
            assert np.array_equal(est.minv, fresh)
    assert np.abs(est.amat @ est.minv - np.eye(3)).max() < 1e-8
