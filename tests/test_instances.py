"""Instance generators, gap profiles, reward laws, and file round-trips."""

import math

import numpy as np
import pytest

from topm.errors import InstanceFormatError
from topm.instances import (EMPIRICAL_TABLE, Instance, eps_top_set,
                            gap_profile, load_instance,
                            make_canonical_instance, make_classic_instance,
                            make_random_unit_instance, make_table_instance,
                            sample_reward, save_instance)


def test_classic_means_and_min_gap():
    """Top arms have mean 1, the challenger cos(omega), the rest 0."""
    inst = make_classic_instance(4, 2, math.pi / 6)
    assert np.allclose(inst.mu, [1.0, 1.0, math.cos(math.pi / 6), 0.0])
    prof = gap_profile(inst, 2)
    assert prof.true_top_m == (0, 1)
    assert abs(prof.min_gap - (1 - math.cos(math.pi / 6))) < 1e-12


def test_classic_reported_gap_values():
    """The two published operating points: gaps 0.1340 and 0.004996."""
    near = gap_profile(make_classic_instance(4, 2, math.pi / 6), 2).min_gap
    tiny = gap_profile(make_classic_instance(3, 1, 0.1), 1).min_gap
    assert abs(near - 0.1340) < 1e-4
    assert abs(tiny - 0.004996) < 1e-6


def test_classic_feature_geometry():
    inst = make_classic_instance(5, 2, 0.4)
    x = inst.features
    assert x.shape == (4, 5)
    assert np.array_equal(x[:, 0], np.eye(4)[0])
    assert np.array_equal(x[:, 1], np.eye(4)[0] + np.eye(4)[1])
    assert abs(np.linalg.norm(x[:, 2]) - 1.0) < 1e-12  # cos/sin column
    assert inst.feature_bound == pytest.approx(math.sqrt(2.0))
    assert inst.param_bound == 1.0


def test_classic_rejects_bad_shapes():
    with pytest.raises(InstanceFormatError):
        make_classic_instance(2, 1, 0.5)
    with pytest.raises(InstanceFormatError):
        make_classic_instance(4, 3, 0.5)
    with pytest.raises(InstanceFormatError):
        make_classic_instance(4, 2, 0.0)


def test_gap_profile_matches_definition():
    """Delta_k is mu_k - mu_(m+1) inside the top set, mu_(m) - mu_k outside."""
    mu = np.array([0.3, 1.2, 0.9, -0.4, 0.9])
    for m in range(1, 5):
        prof = gap_profile(mu, m)
        order = np.argsort(-mu, kind="stable")
        top = set(int(a) for a in order[:m])
        mu_m, mu_m1 = mu[order[m - 1]], mu[order[m]]
        for a in range(5):
            expect = mu[a] - mu_m1 if a in top else mu_m - mu[a]
            assert prof.gaps[a] == pytest.approx(expect)
        assert prof.min_gap == pytest.approx(mu_m - mu_m1)


def test_eps_top_set_widens_with_epsilon():
    mu = [1.0, 0.8, 0.55, 0.0]
    assert eps_top_set(mu, 2, 0.0) == {0, 1}
    assert eps_top_set(mu, 2, 0.3) == {0, 1, 2}
    assert eps_top_set(mu, 1, 0.25) == {0, 1}


def test_random_unit_instance_columns():
    inst = make_random_unit_instance(8, 4, 0.25, seed=123)
    assert np.allclose(np.linalg.norm(inst.features, axis=0), 1.0)
    assert np.array_equal(inst.mu, inst.features[0, :])
    assert inst.param_bound == 1.0
    again = make_random_unit_instance(8, 4, 0.25, seed=123)
    assert np.array_equal(inst.features, again.features)


def test_canonical_instance_identity_embedding():
    inst = make_canonical_instance([0.9, 0.2, -0.1])
    assert np.array_equal(inst.features, np.eye(3))
    assert np.array_equal(inst.mu, [0.9, 0.2, -0.1])
    assert np.array_equal(inst.theta, inst.mu)


def test_instance_validates_theta_and_law():
    with pytest.raises(InstanceFormatError):
        Instance(np.eye(2), 0.5)  # neither theta nor mu
    with pytest.raises(InstanceFormatError):
        Instance(np.eye(2), -1.0, theta=[1.0, 0.0])
    with pytest.raises(InstanceFormatError):
        Instance(np.eye(2), 0.5, theta=[1.0, 0.0], reward_law="bogus")
    with pytest.raises(InstanceFormatError):
        Instance(np.eye(2), 0.5, theta=[1.0, 0.0], reward_table=[[1.0], [0.0]])


def test_gaussian_reward_law_moments():
    inst = make_canonical_instance([0.7, 0.0], sigma=0.5)
    rng = np.random.default_rng(42)
    draws = np.array([sample_reward(inst, 0, rng) for _ in range(20000)])
    assert abs(draws.mean() - 0.7) < 0.02
    assert abs(draws.std() - 0.5) < 0.02


def test_table_instance_means_and_support():
    rows = [[0.9, 0.7, 0.8], [0.6, 0.5, 0.7], [0.3, 0.1]]
    inst = make_table_instance(rows)
    assert inst.reward_law == EMPIRICAL_TABLE
    assert np.allclose(inst.mu, [0.8, 0.6, 0.2])
    rng = np.random.default_rng(0)
    seen = {sample_reward(inst, 2, rng) for _ in range(200)}
    assert seen == {0.3, 0.1}


def test_save_load_round_trip(tmp_path):
    inst = make_classic_instance(4, 2, math.pi / 6, sigma=0.25)
    path = save_instance(inst, tmp_path / "classic.csv")
    back = load_instance(path)
    assert np.array_equal(back.features, inst.features)
    assert np.array_equal(back.mu, inst.mu)
    assert np.array_equal(back.theta, inst.theta)
    assert back.sigma == inst.sigma
    assert back.param_bound == inst.param_bound
    assert back.reward_law == inst.reward_law


def test_save_load_round_trip_table(tmp_path):
    inst = make_table_instance([[0.9, 0.7], [0.2, 0.4, 0.0]], sigma=0.5)
    path = save_instance(inst, tmp_path / "table.csv")
    back = load_instance(path)
    assert back.reward_law == EMPIRICAL_TABLE
    assert np.array_equal(back.mu, inst.mu)
    assert [list(r) for r in back.reward_table] == [[0.9, 0.7], [0.2, 0.4, 0.0]]


def test_empty_reward_row_is_refused_at_construction_and_load(tmp_path):
    rows = [[0.9], [], [0.1]]
    with pytest.raises(InstanceFormatError, match="empty reward table for arm 1"):
        Instance(np.eye(3), 0.5, mu=[0.9, 0.5, 0.1], reward_law=EMPIRICAL_TABLE,
                 reward_table=rows)
    # a file written by hand with arm 1's rewards row left empty
    path = save_instance(make_table_instance([[0.9], [0.5], [0.1]]),
                         tmp_path / "table.csv")
    (tmp_path / "table_rewards.csv").write_text("0,0.9\n1\n2,0.1\n")
    with pytest.raises(InstanceFormatError, match="empty reward table for arm 1"):
        load_instance(path)


def test_load_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("arm,f1\n0,1.0\n")
    with pytest.raises(InstanceFormatError):
        load_instance(p)
    p.write_text("arm_id,f1,mu\n0,1.0,1.0\n0,0.0,0.0\n")
    (tmp_path / "bad.json").write_text('{"sigma": 0.5}\n')
    with pytest.raises(InstanceFormatError):
        load_instance(p)  # duplicate arm id
    p.write_text("arm_id,f1,mu\n0,1.0,1.0\n2,0.0,0.0\n")
    with pytest.raises(InstanceFormatError):
        load_instance(p)  # ids not 0..K-1
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "missing.csv")


def test_load_requires_sidecar(tmp_path):
    p = tmp_path / "inst.csv"
    p.write_text("arm_id,f1,mu\n0,1.0,1.0\n1,0.0,0.0\n")
    with pytest.raises(InstanceFormatError):
        load_instance(p)


def test_with_sigma_copies():
    inst = make_canonical_instance([1.0, 0.0], sigma=0.5)
    quiet = inst.with_sigma(0.0)
    assert quiet.sigma == 0.0
    assert inst.sigma == 0.5
    assert np.array_equal(quiet.mu, inst.mu)
