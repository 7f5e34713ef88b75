import math

import numpy as np
import pytest

from trajdistill.geom import Pose2, agent_to_world, normalize_angle, world_to_agent


def test_identity_pose_is_noop():
    out = world_to_agent(Pose2(0, 0, 0), np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[3.0, 4.0]])


def test_translation_only():
    out = world_to_agent(Pose2(1, 1, 0), np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[0.0, 0.0]])


def test_quarter_turn_heading_alignment():
    out = world_to_agent(Pose2(0, 0, math.pi / 2), np.array([[0.0, 1.0]]))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_agent_to_world_trivial_cases():
    assert np.allclose(agent_to_world(Pose2(0, 0, 0), np.array([[5.0, -2.0]])), [[5.0, -2.0]])
    assert np.allclose(agent_to_world(Pose2(1, 1, 0), np.array([[0.0, 0.0]])), [[1.0, 1.0]])


def test_round_trip_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        anchor = Pose2(*rng.uniform(-50, 50, 2), rng.uniform(-math.pi, math.pi))
        pts = rng.uniform(-100, 100, (5, 2))
        back = agent_to_world(anchor, world_to_agent(anchor, pts))
        assert np.max(np.abs(back - pts)) < 1e-9


def test_isometry_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        anchor = Pose2(*rng.uniform(-50, 50, 2), rng.uniform(-math.pi, math.pi))
        pts = rng.uniform(-100, 100, (6, 2))
        out = world_to_agent(anchor, pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        assert np.max(np.abs(d_in - d_out)) < 1e-9


def test_heading_normalization_idempotent():
    for theta in [0.0, math.pi, -math.pi, 3 * math.pi, -7.5, 100.0]:
        once = normalize_angle(theta)
        assert normalize_angle(once) == once
        assert -math.pi < once <= math.pi


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        world_to_agent(Pose2(0, 0, 0), np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        Pose2(np.inf, 0, 0)
