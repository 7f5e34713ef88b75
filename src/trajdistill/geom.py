"""SE(2) pose algebra and world<->agent coordinate transforms.

All geometry runs in float64. Headings are radians, normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]. Idempotent."""
    if not math.isfinite(theta):
        raise ValueError(f"non-finite angle: {theta}")
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Pose2:
    """Planar pose: position in meters, heading in radians."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite pose position: ({self.x}, {self.y})")
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def _check_points(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("non-finite point coordinates")
    return pts


def world_to_agent(anchor: Pose2, pts: np.ndarray) -> np.ndarray:
    """Map world points into the frame anchored at `anchor`.

    The anchor's position maps to the origin and its heading direction to (1, 0).
    """
    pts = _check_points(pts)
    c, s = math.cos(anchor.heading), math.sin(anchor.heading)
    shifted = pts - np.array([anchor.x, anchor.y])
    rot = np.array([[c, s], [-s, c]])  # R(-heading)
    return shifted @ rot.T


def agent_to_world(anchor: Pose2, pts: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`world_to_agent`."""
    pts = _check_points(pts)
    c, s = math.cos(anchor.heading), math.sin(anchor.heading)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.array([anchor.x, anchor.y])

