"""Deterministic synthetic driving-scene generator.

Scenes are built around a 3- or 4-arm signalized intersection at the origin.
Agents travel along lane centerlines; each gets a latent intent (straight,
left, right, stop) drawn from a configurable prior restricted to the branches
that exist for its approach, with a red signal boosting the stop probability.
The realized conditional intent distribution is stored with every prediction
target, which gives the evaluation suite an exact multimodality oracle that
real datasets cannot provide.

History runs at 0.1 s steps, futures at 0.2 s steps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geom import normalize_angle

SCHEMA_VERSION = 1
INTENT_LABELS = ("straight", "left", "right", "stop")
HISTORY_DT = 0.1
FUTURE_DT = 0.2


@dataclass
class RoadPolyline:
    id: str
    kind: str  # lane_center | boundary | crosswalk
    points: np.ndarray  # (N, 2)
    speed_limit_mps: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 2:
            raise ValueError(f"polyline {self.id}: needs >= 2 (x, y) points")
        if not np.all(np.isfinite(self.points)):
            raise ValueError(f"polyline {self.id}: non-finite points")
        if np.any(np.all(np.diff(self.points, axis=0) == 0.0, axis=1)):
            raise ValueError(f"polyline {self.id}: consecutive duplicate points")


@dataclass
class TrafficSignal:
    id: str
    position: np.ndarray  # (2,)
    states: list[str]  # per history step: red | yellow | green | unknown

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)


@dataclass
class AgentTrack:
    id: str
    history: np.ndarray  # (H, 6): x, y, heading, vx, vy, valid
    future: np.ndarray | None  # (T, 2) or None
    is_prediction_target: bool
    intent_labels: list[str] | None = None
    intent_probs: np.ndarray | None = None
    realized_intent: str | None = None
    length: float = 4.5
    width: float = 2.0

    def __post_init__(self):
        self.history = np.asarray(self.history, dtype=np.float64)
        if self.future is not None:
            self.future = np.asarray(self.future, dtype=np.float64)
        if self.intent_probs is not None:
            self.intent_probs = np.asarray(self.intent_probs, dtype=np.float64)

    def current_pose(self) -> tuple[float, float, float]:
        x, y, heading = self.history[-1, :3]
        return float(x), float(y), float(heading)


@dataclass
class Scene:
    scene_id: str
    history_len: int
    future_len: int
    roadgraph: list[RoadPolyline]
    signals: list[TrafficSignal]
    agents: list[AgentTrack]

    def prediction_targets(self) -> list[AgentTrack]:
        return [a for a in self.agents if a.is_prediction_target]

    def agent_by_id(self, agent_id: str) -> AgentTrack:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"unknown agent id: {agent_id}")


@dataclass
class GenConfig:
    num_scenes: int = 100
    agents_min: int = 2
    agents_max: int = 5
    arm_choices: tuple = (3, 4)
    intent_prior: dict = field(
        default_factory=lambda: {"straight": 0.4, "left": 0.2, "right": 0.2, "stop": 0.2}
    )
    accel_sigma: float = 0.25  # m/s per future step
    lateral_sigma: float = 0.05  # m per future step
    history_len: int = 10
    future_len: int = 16
    speed_limit_mps: float = 12.0
    arm_length: float = 60.0
    lane_offset: float = 1.75
    intersection_radius: float = 8.0
    red_stop_boost: float = 4.0
    seed: int = 0

    def __post_init__(self):
        total = sum(self.intent_prior.get(k, 0.0) for k in INTENT_LABELS)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"intent prior must sum to 1, got {total}")
        if self.accel_sigma < 0 or self.lateral_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not self.arm_choices or any(a < 2 for a in self.arm_choices):
            raise ValueError("arm_choices must contain counts >= 2")
        if self.history_len < 2:
            raise ValueError("history_len must be at least 2")
        if self.arm_length <= 0:
            raise ValueError("arm_length must be positive")


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _resample(points: np.ndarray, spacing: float) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = seg.sum()
    n = max(2, int(round(total / spacing)) + 1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    target = np.linspace(0.0, total, n)
    out = np.empty((n, 2))
    out[:, 0] = np.interp(target, s, points[:, 0])
    out[:, 1] = np.interp(target, s, points[:, 1])
    return out


class _Intersection:
    """Lane-level geometry of one intersection instance."""

    def __init__(self, arms: int, cfg: GenConfig):
        self.arms = arms
        self.cfg = cfg
        self.angles = [2.0 * math.pi * i / arms for i in range(arms)]
        self.in_lanes: dict[int, np.ndarray] = {}
        self.out_lanes: dict[int, np.ndarray] = {}
        r0, length, off = cfg.intersection_radius, cfg.arm_length, cfg.lane_offset
        for i, th in enumerate(self.angles):
            u = _unit(th)
            # right side of inbound travel (direction -u)
            right_in = _unit(th - math.pi / 2.0) * -1.0
            right_out = _unit(th - math.pi / 2.0)
            self.in_lanes[i] = np.stack([length * u + off * right_in, r0 * u + off * right_in])
            self.out_lanes[i] = np.stack([r0 * u + off * right_out, length * u + off * right_out])

    def turn_kind(self, arm_in: int, arm_out: int) -> str | None:
        """Classify the maneuver from inbound arm to outbound arm."""
        if arm_in == arm_out:
            return None
        inbound_dir = self.angles[arm_in] + math.pi  # travel direction
        delta = normalize_angle(self.angles[arm_out] - inbound_dir)
        deg30 = math.pi / 6.0
        if abs(delta) <= deg30:
            return "straight"
        if deg30 < delta < math.pi - deg30:
            return "left"
        if -math.pi + deg30 < delta < -deg30:
            return "right"
        return None

    def feasible_arms(self, arm_in: int) -> dict[str, int]:
        out = {}
        for j in range(self.arms):
            kind = self.turn_kind(arm_in, j)
            if kind is not None and kind not in out:
                out[kind] = j
        return out

    def path_for(self, arm_in: int, intent: str, start_dist: float) -> np.ndarray:
        """Dense centerline path from `start_dist` before the stop line through
        the intersection and down the outgoing lane. `stop` returns the inbound
        lane only."""
        a, b = self.in_lanes[arm_in]
        direction = (b - a) / np.linalg.norm(b - a)
        start = b - direction * start_dist
        inbound = np.stack([start, b])
        if intent == "stop":
            return _resample(inbound, 1.0)
        arm_out = self.feasible_arms(arm_in)[intent]
        c, d = self.out_lanes[arm_out]
        # quadratic Bezier whose control point is the crossing of the two lane
        # directions, falling back to the midpoint for near-straight paths
        dir_in = (b - a) / np.linalg.norm(b - a)
        dir_out = (d - c) / np.linalg.norm(d - c)
        cross = dir_in[0] * dir_out[1] - dir_in[1] * dir_out[0]
        if abs(cross) > 0.1:
            diff = c - b
            t_par = (diff[0] * dir_out[1] - diff[1] * dir_out[0]) / cross
            ctrl = b + t_par * dir_in
        else:
            ctrl = 0.5 * (b + c)
        ts = np.linspace(0.0, 1.0, 16)[1:-1]
        bez = (1 - ts)[:, None] ** 2 * b + 2 * (ts * (1 - ts))[:, None] * ctrl + ts[:, None] ** 2 * c
        full = np.concatenate([inbound, bez, np.stack([c, d])], axis=0)
        return _resample(full, 1.0)


def scene_rng(seed: int, scene_index: int) -> np.random.Generator:
    """Independent per-scene stream; order-independent across scenes."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(scene_index,)))


def _path_point(path: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Point and unit tangent at arc length s (clamped to the path)."""
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = min(max(s, 0.0), cum[-1])
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(i, len(seg) - 1)
    frac = (s - cum[i]) / seg[i]
    pt = path[i] + frac * (path[i + 1] - path[i])
    tan = (path[i + 1] - path[i]) / seg[i]
    return pt, tan


def generate_scene(cfg: GenConfig, scene_index: int) -> Scene:
    """Build one deterministic scene from (cfg.seed, scene_index)."""
    rng = scene_rng(cfg.seed, scene_index)
    arms = int(rng.choice(np.asarray(cfg.arm_choices)))
    inter = _Intersection(arms, cfg)
    r0, off = cfg.intersection_radius, cfg.lane_offset

    roadgraph: list[RoadPolyline] = []
    for i in range(arms):
        roadgraph.append(
            RoadPolyline(f"lane_in_{i}", "lane_center", _resample(inter.in_lanes[i], 5.0), cfg.speed_limit_mps)
        )
        roadgraph.append(
            RoadPolyline(f"lane_out_{i}", "lane_center", _resample(inter.out_lanes[i], 5.0), cfg.speed_limit_mps)
        )
        u = _unit(inter.angles[i])
        left = _unit(inter.angles[i] + math.pi / 2.0)
        boundary_off = 2.0 * off
        roadgraph.append(
            RoadPolyline(
                f"boundary_{i}_l",
                "boundary",
                np.stack([cfg.arm_length * u + boundary_off * left, r0 * u + boundary_off * left]),
                cfg.speed_limit_mps,
            )
        )
        roadgraph.append(
            RoadPolyline(
                f"boundary_{i}_r",
                "boundary",
                np.stack([cfg.arm_length * u - boundary_off * left, r0 * u - boundary_off * left]),
                cfg.speed_limit_mps,
            )
        )
        roadgraph.append(
            RoadPolyline(
                f"crosswalk_{i}",
                "crosswalk",
                np.stack([(r0 + 1.0) * u + boundary_off * left, (r0 + 1.0) * u - boundary_off * left]),
                cfg.speed_limit_mps,
            )
        )

    # signal phase: a deterministic subset of arms is green for the whole history
    phase = int(rng.integers(0, 2))
    signals: list[TrafficSignal] = []
    green_arms = set(i for i in range(arms) if i % 2 == phase)
    for i in range(arms):
        u = _unit(inter.angles[i])
        state = "green" if i in green_arms else "red"
        signals.append(
            TrafficSignal(f"signal_{i}", (r0 + 0.5) * u + off * _unit(inter.angles[i] - math.pi / 2) * -1.0,
                          [state] * cfg.history_len)
        )

    n_agents = int(rng.integers(cfg.agents_min, cfg.agents_max + 1))
    agents: list[AgentTrack] = []
    for a_idx in range(n_agents):
        arm = int(rng.integers(0, arms))
        outbound = bool(rng.random() < 0.25)
        speed = float(rng.uniform(0.35, 0.8) * cfg.speed_limit_mps)
        if outbound:
            lane = inter.out_lanes[arm]
            dist_from_start = float(rng.uniform(5.0, cfg.arm_length - r0 - 20.0))
        else:
            lane = inter.in_lanes[arm]
            # leave room to reach the stop line during the future horizon
            dist_from_start = float(rng.uniform(5.0, cfg.arm_length - r0 - 25.0))
        a0, b0 = lane
        direction = (b0 - a0) / np.linalg.norm(b0 - a0)
        heading = math.atan2(direction[1], direction[0])
        pos0 = a0 + direction * dist_from_start

        # history: constant-ish speed along the lane with small acceleration noise
        hist = np.zeros((cfg.history_len, 6))
        speeds = speed + np.cumsum(rng.normal(0.0, cfg.accel_sigma * 0.3, cfg.history_len))
        speeds = np.clip(speeds, 0.5, 1.4 * cfg.speed_limit_mps)
        back = np.concatenate([[0.0], np.cumsum(speeds[:-1] * HISTORY_DT)])
        offsets = back[-1] - back  # distance behind the current position
        for h in range(cfg.history_len):
            p = pos0 - direction * offsets[h]
            v = direction * speeds[h]
            hist[h] = [p[0], p[1], heading, v[0], v[1], 1.0]
        if not outbound and rng.random() < 0.2:
            k = int(rng.integers(1, cfg.history_len // 2))
            hist[:k, 5] = 0.0  # late-appearing track

        # intent: prior restricted to feasible maneuvers; red boosts stop
        if outbound:
            labels, probs = ["straight"], np.array([1.0])
        else:
            feas = inter.feasible_arms(arm)
            labels = [l for l in INTENT_LABELS if l in feas or l == "stop"]
            weights = np.array([cfg.intent_prior.get(l, 0.0) for l in labels])
            if arm not in green_arms:
                weights[labels.index("stop")] *= cfg.red_stop_boost
            probs = weights / weights.sum()
        intent = str(rng.choice(labels, p=probs))

        # future rollout along the intent path at 0.2 s steps
        cur_speed = float(speeds[-1])
        if outbound:
            path = _resample(np.stack([pos0, b0 + direction * 50.0]), 1.0)
            s = 0.0
            stop_s = None
        else:
            dist_to_stop = float(np.linalg.norm(b0 - pos0))
            path = inter.path_for(arm, intent if intent != "stop" else "stop", dist_to_stop)
            s = 0.0
            stop_s = dist_to_stop - 1.0 if intent == "stop" else None

        future = np.zeros((cfg.future_len, 2))
        lat = 0.0
        spd = cur_speed
        for t in range(cfg.future_len):
            if stop_s is not None:
                remaining = max(stop_s - s, 0.0)
                # decelerate to rest at the stop line
                spd = min(spd, math.sqrt(2.0 * 2.5 * remaining)) if remaining > 0.05 else 0.0
            else:
                spd = float(np.clip(spd + rng.normal(0.0, cfg.accel_sigma), 0.5, 1.4 * cfg.speed_limit_mps))
                # slow down through the intersection interior
                pt_probe, _ = _path_point(path, s)
                if np.linalg.norm(pt_probe) < r0 + 4.0:
                    spd = min(spd, 6.0)
            s += spd * FUTURE_DT
            pt, tan = _path_point(path, s)
            lat = float(np.clip(lat + rng.normal(0.0, cfg.lateral_sigma), -0.8, 0.8))
            normal = np.array([-tan[1], tan[0]])
            future[t] = pt + lat * normal

        agents.append(
            AgentTrack(
                id=f"agent_{a_idx}",
                history=hist,
                future=future,
                is_prediction_target=True,
                intent_labels=labels,
                intent_probs=probs,
                realized_intent=intent,
            )
        )

    return Scene(
        scene_id=f"scene_{cfg.seed}_{scene_index}",
        history_len=cfg.history_len,
        future_len=cfg.future_len,
        roadgraph=roadgraph,
        signals=signals,
        agents=agents,
    )


def true_intent_distribution(scene: Scene, agent_id: str) -> dict[str, float]:
    """Exact conditional intent probabilities the generator used."""
    agent = scene.agent_by_id(agent_id)
    if not agent.is_prediction_target:
        raise ValueError(f"agent {agent_id} is not a prediction target")
    return {l: float(p) for l, p in zip(agent.intent_labels, agent.intent_probs)}


# ---------------------------------------------------------------------------
# JSON-lines dataset serialization


def scene_to_record(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scene_id": scene.scene_id,
        "history_len": scene.history_len,
        "future_len": scene.future_len,
        "roadgraph": [
            {
                "id": p.id,
                "kind": p.kind,
                "speed_limit_mps": p.speed_limit_mps,
                "points": p.points.tolist(),
            }
            for p in scene.roadgraph
        ],
        "signals": [
            {"id": s.id, "position": s.position.tolist(), "states": list(s.states)} for s in scene.signals
        ],
        "agents": [
            {
                "id": a.id,
                "history": [
                    {
                        "x": row[0],
                        "y": row[1],
                        "heading": row[2],
                        "vx": row[3],
                        "vy": row[4],
                        "valid": bool(row[5]),
                    }
                    for row in a.history.tolist()
                ],
                "future": a.future.tolist() if a.future is not None else None,
                "is_prediction_target": a.is_prediction_target,
                "intent": (
                    {"labels": list(a.intent_labels), "probs": a.intent_probs.tolist()}
                    if a.intent_labels is not None
                    else None
                ),
                "realized_intent": a.realized_intent,
                "length": a.length,
                "width": a.width,
            }
            for a in scene.agents
        ],
    }


def _expect(value, types: tuple, what: str):
    """``value`` if it is one of the JSON ``types`` (a bool is not a number)."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{what} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def record_to_scene(rec: dict) -> Scene:
    """Parse one scene record. A malformed record raises ValueError, or
    KeyError/TypeError for a missing or non-container field."""
    if rec.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {rec.get('schema_version')} (expected {SCHEMA_VERSION})")
    hist_len = _expect(rec["history_len"], (int,), "history_len")
    future_len = _expect(rec["future_len"], (int,), "future_len")
    agents = []
    for a in rec["agents"]:
        aid = _expect(a["id"], (str,), "agent id")
        hist = np.array(
            [[h["x"], h["y"], h["heading"], h["vx"], h["vy"], 1.0 if h["valid"] else 0.0] for h in a["history"]]
        )
        if hist.shape[0] != hist_len:
            raise ValueError(f"agent {aid}: history length {hist.shape[0]} != {hist_len}")
        intent = a.get("intent")
        future = np.array(a["future"]) if a.get("future") is not None else None
        if a["is_prediction_target"]:
            if future is None or future.shape[:1] != (future_len,):
                raise ValueError(f"agent {aid}: prediction target lacks a full future")
            if not hist[-1, 5]:
                raise ValueError(f"agent {aid}: prediction target must be valid at the last step")
        agents.append(
            AgentTrack(
                id=aid,
                history=hist,
                future=future,
                is_prediction_target=a["is_prediction_target"],
                intent_labels=list(intent["labels"]) if intent else None,
                intent_probs=np.array(intent["probs"]) if intent else None,
                realized_intent=a.get("realized_intent"),
                length=_expect(a.get("length", 4.5), (int, float), f"agent {aid}: length"),
                width=_expect(a.get("width", 2.0), (int, float), f"agent {aid}: width"),
            )
        )
    scene = Scene(
        scene_id=_expect(rec["scene_id"], (str,), "scene_id"),
        history_len=hist_len,
        future_len=future_len,
        roadgraph=[
            RoadPolyline(
                p["id"], p["kind"], np.array(p["points"]),
                _expect(p["speed_limit_mps"], (int, float), f"polyline {p['id']}: speed_limit_mps"),
            )
            for p in rec["roadgraph"]
        ],
        signals=[TrafficSignal(s["id"], np.array(s["position"]), list(s["states"])) for s in rec["signals"]],
        agents=agents,
    )
    for s in scene.signals:
        if s.position.shape != (2,):
            raise ValueError(f"signal {s.id}: position must be an (x, y) point")
        if len(s.states) != hist_len:
            raise ValueError(f"signal {s.id}: states length {len(s.states)} != {hist_len}")
    return scene


def write_dataset(cfg: GenConfig, path: str) -> None:
    """Generate cfg.num_scenes scenes and write them as JSON lines.

    The first line is a header sentinel carrying the schema version and the
    generating config, so an empty dataset is still a valid file.
    """
    header = {
        "schema_version": SCHEMA_VERSION,
        "header": True,
        "num_scenes": cfg.num_scenes,
        "seed": cfg.seed,
        "history_len": cfg.history_len,
        "future_len": cfg.future_len,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(json.dumps(header) + "\n")
        for i in range(cfg.num_scenes):
            f.write(json.dumps(scene_to_record(generate_scene(cfg, i))) + "\n")
    os.replace(tmp, path)


def read_dataset(path: str):
    """Stream scenes from a JSON-lines dataset file, validating per scene."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: malformed JSON line: {e}") from e
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}")
            if rec.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: unsupported schema_version {rec.get('schema_version')}"
                    f" (expected {SCHEMA_VERSION})"
                )
            if lineno == 1:
                if not rec.get("header"):
                    raise ValueError(f"{path}:1: missing header sentinel line")
                continue
            try:
                yield record_to_scene(rec)
            except (KeyError, TypeError) as e:
                raise ValueError(f"{path}:{lineno}: malformed scene record: {e}") from e


def load_dataset(path: str) -> list[Scene]:
    return list(read_dataset(path))
