"""Desk-scale teacher (agent-centric) and student (scene-centric) models.

The teacher re-encodes the whole scene in each predicted agent's frame:
road polylines through a shared point MLP with max-pooling, traffic signals
and motion histories through small LSTMs, neighbor encodings max-pooled into
one interaction vector, everything concatenated and decoded by an MLP into a
Gaussian-mixture trajectory distribution. Because every input is expressed
relative to the agent, the output is invariant to rigid transforms of the
scene. Its flops grow with the agent count, but its calls need not:
``teacher_forward`` takes one id or a list and runs a list in one batched
pass. Every polyline is resampled once per call, in one array pass, and each
agent's inputs are featurized as arrays in its own frame: one
``world_to_agent`` call over its nearest polylines' resampled points, one
over the signal positions, and ``_track_features`` over the stacked
histories of the agent and its neighbors, chosen by array distance tests.
One road MLP, one fused ``diffcore.lstm`` node per input kind, one
per-agent ``scatter_max_pool`` of the neighbor encodings and one decoder
serve the whole batch, so a call records a few dozen tape nodes whatever
its agent count.

The student rasterizes the scene once into a pillar grid, runs a small
convolutional backbone, and decodes each agent from a feature patch cropped
at the agent's cell. The rasterizer builds its points as arrays, block by
block: one resample for all road polylines, the signals, the agents' box
points and past positions, with the kind one-hot set by indexing. The pillar
MLP max-pools the points into their cells over the whole scene. Given the
decoded agents' ids, ``student_forward_scene`` has each ``diffcore.conv2d``
compute only the receptive field of their patches (the full grid when no
ids are given), and within it only the windows that touch a cell differing
from the empty cells' constant value; in training the backward runs only
around the patches. So the convolutions cost in proportion to the decoded
agents and the occupied cells, not to the grid area: never more rows than
the occupied cells' windows (about a tenth of the grid on generated scenes).
Per-agent decode work is one gather, decoder and mixture head for all
agents, with the rotation into each agent's frame as one fused node.
``student_decode`` is the one decode path: a single batched pass for any
number of agents, on the tape when one is active, that leaves out agents
outside the grid extent. Training and evaluation skip such agents;
``student_predict`` and ``student_decode_agent`` raise ``OutOfExtentError``
for them.

``predict_scene`` is the one prediction call for both model kinds, used by
training, evaluation and the latency harness: one batched
``teacher_forward`` call, or one student encode of the agents' receptive
field and one batched decode, returned
as the predicted ids and one (n, K, T) mixture stack that the losses take
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import gmm as gm
from .diffcore import Tensor
from .geom import Pose2, world_to_agent
from .scenegen import AgentTrack, Scene

PARAMS_SCHEMA_VERSION = 1

ROAD_KINDS = ("lane_center", "boundary", "crosswalk")
SIGNAL_STATES = ("red", "yellow", "green", "unknown")

# rasterized point categories for the student grid
RASTER_KINDS = ("lane_center", "boundary", "crosswalk", "agent", "agent_history") + tuple(
    f"signal_{s}" for s in SIGNAL_STATES
)
# in-cell offset + one-hot + velocity + history-age (0 = current frame)
RASTER_FEATURES = 2 + len(RASTER_KINDS) + 2 + 1


class OutOfExtentError(ValueError):
    pass


@dataclass
class TeacherConfig:
    history_len: int = 10
    horizon: int = 16
    num_modes: int = 6
    hidden: int = 64
    neighbor_radius: float = 50.0
    max_neighbors: int = 16
    max_polylines: int = 32
    points_per_polyline: int = 10
    future_dt: float = 0.2
    log_sigma_floor: float = -1.0

    def __post_init__(self):
        if self.num_modes < 1 or self.horizon < 1 or self.hidden < 1:
            raise ValueError("num_modes, horizon and hidden must be positive")
        if self.max_polylines < 1:
            raise ValueError("max_polylines must be positive")
        if self.points_per_polyline < 2:
            raise ValueError("points_per_polyline must be at least 2")


@dataclass
class StudentConfig:
    grid_h: int = 64
    grid_w: int = 64
    cell_size: float = 2.0
    pillar_embed: int = 32
    conv_channels: tuple = (32, 32)
    patch: int = 5
    num_modes: int = 6
    horizon: int = 16
    hidden: int = 64
    history_len: int = 10
    future_dt: float = 0.2
    log_sigma_floor: float = 0.0

    def __post_init__(self):
        if self.grid_h * self.grid_w < self.patch**2:
            raise ValueError("grid smaller than decode patch")
        if self.num_modes < 1 or self.horizon < 1:
            raise ValueError("num_modes and horizon must be positive")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        for name in ("pillar_embed", "hidden", "patch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if any(c < 1 for c in self.conv_channels):
            raise ValueError("conv_channels entries must be positive")


@dataclass
class ModelParams:
    kind: str  # teacher | student
    config: TeacherConfig | StudentConfig
    buffers: dict[str, Tensor]
    schema_version: int = PARAMS_SCHEMA_VERSION

    def num_params(self) -> int:
        return sum(t.data.size for t in self.buffers.values())


# ---------------------------------------------------------------------------
# parameter initialization


def _shapes_mlp(prefix: str, dims: list[int]) -> list[tuple[str, tuple]]:
    out = []
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        out.append((f"{prefix}.w{i}", (a, b)))
        out.append((f"{prefix}.b{i}", (1, b)))
    return out


def _shapes_lstm(prefix: str, in_dim: int, hidden: int) -> list[tuple[str, tuple]]:
    return [
        (f"{prefix}.wx", (in_dim, 4 * hidden)),
        (f"{prefix}.wh", (hidden, 4 * hidden)),
        (f"{prefix}.b", (1, 4 * hidden)),
        (f"{prefix}.h0", (1, hidden)),
        (f"{prefix}.c0", (1, hidden)),
    ]


ROAD_POINT_FEATURES = 2 + len(ROAD_KINDS) + 1
SIGNAL_STEP_FEATURES = 2 + len(SIGNAL_STATES)
TRACK_STEP_FEATURES = 7  # x, y, cos/sin of relative heading, vx, vy, valid


def _teacher_shapes(cfg: TeacherConfig) -> list[tuple[str, tuple]]:
    h = cfg.hidden
    out_dim = cfg.num_modes * (cfg.horizon * 5 + 1)
    shapes = []
    shapes += _shapes_mlp("road", [ROAD_POINT_FEATURES, h, h])
    shapes += [("road.empty", (1, h))]
    shapes += _shapes_lstm("signal", SIGNAL_STEP_FEATURES, h)
    shapes += [("signal.empty", (1, h))]
    shapes += _shapes_lstm("history", TRACK_STEP_FEATURES, h)
    shapes += _shapes_lstm("neighbor", TRACK_STEP_FEATURES, h)
    shapes += [("neighbor.empty", (1, h))]
    shapes += _shapes_mlp("decoder", [4 * h, h, h, out_dim])
    return shapes


def _student_shapes(cfg: StudentConfig) -> list[tuple[str, tuple]]:
    e = cfg.pillar_embed
    out_dim = cfg.num_modes * (cfg.horizon * 5 + 1)
    shapes = []
    shapes += _shapes_mlp("pillar", [RASTER_FEATURES, e, e])
    chans = [e] + list(cfg.conv_channels)
    for i, (cin, cout) in enumerate(zip(chans[:-1], chans[1:])):
        shapes.append((f"conv{i}.w", (3, 3, cin, cout)))
        shapes.append((f"conv{i}.b", (cout,)))
    decode_in = cfg.patch * cfg.patch * chans[-1] + 3  # + heading cos/sin + speed
    shapes += _shapes_mlp("decoder", [decode_in, cfg.hidden, cfg.hidden, out_dim])
    return shapes


def init_params(config: TeacherConfig | StudentConfig, rng: np.random.Generator) -> ModelParams:
    """Fan-in-scaled uniform initialization; deterministic per rng state."""
    kind = "teacher" if isinstance(config, TeacherConfig) else "student"
    shapes = _teacher_shapes(config) if kind == "teacher" else _student_shapes(config)
    buffers: dict[str, Tensor] = {}
    for name, shape in shapes:
        leaf = name.split(".")[-1]
        if leaf in ("h0", "c0") or leaf.startswith("b"):
            buffers[name] = Tensor(np.zeros(shape))
        else:
            fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else int(shape[0])
            bound = 1.0 / math.sqrt(max(fan_in, 1))
            buffers[name] = Tensor(rng.uniform(-bound, bound, shape))
    return ModelParams(kind=kind, config=config, buffers=buffers)


def param_count(config: TeacherConfig | StudentConfig) -> int:
    shapes = _teacher_shapes(config) if isinstance(config, TeacherConfig) else _student_shapes(config)
    return sum(int(np.prod(s)) for _, s in shapes)


# ---------------------------------------------------------------------------
# shared network building blocks


def _mlp(params: ModelParams, prefix: str, x, n_layers: int, final_relu: bool = False):
    bufs = params.buffers
    h = x
    for i in range(n_layers):
        h = dc.affine(h, bufs[f"{prefix}.w{i}"], bufs[f"{prefix}.b{i}"])
        if i < n_layers - 1 or final_relu:
            h = dc.relu(h)
    return h


def _lstm_last(params: ModelParams, prefix: str, xs: np.ndarray) -> Tensor:
    """Run an LSTM over xs (B, L, F); return the last hidden state (B, H)."""
    return dc.lstm(xs, *(params.buffers[f"{prefix}.{n}"] for n in ("wx", "wh", "b", "h0", "c0")))


def _gmm_head(
    raw: Tensor, k: int, horizon: int, log_sigma_floor: float, lead: tuple
) -> tuple[Tensor, Tensor, Tensor]:
    """Split (n, K*(T*5+1)) decoder rows into mixture parameters: the mean
    offsets lead + (K, T, 2), the covariance parameters lead + (K, T, 3) and
    the mode logits lead + (K,), where ``lead`` is (n,), or () for n = 1.
    Each row holds K*T step records (mean x, y, log sigma x, y, rho), then
    the K logits.
    """
    body = k * horizon * 5
    # the decode head keeps sigma away from the global clamp's lower bound:
    # fully collapsed sigmas turn the likelihood terms of well-fit steps into
    # high-magnitude noise on the shared weights, which stalls training
    lo, hi = np.full((2, raw.shape[1]), [[-np.inf], [np.inf]])
    lo[:body].reshape(-1, 5)[:, 2:4] = max(log_sigma_floor, gm.LOG_SIGMA_MIN)
    hi[:body].reshape(-1, 5)[:, 2:4] = gm.LOG_SIGMA_MAX
    raw = dc.clamp(raw, lo, hi)

    def steps(a):
        return a[:, :body].reshape(lead + (k, horizon, 5))

    return (
        dc.select(raw, lambda a: steps(a)[..., :2]),
        dc.select(raw, lambda a: steps(a)[..., 2:]),
        dc.select(raw, lambda a: a[:, body:].reshape(lead + (k,))),
    )


def _cv_rollout(v_agent: np.ndarray, horizon: int, dt: float) -> np.ndarray:
    """Constant-velocity positions (n, T, 2) from agent-frame velocities (n, 2).

    The decoded means are residuals on this rollout, which conditions
    training far better than predicting absolute displacements from scratch.
    """
    t = (np.arange(horizon) + 1.0) * dt
    return t[None, :, None] * v_agent[:, None, :]


# ---------------------------------------------------------------------------
# teacher


def _agent_anchor(agent) -> Pose2:
    if not agent.history[-1, 5]:
        raise ValueError(f"agent {agent.id}: no valid current state")
    x, y, heading = agent.current_pose()
    return Pose2(x, y, heading)


def _track_features(histories: np.ndarray, anchor: Pose2) -> np.ndarray:
    """History rows (n, L, 6) in the anchor frame (n, L, 7): position,
    relative heading, velocity, valid flag."""
    n, steps = histories.shape[:2]
    rows = histories.reshape(n * steps, -1)
    out = np.zeros((n, steps, TRACK_STEP_FEATURES))
    out[..., :2] = world_to_agent(anchor, rows[:, :2]).reshape(n, steps, 2)
    out[..., 2] = np.cos(histories[..., 2] - anchor.heading)
    out[..., 3] = np.sin(histories[..., 2] - anchor.heading)
    out[..., 4:6] = world_to_agent(Pose2(0.0, 0.0, anchor.heading), rows[:, 3:5]).reshape(n, steps, 2)
    out[..., 6] = histories[..., 5]
    # zero out invalid rows except the flag, so padding carries no position signal
    out[histories[..., 5] == 0.0, :6] = 0.0
    return out


def _resample_polylines(points: np.ndarray, starts: np.ndarray, n) -> np.ndarray:
    """Every polyline of the concatenated ``points`` (N, 2), polyline i
    starting at row ``starts[i]``, resampled at ``n[i]`` points (``n`` an
    int, or one count >= 2 per polyline) evenly spaced in arc length, in one
    array pass: (len(starts), max(n), 2), the rows past a polyline's count
    repeating its last point.

    Shorter polylines are padded with their last point, whose zero-length
    segments add no arc length. The arc-length targets follow
    ``np.linspace`` on each polyline and the interpolation ``np.interp``, so
    each polyline's rows equal a resample of that polyline alone.
    """
    counts = np.broadcast_to(n, starts.shape)
    lens = np.diff(starts, append=len(points))
    width = int(lens.max())
    pts = points[starts[:, None] + np.minimum(np.arange(width), lens[:, None] - 1)]  # (m, L, 2)
    s = np.zeros(pts.shape[:2])
    np.cumsum(np.linalg.norm(np.diff(pts, axis=1), axis=2), axis=1, out=s[:, 1:])
    # step j of polyline i at j * s_i / (n_i - 1), the last one at s_i
    k = np.arange(int(counts.max()))
    last = counts[:, None] - 1
    target = np.where(k >= last, s[:, -1:], k * (s[:, -1:] / last))  # (m, max n)
    # the segment j with s[j] <= target < s[j + 1]; j = L - 1 past the end
    j = (s[:, None, :] <= target[:, :, None]).sum(axis=2) - 1
    rows, lo = np.arange(len(starts))[:, None], np.minimum(j, width - 2)
    p0, p1 = pts[rows, lo], pts[rows, lo + 1]
    s0, s1, t = s[rows, lo][..., None], s[rows, lo + 1][..., None], target[..., None]
    # past the end s1 == s0 on the padding: that lane takes the last point
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (p1 - p0) / (s1 - s0) * (t - s0) + p0
    return np.where(j[..., None] >= width - 1, pts[:, -1:], inner)


def _road_features(scene: Scene, anchors: list[Pose2], cfg: TeacherConfig) -> np.ndarray:
    """Point features (B, m, P, F), for each anchor the m = min(#polylines,
    ``max_polylines``) polylines nearest to it by closest-point distance,
    nearest first: resampled position in the anchor frame, kind one-hot,
    speed limit / 10. Every polyline is resampled once for all anchors."""
    n = cfg.points_per_polyline
    if not scene.roadgraph:
        return np.zeros((len(anchors), 0, n, ROAD_POINT_FEATURES))
    starts = np.cumsum([0] + [len(p.points) for p in scene.roadgraph[:-1]])
    all_pts = np.concatenate([p.points for p in scene.roadgraph])
    xy = np.array([[a.x, a.y] for a in anchors])
    dists = np.minimum.reduceat(np.linalg.norm(all_pts - xy[:, None], axis=2), starts, axis=1)
    near = np.argsort(dists, axis=1, kind="stable")[:, : cfg.max_polylines]  # (B, m)
    resampled = _resample_polylines(all_pts, starts, n)[near]
    b, m = near.shape
    feats = np.zeros((b, m, n, ROAD_POINT_FEATURES))
    for i, anchor in enumerate(anchors):
        feats[i, ..., :2] = world_to_agent(anchor, resampled[i].reshape(m * n, 2)).reshape(m, n, 2)
    kinds = np.array([ROAD_KINDS.index(p.kind) for p in scene.roadgraph])
    feats[..., 2 : 2 + len(ROAD_KINDS)] = np.eye(len(ROAD_KINDS))[kinds[near]][:, :, None]
    feats[..., -1] = np.array([p.speed_limit_mps for p in scene.roadgraph])[near][..., None] / 10.0
    return feats


def _signal_features(scene: Scene, anchors: list[Pose2]) -> np.ndarray:
    """Per-step signal features (B, s, L, F) for each anchor: position in
    the anchor frame, state one-hot."""
    feats = np.zeros((len(anchors), len(scene.signals), scene.history_len, SIGNAL_STEP_FEATURES))
    if scene.signals:
        positions = np.array([sig.position for sig in scene.signals])
        for i, anchor in enumerate(anchors):
            feats[i, ..., :2] = world_to_agent(anchor, positions)[:, None]
        states = [[SIGNAL_STATES.index(st) for st in sig.states] for sig in scene.signals]
        feats[..., 2:] = np.eye(len(SIGNAL_STATES))[states]
    return feats


def _agent_tracks(scene: Scene, agents: list[AgentTrack], anchors: list[Pose2], cfg: TeacherConfig):
    """Track features of each agent's own history (B, L, F), of all of their
    neighbors concatenated (N, L, F), and the agent index of each neighbor
    row. An agent's neighbors are the other agents with a valid current
    state within ``neighbor_radius``, nearest first, at most
    ``max_neighbors``."""
    histories = np.stack([a.history for a in scene.agents])
    valid = histories[:, -1, 5] != 0.0
    scene_ids = np.array([a.id for a in scene.agents])
    own, neighbors, owner = [], [], []
    for i, (agent, anchor) in enumerate(zip(agents, anchors)):
        others = np.flatnonzero((scene_ids != agent.id) & valid)
        dists = np.linalg.norm(histories[others, -1, :2] - [anchor.x, anchor.y], axis=1)
        order = np.argsort(dists, kind="stable")
        keep = others[order[dists[order] <= cfg.neighbor_radius][: cfg.max_neighbors]]
        tracks = _track_features(np.concatenate([agent.history[None], histories[keep]]), anchor)
        own.append(tracks[0])
        neighbors.append(tracks[1:])
        owner.append(np.full(keep.size, i))
    return np.stack(own), np.concatenate(neighbors), np.concatenate(owner)


def _rows(params: ModelParams, name: str, count: int) -> Tensor:
    """The (1, H) parameter ``name`` repeated as ``count`` rows."""
    row = params.buffers[name]
    return row if count == 1 else dc.gather(row, np.zeros(count, dtype=np.intp), axis=0)


def teacher_forward(scene: Scene, agent_id: str | list[str], params: ModelParams) -> gm.TrajectoryGMM:
    """Agent-frame mixtures from one batched pass, each agent's inputs in
    its own frame: for one id (a ``str``) its (K, T) mixture, for a list of
    ids their (n, K, T) stack in list order.

    The batch shares the polyline resampling, and runs one road MLP, one
    LSTM per input kind, one neighbor max-pool and one decoder over all of
    its agents, so its tape node count does not grow with n. Raises
    ``KeyError`` for an unknown id and ``ValueError`` for an empty list.
    """
    cfg: TeacherConfig = params.config
    single = isinstance(agent_id, str)
    ids = [agent_id] if single else list(agent_id)
    if not ids:
        raise ValueError("teacher_forward needs at least one agent id")
    agents = [scene.agent_by_id(aid) for aid in ids]
    anchors = [_agent_anchor(a) for a in agents]
    b, h = len(ids), cfg.hidden

    # road polylines: shared point MLP, max-pooled over points, then polylines
    road = _road_features(scene, anchors, cfg)
    if road.shape[1]:
        m, n = road.shape[1:3]
        enc = _mlp(params, "road", Tensor(road.reshape(b * m * n, -1)), 2, final_relu=True)
        per_poly = dc.reduce_max_over_set(dc.reshape(enc, (b, m, n, h)), axis=2)
        road_emb = dc.reduce_max_over_set(per_poly, axis=1)
    else:
        road_emb = _rows(params, "road.empty", b)

    # traffic signals: shared LSTM over per-step (position, state one-hot)
    if scene.signals:
        sig = _signal_features(scene, anchors)
        sig_h = _lstm_last(params, "signal", sig.reshape((-1,) + sig.shape[2:]))
        signal_emb = dc.reduce_max_over_set(dc.reshape(sig_h, (b, len(scene.signals), h)), axis=1)
    else:
        signal_emb = _rows(params, "signal.empty", b)

    # own motion history, then neighbors max-pooled per agent; an agent
    # without neighbors pools the learned empty row alone
    own, neighbors, owner = _agent_tracks(scene, agents, anchors, cfg)
    history_emb = _lstm_last(params, "history", own)
    if owner.size:
        nb_h = _lstm_last(params, "neighbor", neighbors)
        alone = np.flatnonzero(np.bincount(owner, minlength=b) == 0)
        if alone.size:
            nb_h = dc.concat([nb_h, _rows(params, "neighbor.empty", alone.size)])
            owner = np.concatenate([owner, alone])
        neighbor_emb = dc.scatter_max_pool(nb_h, owner, b)
    else:
        neighbor_emb = _rows(params, "neighbor.empty", b)

    emb = dc.concat([road_emb, signal_emb, history_emb, neighbor_emb], axis=1)
    raw = _mlp(params, "decoder", emb, 3)
    k, t = cfg.num_modes, cfg.horizon
    lead = () if single else (b,)
    means, covs, logits = _gmm_head(raw, k, t, cfg.log_sigma_floor, lead)
    # the current row is valid, so its features hold the agent-frame velocity
    cv = np.repeat(_cv_rollout(own[:, -1, 4:6], t, cfg.future_dt)[:, None], k, axis=1)
    return gm.TrajectoryGMM(
        means=means + Tensor(cv.reshape(lead + (k, t, 2))),
        cov_params=covs,
        logits=logits,
        anchor=anchors[0] if single else anchors,
    )


# ---------------------------------------------------------------------------
# student


@dataclass
class SceneEncoding:
    grid: Tensor  # (H, W, C)
    scene_id: str
    # (H * W,) bool: the cells whose features were computed; None for all
    cells: np.ndarray | None = None


def _raster_points(scene: Scene, cfg: StudentConfig) -> tuple[np.ndarray, np.ndarray]:
    """All raster points with features; returns (features (N, F), cell ids (N,)).

    Rows run: each road polyline resampled at about one point per cell, in
    roadgraph order; the signals; five box points of every agent with a valid
    current state; then those agents' valid past positions. Each block is an
    array (one resample for all polylines) and the kind one-hot is set by
    indexing. Points outside the grid extent are dropped.
    """
    xys, kinds, vels, ages = [np.zeros((0, 2))], [np.zeros(0, dtype=np.intp)], [], []
    if scene.roadgraph:
        lens = [len(p.points) for p in scene.roadgraph]
        starts = np.cumsum([0] + lens[:-1])
        points = np.concatenate([p.points for p in scene.roadgraph])
        seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
        # each polyline's own segments, summed as a sum over it alone would
        length = np.array([seg[a : a + n - 1].sum() for a, n in zip(starts, lens)])
        counts = np.maximum(2, (length / cfg.cell_size).astype(int) + 1)
        road = _resample_polylines(points, starts, counts)
        xys.append(road[np.arange(road.shape[1]) < counts[:, None]])
        kinds.append(np.repeat([RASTER_KINDS.index(p.kind) for p in scene.roadgraph], counts))
    if scene.signals:
        xys.append(np.array([sig.position for sig in scene.signals]))
        kinds.append([RASTER_KINDS.index(f"signal_{sig.states[-1]}") for sig in scene.signals])
    n_static = sum(len(xy) for xy in xys)
    vels.append(np.zeros((n_static, 2)))
    ages.append(np.zeros(n_static))

    active = [a for a in scene.agents if a.history[-1, 5]]
    if active:
        hist = np.stack([a.history for a in active])  # (n, H, 6)
        # current boxes: 5 sample points each, vectorized over agents
        poses = hist[:, -1, :3]
        lw = np.array([[a.length, a.width] for a in active])
        vel = hist[:, -1, 3:5] / 10.0
        c, s = np.cos(poses[:, 2]), np.sin(poses[:, 2])
        rot = np.stack(
            [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1
        )  # (n, 2, 2)
        base = np.array(
            [[0.0, 0.0], [0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]]
        )
        offs = base[None, :, :] * lw[:, None, :]  # (n, 5, 2)
        box_xy = np.einsum("nij,nkj->nki", rot, offs) + poses[:, None, :2]
        n_box = len(active) * 5
        xys.append(box_xy.reshape(n_box, 2))
        kinds.append(np.full(n_box, RASTER_KINDS.index("agent")))
        vels.append(np.repeat(vel, 5, axis=0))
        ages.append(np.zeros(n_box))

        # past poses as single points so the grid carries motion history
        last = hist.shape[1] - 1
        valid = hist[:, :last, 5] > 0
        xys.append(hist[:, :last, :2][valid])
        kinds.append(np.full(len(xys[-1]), RASTER_KINDS.index("agent_history")))
        vels.append(hist[:, :last, 3:5][valid] / 10.0)
        ages.append(np.broadcast_to((last - np.arange(last))[None, :] / 10.0, valid.shape)[valid])
    coords = np.concatenate(xys)
    feats = np.zeros((len(coords), RASTER_FEATURES))
    feats[np.arange(len(coords)), 2 + np.concatenate(kinds)] = 1.0
    feats[:, -3:-1] = np.concatenate(vels)
    feats[:, -1] = np.concatenate(ages)
    half_w = cfg.grid_w * cfg.cell_size / 2.0
    half_h = cfg.grid_h * cfg.cell_size / 2.0
    ix = np.floor((coords[:, 0] + half_w) / cfg.cell_size).astype(int)
    iy = np.floor((coords[:, 1] + half_h) / cfg.cell_size).astype(int)
    inside = (ix >= 0) & (ix < cfg.grid_w) & (iy >= 0) & (iy < cfg.grid_h)
    ix, iy = ix[inside], iy[inside]
    coords, feats = coords[inside], feats[inside]
    # in-cell offsets in [0, 1)
    feats[:, 0] = (coords[:, 0] + half_w) / cfg.cell_size - ix
    feats[:, 1] = (coords[:, 1] + half_h) / cfg.cell_size - iy
    return feats, iy * cfg.grid_w + ix


def student_forward_scene(scene: Scene, params: ModelParams, agent_ids: list[str] | None = None) -> SceneEncoding:
    """Rasterize and encode the scene once.

    The raster, pillar MLP and scatter always cover the whole scene. Given
    ``agent_ids``, the conv stack computes only the receptive field of those
    agents' decode patches: the last layer their patch cells, each earlier
    layer those cells dilated by the kernels after it. The encoding records
    the computed cells, and decoding an agent whose patch lies outside them
    raises. Without ids every cell is computed.
    """
    cfg: StudentConfig = params.config
    feats, cells = _raster_points(scene, cfg)
    num_cells = cfg.grid_h * cfg.grid_w
    if len(feats):
        emb = _mlp(params, "pillar", Tensor(feats), 2, final_relu=True)
        grid_flat = dc.scatter_max_pool(emb, cells, num_cells)
    else:
        grid_flat = Tensor(np.zeros((num_cells, cfg.pillar_embed)))
    grid = dc.reshape(grid_flat, (cfg.grid_h, cfg.grid_w, cfg.pillar_embed))
    convs = [(params.buffers[f"conv{i}.w"], params.buffers[f"conv{i}.b"]) for i in range(len(cfg.conv_channels))]
    wanted, computed = [None] * len(convs), None
    if agent_ids is not None and convs:
        patch, inside = _patch_indices(cfg, np.array([a.history[-1, :2] for a in _agents(scene, agent_ids)]))
        computed = np.zeros(num_cells, dtype=bool)
        computed[patch[inside]] = True
        mask = computed.reshape(cfg.grid_h, cfg.grid_w)
        for i in reversed(range(len(convs))):
            wanted[i] = mask
            mask = dc._window_any(mask, *convs[i][0].shape[:2])
    for (w, b), keep in zip(convs, wanted):
        grid = dc.relu(dc.conv2d(grid, w, b, keep))
    return SceneEncoding(grid=grid, scene_id=scene.scene_id, cells=computed)


def _agents(scene: Scene, agent_ids: list[str]) -> list[AgentTrack]:
    """The first agent of each id, as ``Scene.agent_by_id`` returns, in one
    pass; raises KeyError for an unknown id."""
    by_id = {a.id: a for a in reversed(scene.agents)}
    unknown = [aid for aid in agent_ids if aid not in by_id]
    if unknown:
        raise KeyError(f"unknown agent id: {unknown[0]}")
    return [by_id[aid] for aid in agent_ids]


def _patch_indices(cfg: StudentConfig, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat grid indices (n, patch**2) of the patches centered on the cells
    of positions ``xy`` (n, 2), clipped to the grid, and a mask of the
    positions inside the grid extent."""
    xy = xy.reshape(-1, 2)
    size = np.array([cfg.grid_w, cfg.grid_h])
    cell = np.floor((xy + size * cfg.cell_size / 2.0) / cfg.cell_size).astype(int)
    inside = np.all((cell >= 0) & (cell < size), axis=1)
    offsets = np.arange(cfg.patch) - cfg.patch // 2
    xs = np.clip(cell[:, :1] + offsets, 0, cfg.grid_w - 1)
    ys = np.clip(cell[:, 1:] + offsets, 0, cfg.grid_h - 1)
    return (ys[:, :, None] * cfg.grid_w + xs[:, None, :]).reshape(len(xy), -1), inside


def student_decode(
    encoding: SceneEncoding, scene: Scene, agent_ids: list[str], params: ModelParams
) -> tuple[list[str], gm.TrajectoryGMM | None]:
    """Decode agent-frame GMMs for many agents in one batched pass.

    One patch gather, one decoder MLP and one GMM head serve every agent,
    recorded on the active tape if there is one. Returns the decoded ids and
    their (n, K, T) mixture stack, or ``([], None)``: agents outside the grid
    extent are left out. Raises ValueError for an agent whose patch lies
    outside the cells the encoding computed. Decoded mean offsets are
    scene-frame displacements from the agent position; they are rotated by
    -heading and added to the constant-velocity rollout.
    """
    cfg: StudentConfig = params.config
    agents = _agents(scene, agent_ids)
    anchors = [_agent_anchor(a) for a in agents]
    cells, inside = _patch_indices(cfg, np.array([[a.x, a.y] for a in anchors]))
    keep = np.flatnonzero(inside)
    if keep.size == 0:
        return [], None
    if encoding.cells is not None and not encoding.cells[cells[keep]].all():
        outside = [agent_ids[i] for i in keep if not encoding.cells[cells[i]].all()]
        raise ValueError(f"agents {outside}: decode patch outside the encoded cells")
    ids = [agent_ids[i] for i in keep]
    anchors = [anchors[i] for i in keep]
    vels = np.array([agents[i].history[-1, 3:5] for i in keep])
    headings = np.array([a.heading for a in anchors])
    cs, sn = np.cos(headings)[:, None], np.sin(headings)[:, None]
    extras = np.hstack([cs, sn, np.linalg.norm(vels, axis=1, keepdims=True) / 10.0])
    n, k, t, p = len(ids), cfg.num_modes, cfg.horizon, cfg.patch
    c = encoding.grid.data.shape[-1]
    flat = dc.reshape(encoding.grid, (cfg.grid_h * cfg.grid_w, c))
    patches = dc.reshape(dc.gather(flat, cells[keep].ravel(), axis=0), (n, p * p * c))
    raw = _mlp(params, "decoder", dc.concat([patches, Tensor(extras)], axis=1), 3)
    means, covs, logits = _gmm_head(raw, k, t, cfg.log_sigma_floor, (n,))

    # rotation by -heading of row vectors: (x, y) -> (x c + y s, y c - x s)
    rot_c, rot_s = np.hstack([cs, cs]), np.hstack([sn, -sn])
    cv = _cv_rollout(vels * rot_c + vels[:, ::-1] * rot_s, t, cfg.future_dt)
    means = dc.rotate(means, cs[:, :, None], -sn[:, :, None], cv[:, None])
    return ids, gm.TrajectoryGMM(means, covs, logits, anchors)


def _require_decoded(decoded: list[str], agent_ids: list[str]) -> None:
    kept = set(decoded)
    missing = [aid for aid in agent_ids if aid not in kept]
    if missing:
        raise OutOfExtentError(f"agents {missing} outside the grid extent")


def student_decode_agent(
    encoding: SceneEncoding, scene: Scene, agent_id: str, params: ModelParams
) -> gm.TrajectoryGMM:
    """Decode one agent's (K, T) mixture; raises OutOfExtentError when it is
    off the grid."""
    ids, out = student_decode(encoding, scene, [agent_id], params)
    _require_decoded(ids, [agent_id])
    fields = (dc.reshape(x, x.shape[1:]) for x in (out.means, out.cov_params, out.logits))
    return gm.TrajectoryGMM(*fields, anchor=out.anchor[0])


def student_predict(scene: Scene, agent_ids: list[str], params: ModelParams) -> dict[str, gm.TrajectoryGMM]:
    """Encode once, decode every agent in one batched pass, detach.

    Raises OutOfExtentError when any requested agent is off the grid.
    """
    ids, out = predict_scene(scene, agent_ids, params)
    _require_decoded(ids, agent_ids)
    return dict(zip(ids, gm.rows(out))) if ids else {}


# ---------------------------------------------------------------------------
# either model


def predict_scene(scene: Scene, agent_ids: list[str], params: ModelParams) -> tuple[list[str], gm.TrajectoryGMM | None]:
    """Agent-frame GMMs of ``agent_ids`` from either model kind, recorded on
    the active tape if there is one: the predicted ids and their (n, K, T)
    stack, or ``([], None)``.

    The teacher makes one batched ``teacher_forward`` call for all agents.
    The student encodes the scene once, computing its convolutions over the
    receptive field of these agents' patches only, and decodes all agents in
    one batched pass, leaving out agents outside the grid extent.
    """
    if params.kind == "student":
        # the ids go positionally: a wrapper of the encode may take no keywords
        return student_decode(student_forward_scene(scene, params, agent_ids), scene, agent_ids, params)
    ids = list(agent_ids)
    return (ids, teacher_forward(scene, ids, params)) if ids else ([], None)


# ---------------------------------------------------------------------------
# analytic multiply-add estimates


def _lstm_flops(in_dim: int, hidden: int, steps: int) -> int:
    return steps * (in_dim * 4 * hidden + hidden * 4 * hidden)


def count_flops(kind: str, n_agents: int, m_road: int, config) -> int:
    """Analytic multiply-add count of full-scene inference from shape algebra.

    The student's conv term is the dense full-grid upper bound: the encode
    computes only the occupied windows of the decoded agents' receptive
    field, which this count does not model."""
    if kind == "teacher":
        cfg: TeacherConfig = config
        h = cfg.hidden
        out_dim = cfg.num_modes * (cfg.horizon * 5 + 1)
        road = min(m_road, cfg.max_polylines) * cfg.points_per_polyline * (
            ROAD_POINT_FEATURES * h + h * h
        )
        signals = 4 * _lstm_flops(SIGNAL_STEP_FEATURES, h, cfg.history_len)
        history = _lstm_flops(TRACK_STEP_FEATURES, h, cfg.history_len)
        neighbors = min(max(n_agents - 1, 0), cfg.max_neighbors) * _lstm_flops(
            TRACK_STEP_FEATURES, h, cfg.history_len
        )
        decoder = 4 * h * h + h * h + h * out_dim
        return n_agents * (road + signals + history + neighbors + decoder)
    if kind == "student":
        cfg: StudentConfig = config
        e = cfg.pillar_embed
        out_dim = cfg.num_modes * (cfg.horizon * 5 + 1)
        # ~12 raster points per polyline; per agent: 5 box points + past poses
        n_points = m_road * 12 + 4 + n_agents * (5 + cfg.history_len - 1)
        pillar = n_points * (RASTER_FEATURES * e + e * e)
        chans = [e] + list(cfg.conv_channels)
        conv = sum(
            cfg.grid_h * cfg.grid_w * 9 * cin * cout for cin, cout in zip(chans[:-1], chans[1:])
        )
        decode_in = cfg.patch * cfg.patch * chans[-1] + 3
        decode = decode_in * cfg.hidden + cfg.hidden * cfg.hidden + cfg.hidden * out_dim
        return pillar + conv + n_agents * decode
    raise ValueError(f"unknown model kind: {kind!r}")
