"""Tests for the teacher and student models.

Oracles: parameter counts recomputed from shape algebra by an independent
walk over layer dimensions; equivariance checked against explicit rigid
transforms of a generated scene; flop ratios checked against the documented
scaling contracts.
"""

import math

import numpy as np
import pytest

from trajdistill import diffcore as dc
from trajdistill import gmm as gm
from trajdistill import losses as ls
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill.geom import Pose2, world_to_agent


def _scene(seed=0, **kw):
    cfg = sg.GenConfig(num_scenes=1, seed=seed, **kw)
    return sg.generate_scene(cfg, 0)


def _transform_scene(scene, dx, dy, theta):
    """Rigidly transform every geometric quantity of a scene."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])

    def tp(pts):
        return np.asarray(pts) @ rot.T + [dx, dy]

    road = [
        sg.RoadPolyline(id=p.id, kind=p.kind, points=tp(p.points), speed_limit_mps=p.speed_limit_mps)
        for p in scene.roadgraph
    ]
    sigs = [
        sg.TrafficSignal(id=t.id, position=tp(t.position), states=list(t.states))
        for t in scene.signals
    ]
    agents = []
    for a in scene.agents:
        h = a.history.copy()
        h[:, :2] = tp(h[:, :2])
        h[:, 2] = np.where(h[:, 5] > 0, h[:, 2] + theta, h[:, 2])
        h[:, 3:5] = h[:, 3:5] @ rot.T
        fut = tp(a.future) if a.future is not None else None
        agents.append(
            sg.AgentTrack(
                id=a.id, history=h, future=fut, is_prediction_target=a.is_prediction_target,
                intent_labels=a.intent_labels, intent_probs=a.intent_probs,
                realized_intent=a.realized_intent, length=a.length, width=a.width,
            )
        )
    return sg.Scene(
        scene_id=scene.scene_id, history_len=scene.history_len,
        future_len=scene.future_len, roadgraph=road, signals=sigs, agents=agents,
    )


# ---------------------------------------------------------------------------
# parameter counts against an independent shape-algebra oracle


def _mlp_count(dims):
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


def _lstm_count(f, h):
    return f * 4 * h + h * 4 * h + 4 * h + 2 * h


def test_teacher_param_count_oracle():
    cfg = md.TeacherConfig(hidden=64, num_modes=6, horizon=16)
    h = 64
    out = 6 * (16 * 5 + 1)
    expected = (
        _mlp_count([md.ROAD_POINT_FEATURES, h, h]) + h  # + empty-road embedding
        + _lstm_count(md.SIGNAL_STEP_FEATURES, h) + h
        + _lstm_count(md.TRACK_STEP_FEATURES, h)
        + _lstm_count(md.TRACK_STEP_FEATURES, h) + h
        + _mlp_count([4 * h, h, h, out])
    )
    assert md.param_count(cfg) == expected
    params = md.init_params(cfg, np.random.default_rng(0))
    assert params.num_params() == expected


def test_student_param_count_oracle():
    cfg = md.StudentConfig(pillar_embed=32, conv_channels=(32, 32), patch=5, hidden=64)
    e = 32
    out = 6 * (16 * 5 + 1)
    expected = (
        _mlp_count([md.RASTER_FEATURES, e, e])
        + (3 * 3 * e * 32 + 32) + (3 * 3 * 32 * 32 + 32)
        + _mlp_count([5 * 5 * 32 + 3, 64, 64, out])
    )
    assert md.param_count(cfg) == expected
    params = md.init_params(cfg, np.random.default_rng(0))
    assert params.num_params() == expected


def test_init_deterministic_per_seed():
    cfg = md.TeacherConfig()
    a = md.init_params(cfg, np.random.default_rng(5))
    b = md.init_params(cfg, np.random.default_rng(5))
    c = md.init_params(cfg, np.random.default_rng(6))
    for name in a.buffers:
        assert np.array_equal(a.buffers[name].data, b.buffers[name].data)
    assert any(not np.array_equal(a.buffers[n].data, c.buffers[n].data) for n in a.buffers)


# ---------------------------------------------------------------------------
# shape contracts


def test_teacher_output_shapes():
    scene = _scene(3)
    params = md.init_params(md.TeacherConfig(num_modes=4, horizon=12), np.random.default_rng(0))
    out = md.teacher_forward(scene, scene.prediction_targets()[0].id, params)
    assert out.means.data.shape == (4, 12, 2)
    assert out.cov_params.data.shape == (4, 12, 3)
    assert out.logits.data.shape == (4,)
    assert out.anchor is not None
    ls_ = out.cov_params.data[..., :2]
    assert np.all(ls_ >= gm.LOG_SIGMA_MIN) and np.all(ls_ <= gm.LOG_SIGMA_MAX)


def test_student_output_shapes():
    scene = _scene(4)
    params = md.init_params(md.StudentConfig(), np.random.default_rng(0))
    enc = md.student_forward_scene(scene, params)
    assert enc.grid.data.shape == (64, 64, 32)
    out = md.student_decode_agent(enc, scene, scene.prediction_targets()[0].id, params)
    assert out.means.data.shape == (6, 16, 2)
    assert out.cov_params.data.shape == (6, 16, 3)
    assert out.logits.data.shape == (6,)


def test_student_out_of_extent_raises():
    scene = _scene(4)
    params = md.init_params(md.StudentConfig(grid_h=8, grid_w=8, cell_size=1.0, patch=3), np.random.default_rng(0))
    # push one agent far outside the 8 m x 8 m extent
    agent = scene.prediction_targets()[0]
    agent.history[-1, 0] = 500.0
    enc = md.student_forward_scene(scene, params)
    with pytest.raises(md.OutOfExtentError):
        md.student_decode_agent(enc, scene, agent.id, params)


def test_unknown_kind_flops_raises():
    with pytest.raises(ValueError):
        md.count_flops("oracle", 8, 16, md.TeacherConfig())


# ---------------------------------------------------------------------------
# teacher equivariance: predictions in the agent frame are invariant to
# rigid transforms of the whole scene


@pytest.mark.parametrize("trial", range(10))
def test_teacher_rigid_invariance(trial):
    rng = np.random.default_rng(100 + trial)
    scene = _scene(seed=trial)
    params = md.init_params(md.TeacherConfig(), np.random.default_rng(1))
    aid = scene.prediction_targets()[0].id
    base = md.teacher_forward(scene, aid, params)
    for _ in range(10):
        dx, dy = rng.uniform(-200, 200, 2)
        theta = rng.uniform(-np.pi, np.pi)
        moved = _transform_scene(scene, dx, dy, theta)
        out = md.teacher_forward(moved, aid, params)
        assert np.allclose(out.means.data, base.means.data, atol=1e-5)
        assert np.allclose(out.cov_params.data, base.cov_params.data, atol=1e-5)
        assert np.allclose(out.logits.data, base.logits.data, atol=1e-5)


def test_teacher_handles_isolated_agent():
    """One valid agent, no neighbors: the learned empty embedding is used."""
    scene = _scene(5)
    keep = scene.prediction_targets()[0]
    scene.agents = [keep]
    params = md.init_params(md.TeacherConfig(), np.random.default_rng(0))
    out = md.teacher_forward(scene, keep.id, params)
    assert np.all(np.isfinite(out.means.data))


def test_teacher_no_road_no_signals():
    scene = _scene(6)
    scene.roadgraph = []
    scene.signals = []
    params = md.init_params(md.TeacherConfig(), np.random.default_rng(0))
    out = md.teacher_forward(scene, scene.prediction_targets()[0].id, params)
    assert np.all(np.isfinite(out.means.data))


def test_teacher_neighbor_cap_and_radius():
    """Agents beyond the radius must not change the prediction."""
    scene = _scene(7)
    params = md.init_params(md.TeacherConfig(neighbor_radius=30.0), np.random.default_rng(0))
    aid = scene.prediction_targets()[0].id
    base = md.teacher_forward(scene, aid, params)
    far = scene.agents[0]
    extra = sg.AgentTrack(
        id="far_away", history=far.history.copy(), future=None, is_prediction_target=False,
    )
    extra.history[:, 0] += 1000.0
    scene.agents.append(extra)
    out = md.teacher_forward(scene, aid, params)
    assert np.allclose(out.means.data, base.means.data)
    assert np.allclose(out.logits.data, base.logits.data)


# ---------------------------------------------------------------------------
# teacher featurization against per-row references


def _track_features_per_row(history, anchor):
    out = np.zeros((len(history), md.TRACK_STEP_FEATURES))
    for r, (x, y, heading, vx, vy, valid) in enumerate(history):
        if valid:
            out[r, :2] = world_to_agent(anchor, np.array([x, y]))[0]
            out[r, 2:4] = math.cos(heading - anchor.heading), math.sin(heading - anchor.heading)
            out[r, 4:6] = world_to_agent(Pose2(0.0, 0.0, anchor.heading), np.array([vx, vy]))[0]
        out[r, 6] = valid
    return out


def _road_features_per_row(scene, anchor, cfg):
    dists = [min(math.dist(p, (anchor.x, anchor.y)) for p in poly.points) for poly in scene.roadgraph]
    order = sorted(range(len(dists)), key=lambda i: dists[i])[: cfg.max_polylines]
    out = np.zeros((len(order), cfg.points_per_polyline, md.ROAD_POINT_FEATURES))
    for j, i in enumerate(order):
        poly = scene.roadgraph[i]
        for r, p in enumerate(md._resample_polyline(poly.points, cfg.points_per_polyline)):
            out[j, r, :2] = world_to_agent(anchor, p)[0]
            out[j, r, 2 + md.ROAD_KINDS.index(poly.kind)] = 1.0
            out[j, r, -1] = poly.speed_limit_mps / 10.0
    return out


@pytest.mark.parametrize("seed", [0, 11])
def test_teacher_features_match_per_row_reference(seed):
    scene = _scene(seed, agents_min=6, agents_max=6)
    cfg = md.TeacherConfig(max_polylines=7)
    histories = np.stack([a.history for a in scene.agents])
    assert (histories[:, :, 5] == 0).any()  # invalid rows are covered
    for agent in scene.agents:
        if not agent.history[-1, 5]:
            continue
        anchor = Pose2(*agent.current_pose())
        feats = md._track_features(histories, anchor)
        ref = np.stack([_track_features_per_row(h, anchor) for h in histories])
        assert np.max(np.abs(feats - ref)) <= 1e-12
        road = md._road_features(scene, anchor, cfg)
        assert road.shape[0] == 7
        assert np.max(np.abs(road - _road_features_per_row(scene, anchor, cfg))) <= 1e-12
        sig = md._signal_features(scene, anchor)
        for s, signal in enumerate(scene.signals):
            assert np.max(np.abs(sig[s, :, :2] - world_to_agent(anchor, signal.position))) <= 1e-12
            assert [md.SIGNAL_STATES[i] for i in sig[s, :, 2:].argmax(axis=1)] == signal.states
            assert np.array_equal(sig[s, :, 2:].sum(axis=1), np.ones(scene.history_len))


def test_teacher_forward_tape_node_budget():
    """The fused LSTM keeps one teacher forward to a few dozen tape nodes
    (the per-timestep composition recorded 385 here)."""
    scene = sg.generate_scene(sg.GenConfig(agents_min=5, agents_max=5, seed=3), 0)
    params = md.init_params(md.TeacherConfig(), np.random.default_rng(0))
    with dc.Tape() as tape:
        md.teacher_forward(scene, scene.prediction_targets()[0].id, params)
    assert len(tape.nodes) <= 60
    assert sum(n.op == "lstm" for n in tape.nodes) >= 2


# ---------------------------------------------------------------------------
# student rasterization against the per-point loop it replaces


def _raster_points_per_point(scene, cfg):
    """One ``add`` call per road and signal point, as the rasterizer did
    before its array form; the agent blocks were arrays already."""
    feats, coords = [], []

    def add(xy, kind, vel=(0.0, 0.0), age=0.0):
        f = np.zeros(md.RASTER_FEATURES)
        f[2 + md.RASTER_KINDS.index(kind)] = 1.0
        f[-3:-1] = vel
        f[-1] = age
        coords.append(xy)
        feats.append(f)

    for poly in scene.roadgraph:
        seg = np.linalg.norm(np.diff(poly.points, axis=0), axis=1).sum()
        for p in md._resample_polyline(poly.points, max(2, int(seg / cfg.cell_size) + 1)):
            add(p, poly.kind)
    for sig in scene.signals:
        add(sig.position, f"signal_{sig.states[-1]}")
    active = [a for a in scene.agents if a.history[-1, 5]]
    for a in active:
        x, y, heading = a.current_pose()
        c, s = math.cos(heading), math.sin(heading)
        for u, v in [(0.0, 0.0), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)]:
            du, dv = u * a.length, v * a.width
            add(np.array([c * du - s * dv + x, s * du + c * dv + y]), "agent", a.history[-1, 3:5] / 10.0)
    last = scene.history_len - 1
    for a in active:
        for t in range(last):
            if a.history[t, 5] > 0:
                add(a.history[t, :2], "agent_history", a.history[t, 3:5] / 10.0, (last - t) / 10.0)
    coords = np.array(coords).reshape(-1, 2)
    feats = np.array(feats).reshape(-1, md.RASTER_FEATURES)
    half_w, half_h = cfg.grid_w * cfg.cell_size / 2.0, cfg.grid_h * cfg.cell_size / 2.0
    ix = np.floor((coords[:, 0] + half_w) / cfg.cell_size).astype(int)
    iy = np.floor((coords[:, 1] + half_h) / cfg.cell_size).astype(int)
    inside = (ix >= 0) & (ix < cfg.grid_w) & (iy >= 0) & (iy < cfg.grid_h)
    ix, iy, coords, feats = ix[inside], iy[inside], coords[inside], feats[inside]
    feats[:, 0] = (coords[:, 0] + half_w) / cfg.cell_size - ix
    feats[:, 1] = (coords[:, 1] + half_h) / cfg.cell_size - iy
    return feats, iy * cfg.grid_w + ix


@pytest.mark.parametrize("case", ["seed_0", "seed_5", "seed_9", "seed_13", "agents_128", "no_road_no_signals"])
def test_raster_points_match_per_point_loop(case):
    """Bit-identical features and cells in the same row order, so that
    ``scatter_max_pool`` breaks ties the same way."""
    if case == "agents_128":
        scene = _scene(2, agents_min=128, agents_max=128)
    else:
        scene = _scene(6 if case == "no_road_no_signals" else int(case.split("_")[1]))
    if case == "no_road_no_signals":
        scene.roadgraph, scene.signals = [], []
    cfg = md.StudentConfig()
    feats, cells = md._raster_points(scene, cfg)
    ref_feats, ref_cells = _raster_points_per_point(scene, cfg)
    assert np.array_equal(feats, ref_feats)
    assert np.array_equal(cells, ref_cells)
    assert len(cells) > 0 and feats[:, 2:2 + len(md.RASTER_KINDS)].sum(axis=1).tolist() == [1.0] * len(cells)


# ---------------------------------------------------------------------------
# student contracts


def test_student_encode_once_counter(monkeypatch):
    scene = _scene(8)
    params = md.init_params(md.StudentConfig(), np.random.default_rng(0))
    ids = [a.id for a in scene.prediction_targets()]
    encode = md.student_forward_scene
    calls = []
    monkeypatch.setattr(md, "student_forward_scene", lambda *a: calls.append(1) or encode(*a))
    preds = md.student_predict(scene, ids, params)
    assert len(calls) == 1
    assert set(preds) == set(ids)


def test_student_decode_unknown_agent_raises():
    scene = _scene(8)
    params = md.init_params(md.StudentConfig(), np.random.default_rng(0))
    enc = md.student_forward_scene(scene, params)
    with pytest.raises(KeyError, match="unknown agent id: ghost"):
        md.student_decode(enc, scene, [scene.agents[0].id, "ghost"], params)


def test_student_predict_matches_per_agent_decode():
    """Batched inference equals the per-agent decode path used in training."""
    scene = _scene(8)
    params = md.init_params(md.StudentConfig(), np.random.default_rng(0))
    ids = [a.id for a in scene.prediction_targets()]
    batched = md.student_predict(scene, ids, params)
    enc = md.student_forward_scene(scene, params)
    for aid in ids:
        single = md.student_decode_agent(enc, scene, aid, params)
        assert np.allclose(batched[aid].means, single.means.data, atol=1e-12)
        assert np.allclose(batched[aid].cov_params, single.cov_params.data, atol=1e-12)
        assert np.allclose(batched[aid].logits, single.logits.data, atol=1e-12)


def _student_decode_oracle(grid, scene, agent_ids, params):
    """The student decode in plain numpy: patch crop, decoder MLP and GMM
    head, the head rotated into each agent's frame on a constant-velocity
    rollout."""
    cfg = params.config
    w = {name: t.data for name, t in params.buffers.items()}
    k, t, p = cfg.num_modes, cfg.horizon, cfg.patch
    rows, headings, vels = [], [], []
    for aid in agent_ids:
        agent = scene.agent_by_id(aid)
        x, y, heading = agent.current_pose()
        ix = math.floor((x + cfg.grid_w * cfg.cell_size / 2.0) / cfg.cell_size)
        iy = math.floor((y + cfg.grid_h * cfg.cell_size / 2.0) / cfg.cell_size)
        xs = np.clip(np.arange(ix - p // 2, ix - p // 2 + p), 0, cfg.grid_w - 1)
        ys = np.clip(np.arange(iy - p // 2, iy - p // 2 + p), 0, cfg.grid_h - 1)
        vel = agent.history[-1, 3:5]
        extra = [math.cos(heading), math.sin(heading), float(np.linalg.norm(vel)) / 10.0]
        rows.append(np.concatenate([grid[np.ix_(ys, xs)].ravel(), extra]))
        headings.append(heading)
        vels.append(vel)
    h = np.array(rows)
    for i in range(3):
        h = h @ w[f"decoder.w{i}"] + w[f"decoder.b{i}"]
        if i < 2:
            h = np.maximum(h, 0.0)
    n = len(agent_ids)
    body = h[:, : k * t * 5].reshape(n, k, t, 5)
    logits = h[:, k * t * 5 : k * t * 5 + k]
    log_sig = np.clip(body[..., 2:4], max(cfg.log_sigma_floor, gm.LOG_SIGMA_MIN), gm.LOG_SIGMA_MAX)
    covs = np.concatenate([log_sig, body[..., 4:5]], axis=-1)
    cos_h, sin_h = np.cos(headings), np.sin(headings)
    rots = np.stack(
        [np.stack([cos_h, -sin_h], -1), np.stack([sin_h, cos_h], -1)], axis=-2
    )  # (n, 2, 2); row-vector right-multiply == rotation by -heading
    means = np.einsum("nmj,njl->nml", body[..., :2].reshape(n, k * t, 2), rots)
    v_agent = np.einsum("nj,njl->nl", np.array(vels), rots)
    times = (np.arange(t) + 1.0) * cfg.future_dt
    cv = times[None, :, None] * v_agent[:, None, :]  # (n, t, 2)
    means = means.reshape(n, k, t, 2) + cv[:, None, :, :]
    return {aid: (means[i], covs[i], logits[i]) for i, aid in enumerate(agent_ids)}


def test_student_predict_matches_numpy_oracle():
    params = md.init_params(md.StudentConfig(), np.random.default_rng(3))
    for seed in (1, 8):
        scene = _scene(seed)
        ids = [a.id for a in scene.agents]
        preds = md.student_predict(scene, ids, params)
        grid = md.student_forward_scene(scene, params).grid.data
        for aid, (means, covs, logits) in _student_decode_oracle(grid, scene, ids, params).items():
            assert np.abs(preds[aid].means - means).max() <= 1e-12
            assert np.abs(preds[aid].cov_params - covs).max() <= 1e-12
            assert np.abs(preds[aid].logits - logits).max() <= 1e-12


def _student_grads(scene, params, groups):
    """Parameter gradients of the summed base loss, decoding ``groups`` of
    agents with one call each."""
    for t in params.buffers.values():
        t.grad = None
    with dc.Tape() as tape:
        enc = md.student_forward_scene(scene, params)
        total = dc.Tensor(0.0)
        for group in groups:
            ids, pred = md.student_decode(enc, scene, group, params)
            futures = []
            for aid in ids:
                agent = scene.agent_by_id(aid)
                futures.append(world_to_agent(Pose2(*agent.current_pose()), agent.future))
            total = total + ls.base_loss(pred, gm.Trajectory(states=np.stack(futures))).total
        tape.backward(total)
    return {name: t.grad.copy() for name, t in params.buffers.items()}


def test_student_decode_batch_gradients_equal_single_decodes():
    scene = _scene(8)
    ids = [a.id for a in scene.prediction_targets()]
    assert len(ids) >= 4
    params = md.init_params(md.StudentConfig(grid_h=32, grid_w=32, cell_size=4.0), np.random.default_rng(0))
    batched = _student_grads(scene, params, [ids])
    single = _student_grads(scene, params, [[aid] for aid in ids])
    for name, g in single.items():
        assert np.abs(batched[name] - g).max() <= 1e-9 * np.abs(g).max(), name


def test_student_decode_leaves_out_off_grid_agent():
    scene = _scene(8)
    params = md.init_params(md.StudentConfig(), np.random.default_rng(0))
    enc = md.student_forward_scene(scene, params)
    ids = [a.id for a in scene.agents]
    off = ids[len(ids) // 2]
    scene.agent_by_id(off).history[-1, 0] = 500.0
    kept = [aid for aid in ids if aid != off]
    ids_with, with_off = md.student_decode(enc, scene, ids, params)
    ids_without, without = md.student_decode(enc, scene, kept, params)
    assert ids_with == ids_without == kept
    assert with_off.anchor == without.anchor
    for field in ("means", "cov_params", "logits"):
        a, b = getattr(with_off, field).data, getattr(without, field).data
        assert a.shape[0] == len(kept)
        assert np.abs(a - b).max() <= 1e-12
    with pytest.raises(md.OutOfExtentError):
        md.student_predict(scene, ids, params)


def _assert_same_rows(ids, stack, want):
    """Row i of the mixture ``stack`` equals the single-agent mixture
    ``want[ids[i]]`` bitwise, anchor included."""
    assert ids == list(want)
    for i, aid in enumerate(ids):
        assert stack.anchor[i] == want[aid].anchor, aid
        for field in ("means", "cov_params", "logits"):
            assert np.array_equal(gm._arr(getattr(stack, field))[i], gm._arr(getattr(want[aid], field))), (aid, field)


def test_predict_scene_teacher_equals_teacher_forward():
    scene = _scene(8)
    ids = [a.id for a in scene.prediction_targets()]
    params = md.init_params(md.TeacherConfig(hidden=16), np.random.default_rng(0))
    with dc.Tape() as tape:
        got_ids, out = md.predict_scene(scene, ids, params)
    assert all(any(n is getattr(out, f) for n in tape.nodes) for f in ("means", "cov_params", "logits"))
    _assert_same_rows(got_ids, out, {aid: md.teacher_forward(scene, aid, params) for aid in ids})


def test_predict_scene_student_equals_decode_and_leaves_out_off_grid_agent():
    scene = _scene(8)
    params = md.init_params(md.StudentConfig(grid_h=32, grid_w=32, cell_size=4.0), np.random.default_rng(0))
    ids = [a.id for a in scene.agents]
    off = ids[len(ids) // 2]
    scene.agent_by_id(off).history[-1, 0] = 500.0
    with dc.Tape() as tape:
        got_ids, out = md.predict_scene(scene, ids, params)
    assert got_ids == [aid for aid in ids if aid != off]
    assert all(any(n is getattr(out, f) for n in tape.nodes) for f in ("means", "cov_params", "logits"))
    enc = md.student_forward_scene(scene, params)
    decoded_ids, decoded = md.student_decode(enc, scene, ids, params)
    _assert_same_rows(got_ids, out, dict(zip(decoded_ids, gm.rows(decoded))))


def test_student_grid_shift_equivariance():
    """Translating the scene by exactly one cell shifts interior grid features."""
    cfg = md.StudentConfig(grid_h=32, grid_w=32, cell_size=2.0, conv_channels=(16,), pillar_embed=16)
    params = md.init_params(cfg, np.random.default_rng(0))
    scene = _scene(9)
    enc_a = md.student_forward_scene(scene, params).grid.data
    moved = _transform_scene(scene, cfg.cell_size, 0.0, 0.0)
    enc_b = md.student_forward_scene(moved, params).grid.data
    # compare interior region away from the padded border and the extent edge
    pad = 2
    a = enc_a[pad:-pad, pad : -pad - 1, :]
    b = enc_b[pad:-pad, pad + 1 : -pad, :]
    assert np.allclose(a, b, atol=1e-9)


def test_student_decode_rotates_into_agent_frame():
    """The decoded mean offsets rotate with the agent heading: decoding the
    same encoding for two agents at the same cell with different headings
    yields means related by the relative rotation (patch features equal)."""
    cfg = md.StudentConfig()
    params = md.init_params(cfg, np.random.default_rng(2))
    scene = _scene(10)
    agent = scene.prediction_targets()[0]
    enc = md.student_forward_scene(scene, params)
    base = md.student_decode_agent(enc, scene, agent.id, params)
    # same agent, same position/speed, rotated heading; reuse the encoding so
    # the patch is identical and only the heading inputs differ
    theta = 0.7
    agent.history[-1, 2] += theta
    v = agent.history[-1, 3:5].copy()
    c, s = math.cos(theta), math.sin(theta)
    agent.history[-1, 3:5] = [c * v[0] - s * v[1], s * v[0] + c * v[1]]
    turned = md.student_decode_agent(enc, scene, agent.id, params)
    # raw decoder inputs differ only in cos/sin; outputs need not match, but
    # both must stay finite and anchored at the new heading
    assert turned.anchor.heading == pytest.approx(base.anchor.heading + theta)
    assert np.all(np.isfinite(turned.means.data))


def test_student_gradients_flow_to_all_layers():
    scene = _scene(11)
    params = md.init_params(md.StudentConfig(grid_h=32, grid_w=32, cell_size=4.0), np.random.default_rng(0))
    agent = scene.prediction_targets()[0]
    x, y, h = agent.current_pose()
    gt = gm.Trajectory(
        states=world_to_agent(Pose2(x, y, h), agent.future), validity=np.ones(16, bool)
    )
    with dc.Tape() as tape:
        enc = md.student_forward_scene(scene, params)
        out = md.student_decode_agent(enc, scene, agent.id, params)
        loss = ls.base_loss(out, gt)
        tape.backward(loss.total)
    for name in ("pillar.w0", "conv0.w", "conv1.w", "decoder.w0", "decoder.w2"):
        assert params.buffers[name].grad is not None
        assert np.linalg.norm(params.buffers[name].grad) > 0.0, name


def test_teacher_gradients_flow_to_all_layers():
    scene = _scene(12)
    params = md.init_params(md.TeacherConfig(), np.random.default_rng(0))
    agent = scene.prediction_targets()[0]
    x, y, h = agent.current_pose()
    gt = gm.Trajectory(
        states=world_to_agent(Pose2(x, y, h), agent.future), validity=np.ones(16, bool)
    )
    with dc.Tape() as tape:
        out = md.teacher_forward(scene, agent.id, params)
        loss = ls.base_loss(out, gt)
        tape.backward(loss.total)
    for name in ("road.w0", "signal.wx", "history.wx", "neighbor.wx", "decoder.w0"):
        assert params.buffers[name].grad is not None
        assert np.linalg.norm(params.buffers[name].grad) > 0.0, name


# ---------------------------------------------------------------------------
# flop model


def test_flop_scaling_contracts():
    tcfg = md.TeacherConfig(max_neighbors=256, max_polylines=64)
    scfg = md.StudentConfig()
    t_ratio = md.count_flops("teacher", 128, 16, tcfg) / md.count_flops("teacher", 8, 16, tcfg)
    s_ratio = md.count_flops("student", 128, 16, scfg) / md.count_flops("student", 8, 16, scfg)
    assert t_ratio >= 100.0
    assert s_ratio <= 2.0


def test_flops_monotone_in_agents_and_road():
    tcfg = md.TeacherConfig(max_neighbors=256, max_polylines=64)
    prev = 0
    for n in (2, 8, 32, 128):
        f = md.count_flops("teacher", n, 16, tcfg)
        assert f > prev
        prev = f
    assert md.count_flops("student", 8, 32, md.StudentConfig()) > md.count_flops(
        "student", 8, 16, md.StudentConfig()
    )


def test_teacher_flops_positive_single_agent():
    assert md.count_flops("teacher", 1, 0, md.TeacherConfig()) > 0
