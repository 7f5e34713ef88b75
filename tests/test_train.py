"""Tests for optimization, training loops and checkpoints.

Oracles: Adam updates recomputed step by step with the scalar recurrence in
the test itself; gradient clipping checked against hand-computed norms;
checkpoint round-trips compared against float32-cast originals.
"""

import dataclasses
import json

import numpy as np
import pytest

from trajdistill import diffcore as dc
from trajdistill import gmm as gm
from trajdistill import losses as ls
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill import train as tr
from trajdistill.diffcore import Tensor


def _scenes(n, seed=0):
    cfg = sg.GenConfig(num_scenes=n, seed=seed)
    return [sg.generate_scene(cfg, i) for i in range(n)]


def _small_student():
    return md.StudentConfig(
        grid_h=32, grid_w=32, cell_size=4.0, pillar_embed=16, conv_channels=(16,), hidden=32
    )


def _small_teacher():
    return md.TeacherConfig(hidden=32)


# ---------------------------------------------------------------------------
# Adam oracle


def test_adam_three_step_scalar_oracle():
    """Replay three steps of the textbook recurrence by hand."""
    cfg = tr.TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    p0 = 2.0
    params = md.ModelParams(
        kind="student", config=_small_student(), buffers={"w": Tensor(np.array([[p0]]))}
    )
    state = tr.AdamState()
    grads_seq = [0.5, -0.3, 0.2]
    m = v = 0.0
    p = p0
    for t, g in enumerate(grads_seq, start=1):
        tr.adam_step(params, {"w": np.array([[g]])}, state, cfg)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        p -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params.buffers["w"].data[0, 0] == pytest.approx(p, abs=1e-12)


def test_adam_first_step_is_signed_lr():
    """With bias correction the first update is ~ -lr * sign(g)."""
    cfg = tr.TrainConfig(lr=5e-4)
    g = np.array([[3.7, -0.02, 1e-3]])
    params = md.ModelParams(
        kind="student", config=_small_student(), buffers={"w": Tensor(np.zeros((1, 3)))}
    )
    tr.adam_step(params, {"w": g}, tr.AdamState(), cfg)
    assert np.allclose(params.buffers["w"].data, -5e-4 * np.sign(g), rtol=1e-4)


def test_clip_global_norm_oracle():
    a = np.full((2, 2), 3.0)  # sum sq = 36
    b = np.full((4,), 4.0)  # sum sq = 64 -> global norm 10
    grads = {"a": a.copy(), "b": b.copy()}
    norm = tr.clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(10.0)
    assert np.allclose(grads["a"], 1.5)
    assert np.allclose(grads["b"], 2.0)
    grads2 = {"a": a.copy()}
    norm2 = tr.clip_global_norm(grads2, 100.0)
    assert norm2 == pytest.approx(6.0)
    assert np.allclose(grads2["a"], 3.0)  # below threshold: untouched


# ---------------------------------------------------------------------------
# training loops


def test_teacher_training_reduces_loss():
    scenes = _scenes(4, seed=11)
    params = md.init_params(_small_teacher(), np.random.default_rng(0))
    log = tr.train_teacher(scenes, params, tr.TrainConfig(steps=30, seed=1))
    first = np.mean([r.loss for r in log.records[:5]])
    last = np.mean([r.loss for r in log.records[-5:]])
    assert last < first


def test_teacher_training_deterministic():
    scenes = _scenes(3, seed=12)
    cfg = tr.TrainConfig(steps=6, seed=3)
    pa = md.init_params(_small_teacher(), np.random.default_rng(7))
    pb = md.init_params(_small_teacher(), np.random.default_rng(7))
    tr.train_teacher(scenes, pa, cfg)
    tr.train_teacher(scenes, pb, cfg)
    for name in pa.buffers:
        assert np.array_equal(pa.buffers[name].data, pb.buffers[name].data), name


def _teacher_loop_oracle(scenes, params, cfg):
    """A teacher-only optimizer loop written out by hand: per-agent
    forwards, mean base loss, scenes without targets skipped before the
    gradients are zeroed, lambda logged as 1."""
    log = tr.TrainLog()
    rng = np.random.default_rng(cfg.seed)
    order = tr._scene_order(len(scenes), cfg.steps, rng)
    state = tr.AdamState()
    for step, scene_idx in enumerate(order):
        scene = scenes[scene_idx]
        targets = [a for a in scene.prediction_targets() if a.future is not None]
        if not targets:
            continue
        tr._zero_grads(params)
        with dc.Tape() as tape:
            total = Tensor(0.0)
            nll = 0.0
            for agent in targets:
                pred = md.teacher_forward(scene, agent.id, params)
                lb = ls.base_loss(pred, tr.agent_frame_gt(scene, agent.id))
                total = total + lb.total
                nll += float(lb.nll_term.data)
            total = total * (1.0 / len(targets))
            tape.backward(total)
        grads = tr._collect_grads(params)
        norm = tr.clip_global_norm(grads, cfg.clip_norm)
        tr.adam_step(params, grads, state, cfg)
        log.append(
            tr.StepRecord(
                step=step, scene_index=scene_idx, loss=float(total.data),
                nll=nll / len(targets), ce=0.0, kl=0.0, active_lambda=1,
                grad_norm=norm, n_agents=len(targets),
            )
        )
    return log


def test_teacher_training_equals_its_own_loop():
    """``train_teacher`` through the shared loop equals the hand-written
    teacher loop, under the default (warm-up) lambda mode and with a scene
    whose agents have no future. The loop sums the agents' losses in one
    call and the oracle one agent at a time, so the logged floats agree to
    rounding; integer fields and the final weights are exact."""
    scenes = _scenes(4, seed=22)
    scenes[2] = dataclasses.replace(
        scenes[2], agents=[dataclasses.replace(a, future=None) for a in scenes[2].agents]
    )
    cfg = tr.TrainConfig(steps=8, seed=4)
    assert cfg.lambda_mode == "warmup25"
    pa = md.init_params(_small_teacher(), np.random.default_rng(7))
    pb = md.init_params(_small_teacher(), np.random.default_rng(7))
    got = tr.train_teacher(scenes, pa, cfg).records
    want = _teacher_loop_oracle(scenes, pb, cfg).records
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("loss", "nll", "grad_norm"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * abs(getattr(b, name)), name
        assert (a.step, a.scene_index, a.n_agents, a.active_lambda) == (b.step, b.scene_index, b.n_agents, b.active_lambda)
        assert (a.ce, a.kl) == (b.ce, b.kl)
    assert len(got) == 6  # two epochs over four scenes, scene 2 skipped twice
    assert all(r.active_lambda == 1 and r.ce == 0.0 and r.kl == 0.0 for r in got)
    for name in pa.buffers:
        assert np.array_equal(pa.buffers[name].data, pb.buffers[name].data), name


def test_student_baseline_ignores_teacher():
    """method='none' must produce identical weights with or without teacher."""
    scenes = _scenes(3, seed=13)
    teacher = md.init_params(_small_teacher(), np.random.default_rng(1))
    cfg = tr.TrainConfig(steps=4, seed=5, method="none")
    pa = md.init_params(_small_student(), np.random.default_rng(2))
    pb = md.init_params(_small_student(), np.random.default_rng(2))
    tr.distill_student(scenes, pa, cfg)
    tr.distill_student(scenes, pb, cfg, teacher=teacher)
    for name in pa.buffers:
        assert np.array_equal(pa.buffers[name].data, pb.buffers[name].data), name


def test_distill_requires_teacher():
    scenes = _scenes(1, seed=14)
    params = md.init_params(_small_student(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="requires teacher"):
        tr.distill_student(scenes, params, tr.TrainConfig(steps=1, method="set"))


def test_distill_mode_count_mismatch_fails_before_training():
    scenes = _scenes(1, seed=15)
    teacher = md.init_params(md.TeacherConfig(hidden=32, num_modes=4), np.random.default_rng(0))
    student = md.init_params(_small_student(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="mode count mismatch"):
        tr.distill_student(scenes, student, tr.TrainConfig(steps=1, method="set"), teacher=teacher)


def test_distill_horizon_mismatch_fails_before_training():
    scenes = _scenes(1, seed=15)
    teacher = md.init_params(md.TeacherConfig(hidden=32, horizon=8), np.random.default_rng(0))
    student = md.init_params(_small_student(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="horizon mismatch"):
        tr.distill_student(
            scenes, student, tr.TrainConfig(steps=1, method="distribution"), teacher=teacher
        )


def test_lambda_warmup_flip_recorded():
    scenes = _scenes(2, seed=16)
    teacher = md.init_params(_small_teacher(), np.random.default_rng(1))
    student = md.init_params(_small_student(), np.random.default_rng(2))
    cfg = tr.TrainConfig(steps=8, seed=0, method="set", lambda_mode="warmup25")
    log = tr.distill_student(scenes, student, cfg, teacher=teacher)
    lams = [r.active_lambda for r in log.records]
    assert lams[:2] == [0, 0]  # floor(8/4) = 2 warm-up steps
    assert all(l == 1 for l in lams[2:])


def test_teacher_frozen_and_memoized():
    scenes = _scenes(2, seed=17)
    teacher = md.init_params(_small_teacher(), np.random.default_rng(1))
    before = {n: t.data.copy() for n, t in teacher.buffers.items()}
    student = md.init_params(_small_student(), np.random.default_rng(2))
    cfg = tr.TrainConfig(steps=8, seed=0, method="distribution")
    tr.distill_student(scenes, student, cfg, teacher=teacher)
    for name, old in before.items():
        assert np.array_equal(teacher.buffers[name].data, old), name
    # memoization: re-running two epochs over 2 scenes must not have called
    # the teacher more than once per (scene, agent) pair
    frozen = tr.FrozenTeacher(teacher)
    for _ in range(3):
        for scene in scenes:
            for a in scene.prediction_targets():
                frozen.predict(scene, a.id)
    n_pairs = sum(len(s.prediction_targets()) for s in scenes)
    assert frozen.forward_calls == n_pairs


def test_teacher_ops_stay_off_the_student_tape(monkeypatch):
    """Every node of a ``set`` step's tape belongs to the student: the frozen
    teacher's forward is not recorded."""
    tapes = []

    class RecordingTape(dc.Tape):
        def backward(self, root):
            tapes.append(list(self.nodes))
            super().backward(root)

    monkeypatch.setattr(dc, "Tape", RecordingTape)
    scenes = _scenes(2, seed=21)
    teacher = md.init_params(_small_teacher(), np.random.default_rng(1))
    student = md.init_params(_small_student(), np.random.default_rng(2))
    cfg = tr.TrainConfig(steps=3, seed=0, method="set", lambda_mode="constant")
    tr.distill_student(scenes, student, cfg, teacher=teacher)
    assert len(tapes) == 3
    teacher_ids = {id(t) for t in teacher.buffers.values()}
    student_ids = {id(t) for t in student.buffers.values()}
    for nodes in tapes:
        parents = {id(p) for n in nodes for p in n._parents}
        assert not parents & teacher_ids
        assert parents & student_ids


@pytest.mark.parametrize("method", tr.METHODS)
def test_student_tape_nodes_per_step_do_not_grow_with_targets(monkeypatch, method):
    """A student step records as many tape nodes for 16 targets as for 1:
    the scene's targets are decoded and scored as one stack."""
    counts = []

    class CountingTape(dc.Tape):
        def backward(self, root):
            counts.append(len(self.nodes))
            super().backward(root)

    monkeypatch.setattr(dc, "Tape", CountingTape)
    scene = sg.generate_scene(sg.GenConfig(num_scenes=1, agents_min=16, agents_max=16, seed=3), 0)
    teacher = md.init_params(md.TeacherConfig(hidden=16), np.random.default_rng(1)) if method != "none" else None
    cfg = md.StudentConfig(grid_h=32, grid_w=32, cell_size=8.0, pillar_embed=8, conv_channels=(8,), hidden=16)
    for n in (1, 4, 16):
        agents = [dataclasses.replace(a, is_prediction_target=i < n) for i, a in enumerate(scene.agents)]
        student = md.init_params(cfg, np.random.default_rng(2))
        log = tr.distill_student(
            [dataclasses.replace(scene, agents=agents)], student,
            tr.TrainConfig(steps=1, method=method, lambda_mode="constant"), teacher=teacher,
        )
        assert log.records[0].n_agents == n
    assert len(counts) == 3 and counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("method", ["set", "sample", "distribution"])
def test_distill_methods_run_and_log(method):
    scenes = _scenes(2, seed=18)
    teacher = md.init_params(_small_teacher(), np.random.default_rng(1))
    student = md.init_params(_small_student(), np.random.default_rng(2))
    cfg = tr.TrainConfig(steps=4, seed=0, method=method, lambda_mode="constant")
    log = tr.distill_student(scenes, student, cfg, teacher=teacher)
    assert len(log.records) == 4
    assert all(np.isfinite(r.loss) for r in log.records)
    if method in ("set", "distribution"):
        assert any(r.ce != 0.0 for r in log.records)
    if method == "distribution":
        assert all(r.kl > 0.0 for r in log.records)


def test_train_log_json_lines(tmp_path):
    scenes = _scenes(2, seed=19)
    params = md.init_params(_small_teacher(), np.random.default_rng(0))
    path = tmp_path / "log.jsonl"
    tr.train_teacher(scenes, params, tr.TrainConfig(steps=3, seed=0), log=tr.TrainLog(str(path)))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert {"step", "loss", "grad_norm", "n_agents"} <= set(rec)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        tr.TrainConfig(method="magic")
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(lr=-1.0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    for cfg in (_small_teacher(), _small_student()):
        params = md.init_params(cfg, np.random.default_rng(3))
        prefix = str(tmp_path / params.kind)
        tr.save_checkpoint(params, prefix)
        loaded = tr.load_checkpoint(prefix)
        assert loaded.kind == params.kind
        assert loaded.config == params.config
        assert list(loaded.buffers) == list(params.buffers)
        for name, t in params.buffers.items():
            assert np.array_equal(
                loaded.buffers[name].data, t.data.astype("<f4").astype(np.float64)
            ), name


def test_checkpoint_truncated_weights(tmp_path):
    params = md.init_params(_small_student(), np.random.default_rng(0))
    prefix = str(tmp_path / "ck")
    _, bin_path = tr.save_checkpoint(params, prefix)
    blob = open(bin_path, "rb").read()
    with open(bin_path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(tr.CheckpointError, match="truncated"):
        tr.load_checkpoint(prefix)


def test_checkpoint_trailing_bytes(tmp_path):
    params = md.init_params(_small_student(), np.random.default_rng(0))
    prefix = str(tmp_path / "ck")
    _, bin_path = tr.save_checkpoint(params, prefix)
    with open(bin_path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(tr.CheckpointError, match="trailing"):
        tr.load_checkpoint(prefix)


def test_checkpoint_bad_schema_version(tmp_path):
    params = md.init_params(_small_teacher(), np.random.default_rng(0))
    prefix = str(tmp_path / "ck")
    man_path, _ = tr.save_checkpoint(params, prefix)
    manifest = json.load(open(man_path))
    manifest["schema_version"] = 999
    json.dump(manifest, open(man_path, "w"))
    with pytest.raises(tr.CheckpointError, match="schema_version"):
        tr.load_checkpoint(prefix)


def test_checkpoint_corrupt_manifest(tmp_path):
    params = md.init_params(_small_teacher(), np.random.default_rng(0))
    prefix = str(tmp_path / "ck")
    man_path, _ = tr.save_checkpoint(params, prefix)
    with open(man_path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(tr.CheckpointError, match="unreadable"):
        tr.load_checkpoint(prefix)


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(tr.CheckpointError):
        tr.load_checkpoint(str(tmp_path / "nothing"))


def test_checkpoint_usable_for_inference(tmp_path):
    scenes = _scenes(1, seed=20)
    params = md.init_params(_small_teacher(), np.random.default_rng(4))
    prefix = str(tmp_path / "teacher")
    tr.save_checkpoint(params, prefix)
    loaded = tr.load_checkpoint(prefix)
    aid = scenes[0].prediction_targets()[0].id
    out_a = md.teacher_forward(scenes[0], aid, params)
    out_b = md.teacher_forward(scenes[0], aid, loaded)
    # float32 storage: agreement to storage precision
    assert np.allclose(out_a.means.data, out_b.means.data, atol=1e-3)
