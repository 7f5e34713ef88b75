"""Tests of the benchmark itself: every correctness check rejects a
deliberately wrong output, the tracer accounts for time correctly, and
``BENCHMARK.json`` names exactly the metrics the code reports.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402
from trajdistill import diffcore as dc  # noqa: E402
from trajdistill import geom  # noqa: E402
from trajdistill import metrics as mt  # noqa: E402
from trajdistill import models as md  # noqa: E402
from trajdistill import scenegen as sg  # noqa: E402
from trajdistill import train as tr  # noqa: E402

SMALL_TEACHER = md.TeacherConfig(hidden=8, horizon=16, num_modes=6)
SMALL_STUDENT = md.StudentConfig(grid_h=16, grid_w=16, cell_size=8.0, pillar_embed=4,
                                 conv_channels=(4,), patch=3, hidden=8)


@pytest.fixture(scope="module")
def scene():
    return sg.generate_scene(sg.GenConfig(agents_min=4, agents_max=4, seed=11), 0)


@pytest.fixture(scope="module")
def teacher():
    return md.init_params(SMALL_TEACHER, np.random.default_rng(0))


@pytest.fixture(scope="module")
def student():
    return md.init_params(SMALL_STUDENT, np.random.default_rng(1))


def _shifted(preds, dx=0.5):
    return [p.__class__(means=checks._data(p.means) + np.array([dx, 0.0]), cov_params=p.cov_params,
                        logits=p.logits, anchor=p.anchor) for p in preds]


def _teacher_preds(scene, teacher):
    ids = [a.id for a in scene.prediction_targets()]
    preds = [md.teacher_forward(scene, i, teacher).detach() for i in ids]
    gts = [tr.agent_frame_gt(scene, i) for i in ids]
    return preds, gts


# ---------------------------------------------------------------------------
# metric recomputation


def test_agent_frame_future_matches_program(scene):
    for a in scene.prediction_targets():
        want = tr.agent_frame_gt(scene, a.id).states
        assert np.allclose(checks.agent_frame_future(a.history, a.future), want, atol=1e-12)


def test_min_ade_check_rejects_predictions_shifted_half_a_metre(scene, teacher):
    preds, gts = _teacher_preds(scene, teacher)
    reported = mt.evaluate(preds, gts, k=6).min_ade
    gt = np.stack([g.states for g in gts])
    assert checks.check_min_ade("t", reported, preds, gt, 6) == []
    assert checks.check_min_ade("t", reported, _shifted(preds), gt, 6)


def test_eval_csv_check_rejects_shift_and_dropped_agent(scene, teacher, tmp_path):
    preds, gts = _teacher_preds(scene, teacher)
    gt = np.stack([g.states for g in gts])
    path = str(tmp_path / "m.csv")

    def row(p, g):
        mt.write_csv(path, [mt.evaluate(p, g, k=6)])
        return checks.read_metrics_csv(path)

    assert checks.check_eval_csv("e", row(preds, gts), preds, gt, len(preds), 6) == []
    assert checks.check_eval_csv("e", row(preds, gts), _shifted(preds), gt, len(preds), 6)
    assert checks.check_eval_csv("e", row(preds[1:], gts[1:]), preds, gt, len(preds), 6)


# ---------------------------------------------------------------------------
# gradients


def _tape_grad(w, x):
    leaf = dc.Tensor(w)
    with dc.Tape() as tape:
        out = dc.reduce_sum(dc.square(dc.tanh(dc.matmul(dc.Tensor(x), leaf))))
        tape.backward(out)
    return leaf.grad


def test_grad_check_rejects_gradient_scaled_by_1_01():
    rng = np.random.default_rng(0)
    w, x = rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
    grad = _tape_grad(w, x)

    def loss():
        return float(np.sum(np.tanh(x @ w) ** 2))

    coords = [(0, 0), (1, 1), (2, 0)]
    good = [checks.grad_rel_error(loss, w, grad[c], c) for c in coords]
    bad = [checks.grad_rel_error(loss, w, 1.01 * grad[c], c) for c in coords]
    assert checks.check_grad("g", good, len(coords)) == []
    assert checks.check_grad("g", bad, len(coords))


def test_grad_check_skips_a_kink_and_needs_enough_smooth_coordinates():
    w = np.array([0.0, 1.0])

    def loss():
        return float(np.maximum(w, 0.0).sum())

    assert checks.grad_rel_error(loss, w, 0.0, (0,)) is None
    assert checks.grad_rel_error(loss, w, 1.0, (1,)) < 1e-9
    assert checks.check_grad("g", [0.0], 2)


def test_loss_decrease_check():
    assert checks.check_loss_decreased("l", 3.0, 2.9) == []
    assert checks.check_loss_decreased("l", 3.0, 3.0)


# ---------------------------------------------------------------------------
# teacher equivariance, student batching


def test_equivariance_check_rejects_teacher_run_on_untransformed_scene(scene, teacher):
    theta, tx, ty = 0.7, 12.0, -5.0
    moved = checks.move_scene(scene, theta, tx, ty)
    ids = [a.id for a in scene.prediction_targets()][:2]
    original = [md.teacher_forward(scene, i, teacher) for i in ids]
    on_moved = [md.teacher_forward(moved, i, teacher) for i in ids]
    assert checks.check_equivariance("q", original, on_moved, theta, tx, ty) == []
    assert checks.check_equivariance("q", original, original, theta, tx, ty)


def test_batch_check_rejects_a_changed_agent(scene, student):
    ids = [a.id for a in scene.agents]
    batched = md.student_predict(scene, ids, student)
    enc = md.student_forward_scene(scene, student)
    for i in ids:
        alone = md.student_decode_agent(enc, scene, i, student)
        assert checks.check_same_prediction("b", alone, batched[i]) == []
    assert checks.check_same_prediction("b", _shifted([batched[ids[0]]], 1e-6)[0], batched[ids[0]])
    assert checks.check_weights_sum("w", list(batched.values())) == []
    skewed = batched[ids[0]].__class__(means=batched[ids[0]].means, cov_params=batched[ids[0]].cov_params,
                                       logits=batched[ids[0]].logits, anchor=None)
    skewed.weights = lambda: np.full(6, 0.2)
    assert checks.check_weights_sum("w", [skewed])


def test_usable_rejects_missing_and_non_finite_predictions(scene, student):
    aid = scene.agents[0].id
    pred = md.student_predict(scene, [aid], student)[aid]
    assert checks.usable(pred)
    assert not checks.usable(None)
    assert not checks.usable(_shifted([pred], np.nan)[0])


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_functions_where_callers_look_them_up():
    import trajdistill.cli  # noqa: F401  (every traced module must be loaded)

    original = geom.world_to_agent
    tracer = Tracer()
    tracer.install()
    try:
        assert md.world_to_agent is not original
        assert tr.world_to_agent is md.world_to_agent
        assert geom.world_to_agent is md.world_to_agent
    finally:
        tracer.uninstall()
    assert md.world_to_agent is original and geom.world_to_agent is original


def test_self_times_of_nested_spans_add_up_to_the_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")  # t=0
    a = tracer.begin("a")  # 1
    tracer.end(a)  # 2
    b = tracer.begin("b")  # 3
    c = tracer.begin("c")  # 4
    tracer.end(c)  # 5
    tracer.end(b)  # 6
    tracer.end(outer)  # 7
    ix = SpanIndex(tracer)
    assert ix.duration(outer) == 7.0
    assert sum(ix.self_time(i) for i in range(len(tracer.spans))) == ix.duration(outer)
    assert ix.self_time(b) == 2.0 and ix.ancestor(c, "outer") == outer


def test_traced_training_counts_teacher_forwards_and_tape_nodes(scene, teacher, student):
    import trajdistill.cli  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.begin("bench.round")
        cfg = tr.TrainConfig(steps=2, method="set", lambda_mode="constant")
        params = md.init_params(SMALL_STUDENT, np.random.default_rng(2))
        t0 = time.perf_counter()
        tr.distill_student([scene], params, cfg, teacher=teacher)
        wall = time.perf_counter() - t0
        tracer.end(span)
    finally:
        tracer.uninstall()
    per_layer, coverage = layers.compute(SpanIndex(tracer))
    assert set(per_layer) == set(layers.UNITS)
    # one scene visited twice: the second step's teacher predictions are memo hits
    assert per_layer["train.teacher_forwards_per_step.set"] == len(scene.prediction_targets()) / 2
    assert per_layer["train.teacher_cache_hit_ratio"] == 0.5
    assert per_layer["diffcore.tape_nodes_per_step.set"] > 0
    assert per_layer["diffcore.tape_nodes_per_step.teacher"] == 0
    assert min(coverage) > 50.0
    steps = SpanIndex(tracer).steps(SpanIndex(tracer).outermost("train.distill_student")[0])
    assert len(steps) == 2 and steps[-1][1] - steps[0][0] <= wall


# ---------------------------------------------------------------------------
# the benchmark's contract


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == ["train", "eval", "busy_scene"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
