"""Acceptance suite: end-to-end checks of the documented external contracts.

Each criterion is one test. Criterion 1 records that absolute leaderboard
numbers from large proprietary datasets are out of scope and replaced by the
directional and property checks below. Criterion 2 trains nine models and
dominates the runtime of this file.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import test_metrics as tm_oracles
import test_models as model_helpers
from trajdistill import benchlat as bl
from trajdistill import diffcore as dc
from trajdistill import gmm as gm
from trajdistill import losses as ls
from trajdistill import metrics as mt
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill import train as tr
from trajdistill.diffcore import Tensor
from trajdistill.gmm import Trajectory, TrajectoryGMM


def test_criterion_1_leaderboard_numbers_out_of_scope():
    """Absolute benchmark-table numbers require the original large datasets
    and million-step budgets; they are not reproducible here by design. The
    stand-ins are the directional comparison (criterion 2) and the property
    checks (criteria 3-10) in this file."""
    assert True


# ---------------------------------------------------------------------------
# criterion 2: directional distillation effect


TRAIN_SCENES = 2000
EVAL_SCENES = 500
SEEDS = (1, 2, 3)
TEACHER_STEPS = 1200
STUDENT_STEPS = 800
BUDGET_S = 45 * 60


_benchmark_cache: dict = {}


def _run_benchmark():
    """Train teacher/baseline/distilled models on all seeds once per session."""
    if _benchmark_cache:
        return _benchmark_cache
    t_start = time.time()
    gen_train = sg.GenConfig(num_scenes=TRAIN_SCENES, seed=100)
    train_scenes = [sg.generate_scene(gen_train, i) for i in range(TRAIN_SCENES)]
    gen_eval = sg.GenConfig(num_scenes=EVAL_SCENES, seed=200)
    eval_scenes = [sg.generate_scene(gen_eval, i) for i in range(EVAL_SCENES)]

    results: dict[tuple[int, str], mt.MetricsReport] = {}
    for seed in SEEDS:
        teacher = md.init_params(md.TeacherConfig(), np.random.default_rng(seed))
        tr.train_teacher(train_scenes, teacher, tr.TrainConfig(steps=TEACHER_STEPS, seed=seed))
        preds, gts = tr.predict_dataset(eval_scenes, teacher)
        results[(seed, "teacher")] = mt.evaluate(preds, gts, k=6)
        for method in ("none", "set", "distribution"):
            student = md.init_params(md.StudentConfig(), np.random.default_rng(seed))
            cfg = tr.TrainConfig(
                steps=STUDENT_STEPS, seed=seed, method=method, lambda_mode="warmup25"
            )
            tr.distill_student(
                train_scenes, student, cfg, teacher=teacher if method != "none" else None
            )
            preds, gts = tr.predict_dataset(eval_scenes, student)
            results[(seed, method)] = mt.evaluate(preds, gts, k=6)
        for key in ("teacher", "none", "set", "distribution"):
            r = results[(seed, key)]
            print(
                f"seed {seed} {key:>7}: minADE {r.min_ade:.3f}  MR {r.miss_rate:.3f}"
            )

    elapsed = time.time() - t_start
    print(f"benchmark wall time: {elapsed / 60:.1f} min")
    _benchmark_cache["results"] = results
    _benchmark_cache["elapsed"] = elapsed
    return _benchmark_cache


def test_criterion_2a_teacher_beats_baseline_within_budget():
    cache = _run_benchmark()
    results, elapsed = cache["results"], cache["elapsed"]
    assert elapsed <= BUDGET_S, f"budget exceeded: {elapsed / 60:.1f} min"
    # teacher beats the student baseline on every seed
    for seed in SEEDS:
        assert results[(seed, "teacher")].min_ade < results[(seed, "none")].min_ade, (
            f"seed {seed}: teacher {results[(seed, 'teacher')].min_ade:.4f} "
            f">= baseline {results[(seed, 'none')].min_ade:.4f}"
        )


def test_criterion_2bc_distillation_matches_baseline():
    """Median-over-seeds distilled student <= baseline within 1% relative, for
    minADE and miss rate.

    What closes the gap is the teacher's weights and KL: each mode's NLL
    weighted by the teacher's confidence in it, and the per-step Gaussian KL
    to the teacher's mode. Without them the set-distilled student stayed
    behind the baseline even at ten times the steps (median minADE 0.4043 and
    MR 0.1559 at 8000 steps); with them it reads 0.3274 and 0.0455 at 800
    steps, against the baseline's 0.3804 and 0.0671 (2-vCPU host, one BLAS
    thread).
    """
    results = _run_benchmark()["results"]

    def median(key, metric):
        return float(np.median([getattr(results[(s, key)], metric) for s in SEEDS]))

    for metric in ("min_ade", "miss_rate"):
        set_m = median("set", metric)
        base_m = median("none", metric)
        assert set_m <= base_m * 1.01 + 1e-12, (
            f"{metric}: distilled median {set_m:.4f} vs baseline {base_m:.4f}"
        )


def test_criterion_2d_distribution_distillation_beats_baseline():
    """The headline: the median-over-seeds distribution-distilled student is
    no worse than the no-teacher baseline on minADE and miss rate."""
    results = _run_benchmark()["results"]

    def median(key, metric):
        return float(np.median([getattr(results[(s, key)], metric) for s in SEEDS]))

    for metric in ("min_ade", "miss_rate"):
        dist_m, base_m = median("distribution", metric), median("none", metric)
        assert dist_m <= base_m, f"{metric}: distribution median {dist_m:.4f} vs baseline {base_m:.4f}"


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness for every op and every loss


def _random_gmm_tensors(rng, k=3, t=4):
    """Well-separated modes so hard assignments don't flip under h=1e-4."""
    base = rng.uniform(-1, 1, (k, t, 2)) + np.arange(k).reshape(k, 1, 1) * 8.0
    covs = rng.uniform(-0.4, 0.4, (k, t, 3))
    logits = rng.standard_normal(k)
    return base, covs, logits


def _unpack(x, k, t, lead=()):
    """One mixture, or a stack of shape ``lead``, from a vector packed by
    ``_pack``."""
    n = int(np.prod(lead))
    row = dc.reshape(x, (1, n * (k * t * 5 + k)))
    means = dc.reshape(dc.slice_cols(row, 0, n * k * t * 2), lead + (k, t, 2))
    covs = dc.reshape(dc.slice_cols(row, n * k * t * 2, n * k * t * 5), lead + (k, t, 3))
    logits = dc.reshape(dc.slice_cols(row, n * k * t * 5, n * (k * t * 5 + k)), lead + (k,))
    return TrajectoryGMM(means=means, cov_params=covs, logits=logits)


def _pack(means, covs, logits):
    return np.concatenate([means.ravel(), covs.ravel(), logits.ravel()])


def test_criterion_3_loss_and_op_gradients():
    """The loss sweeps take central differences at h = 1e-5: at 1e-4 their
    h**2 truncation error meets coordinates whose gradient is near 0 (one
    stacked instance read 1.4e-4: gradient -6.4e-6, difference error 1.8e-9
    falling as h**2), so a new draw could fail without a defect."""
    t0 = time.time()
    k, t = 3, 4
    rng = np.random.default_rng(42)
    losses = {
        "base": lambda s, te, gt, r: ls.base_loss(s, gt).total,
        "set": lambda s, te, gt, r: ls.distill_set_loss(s, te).total,
        "sample": lambda s, te, gt, r: ls.distill_sample_loss(
            s, te, np.random.default_rng(r)
        ).total,
        "distribution": lambda s, te, gt, r: ls.distill_distribution_loss(s, te, gt).total,
    }
    for name, fn in losses.items():
        worst = 0.0
        for i in range(100):
            sm, sc, sl = _random_gmm_tensors(rng, k, t)
            tm_, tc, tl = _random_gmm_tensors(rng, k, t)
            teacher = TrajectoryGMM(means=sm + tm_ * 0.05, cov_params=tc, logits=tl)
            gt_states = sm[int(rng.integers(k))] + rng.normal(0, 0.1, (t, 2))
            gt = Trajectory(states=gt_states, validity=np.ones(t, dtype=bool))
            x0 = _pack(sm, sc, sl)

            def f(x, fn=fn, gt=gt, teacher=teacher, i=i):
                return fn(_unpack(x, k, t), teacher, gt, 1000 + i)

            worst = max(worst, dc.grad_check(f, x0, h=1e-5))
        assert worst <= 1e-4, f"loss {name}: max rel err {worst:.2e}"

        # a stack of three agents in one call, row 1 observed at some steps
        # only: 50 instances, 150 agents, within the time budget
        worst = 0.0
        for i in range(50):
            rows = [_random_gmm_tensors(rng, k, t) for _ in range(6)]
            sm, sc, sl = (np.stack(f) for f in zip(*rows[:3]))
            tm_, tc, tl = (np.stack(f) for f in zip(*rows[3:]))
            teacher = TrajectoryGMM(means=sm + tm_ * 0.05, cov_params=tc, logits=tl)
            validity = np.ones((3, t), dtype=bool)
            validity[1, rng.choice(t, 2, replace=False)] = False
            gt_states = sm[np.arange(3), rng.integers(k, size=3)] + rng.normal(0, 0.1, (3, t, 2))
            gt = Trajectory(states=gt_states, validity=validity)
            x0 = _pack(sm, sc, sl)

            def f(x, fn=fn, gt=gt, teacher=teacher, i=i):
                return fn(_unpack(x, k, t, (3,)), teacher, gt, 2000 + i)

            worst = max(worst, dc.grad_check(f, x0, h=1e-5))
        assert worst <= 1e-4, f"stacked loss {name}: max rel err {worst:.2e}"

    # every registered diffcore op, 100 instances each, via the same harness
    # exercised in the unit tests; here run as one compact sweep
    op_rng = np.random.default_rng(7)
    for _ in range(100):
        x0 = op_rng.uniform(0.3, 2.0, (4, 3))
        w_mat = op_rng.standard_normal((3, 4)) * 0.5
        kern = op_rng.standard_normal((3, 3, 4, 2)) * 0.3

        def f_all(x, w_mat=w_mat, kern=kern):
            a = dc.mul(dc.add(x, x), dc.sigmoid(x))
            a = dc.sub(a, dc.div(x, dc.exp(dc.tanh(x))))
            a = a + dc.log(dc.sqrt(dc.square(x) + Tensor(np.full((4, 3), 0.5))))
            d = dc.matmul(a, Tensor(w_mat))
            e = dc.concat([dc.relu(d), dc.clamp(d, -1.0, 1.0)], axis=1)
            g = dc.gather(e, np.array([0, 2, 1]), axis=0)
            h = dc.slice_cols(g, 0, 4)
            sm = dc.softmax(h, axis=1)
            w = dc.reduce_max_over_set(sm, axis=0)
            s = dc.logsumexp(dc.reshape(sm, (12,)))
            pooled = dc.scatter_max_pool(sm, np.array([0, 1, 0]), 2)
            img = dc.reshape(dc.concat([h, h, h], axis=0), (3, 3, 4))
            conv = dc.conv2d(img, Tensor(kern), Tensor(np.zeros(2)))
            af = dc.affine(d, x, dc.gather(a, np.array([0]), axis=0))
            return (dc.reduce_sum(dc.square(conv)) + dc.reduce_sum(w) + s
                    + dc.reduce_sum(pooled) + dc.reduce_sum(af))

        assert dc.grad_check(f_all, x0) <= 1e-4

    # the fused LSTM, 100 instances, differentiated in each of its parameters
    lstm_shapes = {"wx": (2, 8), "wh": (2, 8), "b": (1, 8), "h0": (1, 2), "c0": (1, 2)}
    for _ in range(100):
        xs = op_rng.standard_normal((3, 4, 2))
        lstm_args = {n: op_rng.uniform(-0.8, 0.8, shape) for n, shape in lstm_shapes.items()}
        for name in lstm_shapes:

            def f_lstm(x, xs=xs, lstm_args=lstm_args, name=name):
                args = {n: x if n == name else Tensor(v) for n, v in lstm_args.items()}
                return dc.reduce_sum(dc.square(dc.lstm(xs, **args)))

            assert dc.grad_check(f_lstm, lstm_args[name]) <= 1e-4, name
    elapsed = time.time() - t0
    print(f"criterion 3 runtime: {elapsed:.1f}s")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 4: Monte-Carlo oracles for the closed forms


def _mc_entropy(cov, rng, n=1_000_000):
    sx, sy, rho = np.exp(cov[0]), np.exp(cov[1]), np.tanh(cov[2])
    z = rng.standard_normal((n, 2))
    x = sx * z[:, 0]
    y = sy * (rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1])
    pts = np.stack([x, y], axis=1)
    lp = gm.gaussian2d_logpdf(pts, np.tile(cov, (n, 1)))
    lp = lp.data if isinstance(lp, Tensor) else lp
    return -lp  # per-sample negative log density


def test_criterion_4_monte_carlo_oracles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cov = np.array([rng.uniform(-0.5, 0.8), rng.uniform(-0.5, 0.8), rng.uniform(-1, 1)])
        # analytic differential entropy of the 2D Gaussian
        sx, sy, rho = np.exp(cov[0]), np.exp(cov[1]), np.tanh(cov[2])
        analytic = math.log(2 * math.pi * sx * sy * math.sqrt(1 - rho**2)) + 1.0
        samples = _mc_entropy(cov, rng)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - analytic) <= 3 * se

        # KL against an independent MC estimate
        mu_a = rng.uniform(-1, 1, 2)
        mu_b = rng.uniform(-1, 1, 2)
        cov_b = np.array([rng.uniform(-0.5, 0.8), rng.uniform(-0.5, 0.8), rng.uniform(-1, 1)])
        n = 1_000_000
        z = rng.standard_normal((n, 2))
        x = sx * z[:, 0]
        y = sy * (rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1])
        pts = np.stack([x, y], axis=1) + mu_a
        la = gm.gaussian2d_logpdf(pts - mu_a, np.tile(cov, (n, 1)))
        lb = gm.gaussian2d_logpdf(pts - mu_b, np.tile(cov_b, (n, 1)))
        diff = (la.data if isinstance(la, Tensor) else la) - (
            lb.data if isinstance(lb, Tensor) else lb
        )
        kl = gm.gaussian_kl(mu_a[None], cov[None], mu_b[None], cov_b[None])
        kl = float((kl.data if isinstance(kl, Tensor) else kl)[0])
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean() - kl) <= 3 * se

    mu = np.array([[0.3, -0.7]])
    cov = np.array([[0.2, -0.1, 0.4]])
    same = gm.gaussian_kl(mu, cov, mu, cov)
    assert abs(float(gm._arr(same)[0])) <= 1e-9
    unit = np.zeros((1, 3))
    shifted = gm.gaussian_kl(np.zeros((1, 2)), unit, np.array([[1.0, 0.0]]), unit)
    assert abs(float(gm._arr(shifted)[0]) - 0.5) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 5: fixed point of the distillation losses


def test_criterion_5_fixed_point():
    rng = np.random.default_rng(23)
    k, t = 4, 6
    means = rng.uniform(-5, 5, (k, t, 2))
    covs = rng.uniform(-0.5, 0.5, (k, t, 3))
    logits = rng.standard_normal(k)
    teacher = TrajectoryGMM(means=means.copy(), cov_params=covs.copy(), logits=logits.copy())

    student_means = Tensor(means.copy())
    student = TrajectoryGMM(
        means=student_means, cov_params=Tensor(covs.copy()), logits=Tensor(logits.copy())
    )
    with dc.Tape() as tape:
        lb = ls.distill_set_loss(student, teacher)
        tape.backward(lb.total)
    assert np.linalg.norm(student_means.grad) <= 1e-6

    w = gm.mode_weights(logits)
    entropy = -float(np.sum(w * np.log(w)))
    assert abs(float(lb.ce_term.data) - entropy) <= 1e-9

    gt = Trajectory(states=means[0], validity=np.ones(t, dtype=bool))
    student2 = TrajectoryGMM(
        means=Tensor(means.copy()), cov_params=Tensor(covs.copy()), logits=Tensor(logits.copy())
    )
    with dc.Tape():
        lb2 = ls.distill_distribution_loss(student2, teacher, gt)
    assert abs(float(lb2.kl_term.data)) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 6: metric oracle equivalence


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        pred = tm_oracles.make_pred(rng, k=5, t=8)
        validity = rng.random(8) < 0.9
        validity[rng.integers(0, 8)] = True
        gt = Trajectory(states=rng.uniform(-5, 5, (8, 2)), validity=validity)
        k = int(rng.integers(1, 6))
        assert np.isclose(mt.min_ade(pred, gt, k), tm_oracles.oracle_min_ade(pred, gt, k), atol=1e-9)
        assert np.isclose(mt.min_fde(pred, gt, k), tm_oracles.oracle_min_fde(pred, gt, k), atol=1e-9)
        assert np.isclose(mt.w_ade(pred, gt), tm_oracles.oracle_w_ade(pred, gt), atol=1e-9)
        assert np.isclose(
            mt.brier_min_fde(pred, gt, k), tm_oracles.oracle_brier(pred, gt, k), atol=1e-9
        )
        miss = mt.miss_rate([pred], [gt], k)
        assert np.isclose(
            miss, float(tm_oracles.oracle_min_fde(pred, gt, k) > 2.0), atol=1e-9
        )

    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        preds = [tm_oracles.make_pred(rng, k=4, t=6, spread=8.0) for _ in range(n)]
        gts = [Trajectory(states=rng.uniform(-8, 8, (6, 2))) for _ in range(n)]
        k = int(rng.integers(1, 5))
        buckets, per_bucket = {}, {}
        for i, (p, g) in enumerate(zip(preds, gts)):
            b = mt.maneuver_bucket(g)
            per_bucket[b] = per_bucket.get(b, 0) + 1
            tf = len(g.states) - 1
            for w, m in tm_oracles.oracle_top_k(p, k):
                buckets.setdefault(b, []).append(
                    (w, np.linalg.norm(m[tf] - g.states[tf]) <= 2.0, i)
                )
        expected = np.mean(
            [tm_oracles.oracle_ap(buckets.get(b, []), c) for b, c in per_bucket.items()]
        )
        assert np.isclose(mt.mean_ap(preds, gts, k), expected, atol=1e-6)


# ---------------------------------------------------------------------------
# criterion 7: teacher equivariance (student error reported, not asserted)


def test_criterion_7_equivariance():
    rng = np.random.default_rng(41)
    teacher = md.init_params(md.TeacherConfig(), np.random.default_rng(1))
    student = md.init_params(md.StudentConfig(), np.random.default_rng(2))
    student_errs = []
    n_transforms = 0
    scene_idx = 0
    while n_transforms < 100:
        scene = sg.generate_scene(sg.GenConfig(num_scenes=1, seed=scene_idx), 0)
        scene_idx += 1
        aid = scene.prediction_targets()[0].id
        base = md.teacher_forward(scene, aid, teacher)
        s_base = md.student_predict(scene, [aid], student)[aid]
        for _ in range(10):
            dx, dy = rng.uniform(-30, 30, 2)
            theta = rng.uniform(-np.pi, np.pi)
            moved = model_helpers._transform_scene(scene, dx, dy, theta)
            out = md.teacher_forward(moved, aid, teacher)
            assert np.max(np.abs(out.means.data - base.means.data)) <= 1e-5
            w_a = gm.mode_weights(out.logits.data)
            w_b = gm.mode_weights(base.logits.data)
            assert np.max(np.abs(w_a - w_b)) <= 1e-6
            try:
                s_out = md.student_predict(moved, [aid], student)[aid]
                student_errs.append(
                    float(np.max(np.abs(gm._arr(s_out.means) - gm._arr(s_base.means))))
                )
            except md.OutOfExtentError:
                pass
            n_transforms += 1
    print(
        f"student equivariance error over {len(student_errs)} transforms: "
        f"mean {np.mean(student_errs):.4f} m, max {np.max(student_errs):.4f} m (reported only)"
    )


# ---------------------------------------------------------------------------
# criterion 8: scaling shape


def test_criterion_8_scaling():
    m = 16
    teacher_cfg = md.TeacherConfig(max_neighbors=128, max_polylines=m)
    student_cfg = md.StudentConfig()
    t_flops = md.count_flops("teacher", 128, m, teacher_cfg) / md.count_flops(
        "teacher", 8, m, teacher_cfg
    )
    s_flops = md.count_flops("student", 128, m, student_cfg) / md.count_flops(
        "student", 8, m, student_cfg
    )
    print(f"flop ratios: teacher {t_flops:.1f}, student {s_flops:.2f}")
    assert t_flops >= 100.0
    assert s_flops <= 2.0

    teacher = md.init_params(teacher_cfg, np.random.default_rng(0))
    student = md.init_params(student_cfg, np.random.default_rng(0))
    sizes = [(8, m), (128, m)]
    t_pts = bl.run_bench("teacher", teacher, sizes, warmup=3, reps=15)
    s_pts = bl.run_bench("student", student, sizes, warmup=3, reps=15)
    t_wall = t_pts[1].median_s / t_pts[0].median_s
    s_wall = s_pts[1].median_s / s_pts[0].median_s
    print(f"wall-time ratios (n=128 / n=8): teacher {t_wall:.1f}, student {s_wall:.2f}")
    assert t_wall >= 8.0
    assert s_wall <= 3.0


# ---------------------------------------------------------------------------
# criterion 9: lambda warm-up schedule in a real TrainLog


def test_criterion_9_lambda_schedule():
    scene = sg.generate_scene(sg.GenConfig(num_scenes=1, seed=5), 0)
    teacher = md.init_params(
        md.TeacherConfig(hidden=8, num_modes=2), np.random.default_rng(0)
    )
    student = md.init_params(
        md.StudentConfig(grid_h=8, grid_w=8, cell_size=16.0, pillar_embed=4,
                         conv_channels=(4,), patch=3, hidden=8, num_modes=2),
        np.random.default_rng(1),
    )
    cfg = tr.TrainConfig(steps=1000, seed=0, method="set", lambda_mode="warmup25")
    log = tr.distill_student([scene], student, cfg, teacher=teacher)
    lams = {r.step: r.active_lambda for r in log.records}
    assert all(lams[s] == 0 for s in range(250))
    assert all(lams[s] == 1 for s in range(250, 1000))


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "trajdistill.cli"] + args, capture_output=True, text=True
    ).returncode


def test_criterion_10_reproducibility(tmp_path):
    data = {}
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        assert _run_cli(["gen", "--out", str(path), "--num-scenes", "3", "--seed", "9"]) == 0
        data[name] = path.read_bytes()
    assert data["a"] == data["b"]

    model_cfg = tmp_path / "teacher.json"
    model_cfg.write_text(json.dumps({"schema_version": 1, "hidden": 16}))
    outs = {}
    for name in ("a", "b"):
        prefix = tmp_path / f"ck_{name}"
        log = tmp_path / f"log_{name}.jsonl"
        assert _run_cli(
            ["train", "--data", str(tmp_path / "a.jsonl"), "--out", str(prefix),
             "--steps", "3", "--seed", "4", "--model-config", str(model_cfg),
             "--log", str(log)]
        ) == 0
        outs[name] = (
            (tmp_path / f"ck_{name}.weights.bin").read_bytes(),
            (tmp_path / f"ck_{name}.manifest.json").read_bytes(),
            log.read_bytes(),
        )
    assert outs["a"][0] == outs["b"][0], "checkpoint weights differ between reruns"
    assert outs["a"][1] == outs["b"][1], "checkpoint manifests differ between reruns"
    assert outs["a"][2] == outs["b"][2], "train logs differ between reruns"

    scfg = tmp_path / "student.json"
    scfg.write_text(json.dumps({"schema_version": 1, "grid_h": 16, "grid_w": 16,
                                "cell_size": 8.0, "pillar_embed": 8,
                                "conv_channels": [8], "hidden": 16}))
    weights = {}
    for name in ("a", "b"):
        prefix = tmp_path / f"st_{name}"
        assert _run_cli(
            ["distill", "--data", str(tmp_path / "a.jsonl"), "--teacher",
             str(tmp_path / "ck_a"), "--out", str(prefix), "--steps", "2",
             "--seed", "6", "--method", "sample", "--model-config", str(scfg)]
        ) == 0
        weights[name] = (tmp_path / f"st_{name}.weights.bin").read_bytes()
    assert weights["a"] == weights["b"], "distillation rerun not byte-identical"
