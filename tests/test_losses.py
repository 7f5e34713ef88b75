import math
import zlib

import numpy as np
import pytest

from test_acceptance import _pack, _random_gmm_tensors, _unpack
from test_gmm import mode_loglik
from trajdistill import diffcore as dc
from trajdistill import gmm as gm
from trajdistill import losses as ls
from trajdistill.diffcore import Tape, Tensor, grad_check
from trajdistill.gmm import Trajectory, TrajectoryGMM
from trajdistill.losses import DistillOptions
from trajdistill.train import TrainConfig

LOG_2PI = math.log(2 * math.pi)


def make_gmm(rng, k=3, t=2, as_tensor=False):
    means = rng.uniform(-4, 4, (k, t, 2))
    covs = np.stack([rng.uniform(-1, 1, (k, t)), rng.uniform(-1, 1, (k, t)), rng.uniform(-1, 1, (k, t))], axis=-1)
    logits = rng.standard_normal(k)
    if as_tensor:
        return TrajectoryGMM(means=Tensor(means), cov_params=Tensor(covs), logits=Tensor(logits))
    return TrajectoryGMM(means=means, cov_params=covs, logits=logits)


def unit_gmm(means, logits):
    means = np.asarray(means, dtype=float)
    return TrajectoryGMM(means=means, cov_params=np.zeros(means.shape[:2] + (3,)), logits=np.asarray(logits, dtype=float))


def breakdown_consistent(b):
    return np.isclose(
        float(b.total.data),
        float(b.nll_term.data) + float(b.ce_term.data) + float(b.kl_term.data),
        atol=1e-9,
    )


def test_base_loss_k1_exact():
    g = unit_gmm([[[0.0, 0.0]]], [0.0])
    out = ls.base_loss(g, Trajectory(states=np.zeros((1, 2))))
    assert np.isclose(float(out.total.data), LOG_2PI, atol=1e-7)
    assert breakdown_consistent(out)


def test_base_loss_k2_uniform():
    g = unit_gmm([[[0.0, 0.0]], [[5.0, 5.0]]], [0.0, 0.0])
    out = ls.base_loss(g, Trajectory(states=np.zeros((1, 2))))
    assert np.isclose(float(out.total.data), math.log(2) + LOG_2PI, atol=1e-7)
    assert np.isclose(float(out.total.data), 2.5310117, atol=1e-6)


def test_base_loss_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = make_gmm(rng, k=3, t=2)
        gt = Trajectory(states=rng.uniform(-4, 4, (2, 2)))
        khat = min(
            range(3), key=lambda k: (np.linalg.norm(g.means[k] - gt.states, axis=-1).mean(), k)
        )
        w = g.weights()
        expected = -math.log(w[khat]) - mode_loglik(g, khat, gt)
        out = ls.base_loss(g, gt)
        assert np.isclose(float(out.total.data), expected, atol=1e-9)


def test_base_loss_monotone_toward_gt():
    gt = Trajectory(states=np.array([[2.0, 1.0]]))
    prev = None
    for alpha in np.linspace(0, 0.9, 10):
        g = unit_gmm([[(1 - alpha) * np.array([8.0, -3.0]) + alpha * gt.states[0]]], [0.0])
        val = float(ls.base_loss(g, gt).total.data)
        if prev is not None:
            assert val < prev
        prev = val


def test_mode_cross_entropy_values():
    """The logits path with logits = log p gives -sum_k q_k log p_k."""

    def ce(p, q):
        return float(ls._ce_from_logits(Tensor(np.log(p)), np.asarray(q)).data)

    assert np.isclose(ce([0.5, 0.5], [0.5, 0.5]), math.log(2))
    assert np.isclose(ce([0.5, 0.5], [1.0, 0.0]), math.log(2))
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        expected = -float(np.sum(q * np.log(p)))
        assert np.isclose(ce(p, q), expected, atol=1e-12)


def set_oracle(student, teacher, kl_reverse=False):
    """The set loss term by term, one mode and one step at a time."""
    tw, sw = teacher.weights(), student.weights()
    nll = ce = kl = 0.0
    for k in range(teacher.num_modes):
        ce -= tw[k] * math.log(sw[k])
        for s in range(teacher.horizon):
            nll -= tw[k] * float(
                gm.gaussian2d_logpdf(teacher.means[k, s] - student.means[k, s], student.cov_params[k, s])
            )
            pair = [(student.means[k, s], student.cov_params[k, s]), (teacher.means[k, s], teacher.cov_params[k, s])]
            if kl_reverse:
                pair.reverse()
            kl += float(gm.gaussian_kl(*pair[0], *pair[1]))
    return {"nll_term": nll, "ce_term": ce, "kl_term": kl, "total": nll + ce + kl}


def test_distill_set_fixed_point():
    rng = np.random.default_rng(1)
    means = rng.uniform(-3, 3, (2, 1, 2))
    teacher = TrajectoryGMM(means=means.copy(), cov_params=np.zeros((2, 1, 3)), logits=np.zeros(2))
    student_means = Tensor(means.copy())
    student = TrajectoryGMM(means=student_means, cov_params=Tensor(np.zeros((2, 1, 3))), logits=Tensor(np.zeros(2)))
    with Tape() as tape:
        out = ls.distill_set_loss(student, teacher)
        tape.backward(out.total)
    # each mode's NLL is LOG_2PI weighted by 1/2, CE log 2, KL 0
    assert np.isclose(float(out.total.data), math.log(2) + LOG_2PI, atol=1e-7)
    assert np.isclose(float(out.total.data), 2.5310117, atol=1e-6)
    assert np.max(np.abs(student_means.grad)) < 1e-12
    # CE at pi = Pi equals the entropy of Pi
    assert np.isclose(float(out.ce_term.data), math.log(2), atol=1e-12)


def test_distill_set_offset_case():
    teacher = unit_gmm([[[1.0, 0.0]]], [0.0])
    student = unit_gmm([[[0.0, 0.0]]], [0.0])
    out = ls.distill_set_loss(student, teacher)
    # NLL LOG_2PI + |d|^2 / 2, CE 0 (one mode), KL |d|^2 / 2 between unit Gaussians
    assert np.isclose(float(out.total.data), LOG_2PI + 1.0, atol=1e-9)


def test_distill_set_random_oracle_and_permutation_sensitivity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        student = make_gmm(rng, k=3, t=2)
        teacher = make_gmm(rng, k=3, t=2)
        out = ls.distill_set_loss(student, teacher)
        assert np.isclose(float(out.total.data), set_oracle(student, teacher)["total"], atol=1e-9)
        assert breakdown_consistent(out)

    # permuting teacher modes changes the loss unless the student follows
    student = make_gmm(rng, k=3, t=2)
    teacher = make_gmm(rng, k=3, t=2)
    perm = [2, 0, 1]
    t_perm = TrajectoryGMM(
        means=teacher.means[perm], cov_params=teacher.cov_params[perm], logits=teacher.logits[perm]
    )
    s_perm = TrajectoryGMM(
        means=student.means[perm], cov_params=student.cov_params[perm], logits=student.logits[perm]
    )
    v0 = float(ls.distill_set_loss(student, teacher).total.data)
    assert abs(float(ls.distill_set_loss(student, t_perm).total.data) - v0) > 1e-6
    assert np.isclose(float(ls.distill_set_loss(s_perm, t_perm).total.data), v0, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matched_set_brute_force_oracle(k):
    rng = np.random.default_rng(30 + k)
    for kl_reverse in (False, True):
        for _ in range(10):
            student = make_gmm(rng, k=k, t=3)
            teacher = make_gmm(rng, k=k, t=3)
            out = ls.distill_set_loss(student, teacher, DistillOptions(kl_reverse=kl_reverse))
            for name, want in set_oracle(student, teacher, kl_reverse).items():
                assert np.isclose(float(getattr(out, name).data), want, rtol=1e-12, atol=1e-9), name


def test_matched_set_fixed_point():
    """A student equal to the teacher: zero gradient in the means, zero KL,
    and CE equal to the entropy of the teacher's weights."""
    rng = np.random.default_rng(32)
    k, t = 4, 6
    teacher = TrajectoryGMM(
        means=rng.uniform(-5, 5, (k, t, 2)), cov_params=rng.uniform(-0.5, 0.5, (k, t, 3)), logits=rng.standard_normal(k)
    )
    w = teacher.weights()
    entropy = -float(np.sum(w * np.log(w)))
    means = Tensor(teacher.means.copy())
    student = TrajectoryGMM(means=means, cov_params=Tensor(teacher.cov_params.copy()), logits=Tensor(teacher.logits.copy()))
    with Tape() as tape:
        out = ls.distill_set_loss(student, teacher)
        tape.backward(out.total)
    assert np.max(np.abs(means.grad)) <= 1e-12
    assert abs(float(out.kl_term.data)) <= 1e-12
    assert abs(float(out.ce_term.data) - entropy) <= 1e-12


@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stack"])
def test_matched_set_gradcheck(lead):
    """Well-separated modes, as criterion 3 draws them; the teacher's modes
    are shuffled, so each student mode is supervised by a distant teacher
    mode."""
    rng = np.random.default_rng(33)
    k, t = 3, 4
    worst = 0.0
    for _ in range(20):
        rows = [_random_gmm_tensors(rng, k, t) for _ in range(2 * max(1, int(np.prod(lead))))]
        half = len(rows) // 2
        sm, sc, sl = (np.stack(f).reshape(lead + f[0].shape) for f in zip(*rows[:half]))
        tm_, tc, tl = (np.stack(f).reshape(lead + f[0].shape) for f in zip(*rows[half:]))
        perm = rng.permutation(k)
        teacher = TrajectoryGMM(
            means=(sm + tm_ * 0.05)[..., perm, :, :], cov_params=tc[..., perm, :, :], logits=tl[..., perm]
        )
        x0 = _pack(sm, sc, sl)

        def f(x, teacher=teacher):
            return ls.distill_set_loss(_unpack(x, k, t, lead), teacher).total

        worst = max(worst, grad_check(f, x0, h=1e-5))
    assert worst <= 1e-4


def test_ce_literal_per_k_switch():
    rng = np.random.default_rng(3)
    student = make_gmm(rng, k=4, t=2)
    teacher = make_gmm(rng, k=4, t=2)
    a = ls.distill_set_loss(student, teacher)
    b = ls.distill_set_loss(student, teacher, DistillOptions(ce_literal_per_k=True))
    assert np.isclose(float(b.ce_term.data), 4 * float(a.ce_term.data), atol=1e-12)


def test_combined_loss():
    rng = np.random.default_rng(4)
    student = make_gmm(rng)
    teacher = make_gmm(rng)
    gt = Trajectory(states=rng.uniform(-3, 3, (2, 2)))
    d = ls.distill_set_loss(student, teacher)
    b = ls.base_loss(student, gt)
    c0 = ls.combined_loss(student, teacher, gt, lam=0)
    c1 = ls.combined_loss(student, teacher, gt, lam=1)
    assert np.isclose(float(c0.total.data), float(d.total.data), atol=1e-12)
    assert c0.active_lambda == 0
    assert np.isclose(float(c1.total.data), float(d.total.data) + float(b.total.data), atol=1e-12)
    assert breakdown_consistent(c1)


def test_lambda_schedule():
    assert ls.lambda_schedule(0, 100, "constant") == 1
    assert ls.lambda_schedule(249, 1000, "warmup25") == 0
    assert ls.lambda_schedule(250, 1000, "warmup25") == 1
    with pytest.raises(ValueError):
        ls.lambda_schedule(5, 100, "bogus")


def test_distill_sample_one_hot_teacher():
    teacher = unit_gmm([[[1.0, 2.0]], [[5.0, 5.0]]], [50.0, -50.0])
    student = unit_gmm([[[1.0, 2.0]], [[-4.0, 0.0]]], [0.0, 0.0])
    out = ls.distill_sample_loss(student, teacher, np.random.default_rng(0))
    assert np.isclose(float(out.total.data), math.log(2) + LOG_2PI, atol=1e-7)
    # one-hot teacher: equals base_loss against teacher mode 0 exactly
    expected = ls.base_loss(student, Trajectory(states=teacher.means[0]))
    assert np.isclose(float(out.total.data), float(expected.total.data), atol=1e-12)


def test_distill_sample_determinism_and_expectation():
    rng = np.random.default_rng(5)
    student = make_gmm(rng, k=2, t=2)
    teacher = make_gmm(rng, k=2, t=2)
    v1 = float(ls.distill_sample_loss(student, teacher, np.random.default_rng(42)).total.data)
    v2 = float(ls.distill_sample_loss(student, teacher, np.random.default_rng(42)).total.data)
    assert v1 == v2

    # expectation over draws matches exact enumeration over teacher modes
    tw = teacher.weights()
    exact = sum(
        tw[k] * float(ls.base_loss(student, Trajectory(states=teacher.means[k])).total.data) for k in range(2)
    )
    draw_rng = np.random.default_rng(123)
    vals = np.array(
        [float(ls.distill_sample_loss(student, teacher, draw_rng).total.data) for _ in range(10**4)]
    )
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 3 * se


def test_distill_distribution_trivial_cases():
    rng = np.random.default_rng(6)
    g = make_gmm(rng, k=2, t=2)
    gt = Trajectory(states=rng.uniform(-3, 3, (2, 2)))
    out = ls.distill_distribution_loss(g, g, gt)
    base = ls.base_loss(g, gt)
    w = g.weights()
    entropy = -float(np.sum(w * np.log(w)))
    assert np.isclose(float(out.kl_term.data), 0.0, atol=1e-9)
    assert np.isclose(float(out.ce_term.data), entropy, atol=1e-9)
    assert np.isclose(float(out.total.data), float(base.total.data) + entropy, atol=1e-9)

    teacher = unit_gmm([[[1.0, 0.0]]], [0.0])
    student = unit_gmm([[[0.0, 0.0]]], [0.0])
    gt1 = Trajectory(states=np.zeros((1, 2)))
    out2 = ls.distill_distribution_loss(student, teacher, gt1)
    b1 = ls.base_loss(student, gt1)
    assert np.isclose(float(out2.total.data), float(b1.total.data) + 0.0 + 0.5, atol=1e-9)


def test_distill_distribution_random_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        student = make_gmm(rng, k=2, t=2)
        teacher = make_gmm(rng, k=2, t=2)
        gt = Trajectory(states=rng.uniform(-3, 3, (2, 2)))
        out = ls.distill_distribution_loss(student, teacher, gt)
        tw = teacher.weights()
        sw = student.weights()
        expected = float(ls.base_loss(student, gt).total.data) - float(np.sum(tw * np.log(sw)))
        for k in range(2):
            for t in range(2):
                expected += float(
                    gm.gaussian_kl(
                        student.means[k, t], student.cov_params[k, t], teacher.means[k, t], teacher.cov_params[k, t]
                    )
                )
        assert np.isclose(float(out.total.data), expected, atol=1e-9)
        assert breakdown_consistent(out)


def test_kl_reverse_switch():
    rng = np.random.default_rng(8)
    student = make_gmm(rng, k=2, t=1)
    teacher = make_gmm(rng, k=2, t=1)
    gt = Trajectory(states=rng.uniform(-3, 3, (1, 2)))
    fwd = ls.distill_distribution_loss(student, teacher, gt)
    rev = ls.distill_distribution_loss(student, teacher, gt, DistillOptions(kl_reverse=True))
    expected_rev = sum(
        float(
            gm.gaussian_kl(
                teacher.means[k, 0], teacher.cov_params[k, 0], student.means[k, 0], student.cov_params[k, 0]
            )
        )
        for k in range(2)
    )
    assert np.isclose(float(rev.kl_term.data), expected_rev, atol=1e-12)
    assert not np.isclose(float(fwd.kl_term.data), float(rev.kl_term.data), atol=1e-9)


def _student_from_vector(x, k, t):
    n_mean, n_cov = k * t * 2, k * t * 3
    means = dc.reshape(dc.slice_cols(dc.reshape(x, (1, -1)), 0, n_mean), (k, t, 2))
    covs = dc.reshape(dc.slice_cols(dc.reshape(x, (1, -1)), n_mean, n_mean + n_cov), (k, t, 3))
    logits = dc.reshape(dc.slice_cols(dc.reshape(x, (1, -1)), n_mean + n_cov, n_mean + n_cov + k), (k,))
    return TrajectoryGMM(means=means, cov_params=covs, logits=logits)


@pytest.mark.parametrize("which", ["base", "set", "sample", "distribution"])
def test_all_losses_gradcheck(which):
    # str hash() is salted per process; crc32 gives every run the same draws
    rng = np.random.default_rng(zlib.crc32(which.encode()))
    k, t = 2, 2
    teacher = make_gmm(rng, k=k, t=t)
    gt = Trajectory(states=rng.uniform(-3, 3, (t, 2)))
    for _ in range(25):
        x0 = np.concatenate(
            [rng.uniform(-3, 3, k * t * 2), rng.uniform(-1, 1, k * t * 3), rng.standard_normal(k)]
        )

        def f(x):
            student = _student_from_vector(x, k, t)
            if which == "base":
                return ls.base_loss(student, gt).total
            if which == "set":
                return ls.distill_set_loss(student, teacher).total
            if which == "sample":
                return ls.distill_sample_loss(student, teacher, np.random.default_rng(99)).total
            return ls.distill_distribution_loss(student, teacher, gt).total

        assert grad_check(f, x0) <= 1e-4


def _terms(lb):
    return {name: float(getattr(lb, name).data) for name in ("total", "nll_term", "ce_term", "kl_term")}


@pytest.mark.parametrize(
    "which", ["base", "set", "set_matched", "combined", "combined_matched", "sample", "sample_noise", "distribution"]
)
def test_stacked_loss_equals_sum_of_single_agent_calls(which):
    """A stack of four agents in one call equals the sum of the four
    single-agent calls term by term; row 1 is observed at two of four steps.
    Sample distillation draws once per row in row order, so two equally
    seeded generators give the same draws. The ``_matched`` inputs take the
    index-matched set loss with the options training passes, the others with
    both switches flipped."""
    rng = np.random.default_rng(zlib.crc32(which.encode()))
    n, k, t = 4, 3, 4
    students = [make_gmm(rng, k=k, t=t) for _ in range(n)]
    teachers = [make_gmm(rng, k=k, t=t) for _ in range(n)]
    validity = np.ones((n, t), dtype=bool)
    validity[1, [0, 2]] = False
    gts = [Trajectory(states=rng.uniform(-4, 4, (t, 2)), validity=v) for v in validity]
    opts = DistillOptions(sample_mode_only=which != "sample_noise", ce_literal_per_k=True, kl_reverse=True)
    if which.endswith("_matched"):
        opts = TrainConfig().distill_options()
    draws = {name: np.random.default_rng(11) for name in ("stacked", "single")}

    def loss(student, teacher, gt, rng):
        if which == "base":
            return ls.base_loss(student, gt)
        if which.startswith("set"):
            return ls.distill_set_loss(student, teacher, opts)
        if which.startswith("combined"):
            return ls.combined_loss(student, teacher, gt, 1, opts)
        if which.startswith("sample"):
            return ls.distill_sample_loss(student, teacher, rng, opts)
        return ls.distill_distribution_loss(student, teacher, gt, opts)

    stacked = _terms(loss(
        gm.stack(students), gm.stack(teachers),
        Trajectory(states=np.stack([g.states for g in gts]), validity=validity), draws["stacked"],
    ))
    singles = [_terms(loss(s, te, g, draws["single"])) for s, te, g in zip(students, teachers, gts)]
    for name, value in stacked.items():
        want = sum(single[name] for single in singles)
        assert abs(value - want) <= 1e-12 * abs(want), name
    assert draws["stacked"].bit_generator.state == draws["single"].bit_generator.state


def test_stacked_loss_rejects_mismatched_agent_counts():
    rng = np.random.default_rng(12)
    students = gm.stack([make_gmm(rng) for _ in range(3)])
    teachers = gm.stack([make_gmm(rng) for _ in range(2)])
    with pytest.raises(ValueError, match="differ in agents"):
        ls.distill_set_loss(students, teachers)
    with pytest.raises(ValueError, match="groundtruth shape"):
        ls.base_loss(students, Trajectory(states=np.zeros((2, 2))))
