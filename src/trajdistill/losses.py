"""Base likelihood loss and the three teacher-to-student distillation losses.

Teacher outputs are always treated as constants (frozen teacher): every loss
detaches the teacher's buffers before use, so gradients flow only into the
student's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import gmm as gm
from .diffcore import Tensor, as_tensor
from .gmm import Trajectory, TrajectoryGMM


@dataclass
class DistillOptions:
    """Switches for the deliberately ambiguous corners of the objectives.

    ``ce_literal_per_k``: multiply the mode cross-entropy by K (the literal
    per-mode summation reading) instead of counting it once per example.
    ``kl_reverse``: use KL(teacher || student) instead of the written
    student-first direction.
    ``sample_mode_only``: sample distillation draws only a mode index from the
    teacher's confidence and uses that mode's means as the proxy label; when
    False, per-step Gaussian noise is added as well.
    """

    ce_literal_per_k: bool = False
    kl_reverse: bool = False
    sample_mode_only: bool = True


@dataclass
class LossBreakdown:
    """Scalar loss with its additive parts: total = nll + ce + kl."""

    total: Tensor
    nll_term: Tensor
    ce_term: Tensor
    kl_term: Tensor
    active_lambda: int = 1


def _zero() -> Tensor:
    return Tensor(0.0)


def base_loss(pred: TrajectoryGMM, gt: Trajectory) -> LossBreakdown:
    """Hard-assignment mixture NLL: -log pi_khat - sum_t log N(gt_t | mode khat).

    The closest mode receives the assignment; gradients reach all logits via
    the log-softmax and the selected mode's means/covariances.
    """
    if not np.asarray(gt.validity).any():
        raise ValueError("groundtruth has no valid steps")
    khat = gm.closest_mode(pred, gt)
    logw = gm.log_weights(as_tensor(pred.logits))
    logp_k = dc.reshape(dc.gather(logw, [khat], axis=0), ())
    ll = gm.mode_loglik_t(pred, khat, gt)
    total = -logp_k - ll
    return LossBreakdown(total=total, nll_term=total, ce_term=_zero(), kl_term=_zero())


def _ce_from_logits(student_logits, teacher_w) -> Tensor:
    """Mode cross entropy -sum_k teacher_k * log softmax(student_logits)_k,
    the teacher weights as the target distribution (stable log-softmax path)."""
    logw = gm.log_weights(as_tensor(student_logits))
    return dc.reduce_sum(dc.mul(logw, -gm._arr(teacher_w)))


def _check_compat(student: TrajectoryGMM, teacher: TrajectoryGMM) -> None:
    if student.num_modes != teacher.num_modes:
        raise ValueError(f"mode count mismatch: student K={student.num_modes}, teacher K={teacher.num_modes}")
    if student.horizon != teacher.horizon:
        raise ValueError(f"horizon mismatch: student T={student.horizon}, teacher T={teacher.horizon}")


def distill_set_loss(
    student: TrajectoryGMM, teacher: TrajectoryGMM, opts: DistillOptions | None = None
) -> LossBreakdown:
    """Trajectory-set distillation: every teacher mode mean is a pseudo-label
    for the student's same-index mode, plus CE on the mode distributions.

    Index correspondence is enforced: teacher mode k supervises student mode k.
    """
    opts = opts or DistillOptions()
    _check_compat(student, teacher)
    k, t = student.num_modes, student.horizon
    teacher_means = gm._arr(teacher.means)
    teacher_w = gm.mode_weights(gm._arr(teacher.logits))

    residual = dc.sub(teacher_means.reshape(k * t, 2), dc.reshape(as_tensor(student.means), (k * t, 2)))
    covs = dc.reshape(as_tensor(student.cov_params), (k * t, 3))
    nll = -dc.reduce_sum(gm.gaussian2d_logpdf(residual, covs))

    ce = _ce_from_logits(student.logits, teacher_w)
    if opts.ce_literal_per_k:
        ce = ce * float(k)
    total = nll + ce
    return LossBreakdown(total=total, nll_term=nll, ce_term=ce, kl_term=_zero())


def lambda_schedule(step: int, total_steps: int, mode: str = "constant") -> int:
    """Warm-up gate for the base loss: constant -> 1; warmup25 -> 0 for the
    first quarter of training."""
    if not (0 <= step < total_steps):
        raise ValueError(f"step {step} out of range for total_steps {total_steps}")
    if mode == "constant":
        return 1
    if mode == "warmup25":
        return 0 if step < total_steps // 4 else 1
    raise ValueError(f"unknown lambda mode: {mode!r}")


def combined_loss(
    student: TrajectoryGMM,
    teacher: TrajectoryGMM,
    gt: Trajectory,
    lam: int,
    opts: DistillOptions | None = None,
) -> LossBreakdown:
    """Set distillation plus lambda-gated base loss."""
    distill = distill_set_loss(student, teacher, opts)
    if lam == 0:
        return replace(distill, active_lambda=0)
    base = base_loss(student, gt)
    return LossBreakdown(
        total=distill.total + base.total,
        nll_term=distill.nll_term + base.nll_term,
        ce_term=distill.ce_term,
        kl_term=_zero(),
        active_lambda=1,
    )


def distill_sample_loss(
    student: TrajectoryGMM,
    teacher: TrajectoryGMM,
    rng: np.random.Generator,
    opts: DistillOptions | None = None,
) -> LossBreakdown:
    """Sample distillation: a draw from the teacher's distribution replaces the
    groundtruth in the base loss."""
    opts = opts or DistillOptions()
    _check_compat(student, teacher)
    proxy = gm.sample(teacher.detach(), rng, mode_only=opts.sample_mode_only)
    return base_loss(student, proxy)


def distill_distribution_loss(
    student: TrajectoryGMM,
    teacher: TrajectoryGMM,
    gt: Trajectory,
    opts: DistillOptions | None = None,
) -> LossBreakdown:
    """Distribution distillation: base loss + CE on mode weights + per-step
    Gaussian KL between index-matched student and teacher components."""
    opts = opts or DistillOptions()
    _check_compat(student, teacher)
    k, t = student.num_modes, student.horizon
    teacher_means = gm._arr(teacher.means).reshape(k * t, 2)
    teacher_covs = gm._arr(teacher.cov_params).reshape(k * t, 3)
    teacher_w = gm.mode_weights(gm._arr(teacher.logits))

    base = base_loss(student, gt)
    ce = _ce_from_logits(student.logits, teacher_w)
    if opts.ce_literal_per_k:
        ce = ce * float(k)

    s_means = dc.reshape(as_tensor(student.means), (k * t, 2))
    s_covs = dc.reshape(as_tensor(student.cov_params), (k * t, 3))
    if opts.kl_reverse:
        kl = gm.gaussian_kl(teacher_means, teacher_covs, s_means, s_covs)
    else:
        kl = gm.gaussian_kl(s_means, s_covs, teacher_means, teacher_covs)
    kl = dc.reduce_sum(kl)

    return LossBreakdown(
        total=base.total + ce + kl,
        nll_term=base.nll_term,
        ce_term=ce,
        kl_term=kl,
    )
