"""Base likelihood loss and the three teacher-to-student distillation losses.

Every loss takes one agent's (K, T) mixture or a stack of n agents' (n, K, T)
and returns the sum over agents: one call covers all of a scene's targets.

Teacher outputs are always treated as constants (frozen teacher): every loss
detaches the teacher's buffers before use, so gradients flow only into the
student's outputs.

The set and distribution losses share the teacher's terms (``_teacher_terms``):
a cross entropy on the teacher's mode weights and the per-step Gaussian KL
between index-matched student and teacher modes (soft targets as in Hinton et
al., arXiv 1503.02531). The teacher labels its modes as a function of the
scene, so the student can learn its index pairing. The two losses differ only
in their NLL.
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
    k, t = pred.num_modes, pred.horizon
    if gt.states.shape != gm._arr(pred.logits).shape[:-1] + (t, 2):
        raise ValueError(f"groundtruth shape {gt.states.shape} does not match the predictions")
    # flat row of agent i's mode khat_i, and of its valid steps
    sel = np.arange(gt.validity.size // t) * k + gm.closest_mode(pred, gt).reshape(-1)
    steps = (sel[:, None] * t + np.arange(t))[gt.validity.reshape(-1, t)]
    logp_k = dc.gather(dc.reshape(gm.log_weights(pred.logits), (-1,)), sel, axis=0)
    means = dc.gather(dc.reshape(as_tensor(pred.means), (-1, 2)), steps, axis=0)
    covs = dc.gather(dc.reshape(as_tensor(pred.cov_params), (-1, 3)), steps, axis=0)
    residual = dc.sub(gt.states.reshape(-1, 2)[gt.validity.reshape(-1)], means)
    total = -dc.reduce_sum(logp_k) - dc.reduce_sum(gm.gaussian2d_logpdf(residual, covs))
    return LossBreakdown(total=total, nll_term=total, ce_term=_zero(), kl_term=_zero())


def _ce_from_logits(student_logits, teacher_w) -> Tensor:
    """Mode cross entropy -sum_k teacher_k * log softmax(student_logits)_k,
    the teacher weights as the target distribution (stable log-softmax path)."""
    logw = gm.log_weights(as_tensor(student_logits))
    return dc.reduce_sum(dc.mul(logw, -gm._arr(teacher_w)))


def _check_compat(student: TrajectoryGMM, teacher: TrajectoryGMM) -> None:
    s, t = gm._arr(student.means).shape, gm._arr(teacher.means).shape
    if s != t:
        raise ValueError(f"student means {s} and teacher means {t} differ in agents, modes or horizon")


def _teacher_terms(
    student: TrajectoryGMM, teacher: TrajectoryGMM, opts: DistillOptions
) -> tuple[Tensor, Tensor]:
    """The terms by which the set and distribution losses transfer the
    teacher: the mode cross entropy -sum_k w_k log pi_k on the teacher's
    weights w (times K under ``ce_literal_per_k``), and the sum over modes k
    and steps t of KL(student_kt || teacher_kt) (KL(teacher || student) under
    ``kl_reverse``)."""
    ce = _ce_from_logits(student.logits, teacher.weights())
    if opts.ce_literal_per_k:
        ce = ce * float(student.num_modes)
    t_means = gm._arr(teacher.means).reshape(-1, 2)
    t_covs = gm._arr(teacher.cov_params).reshape(-1, 3)
    s_means = dc.reshape(as_tensor(student.means), (-1, 2))
    s_covs = dc.reshape(as_tensor(student.cov_params), (-1, 3))
    if opts.kl_reverse:
        kl = dc.reduce_sum(gm.gaussian_kl(t_means, t_covs, s_means, s_covs))
    else:
        kl = dc.reduce_sum(gm.gaussian_kl(s_means, s_covs, t_means, t_covs))
    return ce, kl


def distill_set_loss(
    student: TrajectoryGMM, teacher: TrajectoryGMM, opts: DistillOptions | None = None
) -> LossBreakdown:
    """Trajectory-set distillation: every teacher mode mean is a pseudo-label
    for the student mode of the same index, weighted by the teacher's
    confidence w_k in that mode,
    NLL = -sum_k w_k sum_t log N(teacher mean_kt | student mode k, t),
    plus the teacher's CE and KL terms (``_teacher_terms``).
    """
    opts = opts or DistillOptions()
    _check_compat(student, teacher)
    s_means = dc.reshape(as_tensor(student.means), (-1, 2))
    covs = dc.reshape(as_tensor(student.cov_params), (-1, 3))
    residual = dc.sub(gm._arr(teacher.means).reshape(-1, 2), s_means)
    logp = gm.gaussian2d_logpdf(residual, covs)
    nll = -dc.reduce_sum(dc.mul(logp, np.repeat(teacher.weights().reshape(-1), student.horizon)))
    ce, kl = _teacher_terms(student, teacher, opts)
    return LossBreakdown(total=nll + ce + kl, nll_term=nll, ce_term=ce, kl_term=kl)


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
    """Set distillation (``distill_set_loss`` under ``opts``) plus the
    lambda-gated base loss; the base loss adds to the NLL term."""
    distill = distill_set_loss(student, teacher, opts)
    if lam == 0:
        return replace(distill, active_lambda=0)
    base = base_loss(student, gt)
    return LossBreakdown(
        total=distill.total + base.total,
        nll_term=distill.nll_term + base.nll_term,
        ce_term=distill.ce_term,
        kl_term=distill.kl_term,
        active_lambda=1,
    )


def distill_sample_loss(
    student: TrajectoryGMM,
    teacher: TrajectoryGMM,
    rng: np.random.Generator,
    opts: DistillOptions | None = None,
) -> LossBreakdown:
    """Sample distillation: a draw from the teacher's distribution replaces the
    groundtruth in the base loss, one draw per agent in row order."""
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
    """Distribution distillation: the base loss as the NLL, plus the
    teacher's CE and KL terms (``_teacher_terms``)."""
    opts = opts or DistillOptions()
    _check_compat(student, teacher)
    base = base_loss(student, gt)
    ce, kl = _teacher_terms(student, teacher, opts)
    return LossBreakdown(total=base.total + ce + kl, nll_term=base.nll_term, ce_term=ce, kl_term=kl)
