"""Gaussian-mixture trajectory distributions.

Both models output K mode trajectories with per-step 2-D Gaussians plus a
categorical confidence over modes. Covariances are parameterized as
(log_sigma_x, log_sigma_y, rho_raw) with rho = tanh(rho_raw), which keeps the
matrix positive definite for any unconstrained values.

Functions here accept either numpy arrays or diffcore Tensors; when given
Tensors they are differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor, as_tensor
from .geom import Pose2

LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 4.0
LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Trajectory:
    """A (possibly partially observed) 2-D trajectory."""

    states: np.ndarray  # (T, 2) meters
    validity: np.ndarray | None = None  # (T,) bool; None means all valid

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.validity is None:
            self.validity = np.ones(self.states.shape[0], dtype=bool)
        else:
            self.validity = np.asarray(self.validity, dtype=bool)
        if not self.validity.any():
            raise ValueError("trajectory requires at least one valid step")

    @property
    def horizon(self) -> int:
        return self.states.shape[0]


@dataclass
class TrajectoryGMM:
    """K mode trajectories with per-step Gaussians and mode logits.

    ``means``: (K, T, 2); ``cov_params``: (K, T, 3); ``logits``: (K,).
    Fields may be numpy arrays (inference) or Tensors (training).
    """

    means: np.ndarray | Tensor
    cov_params: np.ndarray | Tensor
    logits: np.ndarray | Tensor
    anchor: Pose2 | None = None

    @property
    def num_modes(self) -> int:
        return _arr(self.means).shape[0]

    @property
    def horizon(self) -> int:
        return _arr(self.means).shape[1]

    def detach(self) -> "TrajectoryGMM":
        return TrajectoryGMM(
            means=_arr(self.means).copy(),
            cov_params=_arr(self.cov_params).copy(),
            logits=_arr(self.logits).copy(),
            anchor=self.anchor,
        )

    def weights(self) -> np.ndarray:
        return mode_weights(_arr(self.logits))


def _arr(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def mode_weights(logits) -> np.ndarray | Tensor:
    """Softmax mode confidences; stable under large logits."""
    if isinstance(logits, Tensor):
        return dc.softmax(logits, axis=-1)
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    ex = np.exp(logits - m)
    return ex / ex.sum()


def log_weights(logits) -> Tensor:
    """log softmax over mode logits (differentiable path for losses)."""
    logits = as_tensor(logits)
    return dc.sub(logits, dc.logsumexp(logits, axis=-1))


def gaussian2d_logpdf(residual, cov):
    """log N(residual | 0, Sigma) with Sigma from (log_sx, log_sy, rho_raw).

    ``residual``: (..., 2); ``cov``: (..., 3). Returns shape (...,).
    """
    tensor_mode = isinstance(residual, Tensor) or isinstance(cov, Tensor)
    residual, cov = as_tensor(residual), as_tensor(cov)
    if not np.all(np.isfinite(residual.data)) or not np.all(np.isfinite(cov.data)):
        raise ValueError("non-finite inputs to gaussian2d_logpdf")
    lead = residual.data.shape[:-1]
    r = dc.reshape(residual, (-1, 2))
    c = dc.reshape(cov, (-1, 3))
    dx = dc.slice_cols(r, 0, 1)
    dy = dc.slice_cols(r, 1, 2)
    lsx, lsy, rho = _cov_terms(c)
    inv_sx = dc.exp(-lsx)
    inv_sy = dc.exp(-lsy)
    ux = dx * inv_sx
    uy = dy * inv_sy
    one_m_r2 = (1.0 - rho) * (1.0 + rho)
    z = dc.square(ux) - 2.0 * rho * ux * uy + dc.square(uy)
    out = -LOG_2PI - lsx - lsy - 0.5 * dc.log(one_m_r2) - z / (2.0 * one_m_r2)
    out = dc.reshape(out, lead)
    return out if tensor_mode else out.data


def mode_loglik(gmm: TrajectoryGMM, k: int, traj: Trajectory):
    """Sum over valid steps of the per-step Gaussian log-density of mode k."""
    if not (0 <= k < gmm.num_modes):
        raise IndexError(f"mode index {k} out of range for K={gmm.num_modes}")
    if traj.horizon != gmm.horizon:
        raise ValueError(f"trajectory horizon {traj.horizon} != model horizon {gmm.horizon}")
    tensor_mode = isinstance(gmm.means, Tensor)
    means_k = dc.reshape(dc.gather(as_tensor(gmm.means), [k], axis=0), (gmm.horizon, 2))
    covs_k = dc.reshape(dc.gather(as_tensor(gmm.cov_params), [k], axis=0), (gmm.horizon, 3))
    valid_idx = np.flatnonzero(traj.validity)
    residual = dc.sub(traj.states[valid_idx], dc.gather(means_k, valid_idx, axis=0))
    logp = gaussian2d_logpdf(residual, dc.gather(covs_k, valid_idx, axis=0))
    out = dc.reduce_sum(logp)
    return out if tensor_mode else float(out.data)


def mode_loglik_t(gmm: TrajectoryGMM, k: int, traj: Trajectory) -> Tensor:
    res = mode_loglik(gmm, k, traj)
    return res if isinstance(res, Tensor) else Tensor(res)


def closest_mode(gmm: TrajectoryGMM, traj: Trajectory) -> int:
    """Mode minimizing mean per-valid-step displacement; ties -> lowest index."""
    means = _arr(gmm.means)
    valid = traj.validity
    diffs = means[:, valid, :] - traj.states[valid][None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=-1)).mean(axis=-1)
    return int(np.argmin(dists))


def sample(gmm: TrajectoryGMM, rng: np.random.Generator, mode_only: bool = True) -> Trajectory:
    """Draw one trajectory: k ~ Categorical(pi); optionally add per-step noise."""
    weights = gmm.weights()
    k = int(rng.choice(len(weights), p=weights))
    means = _arr(gmm.means)[k].copy()
    if mode_only:
        return Trajectory(states=means)
    cov = _arr(gmm.cov_params)[k]
    sx = np.exp(np.clip(cov[:, 0], LOG_SIGMA_MIN, LOG_SIGMA_MAX))
    sy = np.exp(np.clip(cov[:, 1], LOG_SIGMA_MIN, LOG_SIGMA_MAX))
    rho = np.tanh(cov[:, 2])
    z = rng.standard_normal((means.shape[0], 2))
    # Cholesky of [[sx^2, rho sx sy], [rho sx sy, sy^2]] applied per step
    means[:, 0] += sx * z[:, 0]
    means[:, 1] += sy * (rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1])
    return Trajectory(states=means)


def _cov_terms(cov):
    """Split (N, 3) cov params into exp/tanh-transformed tensors."""
    lsx = dc.slice_cols(cov, 0, 1)
    lsy = dc.slice_cols(cov, 1, 2)
    rho = dc.tanh(dc.slice_cols(cov, 2, 3))
    return lsx, lsy, rho


def gaussian_kl(mu_a, cov_a, mu_b, cov_b):
    """Closed-form KL(N_a || N_b) for 2-D Gaussians, vectorized over rows.

    ``mu_*``: (..., 2); ``cov_*``: (..., 3). Returns (...,).
    """
    tensor_mode = any(isinstance(x, Tensor) for x in (mu_a, cov_a, mu_b, cov_b))
    mu_a, cov_a = as_tensor(mu_a), as_tensor(cov_a)
    mu_b, cov_b = as_tensor(mu_b), as_tensor(cov_b)
    lead = mu_a.data.shape[:-1]
    ma = dc.reshape(mu_a, (-1, 2))
    mb = dc.reshape(mu_b, (-1, 2))
    ca = dc.reshape(cov_a, (-1, 3))
    cb = dc.reshape(cov_b, (-1, 3))

    lsxa, lsya, rhoa = _cov_terms(ca)
    lsxb, lsyb, rhob = _cov_terms(cb)
    one_m_ra2 = (1.0 - rhoa) * (1.0 + rhoa)
    one_m_rb2 = (1.0 - rhob) * (1.0 + rhob)

    # determinant guard on the target covariance
    det_b = np.exp(2.0 * _arr(lsxb) + 2.0 * _arr(lsyb)) * _arr(one_m_rb2)
    if np.any(det_b < 1e-12):
        raise ValueError("near-singular target covariance in gaussian_kl (det < 1e-12)")

    # ratios of standard deviations
    rxx = dc.exp(lsxa - lsxb)  # sxa / sxb
    ryy = dc.exp(lsya - lsyb)
    trace = (dc.square(rxx) - 2.0 * rhob * rhoa * rxx * ryy + dc.square(ryy)) / one_m_rb2

    dx = dc.slice_cols(ma, 0, 1) - dc.slice_cols(mb, 0, 1)
    dy = dc.slice_cols(ma, 1, 2) - dc.slice_cols(mb, 1, 2)
    ux = dx * dc.exp(-lsxb)
    uy = dy * dc.exp(-lsyb)
    maha = (dc.square(ux) - 2.0 * rhob * ux * uy + dc.square(uy)) / one_m_rb2

    log_det_ratio = 2.0 * (lsxb - lsxa) + 2.0 * (lsyb - lsya) + dc.log(one_m_rb2) - dc.log(one_m_ra2)
    out = 0.5 * (trace + maha - 2.0 + log_det_ratio)
    out = dc.reshape(out, lead)
    return out if tensor_mode else out.data
