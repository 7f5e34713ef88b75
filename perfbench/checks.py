"""Correctness checks made apart from the program.

Each ``check_*`` function returns a list of failure messages; an empty list
means the check passed. The recomputations here use numpy directly on the
program's outputs and never call the program's metric or loss code, so a
fault there cannot hide itself.
"""

from __future__ import annotations

import copy
import csv
import math
from typing import Callable, Sequence

import numpy as np

GRAD_REL_BOUND = 1e-4  # diffcore.grad_check's bound
CSV_TOL = 1e-6  # the CSV carries six decimals
METRIC_TOL = 1e-9
EQUIV_MEANS_TOL = 1e-5  # metres
EQUIV_WEIGHTS_TOL = 1e-6
BATCH_TOL = 1e-9
# forward and backward differences agree this well where the loss is
# smooth; a kink they miss moves the central difference by under half of it
KINK_TOL = 1e-4


def _data(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def gmm_arrays(preds: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Stack mixture predictions into means (N, K, T, 2) and weights (N, K)."""
    means = np.stack([_data(p.means) for p in preds])
    logits = np.stack([_data(p.logits) for p in preds])
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    return means, ex / ex.sum(axis=1, keepdims=True)


def agent_frame_future(history: np.ndarray, future: np.ndarray) -> np.ndarray:
    """The future (T, 2) expressed in the frame of the last history row."""
    x, y, h = history[-1, :3]
    c, s = math.cos(h), math.sin(h)
    d = future - np.array([x, y])
    return np.stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1]], axis=1)


def displacement_metrics(means: np.ndarray, weights: np.ndarray, gts: np.ndarray, k: int) -> dict:
    """Mean minADE, minFDE (over the top-k modes by weight) and wADE.

    ``means`` (N, K, T, 2), ``weights`` (N, K), ``gts`` (N, T, 2); every
    groundtruth step counts as observed.
    """
    n = weights.shape[0]
    # top-k by weight, ties to the lower mode index
    order = np.argsort(-weights, axis=1, kind="stable")[:, :k]
    dist = np.linalg.norm(means - gts[:, None], axis=-1)  # (N, K, T)
    ade = dist.mean(axis=-1)
    fde = dist[..., -1]
    rows = np.arange(n)[:, None]
    return {
        "min_ade": float(ade[rows, order].min(axis=1).mean()),
        "min_fde": float(fde[rows, order].min(axis=1).mean()),
        "w_ade": float((weights * ade).sum(axis=1).mean()),
    }


def check_close(label: str, got: float, want: float, tol: float) -> list[str]:
    if not (abs(got - want) <= tol):
        return [f"{label}: program gives {got!r}, recomputed {want!r} (tolerance {tol:g})"]
    return []


def check_min_ade(label: str, reported: float, preds: Sequence, gts: np.ndarray, k: int) -> list[str]:
    """The program's minADE equals the recomputation from its predictions."""
    means, weights = gmm_arrays(preds)
    want = displacement_metrics(means, weights, gts, k)["min_ade"]
    return check_close(label, reported, want, METRIC_TOL)


def read_metrics_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one report row, found {len(rows)}")
    return rows[0]


def check_eval_csv(label: str, row: dict, preds: Sequence, gts: np.ndarray, n_targets: int, k: int) -> list[str]:
    """minADE, minFDE and wADE of the CSV row against the recomputation from
    the checkpoint's predictions, and the agent count against the dataset."""
    failures = []
    if int(row["n_agents"]) != n_targets:
        failures.append(f"{label}: CSV n_agents {row['n_agents']} != {n_targets} prediction targets")
    means, weights = gmm_arrays(preds)
    want = displacement_metrics(means, weights, gts, k)
    for col, key in (("minADE", "min_ade"), ("minFDE", "min_fde"), ("wADE", "w_ade")):
        failures += check_close(f"{label} {col}", float(row[col]), want[key], CSV_TOL)
    return failures


def grad_rel_error(
    loss: Callable[[], float], param: np.ndarray, analytic: float, idx: tuple, h: float = 1e-6
) -> float | None:
    """Relative error of ``analytic`` against the central difference of
    ``loss`` in ``param[idx]``, as in ``diffcore.grad_check``:
    |a - n| / max(1e-8, |a| + |n|). ``param`` is perturbed in place and
    restored.

    Returns None where the loss has a kink within h of the point (a ReLU or
    clamp boundary, a max-pool tie), which shows as forward and backward
    differences that disagree; no difference quotient measures the gradient
    there.
    """
    orig = param[idx]
    try:
        f0 = loss()
        param[idx] = orig + h
        fp = loss()
        param[idx] = orig - h
        fm = loss()
    finally:
        param[idx] = orig
    fwd, bwd = (fp - f0) / h, (f0 - fm) / h
    if abs(fwd - bwd) > KINK_TOL * (abs(fwd) + abs(bwd)):
        return None
    num = (fp - fm) / (2.0 * h)
    return abs(analytic - num) / max(1e-8, abs(analytic) + abs(num))


def check_grad(label: str, errs: Sequence[float], wanted: int) -> list[str]:
    worst = max(errs) if errs else 0.0
    if len(errs) < wanted:
        return [f"{label}: only {len(errs)} of {wanted} gradient coordinates lie where the loss is smooth"]
    if worst > GRAD_REL_BOUND:
        return [f"{label}: gradient relative error {worst:.3g} over {len(errs)} coordinates "
                f"exceeds {GRAD_REL_BOUND:g}"]
    return []


def check_loss_decreased(label: str, before: float, after: float) -> list[str]:
    """Training lowers the mean loss over the training scenes."""
    if not after < before:
        return [f"{label}: training took the mean loss over its scenes from {before:.6f} to {after:.6f}"]
    return []


def check_identical(label: str, first, other) -> list[str]:
    if first != other:
        return [f"{label}: a rerun of the same round gave different results"]
    return []


# ---------------------------------------------------------------------------
# rigid motion of a whole scene


def rigid(theta: float, tx: float, ty: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]]), np.array([tx, ty])


def move_scene(scene, theta: float, tx: float, ty: float):
    """A copy of ``scene`` rotated by ``theta`` about the origin, then
    translated by (tx, ty): road, signals, histories and futures."""
    rot, t = rigid(theta, tx, ty)
    out = copy.deepcopy(scene)
    for poly in out.roadgraph:
        poly.points = poly.points @ rot.T + t
    for sig in out.signals:
        sig.position = rot @ sig.position + t
    for agent in out.agents:
        hist = agent.history
        hist[:, :2] = hist[:, :2] @ rot.T + t
        hist[:, 2] = np.angle(np.exp(1j * (hist[:, 2] + theta)))
        hist[:, 3:5] = hist[:, 3:5] @ rot.T
        if agent.future is not None:
            agent.future = agent.future @ rot.T + t
    return out


def world_means(pred) -> np.ndarray:
    """Agent-frame mode means (K, T, 2) mapped to the world by the anchor."""
    a = pred.anchor
    rot, t = rigid(a.heading, a.x, a.y)
    return _data(pred.means) @ rot.T + t


def check_equivariance(label: str, original: Sequence, moved: Sequence, theta: float, tx: float, ty: float) -> list[str]:
    """Predictions on the moved scene are the moved predictions: world-frame
    means move with the scene, mode weights do not change."""
    rot, t = rigid(theta, tx, ty)
    worst_m = worst_w = 0.0
    for p0, p1 in zip(original, moved):
        worst_m = max(worst_m, float(np.abs(world_means(p0) @ rot.T + t - world_means(p1)).max()))
        worst_w = max(worst_w, float(np.abs(p0.weights() - p1.weights()).max()))
    failures = []
    if not worst_m <= EQUIV_MEANS_TOL:
        failures.append(f"{label}: means moved {worst_m:.3g} m off the rigid motion")
    if not worst_w <= EQUIV_WEIGHTS_TOL:
        failures.append(f"{label}: mode weights changed by {worst_w:.3g} under rigid motion")
    return failures


def check_same_prediction(label: str, alone, batched) -> list[str]:
    """One agent's prediction decoded alone equals its batched decode."""
    worst = max(
        float(np.abs(_data(getattr(alone, f)) - _data(getattr(batched, f))).max())
        for f in ("means", "cov_params", "logits")
    )
    if not worst <= BATCH_TOL:
        return [f"{label}: alone and batched decodes differ by {worst:.3g}"]
    return []


def usable(pred) -> bool:
    """A prediction is there and its means and logits are finite."""
    return pred is not None and bool(np.isfinite(_data(pred.means)).all() and np.isfinite(_data(pred.logits)).all())


def check_weights_sum(label: str, preds: Sequence) -> list[str]:
    """The program's mode weights of every prediction sum to 1."""
    worst = max((abs(float(np.sum(p.weights())) - 1.0) for p in preds), default=0.0)
    if not worst <= 1e-9:
        return [f"{label}: mode weights sum to 1 within {worst:.3g} only"]
    return []
