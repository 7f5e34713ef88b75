"""Latency benchmarking and scaling-law fits for full-scene inference.

Timings use synthetic scenes with exactly (n agents, m road polylines),
3 warmup runs per size, then the median of >= 5 timed repetitions, taken
round-robin over the sizes. The harness is meant to run single-threaded:
the command line entry point pins the BLAS thread pools via environment
variables before numpy is imported; callers embedding this module should
do the same if they want comparable numbers.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import models as md
from .scenegen import AgentTrack, RoadPolyline, Scene, TrafficSignal

CSV_COLUMNS = ["model", "n_agents", "m_road", "median_s", "p10_s", "p90_s", "flops"]


@dataclass
class BenchPoint:
    model: str
    n_agents: int
    m_road: int
    median_s: float
    p10_s: float
    p90_s: float
    flops: int


def bench_scene(n_agents: int, m_road: int, rng: np.random.Generator, history_len: int = 10) -> Scene:
    """Synthetic scene with exactly n agents and m road polylines."""
    road = []
    for i in range(m_road):
        start = rng.uniform(-60, 60, 2)
        direction = rng.uniform(-1, 1, 2)
        direction /= max(np.linalg.norm(direction), 1e-6)
        pts = start + np.outer(np.linspace(0, 40, 10), direction)
        road.append(
            RoadPolyline(id=f"lane_{i}", kind="lane_center", points=pts, speed_limit_mps=12.0)
        )
    signals = [
        TrafficSignal(id=f"sig_{i}", position=rng.uniform(-10, 10, 2), states=["green"] * history_len)
        for i in range(4)
    ]
    agents = []
    for i in range(n_agents):
        pos = rng.uniform(-50, 50, 2)
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(2, 10)
        hist = np.zeros((history_len, 6))
        for t in range(history_len):
            back = (history_len - 1 - t) * 0.1
            hist[t, 0] = pos[0] - back * speed * math.cos(heading)
            hist[t, 1] = pos[1] - back * speed * math.sin(heading)
            hist[t, 2] = heading
            hist[t, 3] = speed * math.cos(heading)
            hist[t, 4] = speed * math.sin(heading)
            hist[t, 5] = 1.0
        agents.append(
            AgentTrack(id=f"agent_{i}", history=hist, future=None, is_prediction_target=True)
        )
    return Scene(
        scene_id=f"bench_n{n_agents}_m{m_road}", history_len=history_len, future_len=0,
        roadgraph=road, signals=signals, agents=agents,
    )


def run_bench(
    kind: str,
    params: md.ModelParams,
    sizes: list[tuple[int, int]],
    warmup: int = 3,
    reps: int = 5,
    seed: int = 0,
) -> list[BenchPoint]:
    """Median full-scene inference latency per (n_agents, m_road) size."""
    if reps < 5:
        raise ValueError("reps must be >= 5 for stable percentiles")
    if kind != params.kind:
        raise ValueError(f"model kind {kind!r} does not match the {params.kind} params")
    scenes = [bench_scene(n, m, np.random.default_rng(seed + 1000 * n + m)) for n, m in sizes]
    ids = [[a.id for a in scene.agents] for scene in scenes]
    for scene, scene_ids in zip(scenes, ids):
        for _ in range(warmup):
            md.predict_scene(scene, scene_ids, params)
    # round-robin: each repetition times every size once, so a drift in the
    # host's speed lands on all sizes alike instead of on one size's block
    samples = np.zeros((reps, len(sizes)))
    for r in range(reps):
        for j, (scene, scene_ids) in enumerate(zip(scenes, ids)):
            t0 = time.perf_counter()
            md.predict_scene(scene, scene_ids, params)
            samples[r, j] = time.perf_counter() - t0
    return [
        BenchPoint(
            model=kind, n_agents=n, m_road=m,
            median_s=float(np.median(samples[:, j])),
            p10_s=float(np.percentile(samples[:, j], 10)),
            p90_s=float(np.percentile(samples[:, j], 90)),
            flops=md.count_flops(kind, n, m, params.config),
        )
        for j, (n, m) in enumerate(sizes)
    ]


def fit_scaling(sizes: np.ndarray, times: np.ndarray, top_half: bool = True) -> tuple[float, float]:
    """Least-squares slope of log(time) vs log(size); returns (exponent, R^2).

    With ``top_half`` the fit uses only the upper half of the size range,
    where fixed per-call overhead no longer dominates.
    """
    sizes = np.asarray(sizes, dtype=float)
    times = np.asarray(times, dtype=float)
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) pairs")
    if np.any(sizes <= 0) or np.any(times <= 0):
        raise ValueError("sizes and times must be positive")
    order = np.argsort(sizes)
    sizes, times = sizes[order], times[order]
    if top_half and len(sizes) >= 4:
        lo = len(sizes) // 2
        sizes, times = sizes[lo:], times[lo:]
    x = np.log(sizes)
    y = np.log(times)
    slope, intercept = np.polyfit(x, y, 1)
    y_hat = slope * x + intercept
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def write_bench_csv(points: list[BenchPoint], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for p in points:
            row = asdict(p)
            for key in ("median_s", "p10_s", "p90_s"):
                row[key] = f"{row[key]:.6f}"
            writer.writerow({k: row[k] for k in CSV_COLUMNS})


def render_scaling_svg(points: list[BenchPoint], path: str) -> None:
    """Self-contained log-log latency-vs-agents plot, one polyline per model."""
    width, height, margin = 640, 420, 60
    by_model: dict[str, list[BenchPoint]] = {}
    for p in points:
        by_model.setdefault(p.model, []).append(p)
    xs = [p.n_agents for p in points]
    ys = [max(p.median_s, 1e-9) for p in points]
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    lx1 = lx1 if lx1 > lx0 else lx0 + 1.0
    ly1 = ly1 if ly1 > ly0 else ly0 + 1.0

    def px(n):
        return margin + (math.log10(n) - lx0) / (lx1 - lx0) * (width - 2 * margin)

    def py(t):
        return height - margin - (math.log10(max(t, 1e-9)) - ly0) / (ly1 - ly0) * (height - 2 * margin)

    colors = {"teacher": "#c0392b", "student": "#2980b9"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle" font-size="13">agents (log)</text>',
        f'<text x="18" y="{height / 2}" font-size="13" transform="rotate(-90 18 {height / 2})" text-anchor="middle">median latency s (log)</text>',
    ]
    for i, (model, pts) in enumerate(sorted(by_model.items())):
        pts = sorted(pts, key=lambda p: p.n_agents)
        color = colors.get(model, "#555")
        coords = " ".join(f"{px(p.n_agents):.1f},{py(p.median_s):.1f}" for p in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for p in pts:
            parts.append(f'<circle cx="{px(p.n_agents):.1f}" cy="{py(p.median_s):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin - 120}" y="{margin + 18 * i}" font-size="13" fill="{color}">{model}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
