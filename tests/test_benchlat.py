"""Tests for the latency benchmark and scaling fits.

Oracles: exponent fits checked on synthetic power-law timing data with known
exponents; CSV content re-parsed and compared to the points.
"""

import csv

import numpy as np
import pytest

from trajdistill import benchlat as bl
from trajdistill import models as md


def test_fit_scaling_quadratic():
    n = np.array([4, 8, 16, 32, 64, 128])
    t = 3e-6 * n.astype(float) ** 2
    slope, r2 = bl.fit_scaling(n, t)
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_scaling_linear_with_noise():
    rng = np.random.default_rng(0)
    n = np.array([4, 8, 16, 32, 64, 128])
    t = 5e-5 * n * np.exp(rng.normal(0, 0.02, len(n)))
    slope, r2 = bl.fit_scaling(n, t)
    assert slope == pytest.approx(1.0, abs=0.1)
    assert r2 > 0.95


def test_fit_scaling_constant():
    n = np.array([4.0, 8, 16, 32])
    t = np.full(4, 1e-3)
    slope, r2 = bl.fit_scaling(n, t)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_top_half_ignores_overhead():
    """Constant overhead flattens small sizes; the top-half fit recovers the
    true exponent anyway."""
    n = np.array([2, 4, 8, 16, 64, 256, 1024, 4096], dtype=float)
    t = 1e-3 + 1e-6 * n**2  # overhead dominates below n ~ 32
    slope_full, _ = bl.fit_scaling(n, t, top_half=False)
    slope_top, _ = bl.fit_scaling(n, t, top_half=True)
    assert slope_top > slope_full
    assert slope_top == pytest.approx(2.0, abs=0.1)


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        bl.fit_scaling([1.0], [2.0])
    with pytest.raises(ValueError):
        bl.fit_scaling([1.0, 2.0], [0.0, 1.0])


def test_bench_scene_exact_sizes():
    scene = bl.bench_scene(7, 5, np.random.default_rng(0))
    assert len(scene.agents) == 7
    assert len(scene.roadgraph) == 5
    assert all(a.history.shape == (10, 6) for a in scene.agents)
    assert all(a.history[-1, 5] == 1.0 for a in scene.agents)


def test_run_bench_points_and_csv(tmp_path):
    params = md.init_params(md.TeacherConfig(hidden=16), np.random.default_rng(0))
    sizes = [(2, 4), (4, 4)]
    points = bl.run_bench("teacher", params, sizes, warmup=1, reps=5)
    assert len(points) == 2
    for p, (n, m) in zip(points, sizes):
        assert (p.n_agents, p.m_road) == (n, m)
        assert 0 < p.p10_s <= p.median_s <= p.p90_s
        assert p.flops == md.count_flops("teacher", n, m, params.config)
    path = tmp_path / "bench.csv"
    bl.write_bench_csv(points, str(path))
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 2
    assert rows[0]["model"] == "teacher"
    assert int(rows[1]["n_agents"]) == 4
    assert float(rows[0]["median_s"]) == pytest.approx(points[0].median_s, abs=1e-6)


def test_run_bench_validation():
    params = md.init_params(md.TeacherConfig(hidden=16), np.random.default_rng(0))
    with pytest.raises(ValueError, match="reps"):
        bl.run_bench("teacher", params, [(2, 2)], reps=3)
    with pytest.raises(ValueError, match="kind"):
        bl.run_bench("oracle", params, [(2, 2)])


def test_render_svg_self_contained(tmp_path):
    params = md.init_params(md.TeacherConfig(hidden=16), np.random.default_rng(0))
    points = bl.run_bench("teacher", params, [(2, 4), (4, 4)], warmup=1, reps=5)
    path = tmp_path / "scaling.svg"
    bl.render_scaling_svg(points, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")  # no external refs


def test_run_bench_student_with_off_grid_agents():
    """Agents off the student grid are skipped, not an error."""
    cfg = md.StudentConfig(grid_h=16, grid_w=16, cell_size=4.0, pillar_embed=8, conv_channels=(8,), hidden=16)
    params = md.init_params(cfg, np.random.default_rng(0))
    scene = bl.bench_scene(8, 4, np.random.default_rng(0 + 1000 * 8 + 4))  # run_bench's scene
    ids = [a.id for a in scene.agents]
    kept, _ = md.student_decode(md.student_forward_scene(scene, params), scene, ids, params)
    assert 0 < len(kept) < len(ids)
    points = bl.run_bench("student", params, [(8, 4)], warmup=1, reps=5)
    assert len(points) == 1
    assert 0 < points[0].p10_s <= points[0].median_s <= points[0].p90_s
