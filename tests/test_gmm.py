import math

import numpy as np
import pytest

from trajdistill import diffcore as dc
from trajdistill import gmm as gm
from trajdistill.diffcore import Tensor, grad_check
from trajdistill.gmm import Trajectory, TrajectoryGMM

LOG_2PI = math.log(2 * math.pi)
UNIT_COV = np.zeros(3)  # log_sx = log_sy = 0, rho_raw = 0 -> identity covariance


def cov_to_matrix(cov):
    sx, sy = np.exp(cov[0]), np.exp(cov[1])
    rho = np.tanh(cov[2])
    return np.array([[sx**2, rho * sx * sy], [rho * sx * sy, sy**2]])


def logpdf_oracle(residual, cov):
    """Independent evaluation via explicit matrix inverse and determinant."""
    sigma = cov_to_matrix(cov)
    inv = np.linalg.inv(sigma)
    det = np.linalg.det(sigma)
    r = np.asarray(residual)
    return float(-LOG_2PI - 0.5 * math.log(det) - 0.5 * r @ inv @ r)


def make_gmm(rng, k=3, t=4, spread=5.0):
    return TrajectoryGMM(
        means=rng.uniform(-spread, spread, (k, t, 2)),
        cov_params=np.stack(
            [rng.uniform(-1, 1, (k, t)), rng.uniform(-1, 1, (k, t)), rng.uniform(-1.5, 1.5, (k, t))], axis=-1
        ),
        logits=rng.standard_normal(k),
    )


def test_logpdf_standard_normal_at_zero():
    assert np.isclose(gm.gaussian2d_logpdf(np.zeros(2), UNIT_COV), -LOG_2PI)
    assert np.isclose(float(gm.gaussian2d_logpdf(np.zeros(2), UNIT_COV)), -1.8378771, atol=1e-6)


def test_logpdf_unit_offset():
    assert np.isclose(float(gm.gaussian2d_logpdf(np.array([1.0, 0.0]), UNIT_COV)), -LOG_2PI - 0.5)


def test_logpdf_matches_matrix_oracle():
    cov = np.array([math.log(0.5), math.log(2.0), np.arctanh(0.5)])
    res = np.array([0.3, -0.2])
    assert np.isclose(float(gm.gaussian2d_logpdf(res, cov)), logpdf_oracle(res, cov), atol=1e-12)
    rng = np.random.default_rng(99)
    for _ in range(50):
        cov = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)])
        res = rng.uniform(-3, 3, 2)
        assert np.isclose(float(gm.gaussian2d_logpdf(res, cov)), logpdf_oracle(res, cov), atol=1e-10)


def test_logpdf_monte_carlo_normalization():
    # density integrates to one: check E over a broad proposal on 20 param sets
    rng = np.random.default_rng(4)
    for _ in range(20):
        cov = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)])
        sigma = cov_to_matrix(cov)
        n = 10**6
        samples = rng.multivariate_normal(np.zeros(2), sigma, size=n)
        logp = gm.gaussian2d_logpdf(samples, np.broadcast_to(cov, (n, 3)).copy())
        # E[-logp] should equal differential entropy = 1 + ln(2 pi) + 0.5 ln det
        entropy = 1.0 + LOG_2PI + 0.5 * math.log(np.linalg.det(sigma))
        se = np.std(-logp) / math.sqrt(n)
        assert abs(float(np.mean(-logp)) - entropy) < 3 * se + 1e-6


def test_mode_weights():
    assert np.allclose(gm.mode_weights(np.zeros(3)), [1 / 3] * 3)
    assert np.allclose(gm.mode_weights(np.array([math.log(2), 0.0])), [2 / 3, 1 / 3])
    rng = np.random.default_rng(1)
    z = rng.standard_normal(5)
    assert np.max(np.abs(gm.mode_weights(z) - gm.mode_weights(z + 123.0))) < 1e-12


def test_mode_loglik_trivial_and_oracle():
    t = 3
    g = TrajectoryGMM(means=np.zeros((1, t, 2)), cov_params=np.zeros((1, t, 3)), logits=np.zeros(1))
    traj = Trajectory(states=np.zeros((t, 2)))
    assert np.isclose(gm.mode_loglik(g, 0, traj), -3 * LOG_2PI)

    traj2 = Trajectory(states=np.array([[1.0, 0.0], [9, 9], [9, 9]]), validity=[True, False, False])
    assert np.isclose(gm.mode_loglik(g, 0, traj2), -LOG_2PI - 0.5)

    rng = np.random.default_rng(12)
    g2 = make_gmm(rng)
    traj3 = Trajectory(states=rng.uniform(-5, 5, (4, 2)), validity=[True, True, False, True])
    expected = sum(
        logpdf_oracle(traj3.states[i] - g2.means[1, i], g2.cov_params[1, i]) for i in [0, 1, 3]
    )
    assert np.isclose(gm.mode_loglik(g2, 1, traj3), expected, atol=1e-10)

    with pytest.raises(IndexError):
        gm.mode_loglik(g2, 7, traj3)


def test_closest_mode():
    t = 4
    traj = Trajectory(states=np.cumsum(np.ones((t, 2)), axis=0))
    means = np.stack([traj.states + 3.0, traj.states], axis=0)[None].squeeze(0)
    g = TrajectoryGMM(means=means, cov_params=np.zeros((2, t, 3)), logits=np.zeros(2))
    assert gm.closest_mode(g, traj) == 1

    # equidistant -> lowest index wins
    means2 = np.stack([traj.states + [1, 0], traj.states - [1, 0]], axis=0)
    g2 = TrajectoryGMM(means=means2, cov_params=np.zeros((2, t, 3)), logits=np.zeros(2))
    assert gm.closest_mode(g2, traj) == 0

    rng = np.random.default_rng(5)
    for _ in range(100):
        g3 = make_gmm(rng, k=6, t=16)
        traj3 = Trajectory(states=rng.uniform(-5, 5, (16, 2)))
        dists = [np.linalg.norm(g3.means[k] - traj3.states, axis=-1).mean() for k in range(6)]
        assert gm.closest_mode(g3, traj3) == int(np.argmin(dists))


def test_sample_deterministic_and_one_hot():
    rng = np.random.default_rng(2)
    g = make_gmm(rng, k=2)
    g.logits = np.array([100.0, -100.0])
    out = gm.sample(g, np.random.default_rng(0), mode_only=True)
    assert np.array_equal(out.states, g.means[0])

    s1 = gm.sample(g, np.random.default_rng(7), mode_only=False)
    s2 = gm.sample(g, np.random.default_rng(7), mode_only=False)
    assert np.array_equal(s1.states, s2.states)


def test_sample_mode_frequencies():
    rng = np.random.default_rng(3)
    g = make_gmm(rng, k=3, t=1)
    # make modes distinguishable by first coordinate
    g.means[:, 0, 0] = [0.0, 100.0, 200.0]
    w = g.weights()
    n = 10**5
    draw_rng = np.random.default_rng(11)
    counts = np.zeros(3)
    for _ in range(n):
        s = gm.sample(g, draw_rng, mode_only=True)
        counts[int(np.round(s.states[0, 0] / 100.0))] += 1
    freq = counts / n
    for k in range(3):
        assert abs(freq[k] - w[k]) <= 3 * math.sqrt(w[k] * (1 - w[k]) / n)


def test_sample_noise_mean():
    g = TrajectoryGMM(
        means=np.array([[[2.0, -1.0]]]), cov_params=np.array([[[0.2, -0.3, 0.5]]]), logits=np.zeros(1)
    )
    n = 10**5
    draw_rng = np.random.default_rng(21)
    states = np.array([gm.sample(g, draw_rng, mode_only=False).states[0] for _ in range(n)])
    sig = np.exp([0.2, -0.3])
    for d in range(2):
        assert abs(states[:, d].mean() - g.means[0, 0, d]) < 4 * sig[d] / math.sqrt(n)


def test_gaussian_kl_trivial():
    assert np.isclose(float(gm.gaussian_kl(np.zeros(2), UNIT_COV, np.zeros(2), UNIT_COV)), 0.0, atol=1e-12)
    assert np.isclose(float(gm.gaussian_kl(np.zeros(2), UNIT_COV, np.array([1.0, 0.0]), UNIT_COV)), 0.5)


def test_gaussian_kl_monte_carlo():
    rng = np.random.default_rng(17)
    n = 10**6
    for _ in range(20):
        cov_a = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)])
        cov_b = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)])
        mu_a, mu_b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        kl = float(gm.gaussian_kl(mu_a, cov_a, mu_b, cov_b))
        assert kl >= 0.0
        samples = rng.multivariate_normal(mu_a, cov_to_matrix(cov_a), size=n)
        la = gm.gaussian2d_logpdf(samples - mu_a, np.broadcast_to(cov_a, (n, 3)).copy())
        lb = gm.gaussian2d_logpdf(samples - mu_b, np.broadcast_to(cov_b, (n, 3)).copy())
        diff = la - lb
        se = float(np.std(diff)) / math.sqrt(n)
        assert abs(kl - float(np.mean(diff))) < 3 * se


def test_gaussian_kl_near_singular_rejected():
    bad = np.array([-7.0, -7.0, 0.0])  # below the clamp floor -> tiny determinant
    with pytest.raises(ValueError):
        gm.gaussian_kl(np.zeros(2), UNIT_COV, np.zeros(2), bad)


def test_logpdf_and_kl_gradcheck():
    rng = np.random.default_rng(6)
    for _ in range(20):
        res0 = rng.uniform(-2, 2, 2)
        cov0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)])

        def f_res(x):
            return dc.reshape(gm.gaussian2d_logpdf(x, Tensor(cov0)), ())

        def f_cov(c):
            return dc.reshape(gm.gaussian2d_logpdf(Tensor(res0), c), ())

        assert grad_check(f_res, res0) <= 1e-4
        assert grad_check(f_cov, cov0) <= 1e-4

        mu_b0 = rng.uniform(-1, 1, 2)
        cov_b0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)])

        def f_kl(x):
            mu = dc.slice_cols(dc.reshape(x, (1, 5)), 0, 2)
            cv = dc.slice_cols(dc.reshape(x, (1, 5)), 2, 5)
            return dc.reshape(gm.gaussian_kl(mu, cv, Tensor(mu_b0[None]), Tensor(cov_b0[None])), ())

        assert grad_check(f_kl, np.concatenate([res0, cov0])) <= 1e-4
