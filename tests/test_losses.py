"""Training loss arithmetic and gradients."""

import numpy as np
import pytest

from mocorr.errors import InvalidInputError
from mocorr.net.losses import (
    QUAT_NORM_WEIGHT,
    loss_adv,
    loss_adv_grad,
    loss_disc,
    loss_disc_grad,
    loss_sv,
    loss_sv_grad,
)
from oracles import central_diff, grad_check


def unit_quat_seq(rng, t, n_joints):
    q = rng.normal(size=(t, n_joints, 4))
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    return q.reshape(t, 4 * n_joints)


def test_sv_zero_at_reference_with_unit_rows():
    rng = np.random.default_rng(0)
    seq = unit_quat_seq(rng, 6, 3)
    # Rows are unit only to machine precision, so the norm penalty leaves
    # a ~1e-37 residue rather than an exact zero.
    assert loss_sv(seq, seq) <= 1e-30


def test_sv_hand_arithmetic():
    # Single frame, one joint: pred (2,0,0,0) vs ref itself. Norm deviation
    # (2-1)^2 = 1 weighted by 1e-5; the data term vanishes.
    pred = np.array([[[2.0, 0.0, 0.0, 0.0]]])
    assert abs(loss_sv(pred, pred) - 1e-5) <= 1e-12

    # T=2, one joint: data term sum of squared diffs, unit rows in pred.
    pred = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    ref = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 1.0, 0.2, 0.0]])
    expect = (0.1 ** 2 + 0.1 ** 2) + 0.2 ** 2
    assert abs(loss_sv(pred, ref) - expect) <= 1e-12

    # Norm penalty on a non-unit row combines with the data term.
    pred = np.array([[3.0, 0.0, 0.0, 4.0]])  # norm 5
    ref = np.array([[3.0, 0.0, 0.0, 3.0]])
    expect = 1.0 + QUAT_NORM_WEIGHT * (5.0 - 1.0) ** 2
    assert abs(loss_sv(pred, ref) - expect) <= 1e-12


def test_sv_batch_mean_reduction():
    rng = np.random.default_rng(1)
    pred = unit_quat_seq(rng, 5, 2)
    ref = unit_quat_seq(rng, 5, 2)
    single = loss_sv(pred, ref)
    stacked = loss_sv(np.stack([pred, pred]), np.stack([ref, ref]))
    assert abs(stacked - single) <= 1e-12

    other_pred = unit_quat_seq(rng, 5, 2)
    other_ref = unit_quat_seq(rng, 5, 2)
    mixed = loss_sv(np.stack([pred, other_pred]), np.stack([ref, other_ref]))
    mean = 0.5 * (single + loss_sv(other_pred, other_ref))
    assert abs(mixed - mean) <= 1e-12


def test_sv_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(2, 3, 8))
    ref = rng.normal(size=(2, 3, 8))
    _, grad = loss_sv_grad(pred, ref)

    def f(vec):
        return np.array([loss_sv(vec.reshape(pred.shape), ref)])

    fd = central_diff(f, pred.ravel(), 1e-6).reshape(pred.shape)
    assert grad_check(grad, fd) < 1e-6


def test_sv_norm_penalty_gradient_vanishes_on_unit_rows():
    rng = np.random.default_rng(3)
    pred = unit_quat_seq(rng, 4, 2)
    ref = rng.normal(size=pred.shape)
    _, g_full = loss_sv_grad(pred, ref)
    g_data = 2.0 * (pred - ref)  # the data term's gradient, batch of one
    assert np.allclose(g_full[0], g_data, atol=1e-15)


def test_sv_shape_mismatch_and_bad_width():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        loss_sv(rng.normal(size=(2, 8)), rng.normal(size=(3, 8)))
    with pytest.raises(InvalidInputError):
        loss_sv(rng.normal(size=(2, 6)), rng.normal(size=(2, 6)))
    with pytest.raises(InvalidInputError):
        loss_sv(rng.normal(size=(8,)), rng.normal(size=(8,)))


def test_adv_hand_arithmetic():
    assert loss_adv(np.array([1.0])) == 0.0
    assert abs(loss_adv(np.array([0.3])) - 0.49) <= 1e-12
    assert abs(loss_adv(np.array([0.0, 1.0])) - 0.5) <= 1e-12


def test_disc_hand_arithmetic():
    assert loss_disc(np.array([1.0]), np.array([0.0])) == 0.0
    assert abs(loss_disc(np.array([0.5]), np.array([0.5])) - 0.5) <= 1e-12
    expect = 0.5 * (0.2 ** 2 + 0.4 ** 2) + 0.5 * (0.1 ** 2 + 0.3 ** 2)
    assert abs(loss_disc(np.array([0.8, 0.6]), np.array([0.1, 0.3])) - expect) <= 1e-12


def test_grid_scan_minimizers():
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
    disc_vals = np.array([[loss_disc(np.array([r]), np.array([f]))
                           for f in grid] for r in grid])
    ri, fi = np.unravel_index(np.argmin(disc_vals), disc_vals.shape)
    assert grid[ri] == 1.0 and grid[fi] == 0.0

    adv_vals = np.array([loss_adv(np.array([f])) for f in grid])
    assert grid[np.argmin(adv_vals)] == 1.0


def test_adv_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    d_fake = rng.uniform(0.05, 0.95, 7)
    _, grad = loss_adv_grad(d_fake)

    def f(v):
        return np.array([loss_adv(v)])

    fd = central_diff(f, d_fake, 1e-6).ravel()
    assert grad_check(grad, fd) < 1e-7


def test_disc_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    d_real = rng.uniform(0.05, 0.95, 5)
    d_fake = rng.uniform(0.05, 0.95, 4)
    _, g_real, g_fake = loss_disc_grad(d_real, d_fake)

    fd_real = central_diff(
        lambda v: np.array([loss_disc(v, d_fake)]), d_real, 1e-6).ravel()
    fd_fake = central_diff(
        lambda v: np.array([loss_disc(d_real, v)]), d_fake, 1e-6).ravel()
    assert grad_check(g_real, fd_real) < 1e-7
    assert grad_check(g_fake, fd_fake) < 1e-7
