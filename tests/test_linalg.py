import math

import numpy as np
import pytest

from neural_couplings.linalg import glorot_like_init, make_rng
from neural_couplings.models import Arch, ModelParams, forward
from neural_couplings.nca import compositional_objective, shifted_layers, student_objective


def test_glorot_like_init_scale_and_determinism():
    a = glorot_like_init(make_rng(9), 200, 200, 4)
    b = glorot_like_init(make_rng(9), 200, 200, 4)
    assert a.shape == (200, 200)
    assert np.array_equal(a, b)
    # std of standard normal scaled by sqrt(1/4) = 0.5
    assert abs(a.std() - math.sqrt(1 / 4)) < 0.02
    # n=1 leaves the standard normal unscaled
    assert abs(glorot_like_init(make_rng(9), 200, 200, 1).std() - 1.0) < 0.04


def test_glorot_like_init_rejects_bad_n():
    with pytest.raises(ValueError):
        glorot_like_init(make_rng(0), 2, 2, 0)


# The element-wise rules below are written inline as numpy operators in the
# pipeline; each test pins one rule through the code that applies it.


def _dae(w1, b2=0.0):
    return ModelParams(
        Arch.dae(), [(np.array([[w1]]), np.zeros((1, 1))), (np.ones((1, 1)), np.array([[b2]]))], 1
    )


def test_relu_clips_negatives_only():
    x = np.array([[-1.0, 0.0, 2.5]])
    assert forward(_dae(1.0), x)[1].tolist() == [[0.0, 0.0, 2.5]]
    # the compositional gate: with W1 = 1 and b1 = -2 the first gate's
    # pre-activation is -P1, and W2 = 1, b2 = 0, P2 = 1 leave C = G1
    one = np.ones((1, 1))
    p = ModelParams(Arch.dae(), [(one, np.array([[-2.0]])), (one, np.zeros((1, 1)))], 1)
    gates = [
        compositional_objective(np.array([[[p1]], one]), shifted_layers(p.layers), one, one, one,
                                loss_only=True)[0]
        for p1 in (1.0, 0.0, -2.5)
    ]
    assert [g.tolist() for g in gates] == [[[0.0]], [[0.0]], [[2.5]]]


def test_relu_deriv_is_zero_at_zero(backward_grads):
    # decoder bias 1 keeps the output layer active, so only the encoder's
    # relu'(pre) decides whether the encoder bias gets a gradient
    p = _dae(1.0, b2=1.0)
    out = []
    for v in (-1.0, 0.0, 2.5):
        out.append(backward_grads(p, forward(p, [[v]]), [[0.0]])[0][1][0, 0])
    # d/db1 at 2.5: 2 * (2.5 + 1 - 0) * relu'(2.5) = 7
    assert out == [0.0, 0.0, 7.0]


def test_signum_maps_zero_to_zero():
    y = np.array([[3.0, 0.0, -4.0]] * 3)
    _, g = student_objective(np.zeros((3, 3)), np.eye(3), np.eye(3), y)
    assert g.tolist() == [[-1.0, 0.0, 1.0]] * 3


def test_kernels_do_not_mutate_inputs(backward_grads):
    a = np.array([[-1.0, 2.0], [3.0, -4.0]])
    b = np.array([[0.5], [-0.5]])
    before = (a.copy(), b.copy())
    p = ModelParams(Arch.dae(), [(a, b), (a, b)], 2)
    backward_grads(p, forward(p, a), a)
    # a.T, a view, would show a write to X^T as a change of a
    compositional_objective([a, a], shifted_layers(p.layers), a, a.T, a)
    student_objective(a, a, a.T, a)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])
