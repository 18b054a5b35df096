import tracemalloc

import numpy as np
import pytest

from neural_couplings import nca, serial
from neural_couplings.linalg import glorot_like_init, make_rng
from neural_couplings.models import FAMILIES, ModelParams, forward, init_params, model_output
from neural_couplings.nca import (
    STRATEGIES,
    NcaConfig,
    NcaError,
    compositional_objective,
    fit_couplings,
    load_couplings,
    run_nca,
    save_couplings,
    shifted_layers,
    student_objective,
)
from neural_couplings.training import Adam


def window(x, y):
    """X, X^T in C order and Y, the arrays the objectives take; run_nca
    forms X^T once per run."""
    return x, x.T.copy(), y


def batch(x, y):
    return window(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def l1(r):
    """The L1 loss of a residual as the objectives take it: sign(R) . R."""
    return float(np.dot(np.sign(r).ravel(), r.ravel()))


def target(params, x):
    """X and Y as run_nca probes them: the first and last activations."""
    acts = forward(params, x)
    return acts[0], acts[-1]


def single(*arrays):
    """The arrays rounded to float32, as run_nca rounds its inputs."""
    return tuple(a.astype(np.float32) for a in arrays)


def single_params(params):
    """The model with its weights rounded to float32."""
    return ModelParams(params.tag, [single(w, b) for w, b in params.layers])


def gate(p, w, b):
    """Reference gate, G = relu(P (W + b)^T), out of place."""
    return np.maximum(p @ (w + b.T).T, 0.0)


def with_biases(params, seed):
    """params with every bias drawn non-zero: with b = 0 the shifted weights
    W + b^T equal W, and a gradient that used W in their place would pass."""
    rng = make_rng([70, seed])
    layers = [(w, rng.normal(0.0, 0.5, b.shape)) for w, b in params.layers]
    return ModelParams(params.tag, layers)


def positive_params(tag, n, seed, lo=0.05, hi=0.3, count=None):
    """All-positive weights and zero biases keep every relu active on
    positive inputs, which makes hand reasoning exact. count layers, by
    default as many as init_params builds for tag."""
    rng = make_rng(seed)
    layers = [
        (rng.uniform(lo, hi, (n, n)), np.zeros((n, 1)))
        for _ in range(count or FAMILIES[tag])
    ]
    return ModelParams(tag, layers)


def params_of_depth(count, n, rng):
    """A dae (2 layers) or mss-dae of count layers, drawn as init_params
    draws its own: the same arrays as init_params at 2 and 4 layers."""
    layers = [(glorot_like_init(rng, n, n, n), np.zeros((n, 1))) for _ in range(count)]
    return ModelParams("dae" if count == 2 else "mss-dae", layers)


class TestConfig:
    def test_defaults(self):
        cfg = NcaConfig("student")
        assert (cfg.iterations, cfg.lr, cfg.seed) == (600, 4e-4, 0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            NcaConfig("teacher")

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            NcaConfig("student", iterations=0)
        with pytest.raises(ValueError):
            NcaConfig("student", lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_lr_must_be_finite(self, lr):
        with pytest.raises(ValueError, match="lr must be finite"):
            NcaConfig("student", lr=lr)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            NcaConfig("student", seed=-1)


def student_loss(c, b):
    return student_objective(c, *b)[0]


class TestObjective:
    def test_l1_loss_hand_value(self):
        # C = I, X = I, Y = [[2,1],[0,1]]: residual [[1,1],[0,0]] -> 2
        b = batch(np.eye(2), [[2.0, 1.0], [0.0, 1.0]])
        assert student_loss(np.eye(2), b) == 2.0

    def test_l1_loss_zero_at_exact_fit(self):
        x = make_rng(10).normal(size=(2, 3))
        c = make_rng(11).normal(size=(2, 2))
        assert student_loss(c, batch(x, c @ x)) == 0.0

    def test_l1_loss_of_zero_couplings_is_target_mass(self):
        b = batch([[1.0], [2.0]], [[3.0], [-4.0]])
        assert student_loss(np.zeros((2, 2)), b) == 7.0

    def test_l1_loss_single_column_hand_value(self):
        assert student_loss(np.eye(2), batch([[1.0], [2.0]], [[3.0], [0.0]])) == 4.0

    def test_student_grad_hand_value(self):
        b = batch(np.eye(2), [[2.0, 1.0], [0.0, 1.0]])
        _, g = student_objective(np.eye(2), *b)
        # sign(CX - Y) = [[-1,-1],[0,0]]; X^T = I
        assert g.tolist() == [[-1.0, -1.0], [0.0, 0.0]]

    def test_student_grad_of_zero_couplings(self):
        _, g = student_objective(np.zeros((2, 2)), *batch([[1.0], [2.0]], [[3.0], [0.0]]))
        # sign(-Y) = [[-1],[0]] spread along X^T
        assert g.tolist() == [[-1.0, -2.0], [0.0, 0.0]]

    def test_student_grad_matches_finite_differences(self):
        rng = make_rng(101)
        c = rng.normal(size=(4, 4))
        b = batch(rng.normal(size=(4, 7)), rng.normal(size=(4, 7)))
        _, g = student_objective(c, *b)
        h = 1e-7
        for i in range(4):
            for j in range(4):
                cp, cm = c.copy(), c.copy()
                cp[i, j] += h
                cm[i, j] -= h
                fd = (student_loss(cp, b) - student_loss(cm, b)) / (2 * h)
                assert abs(fd - g[i, j]) < 1e-5


class TestTarget:
    """The X and Y that run_nca hands its objective, seen through a spy."""

    @staticmethod
    def fitted(p, x, monkeypatch):
        seen = []

        def spy(c, x, xt, y, *args, **kwargs):
            seen.append((x, xt, y))
            return student_objective(c, x, xt, y, *args, **kwargs)

        monkeypatch.setattr(nca, "student_objective", spy)
        run_nca(p, x, NcaConfig("student", iterations=1))
        assert len(seen) == 2
        x, xt, y = seen[0]
        # X^T is one C-order copy, formed once per run
        assert xt.flags.c_contiguous and np.array_equal(xt, x.T)
        assert all(seen_xt is xt for _, seen_xt, _ in seen)
        return x, y

    def test_dae_target_is_model_output(self, monkeypatch):
        p = positive_params("dae", 4, 1)
        x = np.abs(make_rng(2).normal(size=(4, 5))) + 0.1
        got_x, y = self.fitted(p, x, monkeypatch)
        assert got_x.dtype == y.dtype == np.float32
        assert np.array_equal(got_x, x.astype(np.float32))
        assert np.array_equal(y, model_output(p, forward(p, x)).astype(np.float32))

    def test_sf_target_is_the_mask_not_the_product(self, monkeypatch):
        p = positive_params("sf", 4, 1)
        x = np.abs(make_rng(2).normal(size=(4, 5))) + 0.1
        _, y = self.fitted(p, x, monkeypatch)
        acts = forward(p, x)
        assert np.array_equal(y, acts[-1].astype(np.float32))
        assert not np.array_equal(y, model_output(p, acts).astype(np.float32))


class TestGates:
    @staticmethod
    def first_factor(p1, w1, b1):
        # C = M_2 M_1 is the first factor G_1 . W_1 when the second layer is
        # (I, 0) with all-ones drivers: its gate is all ones, its factor I
        n = len(w1)
        params = ModelParams("dae", [(w1, b1), (np.eye(n), np.zeros((n, 1)))])
        x = np.eye(n)
        c, _, _ = compositional_objective([p1, np.ones((n, n))], shifted_layers(params.layers),
                                          *window(x, x), loss_only=True)
        return c

    def test_gate_hand_value(self):
        # P = I, W = ones, b = [1, -2]: (W + b) adds b_j to column j, which
        # is row j of G_hat = [[2, 2], [-1, -1]]; the relu clips row 1, and
        # W = ones leaves the gate itself as the factor
        c = self.first_factor(np.eye(2), np.ones((2, 2)), np.array([[1.0], [-2.0]]))
        assert c.tolist() == [[2.0, 2.0], [0.0, 0.0]]

    def test_gates_are_never_negative(self):
        rng = make_rng(12)
        p1, w1, b1 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 1))
        g = gate(p1, w1, b1)
        assert (g >= 0).all() and (g == 0).any()
        # the factor G . W never has the opposite sign of W
        c = self.first_factor(p1, w1, b1)
        assert (c * w1 >= 0).all()
        assert np.array_equal(c, g * w1)

    def test_objective_checks_gate_driver_count(self):
        p = positive_params("dae", 2, 0)
        with pytest.raises(ValueError):
            compositional_objective([np.eye(2)], shifted_layers(p.layers),
                                    *batch(np.eye(2), np.eye(2)))

    def test_compose_hand_value(self):
        # encoder applied first: C = (G2 . W2) (G1 . W1); with b = 0 the
        # drivers P1 = [[1,0],[1,0]] and P2 = diag(2,3) give G1 = ones and
        # G2 = diag(2,3)
        w1 = np.array([[1.0, 0.0], [1.0, 1.0]])
        w2 = np.eye(2)
        p = ModelParams("dae", [(w1, np.zeros((2, 1))), (w2, np.zeros((2, 1)))])
        p1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        p2 = np.array([[2.0, 0.0], [0.0, 3.0]])
        c, loss, _ = compositional_objective(
            [p1, p2], shifted_layers(p.layers), *batch(np.eye(2), np.zeros((2, 2))),
            loss_only=True
        )
        assert c.tolist() == [[2.0, 0.0], [3.0, 3.0]]
        assert loss == 8.0

    def test_fully_open_gates_reproduce_an_active_linear_model(self):
        # if every gate is all ones, C X must equal the model output when all
        # relus are active, which positive weights and inputs guarantee;
        # P_l = ones (W_l + b_l)^-T opens every gate up to rounding
        p = positive_params("mss-dae", 5, 3, count=3)
        x = np.abs(make_rng(4).normal(size=(5, 6))) + 0.1
        p_open = [np.ones((5, 5)) @ np.linalg.inv(w + b.T).T for w, b in p.layers]
        gates = [gate(q, w, b) for q, (w, b) in zip(p_open, p.layers)]
        assert all(np.allclose(g, 1.0, atol=1e-12) for g in gates)
        c, _, _ = compositional_objective(p_open, shifted_layers(p.layers), *batch(x, x),
                                          loss_only=True)
        assert np.allclose(c @ x, model_output(p, forward(p, x)), atol=1e-12)


class TestCompositionalGrads:
    def grads_for(self, count, seed, biased=False):
        n, t = 6, 5
        params = params_of_depth(count, n, make_rng([50, seed]))
        if biased:
            params = with_biases(params, seed)
        rng = make_rng([51, seed])
        x = np.abs(rng.normal(size=(n, t))) + 0.1
        layers, tb = shifted_layers(params.layers), window(*target(params, x))
        p_list = [glorot(rng, n) for _ in range(count)]
        return layers, tb, p_list, compositional_objective(p_list, layers, *tb)[2]

    def test_two_layer_grads_match_direct_transcription(self):
        # independent rewrite of the two-layer case from first principles:
        # C = M2 M1, dE/dM2 = D M1^T, dE/dM1 = M2^T D
        for seed in range(6):
            n, t = 6, 5
            params = init_params("dae", n, make_rng([50, seed]))
            rng = make_rng([51, seed])
            x = np.abs(rng.normal(size=(n, t))) + 0.1
            x, y = target(params, x)
            p_list = [glorot(rng, n), glorot(rng, n)]
            layers = shifted_layers(params.layers)
            got_none, got_loss, got = compositional_objective(p_list, layers, *window(x, y))
            got_c, c_loss, _ = compositional_objective(p_list, layers, *window(x, y),
                                                       loss_only=True)

            (w1, b1), (w2, b2) = params.layers
            g1, g2 = gate(p_list[0], w1, b1), gate(p_list[1], w2, b2)
            m1, m2 = g1 * w1, g2 * w2
            c = m2 @ m1
            delta = np.sign(c @ x - y) @ x.T
            d_m1 = m2.T @ delta
            d_m2 = delta @ m1.T
            # relu'(G_hat) > 0 exactly where relu(G_hat) > 0
            want1 = (d_m1 * w1 * (g1 > 0)) @ add_bias(w1, b1)
            want2 = (d_m2 * w2 * (g2 > 0)) @ add_bias(w2, b2)
            assert np.array_equal(got[0], want1)
            assert np.array_equal(got[1], want2)
            assert got_none is None
            assert np.array_equal(got_c, c)
            assert got_loss == c_loss == l1(c @ x - y)

    def assert_grads_match_finite_differences(self, count, seed, biased=False):
        layers, tb, p_list, grads = self.grads_for(count, seed, biased)
        h = 1e-6
        for l in range(count):
            for idx in [(0, 0), (2, 3), (5, 1)]:
                pp = [q.copy() for q in p_list]
                pm = [q.copy() for q in p_list]
                pp[l][idx] += h
                pm[l][idx] -= h
                ep = compositional_objective(pp, layers, *tb)[1]
                em = compositional_objective(pm, layers, *tb)[1]
                fd = (ep - em) / (2 * h)
                g = grads[l][idx]
                assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-3

    @pytest.mark.parametrize("hidden", [1, 2])
    def test_deep_grads_match_finite_differences(self, hidden):
        self.assert_grads_match_finite_differences(2 + hidden, seed=hidden)

    @pytest.mark.parametrize("count", [2, 3, 4], ids=lambda c: f"L{c}")
    def test_grads_with_nonzero_biases_match_finite_differences(self, count):
        # a backward product that used W_l in place of W_l + b_l^T, or added
        # b_l by row, passes at b = 0 but not here
        self.assert_grads_match_finite_differences(count, seed=3 + count, biased=True)

    @pytest.mark.parametrize("hidden", [0, 2])
    @pytest.mark.parametrize("n", [33, 257])
    def test_objective_matches_out_of_place_transcription(self, hidden, n):
        # the objective written with every intermediate a fresh array and
        # the float gate pre-activations kept; the in-place forms must give
        # the same bits. The biases are non-zero, so W + b^T differs from W
        params = with_biases(params_of_depth(2 + hidden, n, make_rng([52, n])), n)
        rng = make_rng([53, n])
        x, xt, y = window(*target(params, np.abs(rng.normal(size=(n, 40))) + 0.1))
        p = np.stack([glorot(rng, n) for _ in params.layers])

        g_hats, factors, prefix = [], [], []
        for p_l, (w, b) in zip(p, params.layers):
            g_hats.append(p_l @ (w + b.T).T)
            factors.append(np.maximum(g_hats[-1], 0.0) * w)
            prefix.append(factors[-1] if not prefix else factors[-1] @ prefix[-1])
        r = prefix[-1] @ x - y
        # U_L = D, then U_{l-1} = M_l^T U_l and dE/dM_l = U_l (M_{l-1} ... M_1)^T
        u = np.sign(r) @ xt
        want = [None] * len(p)
        for l in reversed(range(len(p))):
            d = u @ prefix[l - 1].T if l > 0 else u
            u = factors[l].T @ u
            w, b = params.layers[l]
            want[l] = ((d * w) * (g_hats[l] > 0.0)) @ (w + b.T)

        layers = shifted_layers(params.layers)
        c, loss, _ = compositional_objective(p, layers, x, xt, y, loss_only=True)
        assert np.array_equal(c, prefix[-1])
        assert loss == l1(r)
        # a gradient call forms C in grads[L - 1], which its backward pass
        # overwrites, so it returns no C
        none, loss_g, grads = compositional_objective(p, layers, x, xt, y)
        assert none is None
        assert loss_g == loss
        assert grads.shape == (len(p), n, n)
        for got, expect in zip(grads, want):
            assert np.array_equal(got, expect)

    def test_zero_residual_gives_zero_gradients(self):
        params = positive_params("dae", 4, 3)
        rng = make_rng(13)
        p_list = [glorot(rng, 4) for _ in range(2)]
        x = np.abs(rng.normal(size=(4, 6))) + 0.1
        c = compose_from(params, p_list)
        # target manufactured to match the composition exactly
        _, loss, grads = compositional_objective(p_list, shifted_layers(params.layers),
                                                 *batch(x, c @ x))
        assert loss == 0.0
        for dp in grads:
            assert np.array_equal(dp, np.zeros((4, 4)))


def glorot(rng, n):
    return rng.normal(size=(n, n)) * np.sqrt(1.0 / n)


def add_bias(w, b):
    # bias j lands on column j
    return w + b.ravel()[None, :]


def compose_from(params, p_list):
    # independent of the objective: (G_l . W_l) applied in layer order
    c = np.eye(params.n, dtype=p_list[0].dtype)
    for q, (w, b) in zip(p_list, params.layers):
        c = (gate(q, w, b) * w) @ c
    return c


class TestRunNca:
    def test_student_recovers_an_effectively_linear_model(self):
        # positive weights, zero biases, positive inputs: the model is the
        # exact linear map W2 W1, which a free C can reach
        p = positive_params("dae", 6, 7)
        x = np.abs(make_rng(8).normal(size=(6, 48))) + 0.1
        c_lin = p.layers[1][0] @ p.layers[0][0]
        state = run_nca(p, x, NcaConfig("student", iterations=600, lr=2.5e-3))
        assert state.losses[-1] < 1e-2 * np.abs(forward(p, x)[-1]).sum()
        assert np.abs(state.c - c_lin).mean() < 2e-2

    def test_student_pulls_identity_model_toward_identity_couplings(self):
        eye_layers = [(np.eye(8), np.zeros((8, 1))) for _ in range(2)]
        p = ModelParams("dae", eye_layers)
        x = np.abs(make_rng(21).normal(size=(8, 64))) + 0.1
        state = run_nca(p, x, NcaConfig("student", iterations=600, lr=2.5e-3))
        diag_mass = np.abs(np.diag(state.c)).sum()
        off_mass = np.abs(state.c).sum() - diag_mass
        # measured 0.89 off-diagonal vs 7.52 diagonal
        assert off_mass < diag_mass

    def test_loss_curve_length_and_first_entry(self):
        p = positive_params("dae", 4, 1)
        x = np.abs(make_rng(2).normal(size=(4, 10))) + 0.1
        cfg = NcaConfig("student", iterations=25, lr=1e-3)
        state = run_nca(p, x, cfg)
        assert len(state.losses) == 26
        # entry 0 is the loss of the untouched init, drawn in float64 and
        # rounded to float32 like X and Y
        c0 = glorot_like_init(make_rng(cfg.seed), 4, 4, 4).astype(np.float32)
        assert state.losses[0] == student_loss(c0, window(*single(*target(p, x))))

    def test_compositional_c_is_the_composition_of_the_final_drivers(self, monkeypatch):
        finals = []

        def spy(p, *args, loss_only=False, **kwargs):
            if loss_only:
                finals.append(p.copy())
            return compositional_objective(p, *args, loss_only=loss_only, **kwargs)

        monkeypatch.setattr(nca, "compositional_objective", spy)
        p = with_biases(positive_params("mss-dae", 4, 2, count=3), 2)
        x = np.abs(make_rng(3).normal(size=(4, 10))) + 0.1
        state = run_nca(p, x, NcaConfig("compositional", iterations=15, lr=1e-3))
        (p_final,) = finals
        assert p_final.dtype == np.float32 and p_final.shape == (3, 4, 4)
        # C is the float32 composition of the final drivers, returned as float64
        assert np.array_equal(state.c, compose_from(single_params(p), p_final))
        x, y = single(*target(p, x))
        assert state.losses[-1] == l1(state.c.astype(np.float32) @ x - y)

    def test_compositional_drivers_are_drawn_layer_by_layer(self):
        # one (L n, n) draw reshaped to (L, n, n) is the same stream as one
        # n x n draw per layer, so the first loss is that of these drivers,
        # rounded to float32 like the weights, X and Y
        p = positive_params("mss-dae", 5, 4)
        x = np.abs(make_rng(5).normal(size=(5, 9))) + 0.1
        cfg = NcaConfig("compositional", iterations=3, lr=1e-3, seed=11)
        state = run_nca(p, x, cfg)
        rng = make_rng(cfg.seed)
        p0 = [glorot_like_init(rng, 5, 5, 5).astype(np.float32) for _ in p.layers]
        loss0 = compositional_objective(p0, shifted_layers(single_params(p).layers),
                                        *window(*single(*target(p, x))))[1]
        assert state.losses[0] == loss0

    @staticmethod
    def peak_matrices(strategy):
        """tracemalloc peak of a 2-iteration 4-layer mss-dae run at n=257, T=32,
        in n x n float64 matrices; the iterations hold float32 arrays, half
        a unit each."""
        n = 257
        params = init_params("mss-dae", n, make_rng(1))
        x = np.abs(make_rng(2).normal(size=(n, 32))) + 0.1
        tracemalloc.start()
        try:
            run_nca(params, x, NcaConfig(strategy=strategy, iterations=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def test_compositional_peak_memory_is_bounded(self):
        # with n large relative to T the n x n arrays set the peak. It was 47
        # of them while the float gate pre-activations, out-of-place factors
        # and residual, and parameter-sized Adam scratch were held, and 34.4
        # while each iteration's C and gradient stack outlived it and every
        # prefix product and factor lived to the end of the backward pass,
        # and 27.4 while C, D and the other prefix products had arrays of
        # their own rather than slots of the gradient stack, and 24.4 while
        # each gate's pre-activation was held beside it and Adam's scratch
        # rows held 65,536 elements each, and 23.3 while the iterations ran
        # in float64, and 13.98 in float32 before the shifted weights
        # W_l + b_l^T were held for the run (half a matrix per layer) and X^T
        # copied once; it is 15.53
        assert self.peak_matrices("compositional") <= 16

    def test_student_peak_memory_is_bounded(self):
        # theta, the Adam moments and scratch, one gradient, a C-order X^T
        # and (n, T) temporaries: 2.58 in float32 (2.51 before X^T was
        # copied), 4.9 in float64; 5.4 while Adam's scratch rows held 65,536
        # elements each, 6.4 while the last gradient outlived its step
        assert self.peak_matrices("student") <= 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_only_the_iterations_form_a_gradient(self, strategy, monkeypatch):
        # the final evaluation only records the loss of the returned C
        formed = []

        def spy(*args, **kwargs):
            loss, grad = student_objective(*args, **kwargs)
            formed.append(grad is not None)
            return loss, grad

        monkeypatch.setattr(nca, "student_objective", spy)
        p = positive_params("mss-dae", 4, 2, count=3)
        x = np.abs(make_rng(3).normal(size=(4, 10))) + 0.1
        state = run_nca(p, x, NcaConfig(strategy, iterations=3, lr=1e-3))
        assert formed == [True, True, True, False]
        c = state.c.astype(np.float32)
        assert state.losses[-1] == student_loss(c, window(*single(*target(p, x))))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_returns_float64(self, strategy):
        p = positive_params("mss-dae", 4, 2, count=3)
        x = np.abs(make_rng(3).normal(size=(4, 10))) + 0.1
        state = run_nca(p, x, NcaConfig(strategy, iterations=2))
        assert state.c.dtype == np.float64

    @staticmethod
    def float64_losses(params, x, cfg):
        """The loss curve of run_nca's loop written over the public
        objectives and Adam, with every array left in float64."""
        x, xt, y = window(*target(params, x))
        n, rng, adam = params.n, make_rng(cfg.seed), Adam(cfg.lr)
        if cfg.strategy == "student":
            theta = glorot_like_init(rng, n, n, n)
            objective = lambda t, **kw: student_objective(t, x, xt, y, **kw)
        else:
            theta = glorot_like_init(rng, len(params.layers) * n, n, n).reshape(-1, n, n)
            layers = shifted_layers(params.layers)
            objective = lambda t, **kw: compositional_objective(t, layers, x, xt, y, **kw)[1:]
        losses = []
        for _ in range(cfg.iterations):
            loss, grad = objective(theta)
            losses.append(loss)
            adam.step(theta, grad)
        return losses + [objective(theta, loss_only=True)[0]]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("tag", ["dae", "mss-dae", "sf"])
    def test_float32_run_tracks_a_float64_run(self, tag, strategy):
        # each loss within 9.2e-7 relative, measured; the two runs drift
        # apart slowly as Adam steps from different roundings
        params = init_params(tag, 16, make_rng([60, FAMILIES[tag], tag == "sf"]))
        x = np.abs(make_rng(61).normal(size=(16, 40))) + 0.1
        cfg = NcaConfig(strategy, iterations=100, lr=1e-3, seed=3)
        got = np.array(run_nca(params, x, cfg).losses)
        want = np.array(self.float64_losses(params, x, cfg))
        assert (np.abs(got - want) <= 1e-5 * np.abs(want)).all()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_output_outside_float32_range_is_refused(self, strategy):
        # weights near 1e39 make an output near 1e78: finite in float64,
        # infinite once rounded
        p = positive_params("dae", 4, 1, lo=1e39, hi=2e39)
        x = np.abs(make_rng(2).normal(size=(4, 5))) + 0.1
        with pytest.raises(NcaError, match=r"model output .*float32 range"):
            run_nca(p, x, NcaConfig(strategy, iterations=1))

    def test_weights_outside_float32_range_are_refused(self):
        # the second layer undoes the first one's scale, so X and Y fit
        # float32 and only the compositional run rounds the weights
        rng = make_rng(3)
        layers = [(rng.uniform(0.1, 0.3, (4, 4)) * s, np.zeros((4, 1))) for s in (1e40, 1e-40)]
        p = ModelParams("dae", layers)
        x = np.abs(make_rng(2).normal(size=(4, 5))) + 0.1
        assert np.isfinite(forward(p, x)[-1].astype(np.float32)).all()
        run_nca(p, x, NcaConfig("student", iterations=1))
        with pytest.raises(NcaError, match=r"layer 0 W .*float32 range"):
            run_nca(p, x, NcaConfig("compositional", iterations=1))

    def test_compositional_iterations_need_the_layer_arrays(self):
        x = np.ones((4, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="layer arrays"):
            fit_couplings(x, x, NcaConfig("compositional", iterations=1))

    def test_deterministic(self):
        p = positive_params("sf", 4, 5)
        x = np.abs(make_rng(6).normal(size=(4, 12))) + 0.1
        cfg = NcaConfig("compositional", iterations=10, lr=1e-3)
        a = run_nca(p, x, cfg)
        b = run_nca(p, x, cfg)
        assert np.array_equal(a.c, b.c)
        assert a.losses == b.losses

    def test_both_strategies_reduce_loss(self):
        p = positive_params("mss-dae", 6, 9)
        x = np.abs(make_rng(10).normal(size=(6, 40))) + 0.1
        for strategy in ("student", "compositional"):
            state = run_nca(p, x, NcaConfig(strategy, iterations=200, lr=1e-3))
            assert state.losses[-1] < state.losses[0]


class TestMovingAverage:
    def test_hand_value(self, moving_average):
        out = moving_average([1.0, 2.0, 3.0, 4.0], 2)
        assert out.tolist() == [1.5, 2.5, 3.5]

    def test_window_one_is_identity(self, moving_average):
        assert moving_average([3.0, 1.0], 1).tolist() == [3.0, 1.0]

    def test_window_bounds(self, moving_average):
        with pytest.raises(ValueError):
            moving_average([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestCouplingsCodec:
    def test_round_trip(self, tmp_path):
        c = make_rng(1).normal(size=(5, 5))
        meta = {"arch": "dae", "segment": "0:0:350", "window": [0, 350], "seed": 3}
        path = tmp_path / "c.ncc"
        save_couplings(path, c, meta)
        c2, meta2 = load_couplings(path)
        assert np.array_equal(c, c2)
        assert meta2 == {"arch": "dae", "segment": "0:0:350", "window": [0, 350], "seed": 3}

    def test_rejects_non_square(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            save_couplings(tmp_path / "x.ncc", np.ones((2, 3)), {})

    def test_rejects_non_finite(self, tmp_path):
        c = np.ones((2, 2))
        c[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_couplings(tmp_path / "x.ncc", c, {})

    def test_metadata_is_canonical_json(self, tmp_path):
        path = tmp_path / "c.ncc"
        save_couplings(path, np.eye(2), {"b": 1, "a": 2})
        raw = path.read_bytes()
        assert raw.endswith(b'{"a":2,"b":1}')

    def test_bad_metadata_bytes(self, tmp_path):
        path = tmp_path / "c.ncc"
        save_couplings(path, np.eye(2), {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] = ord("x")  # breaks the closing brace
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="metadata"):
            load_couplings(path)

    @pytest.mark.parametrize("meta", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_metadata_must_be_an_object(self, tmp_path, meta):
        path = tmp_path / "c.ncc"
        save_couplings(path, np.eye(2), {})
        raw = path.read_bytes()[: -len(b"{}") - 4]  # drop the length and the block
        path.write_bytes(raw + len(meta).to_bytes(4, "little") + meta)
        with pytest.raises(serial.FormatError, match="not a JSON object"):
            load_couplings(path)

    @pytest.mark.parametrize("key", ["checkpoint", "segment", "strategy"])
    def test_named_metadata_values_must_be_strings(self, tmp_path, key):
        path = tmp_path / "c.ncc"
        save_couplings(path, np.eye(2), {"strategy": "student", key: 5})
        with pytest.raises(serial.FormatError, match=f"'{key}' is not a string"):
            load_couplings(path)

    @pytest.mark.parametrize("label", ["identity", "linear"])
    def test_strategy_must_be_an_extraction_strategy(self, tmp_path, label):
        # a baseline's name would make analyze score the file as that baseline
        path = tmp_path / "c.ncc"
        for strategy in ("student", "compositional"):
            save_couplings(path, np.eye(2), {"strategy": strategy})
            assert load_couplings(path)[1]["strategy"] == strategy
        save_couplings(path, np.eye(2), {"strategy": label})
        with pytest.raises(serial.FormatError, match="strategy"):
            load_couplings(path)

    def test_hostile_size(self, tmp_path):
        path = tmp_path / "h.ncc"
        save_couplings(path, np.eye(3), {})
        raw = bytearray(path.read_bytes())
        raw[8:12] = b"\xff" * 4  # matrix order n, after magic and version
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="truncated"):
            load_couplings(path)

    def test_metadata_only_read(self, tmp_path):
        # the matrix is skipped unread, so a non-finite one passes here and
        # fails when it is loaded
        path = tmp_path / "c.ncc"
        meta = {"strategy": "compositional", "k": [1]}
        save_couplings(path, np.eye(3), meta)
        raw = bytearray(path.read_bytes())
        raw[12 + 8 * 5 : 12 + 8 * 6] = np.array([np.nan], dtype="<f8").tobytes()  # C[1, 2]
        path.write_bytes(bytes(raw))
        assert load_couplings(path, matrix=False) == (None, meta)
        with pytest.raises(serial.FormatError, match="non-finite"):
            load_couplings(path)

    def test_metadata_only_read_checks_size_and_metadata(self, tmp_path):
        path = tmp_path / "h.ncc"
        save_couplings(path, np.eye(3), {"strategy": "linear"})
        with pytest.raises(serial.FormatError, match="strategy"):
            load_couplings(path, matrix=False)
        raw = bytearray(path.read_bytes())
        raw[8:12] = b"\xff" * 4  # matrix order n, after magic and version
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="truncated"):
            load_couplings(path, matrix=False)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.ncc"
        save_couplings(path, np.eye(2), {})
        raw = bytearray(path.read_bytes())
        raw[12:20] = np.array([np.nan], dtype="<f8").tobytes()  # C[0, 0]
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="non-finite"):
            load_couplings(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "c.ncc"
        save_couplings(path, np.eye(3), {})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(serial.FormatError, match="truncated"):
            load_couplings(path)
