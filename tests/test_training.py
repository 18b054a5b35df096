import numpy as np
import pytest

from neural_couplings.models import Arch, ModelParams, forward
from neural_couplings.spectral import (
    BinScaler,
    Dataset,
    Spectrogram,
    StftConfig,
    normalized_pair_rows,
)
from neural_couplings.training import (
    CHUNK,
    STOP_PATIENCE,
    Adam,
    EpochStats,
    TrainConfig,
    TrainingError,
    train,
    write_history_csv,
)

CFG6 = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=10, bins_kept=6)


def make_rows(mix_mags, tgt_mags):
    mix = Spectrogram(CFG6, mix_mags, "t0")
    tgt = Spectrogram(CFG6, tgt_mags, "t0")
    return normalized_pair_rows(Dataset(CFG6, [(mix, tgt)], BinScaler(np.ones(6))))


def halving_rows():
    """Frames are all identical, so the loss plateaus once Adam converges."""
    col = np.linspace(0.5, 1.5, 6)[:, None]
    mix = np.tile(col, (1, 40))
    return make_rows(mix, 0.5 * mix)


def learnable_rows():
    rng = np.random.default_rng(7)
    mix = np.abs(rng.normal(size=(6, 40))) + 0.2
    return make_rows(mix, 0.5 * mix)


class TestAdam:
    def test_first_step_hand_value(self):
        # after one step m_hat = g and v_hat = g*g, so the update is
        # lr * g / (|g| + eps) regardless of the betas
        adam = Adam(lr=0.1)
        p = np.array([[1.0, -1.0]])
        g = np.array([[2.0, -0.5]])
        want = p - 0.1 * g / (np.abs(g) + 1e-8)
        adam.step(p, g)
        assert np.allclose(p, want, atol=1e-15)
        assert adam.t == 1

    def test_step_updates_param_in_place_and_leaves_grad_untouched(self):
        adam = Adam(lr=0.1)
        p = np.ones((2, 2))
        g = np.full((2, 2), 0.5)
        assert adam.step(p, g) is None
        assert np.allclose(p, 0.9, atol=1e-7)
        assert np.array_equal(g, np.full((2, 2), 0.5))

    def test_lr_attribute_controls_step_size(self):
        a, b = Adam(lr=0.1), Adam(lr=0.2)
        pa, pb, g = np.array([[4.0]]), np.array([[4.0]]), np.array([[1.0]])
        a.step(pa, g)
        b.step(pb, g)
        assert np.isclose(4.0 - pb[0, 0], 2 * (4.0 - pa[0, 0]), atol=1e-12)

    def test_zero_gradient_leaves_params_and_decays_moments(self):
        adam = Adam(lr=0.1)
        p = np.array([[3.0]])
        adam.step(p, np.zeros((1, 1)))
        assert p[0, 0] == 3.0
        assert adam.m[0, 0] == 0.0 and adam.v[0, 0] == 0.0
        # moments built from a real gradient shrink geometrically once
        # gradients go quiet
        adam.step(p, np.ones((1, 1)))
        m_before = adam.m[0, 0]
        adam.step(p, np.zeros((1, 1)))
        assert adam.m[0, 0] == 0.9 * m_before

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TrainingError, match="shape"):
            Adam(0.1).step(np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_non_finite_grad(self):
        p = np.ones(1)
        with pytest.raises(TrainingError, match="non-finite"):
            Adam(0.1).step(p, np.array([np.nan]))
        assert p[0] == 1.0

    @pytest.mark.parametrize("size, width", [(66049, 33025), (2 * CHUNK + 3, 43692)])
    def test_chunked_step_matches_whole_array_recipe(self, size, width):
        # the recipe written once over whole arrays, out of place; the step
        # runs it over equal chunks of at most CHUNK elements
        rng = np.random.default_rng(size)
        p = rng.normal(size=size)
        want, m, v = p.copy(), np.zeros(size), np.zeros(size)
        adam = Adam(lr=1e-3)
        for t in range(1, 6):
            g = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3], size=size)
            g_before = g.copy()
            adam.step(p, g)
            assert np.array_equal(g, g_before)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            want = want - 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(p, want)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        # both moments and both scratch rows share one allocation
        assert adam._scratch.shape == (2, width)
        assert adam.m.base is adam.v.base is adam._scratch.base

    def test_rejects_non_contiguous_param(self):
        # a strided p would be copied by the flattening and lose its update
        base = np.ones((4, 4))
        with pytest.raises(TrainingError, match="contiguous"):
            Adam(0.1).step(base[:, ::2], np.ones((4, 2)))
        assert np.array_equal(base, np.ones((4, 4)))

    def test_rejects_param_count_change_after_first_step(self):
        # the moments take the parameter shape on the first step
        adam = Adam(0.1)
        adam.step(np.ones(1), np.ones(1))
        with pytest.raises(TrainingError, match="shape"):
            adam.step(np.ones(2), np.ones(2))
        with pytest.raises(TrainingError, match="shape"):
            adam.step(np.ones((1, 1)), np.ones((1, 1)))


class TestTrainConfig:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="initial_lr"):
            TrainConfig(initial_lr=lr)


class TestTrain:
    def test_learns_a_scaling_task(self):
        # at this width a few relu units die at init, so convergence stops
        # well short of zero; a 3x loss reduction still proves learning
        res = train(Arch.dae(), learnable_rows(), TrainConfig(seed=0, batch_size=8))
        assert res.best_loss < 0.35 * res.history[0].mean_loss

    def test_identity_task_is_representable_and_improves(self, mse):
        # target = mixture. Identity weights solve this exactly, so any
        # residual after training is pure optimization shortfall: glorot
        # init strands a few relu units and Adam cannot revive them (the
        # loss freezes near 0.1 even at a 400-epoch horizon), so assert a
        # strong reduction rather than convergence to zero.
        cfg16 = StftConfig(sample_rate=8000, window_len=30, hop=8, fft_size=30, bins_kept=16)
        mix_mags = np.abs(np.random.default_rng(11).normal(size=(16, 1024))) + 0.2
        mix = Spectrogram(cfg16, mix_mags, "t0")
        ds = Dataset(cfg16, [(mix, mix)], BinScaler(np.ones(16)))

        exact = ModelParams(Arch.dae(), [(np.eye(16), np.zeros((16, 1))) for _ in range(2)], 16)
        assert mse(forward(exact, mix_mags)[-1], mix_mags) == 0.0

        cfg = TrainConfig(seed=4, batch_size=16, initial_lr=1e-2, max_epochs=50)
        res = train(Arch.dae(), normalized_pair_rows(ds), cfg)
        assert res.history[-1].mean_loss < 0.5 * res.history[0].mean_loss
        assert res.best_loss < 0.2

    def test_deterministic(self):
        rows = learnable_rows()
        cfg = TrainConfig(seed=3, max_epochs=20)
        a = train(Arch.dae(), rows, cfg)
        b = train(Arch.dae(), rows, cfg)
        assert [(h.epoch, h.mean_loss, h.lr) for h in a.history] == [
            (h.epoch, h.mean_loss, h.lr) for h in b.history
        ]
        for (wa, ba), (wb, bb) in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_seed_changes_the_run(self):
        rows = learnable_rows()
        a = train(Arch.dae(), rows, TrainConfig(seed=0, max_epochs=5))
        b = train(Arch.dae(), rows, TrainConfig(seed=1, max_epochs=5))
        assert not np.array_equal(a.params.layers[0][0], b.params.layers[0][0])

    def test_best_loss_is_the_history_minimum(self):
        res = train(Arch.dae(), learnable_rows(), TrainConfig(seed=0, max_epochs=30))
        assert np.isclose(res.best_loss, min(h.mean_loss for h in res.history), rtol=1e-8)

    def test_plateau_halves_lr_then_stops(self):
        cfg = TrainConfig(seed=0, max_epochs=500)
        res = train(Arch.dae(), halving_rows(), cfg)
        lrs = [h.lr for h in res.history]
        assert res.epochs < cfg.max_epochs
        assert lrs[0] == cfg.initial_lr
        assert lrs[-1] < cfg.initial_lr
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        # every drop is an exact halving
        levels = [lrs[0]] + [b for a, b in zip(lrs, lrs[1:]) if b != a]
        assert len(levels) >= 2
        assert all(b == 0.5 * a for a, b in zip(levels, levels[1:]))
        # the run ends on a streak of STOP_PATIENCE non-improving epochs
        tail = [h.mean_loss for h in res.history[-STOP_PATIENCE:]]
        assert all(t >= res.best_loss * (1 - 1e-9) for t in tail)

    def test_stopped_by_names_the_ending_rule(self):
        budget = train(Arch.dae(), learnable_rows(), TrainConfig(seed=0, max_epochs=3))
        assert (budget.stopped_by, budget.epochs) == ("max_epochs", 3)
        cfg = TrainConfig(seed=0, max_epochs=500)
        plateau = train(Arch.dae(), halving_rows(), cfg)
        assert plateau.stopped_by == "patience"
        assert plateau.epochs < cfg.max_epochs

    def test_rejects_rows_of_different_shapes(self):
        mix_rows, tgt_rows = learnable_rows()
        with pytest.raises(ValueError, match="differ"):
            train(Arch.dae(), (mix_rows, tgt_rows[1:]), TrainConfig(max_epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = TrainConfig(seed=0, initial_lr=1e200, max_epochs=3)
        with pytest.raises(TrainingError, match="diverged"):
            train(Arch.dae(), halving_rows(), cfg)

    @pytest.mark.parametrize(
        "arch, n, frames, batch_size",
        [
            (Arch.dae(), 6, 40, 16),
            (Arch.mss_dae(2), 6, 40, 16),
            (Arch.sf(), 6, 40, 16),
            # at 257 bins a product with its operand roles swapped gives other
            # bits (at 6 bins it still matches), so this case pins the roles
            (Arch.mss_dae(1), 257, 300, 128),
        ],
        ids=["dae", "mss-dae", "sf", "mss-dae-257"],
    )
    def test_single_epoch_matches_recipe_transcription(self, arch, n, frames, batch_size):
        # rewrite one epoch from the documented recipe in plain numpy, in
        # (bins, frames) orientation: shuffle all frames with rng [seed,
        # epoch], batch the columns in order (last batch short), weight batch
        # losses by frame count, step Adam per batch on all weights
        # flattened in the order W0, b0, W1, b1, ...
        from neural_couplings.linalg import make_rng
        from neural_couplings.models import init_params

        rng = np.random.default_rng(7)
        x_mix = np.abs(rng.normal(size=(n, frames))) + 0.2
        x_tgt = 0.5 * x_mix
        cfg_n = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=2 * (n - 1),
                           bins_kept=n)
        pair = (Spectrogram(cfg_n, x_mix, "t0"), Spectrogram(cfg_n, x_tgt, "t0"))
        ds = Dataset(cfg_n, [pair], BinScaler(np.ones(n)))  # scaler is all ones
        cfg = TrainConfig(seed=2, max_epochs=1, batch_size=batch_size)
        res = train(arch, normalized_pair_rows(ds), cfg)

        layers = init_params(arch, n, make_rng(2)).layers
        flat_p = np.concatenate([a.ravel() for layer in layers for a in layer])
        adam = Adam(cfg.initial_lr)
        order = np.random.default_rng([2, 0]).permutation(frames)
        total_se = 0.0
        for k in range(0, frames, batch_size):
            cols = order[k : k + batch_size]
            xb, yb = x_mix[:, cols], x_tgt[:, cols]
            pre, post, a = [], [], xb
            for w, b in layers:
                pre.append(w @ a + b)
                a = np.maximum(pre[-1], 0.0)
                post.append(a)
            out = post[-1] * xb if arch.uses_mask else post[-1]
            d = yb - out
            total_se += float(np.mean(d * d)) * yb.size
            d_post = (2.0 / yb.size) * (out - yb)
            if arch.uses_mask:
                d_post = d_post * xb
            grads = [None] * len(layers)
            for i in reversed(range(len(layers))):
                d_pre = d_post * (pre[i] > 0.0)
                a_prev = post[i - 1] if i > 0 else xb
                grads[i] = (d_pre @ a_prev.T, d_pre.sum(axis=1))
                d_post = layers[i][0].T @ d_pre
            adam.step(flat_p, np.concatenate([g.ravel() for layer in grads for g in layer]))
            # W is n * n values and b is n, so layer i starts at (n * n + n) * i
            rows = flat_p.reshape(len(layers), n * n + n)
            layers = [(r[: n * n].reshape(n, n), r[n * n :].reshape(n, 1)) for r in rows]

        assert res.history[0].mean_loss == total_se / x_tgt.size
        assert len(res.params.layers) == arch.n_layers
        for (wa, ba), (wb, bb) in zip(res.params.layers, layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)


def test_write_history_csv(tmp_path):
    hist = [EpochStats(0, 0.5, 1e-3), EpochStats(1, 0.25, 5e-4)]
    p = tmp_path / "h.csv"
    write_history_csv(hist, p)
    assert p.read_text() == "epoch,mean_loss,lr\n0,0.5,0.001\n1,0.25,0.0005\n"
