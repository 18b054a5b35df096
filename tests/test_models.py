import dataclasses
import tracemalloc

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.linalg import ShapeError, make_rng
from neural_couplings.models import (
    FAMILIES,
    Checkpoint,
    ModelParams,
    backward,
    checkpoint_width,
    forward,
    forward_unchecked,
    init_params,
    load_checkpoint,
    model_output,
    save_checkpoint,
)


def params_from(tag, mats, biases=None):
    if biases is None:
        biases = [np.zeros((m.shape[0], 1)) for m in mats]
    return ModelParams(tag, list(zip(mats, biases)))


def zero_layers(count, n=2):
    return [(np.zeros((n, n)), np.zeros((n, 1))) for _ in range(count)]


class TestParams:
    def test_layer_counts(self):
        assert FAMILIES == {"dae": 2, "mss-dae": 4, "sf": 2}
        for tag, count in FAMILIES.items():
            assert len(init_params(tag, 3, make_rng(0)).layers) == count

    def test_only_sf_masks(self):
        assert ModelParams("sf", zero_layers(2)).uses_mask
        assert not ModelParams("dae", zero_layers(2)).uses_mask
        assert not ModelParams("mss-dae", zero_layers(3)).uses_mask

    def test_width_is_read_from_the_layers(self):
        assert ModelParams("dae", zero_layers(2, n=5)).n == 5
        assert init_params("mss-dae", 7, make_rng(0)).n == 7

    def test_fields_are_the_tag_and_the_layers(self):
        assert [f.name for f in dataclasses.fields(ModelParams)] == ["tag", "layers"]

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown architecture tag 'vae'"):
            ModelParams("vae", zero_layers(2))

    def test_layer_count_enforced(self):
        # dae and sf have 2 layers; mss-dae any count from 3 up
        for tag in ("dae", "sf"):
            with pytest.raises(ValueError, match=f"{tag} wants 2 layers, got 1"):
                ModelParams(tag, zero_layers(1))
        with pytest.raises(ValueError, match="sf wants 2 layers, got 3"):
            ModelParams("sf", zero_layers(3))

    def test_dae_takes_no_hidden_layers(self):
        for count in (3, 4):
            with pytest.raises(ValueError, match=f"dae wants 2 layers, got {count}"):
                ModelParams("dae", zero_layers(count))

    def test_mss_dae_needs_hidden_layers(self):
        with pytest.raises(ValueError, match="mss-dae wants at least 3 layers, got 2"):
            ModelParams("mss-dae", zero_layers(2))
        for count in (3, 4, 5):
            assert len(ModelParams("mss-dae", zero_layers(count)).layers) == count

    def test_weight_shape_enforced(self):
        good = (np.ones((2, 2)), np.zeros((2, 1)))
        bad = (np.ones((2, 3)), np.zeros((2, 1)))
        with pytest.raises(ShapeError, match="layer 1"):
            ModelParams("dae", [good, bad])

    def test_every_layer_has_the_first_layer_width(self):
        narrow = zero_layers(1, n=2)[0]
        for layers in ([narrow] + zero_layers(2, n=3), zero_layers(3, n=3) + [narrow]):
            with pytest.raises(ShapeError, match=r"W has shape \((2, 2|3, 3)\), expected"):
                ModelParams("mss-dae", layers)

    def test_bias_must_be_column(self):
        w = np.ones((2, 2))
        with pytest.raises(ShapeError):
            ModelParams("dae", [(w, np.zeros(2)), (w, np.zeros((2, 1)))])

    def test_init_params_deterministic_with_zero_biases(self):
        a = init_params("mss-dae", 16, make_rng(5))
        b = init_params("mss-dae", 16, make_rng(5))
        assert len(a.layers) == 4
        for (wa, ba), (wb, _) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert not ba.any()


class TestForward:
    def test_dae_hand_value(self):
        # layer 1: W=[[1,0],[0,-1]], b=[1,0]; layer 2: W=2I
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        w2 = 2.0 * np.eye(2)
        p = params_from("dae", [w1, w2], [np.array([[1.0], [0.0]]), np.zeros((2, 1))])
        acts = forward(p, np.array([[1.0], [2.0]]))
        # pre1 = [2, -2], post1 = [2, 0]; pre2 = [4, 0] -> output [4, 0]
        assert len(acts) == 3
        assert acts[0].tolist() == [[1.0], [2.0]]
        assert acts[1].tolist() == [[2.0], [0.0]]
        assert acts[2].tolist() == [[4.0], [0.0]]
        assert model_output(p, acts) is acts[-1]

    def test_sf_multiplies_mask_with_input(self):
        p = params_from("sf", [np.eye(2), np.eye(2)])
        x = np.array([[2.0, 3.0], [0.5, 1.0]])
        acts = forward(p, x)
        assert np.array_equal(acts[-1], x)
        assert np.array_equal(model_output(p, acts), x * x)

    def test_encoder_weights_applied_before_decoder(self):
        w1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        p = params_from("dae", [w1, np.eye(2)])
        acts = forward(p, np.array([[1.0], [2.0]]))
        assert acts[1].tolist() == [[3.0], [2.0]]
        assert acts[2].tolist() == [[3.0], [2.0]]

    def test_batch_columns_are_independent(self):
        p = init_params("dae", 6, make_rng(0))
        x = make_rng(1).normal(size=(6, 5))
        batched = forward(p, x)[-1]
        for t in range(5):
            single = forward(p, x[:, t : t + 1])[-1]
            assert np.allclose(batched[:, t : t + 1], single, atol=1e-12)

    def test_rejects_wrong_row_count(self):
        p = init_params("dae", 4, make_rng(0))
        with pytest.raises(ShapeError):
            forward(p, np.ones((3, 2)))

    def test_rejects_non_finite_input(self):
        p = init_params("dae", 2, make_rng(0))
        with pytest.raises(ValueError, match="non-finite"):
            forward(p, np.array([[1.0], [np.nan]]))

    def test_keeps_one_array_per_layer(self):
        # the 4-layer mss-dae at n=257, T=350: the four ReLU outputs plus a bool
        # finiteness temporary peak at 4.09 (n, T) arrays; 8.0 while every
        # layer's pre-activation was kept beside its output
        p = init_params("mss-dae", 257, make_rng(0))
        x = np.abs(make_rng(1).normal(size=(257, 350))) + 0.1
        tracemalloc.start()
        try:
            acts = forward(p, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(acts) == 5 and acts[0] is x
        assert peak < 6 * x.nbytes


class TestMse:
    def test_hand_value(self, mse):
        assert mse([[1.0], [0.0]], [[0.0], [1.0]]) == 1.0

    def test_mean_over_all_entries(self, mse):
        assert mse([[1.0, 1.0]], [[0.0, 1.0]]) == 0.5

    def test_zero_at_equality(self, mse):
        x = make_rng(5).normal(size=(3, 4))
        assert mse(x, x) == 0.0

    def test_quadratic_in_scale(self, mse):
        a = make_rng(6).normal(size=(2, 3))
        b = make_rng(7).normal(size=(2, 3))
        assert np.isclose(mse(3.0 * a, 3.0 * b), 9.0 * mse(a, b), rtol=1e-12)

    def test_shape_mismatch(self, mse):
        with pytest.raises(ShapeError):
            mse(np.ones((2, 2)), np.ones((2, 3)))


class TestBackward:
    def test_single_linear_path_hand_value(self, backward_grads):
        # identity weights keep everything positive: out = x + b1 + b2
        p = params_from(
            "dae",
            [np.eye(1), np.eye(1)],
            [np.array([[1.0]]), np.array([[1.0]])],
        )
        x = np.array([[1.0]])
        acts = forward(p, x)
        assert acts[-1].tolist() == [[3.0]]
        grads = backward_grads(p, acts, np.array([[0.0]]))
        # d_out = 2*(3-0) = 6; decoder: dW2 = 6*post1 = 12, db2 = 6
        # encoder: d_post1 = 6, dW1 = 6*x = 6, db1 = 6
        assert grads[1][0].tolist() == [[12.0]]
        assert grads[1][1].tolist() == [[6.0]]
        assert grads[0][0].tolist() == [[6.0]]
        assert grads[0][1].tolist() == [[6.0]]

    def test_exact_fit_gives_zero_gradients(self, backward_grads):
        p = params_from("dae", [np.eye(3), np.eye(3)])
        x = np.abs(make_rng(8).normal(size=(3, 5))) + 0.1
        acts = forward(p, x)
        assert np.array_equal(acts[-1], x)
        for dw, db in backward_grads(p, acts, x):
            assert np.array_equal(dw, np.zeros((3, 3)))
            assert np.array_equal(db, np.zeros((3, 1)))

    def test_dead_unit_receives_no_gradient(self, backward_grads):
        # encoder row 1 is strongly negative: unit 1 never activates on
        # positive input, so its weight row and bias stay untouched; an
        # all-zero row sits exactly on the kink, where relu'(0) = 0 too
        x = np.abs(make_rng(9).normal(size=(2, 6))) + 0.1
        for row in ([-5.0, -5.0], [0.0, 0.0]):
            w1 = np.array([[1.0, 0.0], row])
            p = params_from("dae", [w1, np.ones((2, 2))])
            assert ((w1 @ x)[1] <= 0.0).all()
            grads = backward_grads(p, forward(p, x), np.zeros((2, 6)))
            assert np.array_equal(grads[0][0][1, :], np.zeros(2))
            assert grads[0][1][1, 0] == 0.0
            assert np.abs(grads[0][0][0, :]).min() > 0.0

    @pytest.mark.parametrize(
        "arch", ["dae", "mss-dae", "sf"]
    )
    def test_matches_finite_differences(self, arch, backward_grads, mse):
        n, t, h = 5, 3, 1e-6
        rng = make_rng([42, FAMILIES[arch], arch == "sf"])
        p = init_params(arch, n, rng)
        # shift biases so no pre-activation sits on the relu kink
        p = ModelParams(p.tag, [(w, b + 0.05) for w, b in p.layers])
        x = np.abs(rng.normal(size=(n, t))) + 0.1
        tgt = np.abs(rng.normal(size=(n, t)))
        grads = backward_grads(p, forward(p, x), tgt)

        def loss_with(layer, idx, delta, which):
            layers = [(w.copy(), b.copy()) for w, b in p.layers]
            if which == "w":
                layers[layer][0][idx] += delta
            else:
                layers[layer][1][idx] += delta
            q = ModelParams(p.tag, layers)
            return mse(tgt, model_output(q, forward(q, x)))

        for layer in range(FAMILIES[arch]):
            for which, g in (("w", grads[layer][0]), ("b", grads[layer][1])):
                it = np.ndindex(*g.shape)
                for idx in it:
                    fd = (
                        loss_with(layer, idx, h, which)
                        - loss_with(layer, idx, -h, which)
                    ) / (2 * h)
                    denom = max(abs(fd), abs(g[idx]), 1e-8)
                    assert abs(fd - g[idx]) / denom < 1e-4

    @pytest.mark.parametrize(
        "arch", ["dae", "mss-dae", "sf"]
    )
    def test_returned_loss_is_the_batch_mse(self, arch, mse):
        # in float32, as training runs it: the loss is the dot of the
        # residual with itself over its size, and that sum of r.size float32
        # squares rounds within r.size float32 epsilons of the float64 mean
        rng = make_rng([43, FAMILIES[arch], arch == "sf"])
        p = init_params(arch, 5, rng)
        p = ModelParams(arch, [(w.astype(np.float32), b.astype(np.float32))
                               for w, b in p.layers])
        x = np.abs(rng.normal(size=(5, 7)))
        tgt = np.abs(rng.normal(size=(5, 7))).astype(np.float32)
        acts = forward(p, x)
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in p.layers]
        [loss] = backward(p, acts, tgt, grads)
        r = (model_output(p, acts) - tgt).ravel()
        assert r.dtype == np.float32
        assert loss == float(np.dot(r, r)) / r.size
        want = mse(tgt, model_output(p, acts))
        assert abs(loss - want) <= r.size * np.finfo(np.float32).eps * want

    @pytest.mark.parametrize(
        "arch", ["dae", "mss-dae", "sf"]
    )
    def test_reused_arrays_match_fresh_ones(self, arch, backward_grads):
        rng = make_rng([44, FAMILIES[arch], arch == "sf"])
        p = init_params(arch, 5, rng)
        p = ModelParams(p.tag, [(w, b + 0.05) for w, b in p.layers])
        x1, x2 = (np.abs(rng.normal(size=(5, 6))) for _ in range(2))
        grads = backward_grads(p, forward(p, x1), 0.5 * x1)
        backward(p, forward(p, x2), 0.5 * x2, grads)
        for (dw, db), (fw, fb) in zip(grads, backward_grads(p, forward(p, x2), 0.5 * x2)):
            assert np.array_equal(dw, fw)
            assert np.array_equal(db, fb)

    @pytest.mark.parametrize("n", [64, 257])
    @pytest.mark.parametrize(
        "arch", ["dae", "mss-dae", "sf"]
    )
    def test_float32_bits_do_not_depend_on_the_batch_layout(self, arch, n):
        # training gathers a batch as rows and passes their (n, B) F-order
        # transpose; a column gather of the same frames is C-order
        rng = make_rng([45, n, FAMILIES[arch]])
        layers = [(w.astype(np.float32), np.float32(0.05) + b.astype(np.float32))
                  for w, b in init_params(arch, n, rng).layers]
        p = ModelParams(arch, layers)
        mix, tgt = (np.abs(rng.normal(size=(128, n))).astype(np.float32) + 0.2 for _ in range(2))
        runs = []
        for x, y in ((mix.T, tgt.T), (np.ascontiguousarray(mix.T), np.ascontiguousarray(tgt.T))):
            acts = forward(p, x)
            grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
            runs.append((acts, backward(p, acts, y, grads), grads))
        (acts_f, loss_f, grads_f), (acts_c, loss_c, grads_c) = runs
        assert acts_f[0].flags.f_contiguous and acts_c[0].flags.c_contiguous
        assert loss_f == loss_c
        for a, b in zip(acts_f, acts_c):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
        for (dw_f, db_f), (dw_c, db_c) in zip(grads_f, grads_c):
            assert dw_f.dtype == np.float32
            assert np.array_equal(dw_f, dw_c) and np.array_equal(db_f, db_c)

    @pytest.mark.parametrize("n", [64, 257])
    @pytest.mark.parametrize("arch", ["dae", "mss-dae", "sf"])
    def test_a_stack_gives_each_model_its_own_bits(self, arch, n):
        # K models stacked as (K, n, n) weights and a (K, n, B) batch, each
        # batch the transposed view of gathered rows as training passes it:
        # the loss and every dW and db of each model equal its own 2-D call
        k_models, frames = 3, 128
        rng = make_rng([46, n, FAMILIES[arch]])
        models = [init_params(arch, n, rng).layers for _ in range(k_models)]
        stack = ModelParams(arch, [
            (np.stack([m[i][0] for m in models]).astype(np.float32),
             np.float32(0.05) + np.stack([m[i][1] for m in models]).astype(np.float32))
            for i in range(FAMILIES[arch])])
        mix, tgt = (np.abs(rng.normal(size=(k_models, frames, n))).astype(np.float32) + 0.2
                    for _ in range(2))
        x, y = mix.swapaxes(1, 2), tgt.swapaxes(1, 2)
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in stack.layers]
        losses = backward(stack, forward_unchecked(stack, x), y, grads)
        assert len(losses) == k_models
        for k in range(k_models):
            one = ModelParams(arch, [(w[k], b[k]) for w, b in stack.layers])
            one_grads = [(np.empty_like(w), np.empty_like(b)) for w, b in one.layers]
            assert backward(one, forward(one, x[k]), y[k], one_grads) == [losses[k]]
            for (dw, db), (one_dw, one_db) in zip(grads, one_grads):
                assert np.array_equal(dw[k], one_dw) and np.array_equal(db[k], one_db)

    def test_stacked_weights_keep_their_shape_checks(self):
        w, b = np.zeros((2, 3, 3)), np.zeros((2, 3, 1))
        assert ModelParams("dae", [(w, b), (w, b)]).n == 3
        with pytest.raises(ShapeError,
                           match=r"layer 1: b has shape \(3, 1\), expected \(2, 3, 1\)"):
            ModelParams("dae", [(w, b), (w, b[0])])

    def test_activation_count_checked(self, backward_grads):
        p = init_params("dae", 2, make_rng(0))
        acts = forward(p, np.ones((2, 3)))
        with pytest.raises(ValueError, match="4 activations for 2 layers"):
            backward_grads(p, acts + [acts[-1]], np.ones((2, 3)))

    def test_target_shape_checked(self, backward_grads):
        p = init_params("dae", 2, make_rng(0))
        acts = forward(p, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            backward_grads(p, acts, np.ones((2, 2)))


class TestCheckpointCodec:
    @pytest.mark.parametrize("tag, count", [("dae", 2), ("mss-dae", 5), ("sf", 2)],
                             ids=["dae", "mss-dae", "sf"])
    def test_round_trip(self, tmp_path, tag, count):
        # 5 layers: a checkpoint of a depth init_params does not build loads
        rng = make_rng(11)
        p = ModelParams(tag, [(rng.normal(size=(6, 6)), rng.normal(size=(6, 1)))
                              for _ in range(count)])
        path = tmp_path / f"{tag}.ncm"
        save_checkpoint(path, p, seed=9, epochs=42)
        ck = load_checkpoint(path)
        assert isinstance(ck, Checkpoint)
        assert (ck.params.tag, len(ck.params.layers), ck.params.n) == (tag, count, 6)
        assert ck.seed == 9
        assert ck.epochs == 42
        for (w0, b0), (w1, b1) in zip(p.layers, ck.params.layers):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_refuses_non_finite_weights(self, tmp_path):
        p = init_params("dae", 2, make_rng(0))
        p.layers[0][0][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(tmp_path / "x.ncm", p, 0, 0)

    def test_unknown_arch_byte(self, tmp_path):
        path = tmp_path / "a.ncm"
        save_checkpoint(path, init_params("dae", 2, make_rng(0)), 0, 0)
        raw = bytearray(path.read_bytes())
        raw[8] = 9  # architecture byte follows magic and version
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="architecture byte"):
            load_checkpoint(path)

    def test_width_from_the_header_alone(self, tmp_path):
        path = tmp_path / "w.ncm"
        save_checkpoint(path, init_params("mss-dae", 7, make_rng(0)), 0, 0)
        raw = path.read_bytes()
        path.write_bytes(raw[:13])  # magic, version, tag and n; no body
        assert checkpoint_width(path) == 7
        for offset, value, match in ((0, 0, "magic"), (4, 9, "newer"),
                                     (8, 9, "architecture byte")):
            bad = bytearray(raw)
            bad[offset] = value
            path.write_bytes(bytes(bad))
            with pytest.raises(serial.FormatError, match=match):
                checkpoint_width(path)

    def test_layer_count_must_match_arch(self, tmp_path):
        # write an sf checkpoint, then relabel it mss-dae (needs >= 3 layers)
        path = tmp_path / "b.ncm"
        save_checkpoint(path, init_params("sf", 2, make_rng(0)), 0, 0)
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="malformed"):
            load_checkpoint(path)

    def test_header_width_must_match_the_layers(self, tmp_path):
        path = tmp_path / "n.ncm"
        save_checkpoint(path, init_params("dae", 2, make_rng(0)), 0, 0)
        raw = bytearray(path.read_bytes())
        raw[9:13] = (3).to_bytes(4, "little")  # n follows magic, version and tag
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError,
                           match="malformed checkpoint: layers are 2 wide, the header says 3"):
            load_checkpoint(path)

    def test_hostile_matrix_size(self, tmp_path):
        path = tmp_path / "h.ncm"
        save_checkpoint(path, init_params("dae", 2, make_rng(0)), 0, 0)
        raw = bytearray(path.read_bytes())
        # first W header (u32 rows, u32 cols) follows magic, version, tag, n, layer count
        raw[17:25] = b"\xff" * 8
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="truncated"):
            load_checkpoint(path)

    def test_non_finite_weights(self, tmp_path):
        path = tmp_path / "nan.ncm"
        save_checkpoint(path, init_params("dae", 2, make_rng(0)), 0, 0)
        raw = bytearray(path.read_bytes())
        raw[25:33] = np.array([np.nan], dtype="<f8").tobytes()  # W_1[0, 0]
        path.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="non-finite"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "c.ncm"
        save_checkpoint(path, init_params("dae", 2, make_rng(0)), 0, 0)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(serial.FormatError, match="truncated"):
            load_checkpoint(path)
