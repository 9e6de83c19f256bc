"""Gradient-exactness and behaviour tests for every nn layer."""

import numpy as np
import pytest

from helpers import bind_grads, numerical_grad_check
from repro.errors import ShapeError
from repro.nn import (
    GELU,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    PositionalEmbedding,
    ReLU,
    Sequential,
    softmax,
)
from repro.nn.transformer import MLPBlock, TransformerEncoderLayer
from repro.utils.seeding import RngStream

RNG = np.random.default_rng(42)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3)
        assert layer(RNG.normal(size=(7, 5))).shape == (7, 3)

    def test_forward_3d_input(self):
        layer = Linear(5, 3)
        assert layer(RNG.normal(size=(2, 4, 5))).shape == (2, 4, 3)

    def test_gradients(self):
        numerical_grad_check(Linear(5, 3, rng=RngStream(1)), RNG.normal(size=(4, 5)))

    def test_gradients_3d(self):
        numerical_grad_check(
            Linear(5, 3, rng=RngStream(1)), RNG.normal(size=(2, 3, 5))
        )

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_deterministic_init(self):
        a = Linear(5, 3, rng=RngStream(1, "x"))
        b = Linear(5, 3, rng=RngStream(1, "x"))
        assert np.array_equal(a.weight.data, b.weight.data)


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, GELU, Identity])
    def test_gradients(self, cls):
        numerical_grad_check(cls(), RNG.normal(size=(4, 6)))

    def test_relu_clamps(self):
        y = ReLU()(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, [0.0, 0.0, 2.0])

    def test_gelu_between_zero_and_identity(self):
        x = np.linspace(0.5, 3, 10)
        y = GELU()(x)
        assert np.all(y > 0) and np.all(y <= x)

    def test_identity_passthrough(self):
        x = RNG.normal(size=(3, 3))
        layer = Identity()
        assert np.array_equal(layer(x), x)
        assert np.array_equal(layer.backward(x), x)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=RngStream(0))
        layer.eval()
        x = RNG.normal(size=(4, 4))
        assert np.array_equal(layer(x), x)

    def test_deterministic_given_counter(self):
        a = Dropout(0.5, rng=RngStream(0, "d"))
        b = Dropout(0.5, rng=RngStream(0, "d"))
        x = RNG.normal(size=(8, 8))
        assert np.array_equal(a(x), b(x))

    def test_counter_advances_mask(self):
        layer = Dropout(0.5, rng=RngStream(0, "d"))
        x = np.ones((16, 16))
        y1, y2 = layer(x), layer(x)
        assert not np.array_equal(y1, y2)

    def test_replay_by_rewinding_counter(self):
        layer = Dropout(0.5, rng=RngStream(0, "d"))
        x = np.ones((16, 16))
        y1 = layer(x)
        layer.counter = 0  # seek back, as an engine does before a forward
        assert np.array_equal(layer(x), y1)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.3, rng=RngStream(0))
        x = RNG.normal(size=(6, 6))
        y = layer(x)
        g = layer.backward(np.ones_like(x))
        assert np.array_equal((y != 0), (g != 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestNormalization:
    def test_layernorm_gradients(self):
        numerical_grad_check(LayerNorm(6), RNG.normal(size=(4, 6)))

    def test_layernorm_3d_gradients(self):
        numerical_grad_check(LayerNorm(5), RNG.normal(size=(2, 3, 5)))

    def test_layernorm_normalizes(self):
        y = LayerNorm(16)(RNG.normal(size=(8, 16)) * 5 + 3)
        assert np.allclose(y.mean(axis=-1), 0, atol=1e-6)
        assert np.allclose(y.std(axis=-1), 1, atol=1e-2)

    def test_batchnorm_gradients(self):
        numerical_grad_check(
            BatchNorm2d(3), RNG.normal(size=(4, 3, 5, 5)), atol=1e-4
        )

    def test_batchnorm_normalizes_in_train(self):
        bn = BatchNorm2d(3)
        y = bn(RNG.normal(size=(16, 3, 4, 4)) * 2 + 1)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-6)

    def test_batchnorm_running_stats_update(self):
        bn = BatchNorm2d(2)
        before = bn.running_mean.data.copy()
        bn(RNG.normal(size=(8, 2, 3, 3)) + 5)
        assert not np.array_equal(before, bn.running_mean.data)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        for i in range(10):
            bn(RNG.normal(size=(8, 2, 3, 3)) + 5)
        bn.eval()
        mean_before = bn.running_mean.data.copy()
        bn(RNG.normal(size=(8, 2, 3, 3)) + 5)
        assert np.array_equal(mean_before, bn.running_mean.data)

    def test_batchnorm_rejects_non_4d(self):
        with pytest.raises(ValueError):
            BatchNorm2d(2)(RNG.normal(size=(4, 2)))

    def test_running_stats_not_trainable(self):
        bn = BatchNorm2d(2)
        assert not bn.running_mean.requires_grad
        assert not bn.running_var.requires_grad


class TestConv:
    def test_conv_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1)
        assert conv(RNG.normal(size=(2, 3, 8, 8))).shape == (2, 8, 4, 4)

    def test_conv_gradients(self):
        numerical_grad_check(
            Conv2d(2, 3, 3, padding=1, rng=RngStream(2)),
            RNG.normal(size=(2, 2, 5, 5)),
            atol=1e-4,
        )

    def test_conv_strided_gradients(self):
        numerical_grad_check(
            Conv2d(2, 3, 3, stride=2, padding=1, rng=RngStream(2)),
            RNG.normal(size=(2, 2, 6, 6)),
            atol=1e-4,
        )

    def test_conv_matches_explicit_computation(self):
        conv = Conv2d(1, 1, 2, bias=False, rng=RngStream(0))
        conv.weight.data = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv(x)
        # top-left window [0,1;3,4] . [0,1;2,3] = 0+1+6+12 = 19
        assert out[0, 0, 0, 0] == 19.0

    def test_global_avgpool_gradients(self):
        numerical_grad_check(GlobalAvgPool2d(), RNG.normal(size=(2, 3, 4, 4)))

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG.normal(size=(2, 3, 4))
        y = layer(x)
        assert y.shape == (2, 12)
        assert layer.backward(y).shape == x.shape


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=RngStream(3))
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out[0, 0], emb.weight.data[1])

    def test_gradient_accumulates_repeated_ids(self):
        emb = Embedding(10, 4, rng=RngStream(3))
        ids = np.array([[1, 1]])
        emb(ids)
        bind_grads(emb)
        emb.backward(np.ones((1, 2, 4)))
        assert np.allclose(emb.weight.grad[1], 2.0)
        assert np.allclose(emb.weight.grad[2], 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Embedding(4, 2)(np.array([[5]]))

    def test_positional_gradients(self):
        numerical_grad_check(
            PositionalEmbedding(6, 4, rng=RngStream(4)),
            RNG.normal(size=(2, 5, 4)),
        )

    def test_positional_rejects_long_sequences(self):
        with pytest.raises(ValueError):
            PositionalEmbedding(3, 4)(RNG.normal(size=(1, 5, 4)))


class TestAttention:
    def test_softmax_sums_to_one(self):
        y = softmax(RNG.normal(size=(3, 5)))
        assert np.allclose(y.sum(axis=-1), 1.0)

    def test_softmax_stability(self):
        y = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(y, 0.5)

    def test_mhsa_shape(self):
        attn = MultiHeadSelfAttention(8, 2, rng=RngStream(5))
        assert attn(RNG.normal(size=(2, 5, 8))).shape == (2, 5, 8)

    def test_mhsa_gradients(self):
        numerical_grad_check(
            MultiHeadSelfAttention(4, 2, rng=RngStream(5)),
            RNG.normal(size=(2, 3, 4)),
            atol=1e-4,
        )

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(5, 2)


class TestTransformer:
    def test_mlp_block_gradients(self):
        numerical_grad_check(
            MLPBlock(4, 8, rng=RngStream(6)), RNG.normal(size=(2, 3, 4))
        )

    def test_encoder_layer_gradients(self):
        numerical_grad_check(
            TransformerEncoderLayer(4, 2, rng=RngStream(6)),
            RNG.normal(size=(2, 3, 4)),
            atol=1e-4,
        )

    def test_encoder_layer_preserves_shape(self):
        layer = TransformerEncoderLayer(8, 2, rng=RngStream(6))
        assert layer(RNG.normal(size=(2, 5, 8))).shape == (2, 5, 8)


class TestSequential:
    def test_chains_layers(self):
        seq = Sequential([Linear(4, 8, rng=RngStream(7)), ReLU(),
                          Linear(8, 2, rng=RngStream(8))])
        assert seq(RNG.normal(size=(3, 4))).shape == (3, 2)

    def test_gradients(self):
        seq = Sequential([Linear(4, 6, rng=RngStream(7)), GELU(),
                          Linear(6, 2, rng=RngStream(8))])
        numerical_grad_check(seq, RNG.normal(size=(3, 4)))

    def test_slicing_returns_sequential(self):
        seq = Sequential([Identity(), Identity(), Identity()])
        assert isinstance(seq[0:2], Sequential)
        assert len(seq[0:2]) == 2

    def test_named_parameters_qualified(self):
        seq = Sequential([Linear(2, 2), Linear(2, 2)])
        names = [n for n, _ in seq.named_parameters()]
        assert "0.weight" in names and "1.weight" in names


class TestModuleStateDict:
    def test_roundtrip(self):
        a = Sequential([Linear(3, 3, rng=RngStream(1))])
        b = Sequential([Linear(3, 3, rng=RngStream(2))])
        b.load_state_dict(a.state_dict())
        x = RNG.normal(size=(2, 3))
        assert np.array_equal(a(x), b(x))

    def test_state_dict_is_a_copy(self):
        layer = Linear(3, 3)
        state = layer.state_dict()
        state["weight"][...] = 0
        assert not np.allclose(layer.weight.data, 0)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ShapeError):
            Linear(3, 3).load_state_dict({"weight": np.zeros((3, 3))})

    def test_mismatched_shape_rejected(self):
        with pytest.raises(ShapeError):
            Linear(3, 3).load_state_dict(
                {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
            )

    def test_grad_shape_guard(self):
        layer = Linear(3, 3)
        with pytest.raises(ShapeError):
            layer.weight.accumulate_grad(np.zeros((2, 2)))

    def test_backward_adds_into_the_bound_gradient(self):
        layer = Linear(3, 2)
        layer(RNG.normal(size=(2, 3)))
        with pytest.raises(ShapeError, match="no gradient buffer"):
            layer.backward(np.ones((2, 2)))
        buf = bind_grads(layer)
        layer.backward(np.ones((2, 2)))
        once = buf.data.copy()
        layer.backward(np.ones((2, 2)))
        assert np.array_equal(buf.data, 2 * once)
        assert layer.weight.grad.base is buf.data

    def test_num_parameters(self):
        layer = Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2
