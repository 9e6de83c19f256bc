"""Model builders: shapes, determinism, partitionability, trainability."""

import numpy as np
import pytest

from helpers import even_stage_split, numerical_grad_check
from repro.api import ModelSpec
from repro.models import make_bert, make_mlp, make_vit, make_wide_resnet
from repro.models.wide_resnet import BasicBlock
from repro.nn import CrossEntropyLoss
from repro.optim import SGDMomentum
from repro.utils.seeding import RngStream

RNG = np.random.default_rng(1)


class TestMLP:
    def test_shape(self):
        model = make_mlp(8, 16, 4, depth=2)
        assert model(RNG.normal(size=(3, 8))).shape == (3, 4)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            make_mlp(8, 16, 4, depth=0)

    def test_deterministic(self):
        a, b = make_mlp(4, 8, 2, seed=5), make_mlp(4, 8, 2, seed=5)
        x = RNG.normal(size=(2, 4))
        assert np.array_equal(a(x), b(x))

    def test_seeds_differ(self):
        a, b = make_mlp(4, 8, 2, seed=5), make_mlp(4, 8, 2, seed=6)
        assert not np.array_equal(
            a.state_dict()["0.weight"], b.state_dict()["0.weight"]
        )


class TestWideResNet:
    def test_shape(self):
        model = make_wide_resnet(num_classes=5, base_channels=4)
        assert model(RNG.normal(size=(2, 3, 8, 8))).shape == (2, 5)

    def test_basic_block_gradients(self):
        block = BasicBlock(3, 4, stride=1, rng=RngStream(1))
        numerical_grad_check(block, RNG.normal(size=(2, 3, 4, 4)), atol=1e-4)

    def test_basic_block_identity_skip_gradients(self):
        block = BasicBlock(4, 4, stride=1, rng=RngStream(1))
        numerical_grad_check(block, RNG.normal(size=(2, 4, 4, 4)), atol=1e-4)

    def test_width_scales_parameters(self):
        small = make_wide_resnet(base_channels=4).num_parameters()
        wide = make_wide_resnet(base_channels=8).num_parameters()
        assert wide > 3 * small

    def test_trains(self):
        model = make_wide_resnet(num_classes=3, base_channels=4)
        opt = SGDMomentum(model, lr=0.05)
        x = RNG.normal(size=(8, 3, 8, 8))
        y = RNG.integers(0, 3, 8)
        losses = []
        for _ in range(15):
            model.zero_grad()
            lf = CrossEntropyLoss()
            losses.append(lf(model(x), y))
            model.backward(lf.backward())
            opt.step_flat()
        assert losses[-1] < losses[0]


class TestViT:
    def test_shape(self):
        model = make_vit(image_size=16, patch=8, dim=16, depth=2, num_heads=2,
                         num_classes=7)
        assert model(RNG.normal(size=(2, 3, 16, 16))).shape == (2, 7)

    def test_flat_and_partitionable(self):
        model, stages = even_stage_split(ModelSpec(family="vit", depth=4), 3)
        assert len(stages) == 3
        assert sum(len(s) for s in stages) == len(model)

    def test_patch_divisibility_enforced(self):
        model = make_vit(image_size=16, patch=8)
        with pytest.raises(ValueError):
            model(RNG.normal(size=(1, 3, 15, 15)))

    def test_gradients_end_to_end(self):
        model = make_vit(image_size=8, patch=4, dim=8, depth=1, num_heads=2,
                         num_classes=3)
        numerical_grad_check(model, RNG.normal(size=(2, 3, 8, 8)), atol=1e-4)


class TestBert:
    def test_shape(self):
        model = make_bert(vocab_size=20, max_len=6, dim=8, depth=2, num_heads=2)
        ids = RNG.integers(0, 20, size=(2, 6))
        assert model(ids).shape == (2, 6, 20)

    def test_stage_per_layer_partition(self):
        spec = ModelSpec(family="bert", depth=4)
        _, stages = even_stage_split(spec, spec.num_partitionable_layers())
        assert all(len(s) == 1 for s in stages)

    def test_trains_on_token_task(self):
        from repro.data import TokenTask
        from repro.optim import Adam

        task = TokenTask(vocab_size=12, seq_len=4, batch_size=8, seed=0)
        model = make_bert(vocab_size=12, max_len=4, dim=16, depth=1,
                          num_heads=2, seed=3)
        opt = Adam(model, lr=0.01)
        losses = []
        for it in range(30):
            x, y = task.batch(it)
            model.zero_grad()
            lf = CrossEntropyLoss()
            losses.append(lf(model(x), y))
            model.backward(lf.backward())
            opt.step_flat()
        assert losses[-1] < losses[0] * 0.9
