"""Model partitioning: the split a pipeline run uses, validity, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import even_stage_split
from repro.api import ClusterSpec, Experiment, ModelSpec, ParallelismSpec
from repro.errors import ConfigurationError
from repro.nn import Identity, Sequential
from repro.parallel import partition_by_sizes


class TestPartition:
    def test_by_sizes(self):
        model = Sequential([Identity() for _ in range(5)])
        stages = partition_by_sizes(model, [2, 3])
        assert [len(s) for s in stages] == [2, 3]

    def test_sizes_must_cover(self):
        model = Sequential([Identity() for _ in range(5)])
        with pytest.raises(ConfigurationError):
            partition_by_sizes(model, [2, 2])

    def test_empty_stage_rejected(self):
        model = Sequential([Identity() for _ in range(3)])
        with pytest.raises(ConfigurationError):
            partition_by_sizes(model, [3, 0])

    def test_even_split(self):
        model, stages = even_stage_split(
            ModelSpec(family="mlp", dim=8, hidden_dim=16, depth=3), 3)
        assert sum(len(s) for s in stages) == len(model)
        assert max(len(s) for s in stages) - min(len(s) for s in stages) <= 1
        counts = [s.num_parameters() for s in stages]
        assert max(counts) < model.num_parameters()

    def test_partition_preserves_semantics(self):
        model, stages = even_stage_split(
            ModelSpec(family="mlp", dim=6, hidden_dim=12, num_classes=3,
                      seed=4), 3)
        x = np.random.default_rng(0).normal(size=(2, 6))
        full = model(x)
        h = x
        for s in stages:
            h = s(h)
        assert np.array_equal(full, h)

    def test_stages_share_parameters_with_model(self):
        """Partition slices reference the original layers (no copies)."""
        model, stages = even_stage_split(
            ModelSpec(family="mlp", dim=6, hidden_dim=12, num_classes=3), 2)
        stage_param_ids = {id(p) for s in stages for p in s.parameters()}
        model_param_ids = {id(p) for p in model.parameters()}
        assert stage_param_ids == model_param_ids


def _pp(depth, workers, **parallelism):
    return Experiment(
        model=ModelSpec(family="mlp", dim=4, hidden_dim=8, depth=depth),
        cluster=ClusterSpec(num_machines=workers, devices_per_machine=1),
        parallelism=ParallelismSpec(kind="pp", num_workers=workers,
                                    **parallelism),
    )


#: one input batch per model family, shaped for its ``ModelSpec`` defaults
FAMILY_INPUTS = {
    "wide_resnet": lambda rng: rng.normal(size=(2, 3, 16, 16)),
    "vit": lambda rng: rng.normal(size=(2, 3, 16, 16)),
    "bert": lambda rng: rng.integers(0, 32, size=(2, 8)),
}


class TestEvenLayerSplit:
    """``Experiment.resolved_partition_sizes``: the split every pipeline
    run without explicit ``partition_sizes`` uses."""

    @settings(deadline=None, max_examples=40)
    @given(depth=st.integers(1, 10), data=st.data())
    def test_property_valid_and_balanced(self, depth, data):
        layers = ModelSpec(family="mlp", dim=4, hidden_dim=8,
                           depth=depth).num_partitionable_layers()
        workers = data.draw(st.integers(1, layers))
        sizes = _pp(depth, workers).validate().resolved_partition_sizes()
        assert len(sizes) == workers
        assert sum(sizes) == layers
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert list(sizes) == sorted(sizes, reverse=True)

    def test_explicit_sizes_pass_through(self):
        exp = _pp(2, 2, partition_sizes=(1, 4))
        assert exp.validate().resolved_partition_sizes() == (1, 4)

    def test_non_pipeline_run_has_no_split(self):
        exp = _pp(2, 2).with_(parallelism=ParallelismSpec(kind="dp",
                                                          num_workers=2))
        assert exp.resolved_partition_sizes() is None

    def test_interleaved_cuts_a_chunk_per_virtual_stage(self):
        exp = _pp(4, 2, schedule="interleaved_1f1b", num_microbatches=2)
        sizes = exp.validate().resolved_partition_sizes()
        assert len(sizes) == 4  # 2 workers x 2 virtual stages
        assert sum(sizes) == exp.model.num_partitionable_layers()

    def test_too_many_stages_rejected(self):
        layers = ModelSpec(family="mlp", dim=4, hidden_dim=8,
                           depth=1).num_partitionable_layers()
        with pytest.raises(ConfigurationError, match="cannot split"):
            _pp(1, layers + 1).validate()

    @pytest.mark.parametrize("family", sorted(FAMILY_INPUTS))
    def test_split_preserves_semantics(self, family):
        model, stages = even_stage_split(
            ModelSpec(family=family, dim=8, depth=2, seed=4), 2)
        x = FAMILY_INPUTS[family](np.random.default_rng(0))
        h = x
        for s in stages:
            h = s(h)
        assert np.array_equal(model(x), h)

