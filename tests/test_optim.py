"""Optimizer correctness: updates, undo exactness, Table-1 invertibility."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotInvertibleError, ShapeError
from repro.models import make_mlp
from repro.nn import CrossEntropyLoss, Linear, Parameter
from repro.optim import (
    AMSGrad,
    Adam,
    AdamW,
    LAMB,
    OPTIMIZER_FAMILIES,
    OPTIMIZER_TABLE1_BY_CLASS,
    OPTIMIZER_TABLE1_NAMES,
    SGD,
    SGDMomentum,
    optimizer_invertible,
    table1_rows,
)

RNG = np.random.default_rng(3)

ALL_INVERTIBLE = [
    (SGD, dict(lr=0.05, weight_decay=1e-3)),
    (SGDMomentum, dict(lr=0.05, momentum=0.9, dampening=0.1, weight_decay=1e-3)),
    (Adam, dict(lr=0.01, weight_decay=1e-3)),
    (AdamW, dict(lr=0.01, weight_decay=0.01)),
    (LAMB, dict(lr=0.01, weight_decay=0.01)),
]


def small_problem(seed=0):
    model = make_mlp(6, 10, 3, seed=seed)
    x = np.random.default_rng(seed).normal(size=(8, 6))
    y = np.random.default_rng(seed + 1).integers(0, 3, 8)
    return model, x, y


def one_step(model, opt, x, y):
    model.zero_grad()
    lf = CrossEntropyLoss()
    loss = lf(model(x), y)
    model.backward(lf.backward())
    opt.step_flat()
    return loss


class TestUpdates:
    @pytest.mark.parametrize("cls,kw", ALL_INVERTIBLE + [(AMSGrad, dict(lr=0.01))])
    def test_loss_decreases(self, cls, kw):
        model, x, y = small_problem()
        opt = cls(model, **kw)
        losses = [one_step(model, opt, x, y) for _ in range(20)]
        assert losses[-1] < losses[0]

    def test_sgd_matches_closed_form(self):
        p = Parameter(np.array([1.0, 2.0]))
        opt = SGD([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = np.array([0.5, -0.5])
        opt.step_flat()
        assert np.allclose(p.data, [0.95, 2.05])

    def test_sgd_momentum_matches_closed_form(self):
        p = Parameter(np.array([1.0]))
        opt = SGDMomentum([("p", p)], lr=0.1, momentum=0.5, dampening=0.0)
        p.grad = np.array([1.0])
        opt.step_flat()  # m=1, x = 1 - 0.1 = 0.9
        assert np.allclose(p.data, [0.9])
        opt.step_flat()  # m = 0.5 + 1 = 1.5, x = 0.9 - 0.15 = 0.75
        assert np.allclose(p.data, [0.75])

    def test_adam_bias_correction_first_step(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([("p", p)], lr=0.1, betas=(0.9, 0.999), eps=0.0)
        p.grad = np.array([2.0])
        opt.step_flat()
        # after bias correction the first step is ~lr * sign(g)
        assert np.allclose(p.data, [-0.1])

    def test_step_without_grad_fails(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([("p", p)], lr=0.1)
        with pytest.raises(ShapeError):
            opt.step_flat()

    def test_skips_non_trainable_params(self):
        trainable = Parameter(np.zeros(2))
        frozen = Parameter(np.zeros(2), requires_grad=False)
        opt = SGD([("a", trainable), ("b", frozen)], lr=0.1)
        assert set(opt.params) == {"a"}

    def test_empty_params_rejected(self):
        with pytest.raises(ShapeError):
            SGD([], lr=0.1)

    def test_lamb_trust_ratio_journal(self):
        model, x, y = small_problem()
        opt = LAMB(model, lr=0.01)
        one_step(model, opt, x, y)
        name = next(iter(opt.params))
        assert "trust" in opt.undo_journal[name]
        assert opt.undo_journal[name]["trust"] > 0


class TestUndo:
    @pytest.mark.parametrize("cls,kw", ALL_INVERTIBLE)
    def test_single_step_roundtrip(self, cls, kw):
        model, x, y = small_problem(1)
        opt = cls(model, **kw)
        x0 = model.state_dict()
        one_step(model, opt, x, y)
        opt.undo()
        x_rec = model.state_dict()
        for k in x0:
            assert np.allclose(x0[k], x_rec[k], atol=1e-9), k

    @pytest.mark.parametrize("cls,kw", ALL_INVERTIBLE)
    def test_undo_after_many_steps(self, cls, kw):
        model, x, y = small_problem(2)
        opt = cls(model, **kw)
        for _ in range(5):
            one_step(model, opt, x, y)
        x5 = model.state_dict()
        s5 = opt.state_dict()
        one_step(model, opt, x, y)
        opt.undo()
        for k in x5:
            assert np.allclose(x5[k], model.state_dict()[k], atol=1e-8), k
        s_rec = opt.state_dict()
        for k in s5:
            assert np.allclose(s5[k], s_rec[k], atol=1e-7), k

    @pytest.mark.parametrize("cls,kw", ALL_INVERTIBLE)
    def test_partial_undo_subset(self, cls, kw):
        """Undo only some parameters — the Figure 4/5 scenario."""
        model, x, y = small_problem(3)
        opt = cls(model, **kw)
        one_step(model, opt, x, y)
        x1 = model.state_dict()
        model_state_before = {k: v.copy() for k, v in x1.items()}
        # second iteration: compute grads, update only half the params
        model.zero_grad()
        lf = CrossEntropyLoss()
        lf(model(x), y)
        model.backward(lf.backward())
        names = list(opt.params)
        updated = names[: len(names) // 2]
        opt.step_flat(count=len(updated))
        opt.undo(updated)
        for k in model_state_before:
            assert np.allclose(
                model_state_before[k], model.state_dict()[k], atol=1e-9
            ), k

    def test_undo_without_step_fails(self):
        p = Parameter(np.zeros(2))
        opt = SGD([("p", p)], lr=0.1)
        p.grad = np.ones(2)
        with pytest.raises(NotInvertibleError):
            opt.undo_param("p")

    def test_undo_uses_journaled_lr(self):
        """Learning-rate schedules: undo must use the lr of the undone step."""
        p = Parameter(np.array([1.0]))
        opt = SGD([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step_flat()
        opt.lr = 0.5  # schedule moved on
        opt.undo_param("p")
        assert np.allclose(p.data, [1.0])

    def test_amsgrad_not_invertible(self):
        model, x, y = small_problem(4)
        opt = AMSGrad(model, lr=0.01)
        one_step(model, opt, x, y)
        with pytest.raises(NotInvertibleError):
            opt.undo()

    def test_momentum_zero_undo_restores_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGDMomentum([("p", p)], lr=0.1, momentum=0.0)
        p.grad = np.array([1.0])
        opt.step_flat()
        opt.undo_param("p")
        assert np.allclose(p.data, [1.0])


class TestConfigGuards:
    def test_sgd_non_invertible_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD([("p", Parameter(np.zeros(1)))], lr=1.0, weight_decay=1.0)

    def test_adam_zero_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam([("p", Parameter(np.zeros(1)))], lr=0.1, betas=(0.0, 0.999))

    def test_adamw_decay_guard(self):
        with pytest.raises(ConfigurationError):
            AdamW([("p", Parameter(np.zeros(1)))], lr=1.0, weight_decay=1.0)

    def test_momentum_range(self):
        with pytest.raises(ConfigurationError):
            SGDMomentum([("p", Parameter(np.zeros(1)))], lr=0.1, momentum=1.5)


class TestStateDict:
    @pytest.mark.parametrize("cls,kw", ALL_INVERTIBLE)
    def test_roundtrip_resumes_identically(self, cls, kw):
        model_a, x, y = small_problem(5)
        opt_a = cls(model_a, **kw)
        for _ in range(3):
            one_step(model_a, opt_a, x, y)
        # clone into a fresh model/optimizer
        model_b = make_mlp(6, 10, 3, seed=99)
        model_b.load_state_dict(model_a.state_dict())
        opt_b = cls(model_b, **kw)
        opt_b.load_state_dict(opt_a.state_dict())
        one_step(model_a, opt_a, x, y)
        one_step(model_b, opt_b, x, y)
        sa, sb = model_a.state_dict(), model_b.state_dict()
        for k in sa:
            assert np.array_equal(sa[k], sb[k]), k

    def test_unknown_param_rejected(self):
        opt = SGD([("p", Parameter(np.zeros(1)))], lr=0.1)
        with pytest.raises(ShapeError):
            opt.load_state_dict({"q::step": np.array(1)})


class TestTable1:
    def test_invertibility_classification(self):
        assert optimizer_invertible("SGD")
        assert optimizer_invertible("Adam")
        assert optimizer_invertible("AdamW")
        assert optimizer_invertible("LAMB")
        assert not optimizer_invertible("AMSGrad")

    def test_unknown_optimizer(self):
        with pytest.raises(KeyError):
            optimizer_invertible("Adagrad")

    def test_table_rows_cover_all_operators(self):
        rows = table1_rows()
        names = {r["operator"] for r in rows}
        assert {"EW add", "scalar mul", "EW-max"} <= names
        ew_max = next(r for r in rows if r["operator"] == "EW-max")
        assert ew_max["AMSGrad"] and not ew_max["invertible"]
        assert not ew_max["SGD"]

    def test_classes_match_table(self):
        assert SGD.invertible and Adam.invertible and LAMB.invertible
        assert not AMSGrad.invertible

    def test_class_names_map_to_table1_rows(self):
        """Published workloads name optimizers by class; one derived map
        takes those names to Table-1 rows."""
        assert OPTIMIZER_TABLE1_BY_CLASS == {
            "SGD": "SGD", "SGDMomentum": "SGD", "Adam": "Adam",
            "AdamW": "AdamW", "LAMB": "LAMB", "AMSGrad": "AMSGrad",
        }

    @pytest.mark.parametrize("family", sorted(OPTIMIZER_FAMILIES))
    def test_class_undo_follows_its_table1_row(self, family):
        """The planner prices replication by the Table-1 row; the optimizer
        undoes by its class flag.  The two must agree."""
        cls = OPTIMIZER_FAMILIES[family]
        assert cls.invertible == optimizer_invertible(
            OPTIMIZER_TABLE1_NAMES[family])
