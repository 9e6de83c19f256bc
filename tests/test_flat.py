"""Flat-buffer step: bitwise equivalence with the per-parameter reference.

The flat arena (`repro.utils.flat`) promises that the optimizer kernels,
the single all-reduce, and canonical-replica COW sharing are *bitwise*
equivalent to a per-parameter update (`optim_oracle`: one all-reduce and
one update per parameter per replica) — including MID_UPDATE
partial-update crash states and the update-undo / recovery flows that
consume them.  This suite pins that contract for every optimizer and both
engines.
"""

import numpy as np
import pytest

from helpers import (assert_shared, assert_untouched, engine_snapshot,
                     make_dp_engine, make_pp_engine)
from optim_oracle import eager_pipeline_steps, reference_step, reference_steps
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.core import SwiftTrainer, TrainerConfig
from repro.core.undo import resolve_dp_consistency
from repro.errors import ConfigurationError, NotInvertibleError, ShapeError
from repro.models import make_mlp
from repro.nn import Parameter
from repro.optim import AMSGrad, Adam, AdamW, LAMB, SGD, Optimizer, SGDMomentum
from repro.utils import FlatBuffer, state_equal, state_nbytes

OPTIMIZERS = {
    "sgd": lambda m: SGD(m, lr=0.05, weight_decay=1e-3),
    "sgd_momentum": lambda m: SGDMomentum(m, lr=0.05, momentum=0.9,
                                          dampening=0.1, weight_decay=1e-3),
    "adam": lambda m: Adam(m, lr=1e-3, weight_decay=1e-3),
    "adamw": lambda m: AdamW(m, lr=1e-3, weight_decay=1e-2),
    "lamb": lambda m: LAMB(m, lr=1e-3, weight_decay=1e-2),
    "amsgrad": lambda m: AMSGrad(m, lr=1e-3, weight_decay=1e-3),
}


def make_pair(opt_name, seed=3):
    """Two identical (model, optimizer) pairs for reference-vs-flat runs."""
    pairs = []
    for _ in range(2):
        model = make_mlp(6, 10, 4, depth=3, seed=seed)
        pairs.append((model, OPTIMIZERS[opt_name](model)))
    return pairs


def set_grads(model, rng):
    grads = {}
    for name, p in model.named_parameters():
        grads[name] = rng.normal(size=p.data.shape)
    for name, p in model.named_parameters():
        p.grad = np.array(grads[name], copy=True)
    return grads


def full_state(model, opt):
    state = {f"model/{k}": v for k, v in model.state_dict().items()}
    state.update({f"optim/{k}": v for k, v in opt.state_dict().items()})
    return state


class TestFlatBuffer:
    def test_layout_and_prefix(self):
        buf = FlatBuffer({"a": (2, 3), "b": (4,), "c": ()}, order=["b", "a", "c"])
        assert buf.order == ["b", "a", "c"]
        assert buf.size == 4 + 6 + 1
        assert buf.slices["b"] == slice(0, 4)
        assert buf.slices["a"] == slice(4, 10)
        assert buf.prefix_stop(0) == 0
        assert buf.prefix_stop(1) == 4
        assert buf.prefix_stop(2) == 10
        assert buf.prefix_stop(99) == buf.size

    def test_views_share_memory_and_identity(self):
        buf = FlatBuffer({"a": (2, 2), "b": (3,)})
        v = buf.view("a")
        assert v.shape == (2, 2)
        assert v.base is buf.data
        assert buf.view("a") is v  # cached objects enable `is` checks
        v[...] = 7.0
        assert np.all(buf.data[:4] == 7.0)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(5,))}
        buf = FlatBuffer({k: v.shape for k, v in arrays.items()})
        buf.pack(arrays)
        out = buf.unpack()
        assert state_equal(arrays, out)
        assert out["a"].base is None  # private copies

    def test_flat_bucket_sum_equals_per_parameter_sum_bitwise(self):
        """Parallel replay (Section 5.2) sums the recovery workers'
        gradient buckets as whole flat vectors; summing parameter by
        parameter in the same worker order gives the same bits."""
        model = make_mlp(6, 10, 4, depth=3, seed=3)
        rng = np.random.default_rng(9)
        workers = [set_grads(model, rng) for _ in range(4)]
        flat = FlatBuffer(model.param_shapes())
        buckets = np.empty((len(workers), flat.size))
        for row, grads in zip(buckets, workers):
            flat.pack(grads)
            np.copyto(row, flat.data)
        flat.copy_from(buckets[0])
        for row in buckets[1:]:
            flat.data += row
        per_parameter = {}
        for name in workers[0]:
            total = workers[0][name].copy()
            for grads in workers[1:]:
                total += grads[name]
            per_parameter[name] = total
        assert state_equal(flat.views(), per_parameter)

    def test_frozen_views_reject_writes(self):
        buf = FlatBuffer({"a": (2,)})
        frozen = buf.frozen_views()["a"]
        with pytest.raises(ValueError):
            frozen += 1.0
        buf.view("a")[...] = 3.0  # writable path still works
        assert np.all(frozen == 3.0)


class TestFusedOptimizerKernels:
    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_full_steps_bitwise(self, opt_name):
        (m_e, o_e), (m_f, o_f) = make_pair(opt_name)
        order = [n for n, _ in m_e.named_parameters()][::-1]
        rng_e, rng_f = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(5):
            set_grads(m_e, rng_e)
            set_grads(m_f, rng_f)
            reference_steps(o_e, order)
            o_f.step_flat(order=order)
            assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))
        assert o_e.step_counts == o_f.step_counts

    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_partial_prefix_bitwise(self, opt_name):
        """MID_UPDATE budgets: flat prefix == reference prefix, keys
        included."""
        (m_e, o_e), (m_f, o_f) = make_pair(opt_name)
        order = [n for n, _ in m_e.named_parameters()][::-1]
        rng_e, rng_f = np.random.default_rng(2), np.random.default_rng(2)
        set_grads(m_e, rng_e)
        set_grads(m_f, rng_f)
        budget = 3
        reference_steps(o_e, order, budget)
        names = o_f.step_flat(count=budget, order=order)
        assert names == order[:budget]
        # state-dict equality covers keys: slots exist only where stepped
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))
        # a later full step crosses mixed step counts (uniform-t runs)
        set_grads(m_e, np.random.default_rng(4))
        set_grads(m_f, np.random.default_rng(4))
        reference_steps(o_e, order)
        o_f.step_flat(order=order)
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))

    @pytest.mark.parametrize(
        "opt_name", [n for n in sorted(OPTIMIZERS) if n != "amsgrad"]
    )
    def test_undo_after_fused_partial_matches_eager(self, opt_name):
        (m_e, o_e), (m_f, o_f) = make_pair(opt_name)
        order = [n for n, _ in m_e.named_parameters()][::-1]
        set_grads(m_e, np.random.default_rng(5))
        set_grads(m_f, np.random.default_rng(5))
        reference_steps(o_e, order, 2)
        o_f.step_flat(count=2, order=order)
        o_e.undo(list(reversed(order[:2])))
        o_f.undo(list(reversed(order[:2])))
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))

    def test_amsgrad_fused_step_still_not_invertible(self):
        (_, _), (m_f, o_f) = make_pair("amsgrad")
        set_grads(m_f, np.random.default_rng(6))
        o_f.step_flat()
        with pytest.raises(NotInvertibleError):
            o_f.undo()

    def test_external_flat_gradient_source(self):
        (m_e, o_e), (m_f, o_f) = make_pair("adam")
        order = [n for n, _ in m_e.named_parameters()][::-1]
        grads = set_grads(m_e, np.random.default_rng(7))
        gbuf = FlatBuffer({n: m_f.param_shapes()[n] for n in order}, order)
        gbuf.pack(grads)
        reference_steps(o_e, order)
        o_f.step_flat(order=order, grads=gbuf.data)
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))
        with pytest.raises(ShapeError):
            o_f.step_flat(order=order, grads=np.zeros(3))

    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_a_retained_arena_creates_missing_slots_over_zeros(self, opt_name):
        """A state without slots (an iteration-0 checkpoint) loaded into
        an optimizer whose arena holds trained slots: the next step starts
        those slots at zero, as a fresh optimizer does."""
        (m_e, o_e), (m_f, o_f) = make_pair(opt_name)
        order = [n for n, _ in m_e.named_parameters()][::-1]
        initial = full_state(m_f, o_f)
        for seed in (13, 14):
            set_grads(m_f, np.random.default_rng(seed))
            o_f.step_flat(order=order)
        m_f.load_state_dict({k[6:]: v for k, v in initial.items()
                             if k.startswith("model/")})
        o_f.load_state_dict({k[6:]: v for k, v in initial.items()
                             if k.startswith("optim/")})
        set_grads(m_e, np.random.default_rng(15))
        set_grads(m_f, np.random.default_rng(15))
        reference_steps(o_e, order)
        o_f.step_flat(order=order)
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))

    def test_a_refused_lamb_step_matches_the_reference(self):
        """lr * trust * weight_decay >= 1: both paths raise, and neither
        moves the parameter, the step count or the journal."""
        opts = []
        for _ in range(2):
            p = Parameter(np.array([1.0, 1.0]))
            p.grad = np.array([-1.0, -1.0])
            opts.append(LAMB([("p", p)], lr=1.0, weight_decay=2.0))
        with pytest.raises(ConfigurationError):
            reference_step(opts[0], "p")
        with pytest.raises(ConfigurationError):
            opts[1].step_flat()
        for opt in opts:
            assert np.array_equal(opt.params["p"].data, [1.0, 1.0])
            assert opt.step_counts == {"p": 0}
            assert opt.undo_journal == {"p": {}}
        assert state_equal(opts[0].state_dict(), opts[1].state_dict())

    def test_rebinding_detaches_and_rebind_recovers(self):
        """Out-of-place rebinds (undo, loads) detach; the next flat step
        re-adopts and stays bitwise-correct."""
        (m_e, o_e), (m_f, o_f) = make_pair("adamw")
        order = [n for n, _ in m_e.named_parameters()][::-1]
        for rng_seed in (8, 9):
            set_grads(m_e, np.random.default_rng(rng_seed))
            set_grads(m_f, np.random.default_rng(rng_seed))
            reference_steps(o_e, order)
            o_f.step_flat(order=order)
        o_e.undo()
        o_f.undo()  # AdamW undo rebinds param.data out of the arena
        assert not o_f.flat_bound(order)
        set_grads(m_e, np.random.default_rng(10))
        set_grads(m_f, np.random.default_rng(10))
        reference_steps(o_e, order)
        o_f.step_flat(order=order)
        assert o_f.flat_bound(order)
        assert state_equal(full_state(m_e, o_e), full_state(m_f, o_f))

    def test_dirty_report_covers_fused_slices(self):
        (_, _), (m_f, o_f) = make_pair("adam")
        order = [n for n, _ in m_f.named_parameters()][::-1]
        o_f.clear_dirty()
        set_grads(m_f, np.random.default_rng(11))
        o_f.step_flat(count=2, order=order)
        assert o_f.dirty_params == set(order[:2])
        keys = o_f.dirty_state_keys()
        for name in order[:2]:
            assert f"{name}::step" in keys
            assert f"{name}::m" in keys and f"{name}::v" in keys


class TestFusedEngine:
    def engines(self, **kw):
        return make_dp_engine(**kw), make_dp_engine(eager=True, **kw)

    @staticmethod
    def states(eng):
        return {w.rank: w.full_state() for w in eng.workers}

    @staticmethod
    def bitwise(a, b):
        return all(state_equal(a[r], b[r]) for r in a)

    def test_training_bitwise_and_sharing_engages(self):
        fused, eager = self.engines()
        for _ in range(8):
            rf, re = fused.run_iteration(), eager.run_iteration()
            assert rf.loss == re.loss
            assert rf.sim_time == re.sim_time
        assert self.bitwise(self.states(fused), self.states(eager))
        # canonical-replica sharing is active: followers alias the canonical
        # arena through read-only views
        canon = fused.workers[0]
        assert fused._canonical is canon
        follower = fused.workers[1]
        name = fused.update_order[0]
        assert follower.optimizer.params[name].data.base is (
            canon.optimizer.flat_arena(fused.update_order).params.data
        )
        assert not follower.optimizer.params[name].data.flags.writeable

    def test_follower_inplace_write_raises(self):
        fused, _ = self.engines()
        for _ in range(3):
            fused.run_iteration()
        follower = fused.workers[1]
        name = fused.update_order[0]
        with pytest.raises(ValueError):
            follower.optimizer.params[name].data += 1.0

    def test_mid_update_crash_states_bitwise(self):
        fused, eager = self.engines()
        for _ in range(3):
            fused.run_iteration()
            eager.run_iteration()
        event = lambda: FailureEvent(  # noqa: E731
            1, 3, FailurePhase.MID_UPDATE, after_updates=2
        )
        progress = {0: 1, 1: 4}
        fused.run_iteration(failure=event(), survivor_progress=progress)
        eager.run_iteration(failure=event(), survivor_progress=progress)
        assert self.bitwise(self.states(fused), self.states(eager))
        for wf, we in zip(fused.workers, eager.workers):
            assert wf.updated_params == we.updated_params
        # the divergent crash states fall back to private (writable) arrays
        assert fused._canonical is None
        # undo consumes the fused crash state exactly like the eager one
        resolve_dp_consistency(fused)
        resolve_dp_consistency(eager)
        assert self.bitwise(self.states(fused), self.states(eager))

    @pytest.mark.parametrize("revived", [False, True])
    @pytest.mark.parametrize("machine", [0, 1])  # 0 hosts the canonical
    def test_uniform_mid_update_crash_stays_shared(self, machine, revived):
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adamw"])
        for _ in range(3):
            fused.run_iteration()
            eager.run_iteration()
        for eng in (fused, eager):
            eng.run_iteration(failure=FailureEvent(
                machine, 3, FailurePhase.MID_UPDATE, after_updates=3))
        assert self.bitwise(self.states(fused), self.states(eager))
        for wf, we in zip(fused.workers, eager.workers):
            assert wf.updated_params == we.updated_params
        if revived:
            # the crashed replicas come back before the undo (an abrupt
            # elastic departure): a live canonical keeps its arena
            for eng in (fused, eager):
                eng.cluster.replace_machine(machine)
            assert_shared(fused)
        reports = [resolve_dp_consistency(eng) for eng in (fused, eager)]
        assert reports[0].undone == reports[1].undone
        # the dead replicas are retired, not undone: eager ones keep their
        # crash state, fused followers read the undone shared arena
        assert self.bitwise(
            {w.rank: w.full_state() for w in fused.alive_workers()},
            {w.rank: w.full_state() for w in eager.alive_workers()})
        assert_shared(fused)
        assert fused.replicas_consistent()

    def test_recovery_resumes_sharing_and_stays_bitwise(self):
        def run(fused_flag):
            eng = make_dp_engine(eager=not fused_flag)
            trainer = SwiftTrainer(eng, TrainerConfig(checkpoint_interval=6))
            trainer.train(10, failures=FailureSchedule([
                FailureEvent(1, 4, FailurePhase.MID_UPDATE, after_updates=2)
            ]))
            return eng

        fused, eager = run(True), run(False)
        assert self.bitwise(self.states(fused), self.states(eager))
        # replicas re-verified bitwise-equal after recovery: sharing resumed
        assert_shared(fused)

    def test_load_full_state_breaks_sharing_safely(self):
        fused, eager = self.engines()
        for _ in range(4):
            fused.run_iteration()
            eager.run_iteration()
        # external load detaches one follower from the canonical arena; the
        # engine must notice (aliasing check) and keep results correct
        w = fused.workers[2]
        w.load_full_state(w.full_state())
        for _ in range(3):
            rf, re = fused.run_iteration(), eager.run_iteration()
            assert rf.loss == re.loss
        assert self.bitwise(self.states(fused), self.states(eager))

    def test_replicas_consistent_with_sharing(self):
        fused, _ = self.engines()
        for _ in range(4):
            fused.run_iteration()
        assert fused.replicas_consistent()

    def test_replicas_consistent_compares_slots_and_step_counts(self):
        fused, _ = self.engines(opt_factory=OPTIMIZERS["adam"])
        for _ in range(3):
            fused.run_iteration()
        w = fused.workers[2]
        w.load_full_state(w.full_state())  # private, still bit-identical
        assert fused.replicas_consistent()
        name = fused.update_order[0]
        w.optimizer.state[name]["m"][...] += 1e-3
        assert not fused.replicas_consistent()
        w.load_full_state(fused.workers[0].full_state())
        assert fused.replicas_consistent()
        w.optimizer.step_counts[name] += 1
        assert not fused.replicas_consistent()

    # -- "replicas agree => one update", pinned as call counts -----------------
    @pytest.fixture
    def calls(self, monkeypatch):
        """Live counts of ``Optimizer.step_flat`` / ``Optimizer.undo`` /
        ``np.array_equal`` calls."""
        counts = {"step_flat": 0, "undo": 0, "array_equal": 0}

        def spy(owner, attr, key):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        spy(Optimizer, "step_flat", "step_flat")
        spy(Optimizer, "undo", "undo")
        spy(np, "array_equal", "array_equal")
        return counts

    @staticmethod
    def trainer_pair(engines, **config):
        return [SwiftTrainer(eng, TrainerConfig(**config)) for eng in engines]

    @pytest.mark.parametrize("opt", ["adam", "adamw"])
    @pytest.mark.parametrize("phase", [
        FailurePhase.ITERATION_START, FailurePhase.FORWARD,
        FailurePhase.BACKWARD, FailurePhase.MID_UPDATE,
    ])
    @pytest.mark.parametrize("machine", [0, 1])  # 0 hosts the canonical
    def test_one_update_from_the_first_agreeing_iteration(
        self, calls, phase, machine, opt
    ):
        fused, eager = self.engines(opt_factory=OPTIMIZERS[opt])
        tf, te = self.trainer_pair([fused, eager])
        schedule = lambda: FailureSchedule(  # noqa: E731
            [FailureEvent(machine, 3, phase, after_updates=2)])
        te.train(5, failures=schedule())
        failures = schedule()

        def step():
            before = dict(calls)
            result = tf.step(failures)
            return result, {k: calls[k] - before[k] for k in calls}

        # iteration 0 verifies and shares at once; Adam's m/v, created by
        # that very step, are shared with it — so iteration 1 is a pure
        # ``is`` check (no compare, still one update)
        clean = {"step_flat": 1, "undo": 0, "array_equal": 0}
        _, made = step()
        assert made["step_flat"] == 1 and made["array_equal"] > 0
        assert_shared(fused)
        for _ in range(2):
            _, made = step()
            assert made == clean
        # a uniform MID_UPDATE crash updates and undoes the shared arena
        # once, on a canonical that outlives its machine; the survivors
        # are not compared, and the two replacements join the sharing
        # group in the retired workers' models: no init is drawn
        draws = []
        build = fused.model_factory
        fused.model_factory = lambda: draws.append(1) or build()
        result, made = step()
        assert result.failed and len(tf.trace.recoveries) == 1
        mid = int(phase is FailurePhase.MID_UPDATE)
        assert made == {"step_flat": mid, "undo": mid, "array_equal": 0}
        assert draws == []
        assert_shared(fused)
        # the re-run is one plain shared step: nothing left to verify
        result, made = step()
        assert not result.failed
        assert made == clean
        assert_shared(fused)
        _, made = step()
        assert made == clean
        assert self.bitwise(self.states(fused), self.states(eager))

    def test_heterogeneous_progress_keeps_per_replica_updates(self, calls):
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adam"])
        trainers = self.trainer_pair([fused, eager])
        for eng, trainer in zip((fused, eager), trainers):
            for _ in range(3):
                trainer.step()
            eng.run_iteration(
                failure=FailureEvent(1, 3, FailurePhase.MID_UPDATE,
                                     after_updates=2),
                survivor_progress={0: 1, 1: 4},
            )
            trainer.recover_now()
        # survivors undid different prefixes: equal to rounding only, so
        # every replica keeps its own fused update
        before = calls["step_flat"]
        trainers[0].step()
        assert calls["step_flat"] - before == len(fused.workers)
        assert fused._canonical is None
        for trainer in trainers:
            trainer.train(7)
        assert fused._canonical is None
        assert self.bitwise(self.states(fused), self.states(eager))

    # -- the recycled-arena rule: the canonical is live, and no live replica
    # reads an arena owned by a retired worker --------------------------------
    def test_a_survivor_inherits_the_canonical_arena(self):
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adamw"])
        tf, te = self.trainer_pair([fused, eager])
        for trainer in (tf, te):
            trainer.train(3)
        order = fused.update_order
        arenas = [w.optimizer.flat_arena(order) for w in fused.workers]
        survivors = {w.rank: w.full_state() for w in fused.workers[2:]}
        for eng, trainer in ((fused, tf), (eager, te)):
            eng.run_iteration(failure=FailureEvent(0, 3, FailurePhase.FORWARD))
            trainer.recover_now()
        # the first follower off the dead machine owns the arena, uncopied,
        # and the other survivor still reads it through its frozen views
        heir, other = fused.workers[2:]
        assert fused._canonical is heir
        assert heir.optimizer.flat_arena(order) is arenas[0]
        assert heir.optimizer.flat_bound(order)
        frozen = arenas[0].params.frozen_views()
        assert all(other.optimizer.params[n].data is frozen[n] for n in order)
        # both retired workers' arenas went to the replacements: the dead
        # canonical was left the heir's own
        recycled = [w.optimizer.flat_arena(order) for w in fused.workers[:2]]
        assert recycled[0] is arenas[2] and recycled[1] is arenas[1]
        for arena in recycled:
            for buf in (arena.params, arena.grads, *arena.slots.values()):
                buf.data[...] = np.nan
        assert self.bitwise(
            survivors, {r: fused.workers[r].full_state() for r in survivors})
        for trainer in (tf, te):
            trainer.train(6)
        assert self.bitwise(self.states(fused), self.states(eager))
        assert_shared(fused)

    @pytest.mark.parametrize("phase", [FailurePhase.FORWARD,
                                       FailurePhase.MID_UPDATE])
    @pytest.mark.parametrize("first", [0, 1])
    def test_the_canonical_lands_on_a_survivor_when_two_machines_fail(
        self, first, phase
    ):
        # machine 0 hosts the canonical, machine 1 the ranks before the
        # survivors': its retired workers may inherit the arena on the way
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adamw"],
                                    num_workers=6, machines=3)
        survivors = fused.workers[4:]
        for trainer in self.trainer_pair([fused, eager]):
            trace = trainer.train(8, failures=FailureSchedule([
                FailureEvent(first, 3, phase, after_updates=2),
                FailureEvent(1 - first, 3, FailurePhase.ITERATION_END),
            ]))
            assert trace.recoveries[0].failed_machines == [0, 1]
        assert self.bitwise(self.states(fused), self.states(eager))
        assert_shared(fused)
        assert fused._canonical is survivors[0]
        assert fused.workers[4:] == survivors

    @pytest.mark.parametrize("interval, phase, lost", [
        # followers aliasing the canonical arena when every worker reloads
        (4, FailurePhase.FORWARD, 3),
        # every recycled arena is full of Adam moments the iteration-0
        # checkpoint knows nothing about
        (100, FailurePhase.MID_UPDATE, 7),
    ])
    def test_rollback_to_an_older_checkpoint_through_recycled_arenas(
        self, interval, phase, lost
    ):
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adam"])
        for trainer in self.trainer_pair(
            [fused, eager], strategy="checkpoint_only",
            checkpoint_interval=interval,
        ):
            trace = trainer.train(10, failures=FailureSchedule(
                [FailureEvent(0, 7, phase, after_updates=2)]))
            assert trace.recoveries[0].lost_iterations == lost
        assert self.bitwise(self.states(fused), self.states(eager))
        assert_shared(fused)

    def test_load_on_the_canonical_alone_never_leaks_to_followers(self):
        fused, eager = self.engines()
        for eng in (fused, eager):
            for _ in range(3):
                eng.run_iteration()
            w = eng.workers[0]
            w.load_full_state(
                {k: v + 1.0 if k.startswith("model/") else v
                 for k, v in w.full_state().items()})
        for _ in range(3):
            assert fused.run_iteration().loss == eager.run_iteration().loss
        assert self.bitwise(self.states(fused), self.states(eager))
        assert fused._canonical is None


    # -- the state lifecycle: a restore writes into the retained worker, a
    # checkpoint captures a sharing group once ---------------------------------
    @pytest.mark.parametrize("strategy", ["replication", "checkpoint_only"])
    def test_a_restore_writes_into_the_retained_workers(self, strategy):
        # uneven survivor progress leaves every replica private; the
        # global restart reloads the iteration-0 checkpoint, which holds
        # no Adam moments, into every worker
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adam"])
        trainers = self.trainer_pair([fused, eager], strategy=strategy,
                                     checkpoint_interval=100)
        draws = []
        build = fused.model_factory
        fused.model_factory = lambda: draws.append(1) or build()
        for eng, trainer in zip((fused, eager), trainers):
            trainer.train(3)
            eng.run_iteration(
                failure=FailureEvent(1, 3, FailurePhase.MID_UPDATE,
                                     after_updates=2),
                survivor_progress={0: 1, 1: 4},
            )
            if eng is fused:
                # poison what the restored workers own, leaves included
                # (privatized: they are views of the arenas)
                for w in fused.workers:
                    if w.alive and strategy == "replication":
                        continue
                    arena = w.optimizer.flat_arena(fused.update_order)
                    for buf in (arena.params, arena.grads,
                                *arena.slots.values()):
                        buf.data[...] = np.nan
            trainer.recover_now()
        assert draws == []
        assert all(w.optimizer.flat_bound(fused.update_order)
                   for w in fused.workers)
        assert self.bitwise(self.states(fused), self.states(eager))
        for trainer in trainers:
            trainer.train(8)
        assert self.bitwise(self.states(fused), self.states(eager))
        # survivors that undid different prefixes agree to rounding only
        # and never share again; a global restart shares at once
        assert (fused._canonical is None) == (strategy == "replication")

    @pytest.mark.parametrize("bad", ["unknown_param", "slot_shape"])
    def test_a_restore_that_raises_changes_nothing(self, bad):
        # the model half loads fine; the optimizer half is refused, so the
        # retained follower must keep its shared leaves and slots
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adam"])
        for eng in (fused, eager):
            for _ in range(3):
                eng.run_iteration()
            state = {k: v + 1.0 if k.startswith("model/") else v
                     for k, v in eng.workers[0].full_state().items()}
            if bad == "unknown_param":
                state["optim/nope::m"] = np.zeros(1)
            else:
                key = next(k for k in state if k.endswith("::m"))
                state[key] = np.zeros(state[key].size + 1)
            before = engine_snapshot(eng)
            with pytest.raises(ShapeError):
                eng.restore_shard(1, state)
            assert_untouched(before, eng)
        assert_shared(fused)
        for _ in range(2):
            assert fused.run_iteration().loss == eager.run_iteration().loss
        assert self.bitwise(self.states(fused), self.states(eager))

    def test_a_checkpoint_captures_a_sharing_group_once(self):
        fused, eager = self.engines(opt_factory=OPTIMIZERS["adam"])
        for eng in (fused, eager):
            for _ in range(3):
                eng.run_iteration()
        assert_shared(fused)
        shared, private = fused.checkpoint_states(), eager.checkpoint_states()
        assert len({id(v) for v in shared.values()}) == 1
        assert len({id(v) for v in private.values()}) == len(eager.workers)
        assert self.bitwise(shared, private)
        assert self.bitwise(shared, self.states(fused))

    @pytest.mark.parametrize("opt", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("fused_flag", [True, False])
    def test_state_nbytes_counts_the_leaves_in_place(self, opt, fused_flag):
        eng = make_dp_engine(opt_factory=OPTIMIZERS[opt], eager=not fused_flag)
        for _ in range(2):
            eng.run_iteration()
        w = eng.alive_workers()[0]
        assert eng.state_nbytes() == state_nbytes(w.full_state())
        assert eng.state_nbytes() > w.model.state_nbytes()


class TestFusedPipelineReplay:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_replay_after_crash_end_states_bitwise(self, degree):
        """Logging replay (incl. parallel recovery) with flat stage updates
        must reproduce the per-parameter end states bitwise."""

        def run():
            eng = make_pp_engine()
            trainer = SwiftTrainer(eng, TrainerConfig(
                checkpoint_interval=6, parallel_recovery_degree=degree,
            ))
            trainer.train(10, failures=FailureSchedule(
                [FailureEvent(2, 8, FailurePhase.ITERATION_START)]
            ))
            return {sid: s.full_state() for sid, s in enumerate(eng.stages)}

        fused = run()
        with eager_pipeline_steps():
            eager = run()
        assert all(state_equal(fused[s], eager[s]) for s in fused)
