"""Synchronous data-parallel training engine with wait-free updates.

Each worker holds a full model replica; per-iteration gradients are
all-reduced and every replica applies the same update (paper Section 2.1).
Updates are *wait-free and layer-wise* (Section 2.3, Figure 4): a parameter
is updated as soon as its gradient is synchronized, so a machine crash can
strike between two parameter updates, leaving survivors partially updated —
the crash-consistency problem that update-undo repairs.

The engine keeps replicas bit-identical across workers (same deterministic
init, same reduced gradients, same update order), which is the invariant
replication-based recovery exploits.

There is one path for the reduce+update half of the iteration.  Each
replica accumulates its gradients straight into its flat arena
(:mod:`repro.utils.flat`); one all-reduce over one contiguous buffer
synchronizes them, and the optimizer's flat kernel applies the update.
Because replicas are bit-identical, the update runs *once* on a canonical
replica; the others hold read-only copy-on-write views of its arena (they
track every in-place update for free, accidental in-place writes raise)
and own a gradient buffer only.  Sharing is *verify-then-share*: whenever
some replica's leaves do not alias the canonical arena (iteration 0, a
global restart, an elastic resize, an external load, replicas that
diverged) all leaves are compared *before* the update; if they agree bit
for bit the replicas share at once and still update once, otherwise each
runs the kernel on a private arena and the check repeats next iteration.
A MID_UPDATE crash with one budget for all stays shared: the canonical
updates once and, handed to a survivor at recovery if its machine died,
undoes once (a dead follower then reads the undone arena, not its crash
state).  Replacements then join the group the survivors never left
without a compare: their retained leaves become views of the canonical
arena.  Uneven survivor progress privatizes every replica first, so each
stops at its own budget.

Every leaf of the model must be a parameter the optimizer trains: the
engine refuses a model with non-trainable leaves (BatchNorm running
statistics) until buffers get a DP semantic of their own.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureEvent, FailurePhase
from repro.cluster.topology import Cluster
from repro.comm.collectives import CollectiveGroup
from repro.errors import ConfigurationError, MachineFailure
from repro.nn.module import Module
from repro.nn.sequential import Sequential
from repro.obs import NULL_RECORDER
from repro.optim.base import Optimizer
from repro.parallel.results import IterationResult
from repro.utils.cow import StateView
from repro.utils.flat import FlatBuffer

__all__ = ["DPWorker", "DataParallelEngine"]


class DPWorker:
    """One data-parallel worker: a replica, its optimizer, and undo marks."""

    def __init__(self, rank: int, device, model: Module, optimizer: Optimizer):
        self.rank = rank
        self.device = device
        self.model = model
        self.optimizer = optimizer
        self.iteration = 0
        #: parameter names updated in the current (possibly interrupted)
        #: update phase — the marks update-undo consumes (Section 6)
        self.updated_params: list[str] = []
        #: arena caches: (arena, [(Parameter, grad view)]) pairs for
        #: seeding, and [(Parameter, reduced view)] for the post-reduce
        #: rebind — rebuilt whenever the backing buffers change identity
        self._seed_pairs: tuple | None = None
        self._grad_pairs: tuple | None = None

    @property
    def alive(self) -> bool:
        return self.device.alive

    @property
    def machine_id(self) -> int:
        return self.device.machine.machine_id

    @property
    def shard_id(self) -> int:
        return self.rank

    def full_state(self) -> dict[str, np.ndarray]:
        """Model + optimizer state — the paper's "model state"."""
        state = {f"model/{k}": v for k, v in self.model.state_dict().items()}
        state.update(
            {f"optim/{k}": v for k, v in self.optimizer.state_dict().items()}
        )
        return state

    def load_full_state(self, state: Mapping[str, np.ndarray],
                        order: list[str] | None = None) -> None:
        """Load ``state`` (a :meth:`full_state`) into private copies — or,
        given the arena layout ``order``, on into this worker's own flat
        arena, its slot buffers zeroed first (the kernel creates a slot
        the state lacks over zeros).  Both halves are checked before
        either loads, so nothing changes if loading raises."""
        model = {k[len("model/"):]: v for k, v in state.items()
                 if k.startswith("model/")}
        optim = {k[len("optim/"):]: v for k, v in state.items()
                 if k.startswith("optim/")}
        self.model.check_state_dict(model)
        self.optimizer.check_state_dict(optim)
        self.model.load_state_dict(model)
        self.optimizer.load_state_dict(optim)
        if order is not None:
            for buf in self.optimizer.flat_arena(order).slots.values():
                buf.zero()
            self.optimizer.bind_flat(order)

    def dirty_full_state_keys(self) -> set[str]:
        """Keys of :meth:`full_state` changed since the last checkpoint.

        Optimizer-tracked parameters come from its dirty report; parameters
        the optimizer does not manage (``requires_grad=False`` leaves such
        as batch-norm running statistics, which mutate silently during the
        forward pass) are conservatively always reported dirty.
        """
        keys = {f"optim/{k}" for k in self.optimizer.dirty_state_keys()}
        keys.update(f"model/{name}" for name in self.optimizer.dirty_params)
        keys.update(
            f"model/{name}"
            for name, _ in self.model.named_parameters()
            if name not in self.optimizer.params
        )
        return keys

    def clear_dirty(self) -> None:
        self.optimizer.clear_dirty()


class DataParallelEngine:
    """Drives synchronous DP training over a simulated cluster.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a freshly initialized model.  It
        must be deterministic so all replicas start identical (the paper's
        setting: replicas are exact copies).
    placement:
        One ``(machine_id, device_idx)`` per worker.
    compute_time_fn:
        Maps a per-worker shard size to simulated forward+backward seconds
        (the temporal layer; defaults to a throughput-neutral constant).
    """

    #: row of ``repro.core.strategy.MECHANISMS_BY_KIND``
    kind = "dp"
    #: a global checkpoint stalls for the sum of its shard writes
    checkpoint_writes_overlap = False

    def __init__(
        self,
        cluster: Cluster,
        model_factory: Callable[[], Module],
        opt_factory: Callable[[Module], Optimizer],
        loss_factory: Callable[[], object],
        task,
        placement: list[tuple[int, int]],
        clock: SimClock | None = None,
        compute_time_fn: Callable[[int], float] | None = None,
    ):
        if len(placement) < 1:
            raise ConfigurationError("need at least one worker")
        self.cluster = cluster
        self.model_factory = model_factory
        self.opt_factory = opt_factory
        self.loss_factory = loss_factory
        self.task = task
        self.clock = clock or SimClock()
        #: instrumentation sink (replaced by the trainer/session when a
        #: TraceRecorder is attached); the null default keeps the hot path
        #: bitwise-identical and within the bench_obs_overhead budget
        self.recorder = NULL_RECORDER
        self.compute_time_fn = compute_time_fn or (lambda n: 1e-3 * max(n, 1))
        self.workers: list[DPWorker] = []
        for rank, (machine_id, dev_idx) in enumerate(placement):
            device = cluster.device(machine_id, dev_idx)
            model = model_factory()
            self.workers.append(DPWorker(rank, device, model, opt_factory(model)))
        opt0 = self.workers[0].optimizer
        buffers = [name for name, _ in self.workers[0].model.named_parameters()
                   if name not in opt0.params]
        if buffers:
            raise ConfigurationError(
                "data parallelism has no semantic yet for non-trainable "
                f"model leaves (buffers): {', '.join(buffers)}")
        self.group = CollectiveGroup(
            cluster, {w.rank: w.device for w in self.workers}
        )
        #: update order: reverse parameter order, approximating gradients
        #: becoming ready from the output layer backwards (Figure 4)
        self.update_order: list[str] = list(opt0.params)[::-1]
        self.iteration = 0
        #: all-reduce output, shared read-only by every replica's grads
        self._reduced: FlatBuffer | None = None
        #: worker whose arena the other replicas currently COW-share
        self._canonical: DPWorker | None = None

    # -- queries ------------------------------------------------------------
    def alive_workers(self) -> list[DPWorker]:
        return [w for w in self.workers if w.alive]

    def state_holders(self) -> list[DPWorker]:
        """What a global checkpoint saves and a restart reloads, in shard
        order: ``shard_id``/``device``/``machine_id``/``full_state()``."""
        return self.alive_workers()

    def checkpoint_states(self) -> dict[int, Mapping[str, np.ndarray]]:
        """Each holder's ``full_state()`` by shard, captured once for a
        sharing group: every follower's shard gets the canonical's frozen
        :class:`~repro.utils.cow.StateView`."""
        live, canon = self.alive_workers(), self._canonical
        if canon not in live or not self._sharing_valid(live, canon):
            return {w.rank: w.full_state() for w in live}
        return dict.fromkeys((w.rank for w in live),
                             StateView.of(canon.full_state()))

    def worker(self, rank: int) -> DPWorker:
        return self.workers[rank]

    def state_nbytes(self) -> int:
        """``full_state()``'s byte count on the first live replica, read
        off its leaves in place."""
        w = self.alive_workers()[0]
        return w.model.state_nbytes() + w.optimizer.state_nbytes()

    def replicas_consistent(self) -> bool:
        """Live replicas agree bitwise on parameters, slots and step counts
        — the core DP invariant."""
        # leaves compared in place, neighbour to neighbour: COW followers
        # hold the very same frozen views, so only one pair reads memory
        states = [(
            (w.optimizer.step_counts,
             {n: sorted(s) for n, s in w.optimizer.state.items()}),
            [p.data for _, p in w.model.named_parameters()]
            + [s[k] for s in w.optimizer.state.values() for k in sorted(s)],
        ) for w in self.alive_workers()]
        return all(
            pkeys == ckeys and all(
                a is b or np.array_equal(a, b) for a, b in zip(prev, cur))
            for (pkeys, prev), (ckeys, cur) in zip(states, states[1:])
        )

    # -- the iteration ----------------------------------------------------------
    def run_iteration(
        self,
        failure: FailureEvent | None = None,
        survivor_progress: dict[int, int] | None = None,
    ) -> IterationResult:
        """Execute one synchronous DP iteration, optionally crashing.

        ``failure`` with phase ``MID_UPDATE`` kills the target machine after
        ``after_updates`` parameters have been updated; surviving workers
        stop at ``survivor_progress[rank]`` updates (default: the same
        count), reproducing the partially-updated state of Figure 4/5.
        """
        live = self.alive_workers()
        if not live:
            raise MachineFailure(-1, "no live workers")
        x, y = self.task.batch(self.iteration)
        shards = np.array_split(np.arange(len(x)), len(live))

        if failure is not None and failure.phase == FailurePhase.ITERATION_START:
            return self._fail(failure)

        # forward/backward on each live replica's shard
        losses = []
        t_compute = 0.0
        with self.recorder.span("engine/forward_backward"):
            for w, idx in zip(live, shards):
                self._seed_grads(w)
                w.updated_params = []
                loss_fn = self.loss_factory()
                out = w.model(x[idx])
                losses.append(loss_fn(out, y[idx]))
                w.model.backward(loss_fn.backward())
                t_compute = max(t_compute, self.compute_time_fn(len(idx)))

        if failure is not None and failure.phase in (
            FailurePhase.FORWARD,
            FailurePhase.BACKWARD,
        ):
            # crash before any gradient synchronization completed: nobody
            # updated anything, survivors remain at iteration start state
            return self._fail(failure)
        return self._reduce_and_update(
            live, losses, t_compute, failure, survivor_progress
        )

    # -- the reduce + update ----------------------------------------------------
    def _reduce_and_update(
        self,
        live: list[DPWorker],
        losses: list[float],
        t_compute: float,
        failure: FailureEvent | None,
        survivor_progress: dict[int, int] | None,
    ) -> IterationResult:
        """Tail of the iteration: one all-reduce, one (shared) update.

        Bitwise-equivalent to a per-parameter all-reduce and update on
        every replica: the reduce sums the same per-rank values in the same
        order over one contiguous buffer, and the kernels perform the
        per-parameter arithmetic — checked end-to-end against
        ``tests/optim_oracle.py`` by ``tests/test_flat.py`` and gated in
        ``benchmarks/bench_step.py``.
        """
        order = self.update_order
        if self._reduced is None:
            opt0 = self.workers[0].optimizer
            self._reduced = FlatBuffer(
                {n: opt0.params[n].data.shape for n in order}, order
            )
        with self.recorder.span("engine/allreduce") as sp:
            buffers = {
                w.rank: w.optimizer.flat_arena(order).grads.data for w in live
            }
            self.group.allreduce_mean(buffers, out=self._reduced.data)
            grad_bytes = self._reduced.nbytes
            sp.set(bytes=grad_bytes)
            # every replica reads the same reduced gradients (undo consumes
            # them); read-only views make accidental in-place writes loud
            for w in live:
                cache = w._grad_pairs
                if cache is None or cache[0] is not self._reduced:
                    gviews = self._reduced.frozen_views()
                    w._grad_pairs = (self._reduced, [
                        (w.optimizer.params[name], gviews[name]) for name in order
                    ])
                    cache = w._grad_pairs
                for param, view in cache[1]:
                    param.grad = view
        t_comm = self.group.allreduce_time(grad_bytes)

        if failure is not None and failure.phase == FailurePhase.MID_UPDATE:
            progress = survivor_progress or {}
            budgets = [min(len(order), failure.after_updates
                           if w.machine_id == failure.machine_id
                           else progress.get(w.rank, failure.after_updates))
                       for w in live]
            canon = self._canonical
            if (len(set(budgets)) == 1 and canon in live
                    and self._sharing_valid(live, canon)):
                # one budget for bit-identical replicas: update once, on
                # the canonical; followers keep their views
                names = canon.optimizer.step_flat(
                    count=budgets[0], order=order, grads=self._reduced.data)
                for w in live:
                    if w is not canon:
                        self._sync_follower_scalars(w, canon, names)
                    w.updated_params = list(names)
                return self._fail(failure, sim_time=t_compute + t_comm)
            # uneven budgets need divergent private states: privatize COW
            # followers first (their views alias the canonical arena, which
            # the canonical's bind/update would otherwise mutate)
            self._canonical = None
            for w in sorted(live, key=lambda w: w is canon):
                w.optimizer.bind_flat(order)
            for w, budget in zip(live, budgets):
                w.updated_params = w.optimizer.step_flat(
                    count=budget, order=order, grads=self._reduced.data)
            return self._fail(failure, sim_time=t_compute + t_comm)

        canon = self._canonical if self._canonical in live else live[0]
        with self.recorder.span("engine/optimizer"):
            sharing = self._sharing_valid(live, canon)
            if sharing or self._replicas_agree(live, canon):
                # replicas are bit-identical: compute the update once.
                # Followers already aliasing the canonical arena see it
                # through their views; freshly verified ones adopt views
                # *after* the step, so slots the kernel created lazily
                # (Adam's m/v on the first step) are shared too
                canon.optimizer.step_flat(order=order, grads=self._reduced.data)
                adopt = (
                    self._sync_follower_scalars if sharing
                    else self._share_follower
                )
                for w in live:
                    if w is not canon:
                        adopt(w, canon)
                self._canonical = canon
            else:
                # divergent replicas: fused compute on every private arena
                # (followers privatize before a stale canonical rebinds);
                # agreement is checked again next iteration
                for w in sorted(live, key=lambda w: w is self._canonical):
                    w.optimizer.bind_flat(order)
                for w in live:
                    w.optimizer.step_flat(order=order, grads=self._reduced.data)
                self._canonical = None
            for w in live:
                w.iteration += 1
                w.updated_params = []

        self.iteration += 1
        self.clock.advance(t_compute + t_comm, "iteration", iteration=self.iteration)
        return IterationResult(
            iteration=self.iteration - 1,
            loss=float(np.mean(losses)),
            sim_time=t_compute + t_comm,
        )

    def _seed_grads(self, w: DPWorker) -> None:
        """Point ``w``'s gradients at its zeroed flat arena (cached pairs):
        backward accumulates straight into it, so the reduce needs no
        per-parameter gather and no separate ``zero_grad`` pass."""
        arena = w.optimizer.flat_arena(self.update_order)
        cache = w._seed_pairs
        if cache is None or cache[0] is not arena:
            views = arena.grads.views()
            w._seed_pairs = (arena, [
                (p, views[name]) for name, p in w.model.named_parameters()
            ])
            cache = w._seed_pairs
        arena.grads.data[:] = 0.0
        for param, view in cache[1]:
            param.grad = view

    def _sharing_valid(self, live: list[DPWorker], canon: DPWorker) -> bool:
        """All live replicas still alias the canonical arena leaf-for-leaf.

        Pure ``is``/length checks — any rebinding (recovery loads, undo,
        elastic membership churn, test interference) breaks aliasing and
        routes the iteration through the verified per-replica path instead.
        """
        return (self._canonical is canon
                and canon.optimizer.flat_bound(self.update_order)
                and all(w is canon or self._follows(w, canon) for w in live))

    def _follows(self, w: DPWorker, canon: DPWorker) -> bool:
        """Every leaf of ``w`` is a frozen view of ``canon``'s arena."""
        opt, wopt = canon.optimizer, w.optimizer
        arena = opt.flat_arena(self.update_order)
        fparams = arena.params.frozen_views()
        fslots = [(s, b.frozen_views()) for s, b in arena.slots.items()]
        for name in self.update_order:
            if wopt.params[name].data is not fparams[name]:
                return False
            cstate, wstate = opt.state[name], wopt.state[name]
            # sharing is only ever established over flat slots (see
            # _replicas_agree), so size + per-flat-slot aliasing pins the
            # whole slot dict
            if len(wstate) != len(cstate):
                return False
            for slot, views in fslots:
                if slot in cstate and wstate.get(slot) is not views[name]:
                    return False
        return True

    def _replicas_agree(self, live: list[DPWorker], canon: DPWorker) -> bool:
        """Bitwise agreement of all live replicas — the sharing precondition.

        Evaluated on the state the update is about to read, so agreeing
        replicas share from this very iteration.  Only ``canon`` is bound;
        every other replica's *current* leaves are compared with its arena
        views (``is`` first: leaves still aliasing the arena cost nothing),
        plus step counts and slot keys.  The only place sharing is
        established — whatever broke it lands here via :meth:`_sharing_valid`.
        """
        order, copt = self.update_order, canon.optimizer
        if self._canonical is canon and not copt.flat_bound(order):
            # a load detached the canonical while followers may still read
            # its arena: binding now would overwrite what they hold
            return False
        arena = copt.bind_flat(order)
        cstates = copt.state
        # only share when every slot lives in the arena — non-flat slots
        # (exotic loads) would dodge the aliasing checks of _sharing_valid
        if not all(cstates[n].keys() <= arena.slots.keys() for n in order):
            return False
        fparams = arena.params.frozen_views()
        fslots = {s: b.frozen_views() for s, b in arena.slots.items()}
        for w in live:
            if w is canon:
                continue
            wopt = w.optimizer
            if wopt.step_counts != copt.step_counts:
                return False
            for name in order:
                cstate, wstate = cstates[name], wopt.state[name]
                if wstate.keys() != cstate.keys():
                    return False
                pairs = [(wopt.params[name].data, fparams[name])]
                pairs += [(wstate[s], fslots[s][name]) for s in cstate]
                if any(a is not b and not np.array_equal(a, b) for a, b in pairs):
                    return False
        return True

    def _share_follower(self, w: DPWorker, canon: DPWorker) -> None:
        """Bind a replica's leaves as frozen COW views of the canonical arena.

        Only reached over a sharing group :meth:`_replicas_agree`
        established, whose slot guard ensures every canonical slot is
        arena-backed.
        """
        opt, wopt = canon.optimizer, w.optimizer
        arena = opt.flat_arena(self.update_order)
        fparams = arena.params.frozen_views()
        fslots = {s: b.frozen_views() for s, b in arena.slots.items()}
        for name in self.update_order:
            wopt.params[name].data = fparams[name]
            cstate, wstate = opt.state[name], wopt.state[name]
            for slot in list(wstate.keys() - cstate.keys()):
                del wstate[slot]
            for slot in cstate:
                wstate[slot] = fslots[slot][name]
        self._sync_follower_scalars(w, canon)

    def _sync_follower_scalars(self, w: DPWorker, canon: DPWorker,
                               names: list[str] | None = None) -> None:
        """Mirror the canonical's scalar bookkeeping onto a follower."""
        opt, wopt = canon.optimizer, w.optimizer
        names = self.update_order if names is None else names
        for name in names:
            wopt.step_counts[name] = opt.step_counts[name]
            wopt.undo_journal[name] = dict(opt.undo_journal[name])
        wopt.dirty_params.update(names)

    def undo_shared_update(self) -> dict[int, list[str]]:
        """Resolve a crash on the shared arena once, before replacements join.

        A canonical whose machine died (in any phase) moves its arena,
        uncopied, to its first live follower, the new canonical; it retires
        as that one's follower.  A uniform MID_UPDATE crash is then undone
        once on the canonical (``bind_flat`` puts AdamW's out-of-place undo
        back in the arena).  Returns the names undone per rank of a sharing
        group with one set of marks, else ``{}``: private replicas undo on
        their own.
        """
        live, canon = self.alive_workers(), self._canonical
        dead = canon is not None and not canon.alive
        heir = next((w for w in live if dead and self._follows(w, canon)), None)
        if heir is not None:
            heir.optimizer.take_arena(canon.optimizer)
            self._share_follower(canon, heir)
            self._canonical = canon = heir
        if canon not in live or not canon.optimizer.flat_bound(self.update_order):
            return {}
        group = [w for w in live if w is canon or self._follows(w, canon)]
        marks = canon.updated_params
        if not marks or any(w.updated_params != marks for w in group):
            return {}
        names = canon.optimizer.undo(reversed(marks))
        canon.optimizer.bind_flat(self.update_order)
        for w in group:
            if w is not canon:
                self._sync_follower_scalars(w, canon, names)
            w.updated_params = []
        return {w.rank: list(names) for w in group}

    def _fail(self, failure: FailureEvent, sim_time: float = 0.0) -> IterationResult:
        self.cluster.fail_machine(failure.machine_id)
        self.cluster.kvstore.raise_failure(failure.machine_id, self.iteration)
        if sim_time:
            self.clock.advance(sim_time, "partial_iteration")
        return IterationResult(
            iteration=self.iteration,
            failed=True,
            failed_machine=failure.machine_id,
            sim_time=sim_time,
        )

    # -- the restore contract (replication, global restart, elastic) ------------
    def restore_replicas(self, ranks: list[int]) -> None:
        """Rebuild the replaced workers ``ranks`` from the survivors
        (replication, after :meth:`undo_shared_update`).

        Survivors that all still share the canonical arena are joined: a
        replacement's retained leaves become frozen views of that arena
        and its scalars the canonical's, so nothing is copied and the
        re-run compares nothing.  Otherwise the first survivor's state is
        written into each replacement's own leaves (:meth:`restore_shard`).
        """
        survivors = [w for w in self.alive_workers() if w.rank not in ranks]
        canon = self._canonical
        if canon not in survivors or not self._sharing_valid(survivors, canon):
            state = survivors[0].full_state()
            for rank in ranks:
                self.restore_shard(rank, state)
            return
        for rank in ranks:
            worker = self.workers[rank]
            self._share_follower(worker, canon)
            worker.updated_params = []
            worker.iteration = self.iteration

    def restore_shard(
        self, rank: int, state: Mapping[str, np.ndarray], device=None
    ) -> None:
        """Load ``state`` (a ``full_state()``) into worker ``rank``'s
        retained model and optimizer — its own flat arena — or, one past
        the end, into a worker ``model_factory`` builds
        on ``device`` (elastic scale-out, the only init drawn).  Nothing
        changes if loading raises.

        Other replicas read only the canonical's arena, so restoring the
        canonical ends sharing.  No live replica is left reading it:
        replication first hands a dead canonical's arena to a live
        follower, and a global restart restores every worker.
        """
        new = rank == len(self.workers)
        if new:
            model = self.model_factory()
            worker = DPWorker(rank, device, model, self.opt_factory(model))
        else:
            worker = self.workers[rank]
        worker.load_full_state(state, self.update_order)
        worker.updated_params = []
        worker.iteration = self.iteration
        if new:
            self.workers.append(worker)
        elif self._canonical is worker:
            self._canonical = None

    def finish_restore(self, iteration: int) -> None:
        """Every worker is back at ``iteration``: resume there, sharing
        nothing that predates the restore."""
        self._canonical = None
        self.iteration = iteration
        for w in self.workers:
            w.iteration = iteration
