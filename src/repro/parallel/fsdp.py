"""Sharded data parallelism (FSDP-style) with double-sharded resilience.

The paper's Section 8 sketches the combination: "we can combine our
replication-based recovery with Fully Sharded Data Parallel (FSDP) ...
We can maintain two copies of each piece of the sharded model state for
failure resilience."

This module implements that design:

* the model state (parameters + optimizer slots) is sharded across
  workers by parameter name — each worker *owns* a subset and is the only
  one updating it;
* every shard has a **mirror** on a worker of a *different machine*, kept
  in sync after each update, so any single machine failure leaves one
  live copy of every shard;
* per-iteration flow mimics FSDP: all-gather parameters (priced, data
  taken from the owners), compute local gradients on a data shard,
  reduce-scatter gradients to owners, owners update their shards in
  their flat arenas (wait-free: a crash budget is a prefix of each
  owner's names, owners in rank order) and re-mirror.

Recovery (:class:`ShardedReplicationRecovery` in
:mod:`repro.core.sharded_recovery`) restores lost shards from mirrors and
uses update-undo on partially updated shards — the same crash-consistency
machinery as plain replication, applied shard-wise.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureEvent, FailurePhase
from repro.cluster.topology import Cluster
from repro.comm.collectives import CollectiveGroup
from repro.errors import ConfigurationError, MachineFailure, RecoveryError
from repro.nn.module import Module
from repro.obs import NULL_RECORDER
from repro.optim.base import Optimizer
from repro.parallel.results import IterationResult

__all__ = ["ShardPlan", "FSDPWorker", "FSDPEngine"]


class ShardPlan:
    """Assignment of parameters to owner workers and mirror workers.

    Owners are assigned greedily by parameter size (largest first, onto
    the lightest worker); mirrors sit ``num_workers // 2`` ranks away,
    which lands on a different machine for the canonical placement of two
    workers per machine — a machine-disjointness check enforces it.
    """

    def __init__(self, param_sizes: dict[str, int], num_workers: int,
                 machine_of_rank: dict[int, int]):
        if num_workers < 2:
            raise ConfigurationError("sharded replication needs >= 2 workers")
        self.num_workers = num_workers
        self.owner: dict[str, int] = {}
        self.mirror: dict[str, int] = {}
        loads = [0] * num_workers
        for name in sorted(param_sizes, key=param_sizes.get, reverse=True):
            rank = int(np.argmin(loads))
            loads[rank] += param_sizes[name]
            self.owner[name] = rank
            mirror = (rank + num_workers // 2) % num_workers
            if machine_of_rank[mirror] == machine_of_rank[rank]:
                # walk until we cross a machine boundary
                for step in range(1, num_workers):
                    cand = (rank + step) % num_workers
                    if machine_of_rank[cand] != machine_of_rank[rank]:
                        mirror = cand
                        break
                else:
                    raise ConfigurationError(
                        "cannot place mirrors on distinct machines: all "
                        "workers share one machine"
                    )
            self.mirror[name] = mirror

    def params_owned_by(self, rank: int) -> list[str]:
        return [n for n, r in self.owner.items() if r == rank]


class FSDPWorker:
    """One sharded-DP worker: full model for compute, owned shard state."""

    def __init__(self, rank: int, device, model: Module,
                 make_optimizer: Callable[[list], Optimizer]):
        self.rank = rank
        self.device = device
        self.model = model
        self._params = dict(model.named_parameters())
        self.make_optimizer = make_optimizer
        self.optimizer: Optimizer | None = None
        #: names of the parameters this worker owns (set by bind_shard)
        self.owned: list[str] = []
        #: mirror storage: param name -> (param copy, optimizer-state copy)
        self.mirrors: dict[str, dict[str, np.ndarray]] = {}
        self.iteration = 0
        self.updated_params: list[str] = []

    @property
    def alive(self) -> bool:
        return self.device.alive

    @property
    def machine_id(self) -> int:
        return self.device.machine.machine_id

    @property
    def shard_id(self) -> int:
        return self.rank

    def bind_shard(self, names: list[str]) -> None:
        """Declare this worker the owner of the named parameters."""
        self.owned = [n for n in names if self._params[n].requires_grad]
        owned = [(n, self._params[n]) for n in self.owned]
        self.optimizer = self.make_optimizer(owned) if owned else None

    def shard_state(self, name: str) -> dict[str, np.ndarray]:
        """Exportable copy of one owned parameter + its optimizer slots."""
        out = {"param": np.array(self._params[name].data, copy=True)}
        if self.optimizer is not None and name in self.optimizer.state:
            for slot, arr in self.optimizer.state[name].items():
                out[f"slot::{slot}"] = np.array(arr, copy=True)
            out["step"] = np.array(self.optimizer.step_counts[name])
        return out

    def full_state(self) -> dict[str, np.ndarray]:
        """This rank's part of a global checkpoint: every owned shard's
        :meth:`shard_state`, keyed ``<param name>/<shard_state key>``."""
        return {
            f"{name}/{key}": arr
            for name in self.owned
            for key, arr in self.shard_state(name).items()
        }

    def load_shard_state(self, name: str, state: dict[str, np.ndarray]) -> None:
        self._params[name].data = np.array(state["param"], copy=True)
        if self.optimizer is not None and name in self.optimizer.state:
            for key, arr in state.items():
                if key.startswith("slot::"):
                    self.optimizer.state[name][key[6:]] = np.array(arr, copy=True)
            if "step" in state:
                self.optimizer.step_counts[name] = int(state["step"])

    def load_full_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`full_state`: the owned *trainable* shards and
        nothing else — other ranks' shards and non-parameter buffers are
        not in a sharded checkpoint, so not this call's to restore."""
        for name in self.owned:
            prefix = f"{name}/"
            self.load_shard_state(name, {
                key[len(prefix):]: arr for key, arr in state.items()
                if key.startswith(prefix)
            })


class FSDPEngine:
    """Sharded data-parallel engine with mirrored shards.

    The numeric invariant: after every completed iteration, all workers
    hold identical full parameter values (from the all-gather), and every
    owned shard's state equals its mirror.
    """

    #: row of ``repro.core.strategy.MECHANISMS_BY_KIND``
    kind = "fsdp"
    #: a global checkpoint stalls for the sum of its shard writes
    checkpoint_writes_overlap = False

    def __init__(
        self,
        cluster: Cluster,
        model_factory: Callable[[], Module],
        opt_factory: Callable[[list], Optimizer],
        loss_factory: Callable[[], object],
        task,
        placement: list[tuple[int, int]],
        clock: SimClock | None = None,
        compute_time_fn: Callable[[int], float] | None = None,
    ):
        if len(placement) < 2:
            raise ConfigurationError("sharded replication needs >= 2 workers")
        machine_ids = {m for m, _ in placement}
        if len(machine_ids) < 2:
            raise ConfigurationError(
                "mirrors must live on a different machine: need >= 2 machines"
            )
        self.cluster = cluster
        self.model_factory = model_factory
        self.opt_factory = opt_factory
        self.loss_factory = loss_factory
        self.task = task
        self.clock = clock or SimClock()
        self.compute_time_fn = compute_time_fn or (lambda n: 1e-3 * max(n, 1))
        #: instrumentation sink (replaced by the session when a
        #: TraceRecorder is attached)
        self.recorder = NULL_RECORDER

        self.workers: list[FSDPWorker] = []
        for rank, (machine_id, dev_idx) in enumerate(placement):
            device = cluster.device(machine_id, dev_idx)
            self.workers.append(
                FSDPWorker(rank, device, model_factory(), opt_factory)
            )
        sizes = {
            n: int(p.data.size)
            for n, p in self.workers[0].model.named_parameters()
            if p.requires_grad
        }
        machine_of = {w.rank: w.machine_id for w in self.workers}
        self.plan = ShardPlan(sizes, len(self.workers), machine_of)
        for w in self.workers:
            w.bind_shard(self.plan.params_owned_by(w.rank))
        self.group = CollectiveGroup(
            cluster, {w.rank: w.device for w in self.workers}
        )
        self.iteration = 0
        self._sync_mirrors(list(sizes))
        self._gather_full_params()

    # -- shard plumbing ---------------------------------------------------
    def _gather_full_params(self) -> int:
        """All-gather owner shards onto every worker; returns bytes moved.

        Runs at the *end* of each iteration (and at construction), so
        between iterations every worker's full parameter copy is fresh —
        the invariant :meth:`full_params_consistent` checks.  The owner's
        own leaf already holds the value (a view of its optimizer's arena)
        and is left alone; its transfer is still priced.
        """
        moved = 0
        live = self.alive_workers()
        for name, rank in self.plan.owner.items():
            value = self.workers[rank]._params[name].data
            for w in live:
                if w.rank != rank:
                    w._params[name].data = value.copy()
                moved += int(value.nbytes)
        return moved

    def _sync_mirrors(self, names: list[str]) -> int:
        """Copy owned shard state to mirrors; returns bytes moved."""
        moved = 0
        for name in names:
            owner = self.workers[self.plan.owner[name]]
            mirror = self.workers[self.plan.mirror[name]]
            state = owner.shard_state(name)
            mirror.mirrors[name] = state
            moved += sum(int(np.asarray(v).nbytes) for v in state.values())
        return moved

    def alive_workers(self) -> list[FSDPWorker]:
        return [w for w in self.workers if w.alive]

    def state_holders(self) -> list[FSDPWorker]:
        """What a global checkpoint saves, as in ``DataParallelEngine``."""
        return self.alive_workers()

    def checkpoint_states(self) -> dict[int, dict[str, np.ndarray]]:
        """Each holder's ``full_state()`` by shard."""
        return {h.shard_id: h.full_state() for h in self.state_holders()}

    def full_params_consistent(self) -> bool:
        live = self.alive_workers()
        ref = live[0].model.state_dict()
        return all(
            all(np.array_equal(ref[k], w.model.state_dict()[k]) for k in ref)
            for w in live[1:]
        )

    def mirrors_consistent(self) -> bool:
        """Every owned shard equals its mirror copy (bitwise)."""
        for name, owner_rank in self.plan.owner.items():
            owner = self.workers[owner_rank]
            mirror = self.workers[self.plan.mirror[name]]
            if not (owner.alive and mirror.alive):
                continue
            if name not in mirror.mirrors:
                return False
            a = owner.shard_state(name)
            b = mirror.mirrors[name]
            if a.keys() != b.keys():
                return False
            if not all(np.array_equal(a[k], b[k]) for k in a):
                return False
        return True

    # -- iteration -------------------------------------------------------------
    def run_iteration(self, failure: FailureEvent | None = None) -> IterationResult:
        live = self.alive_workers()
        if len(live) != len(self.workers):
            raise MachineFailure(-1, "recover failed shards before training")
        if failure is not None and failure.phase == FailurePhase.ITERATION_START:
            return self._fail(failure)

        x, y = self.task.batch(self.iteration)
        shards = np.array_split(np.arange(len(x)), len(live))

        # 1. parameters were all-gathered at the end of the previous
        #    iteration (or at construction); compute uses the fresh copies

        # 2. local forward/backward on the data shard
        losses, t_compute = [], 0.0
        with self.recorder.span("engine/forward_backward"):
            for w, idx in zip(live, shards):
                w.model.zero_grad()
                loss_fn = self.loss_factory()
                losses.append(loss_fn(w.model(x[idx]), y[idx]))
                w.model.backward(loss_fn.backward())
                t_compute = max(t_compute, self.compute_time_fn(len(idx)))

        if failure is not None and failure.phase in (
            FailurePhase.FORWARD, FailurePhase.BACKWARD
        ):
            return self._fail(failure)

        # 3. reduce-scatter gradients to owners
        reduced_bytes = 0
        with self.recorder.span("engine/allreduce") as sp:
            for name, owner_rank in self.plan.owner.items():
                buffers = {w.rank: w._params[name].grad for w in live}
                reduced = self.group.allreduce_mean(buffers)
                reduced_bytes += int(reduced.nbytes)
                self.workers[owner_rank]._params[name].grad = reduced
            sp.set(bytes=reduced_bytes)

        # 4. owners update their shards (wait-free), then re-mirror: the
        #    update order is (owner, name), so a MID_UPDATE budget is a
        #    prefix of each owner's names in rank order, and the crash
        #    lands after that many updates, before any re-mirroring
        mid_update = (
            failure is not None and failure.phase == FailurePhase.MID_UPDATE
        )
        budget = failure.after_updates if mid_update else len(self.plan.owner)
        update_order = []
        with self.recorder.span("engine/optimizer"):
            for w in live:
                owned = sorted(w.owned)
                update_order += owned
                w.updated_params = []
                if owned and budget > 0:
                    w.updated_params = w.optimizer.step_flat(
                        count=min(budget, len(owned)), order=owned)
                    budget -= len(w.updated_params)
            if mid_update:
                return self._fail(failure)
            mirror_bytes = self._sync_mirrors(update_order)
            gathered_bytes = self._gather_full_params()

        for w in live:
            w.iteration += 1
            w.updated_params = []
        self.iteration += 1
        t_comm = self.group.allreduce_time(reduced_bytes) + \
            self.group.allgather_time(gathered_bytes / len(live)) + \
            mirror_bytes / self.cluster.bandwidth.network
        self.clock.advance(t_compute + t_comm, "iteration",
                           iteration=self.iteration - 1)
        return IterationResult(
            iteration=self.iteration - 1,
            loss=float(np.mean(losses)),
            sim_time=t_compute + t_comm,
        )

    def _fail(self, failure: FailureEvent) -> IterationResult:
        self.cluster.fail_machine(failure.machine_id)
        self.cluster.kvstore.raise_failure(failure.machine_id, self.iteration)
        return IterationResult(
            iteration=self.iteration, failed=True,
            failed_machine=failure.machine_id,
        )

    # -- the restore contract (sharded replication, global restart) --------------
    def restore_shard(self, rank: int, state: dict[str, np.ndarray]) -> None:
        """Rebuild worker ``rank`` on its (replaced) device from ``state``,
        a ``full_state()``; its mirror copies, its view of the other ranks'
        shards and its iteration come with :meth:`finish_restore`."""
        worker = FSDPWorker(rank, self.workers[rank].device,
                            self.model_factory(), self.opt_factory)
        worker.bind_shard(self.plan.params_owned_by(rank))
        worker.load_full_state(state)
        self.workers[rank] = worker

    def finish_restore(self, iteration: int) -> None:
        """Every lost shard is back at ``iteration``: re-mirror them all,
        re-gather the full parameters onto every worker, resume there."""
        self._sync_mirrors(list(self.plan.owner))
        self._gather_full_params()
        self.iteration = iteration
        for w in self.workers:
            w.iteration = iteration

    def shard_source(self, name: str, dead_machines: set[int]
                     ) -> tuple[str, int]:
        """Locate a live copy of a shard: ('owner'|'mirror', rank)."""
        owner = self.workers[self.plan.owner[name]]
        mirror = self.workers[self.plan.mirror[name]]
        if owner.machine_id not in dead_machines:
            return ("owner", owner.rank)
        if mirror.machine_id not in dead_machines:
            return ("mirror", mirror.rank)
        raise RecoveryError(
            f"both copies of shard {name!r} were lost (machines "
            f"{owner.machine_id} and {mirror.machine_id}); only the "
            "periodic global checkpoint can recover"
        )
