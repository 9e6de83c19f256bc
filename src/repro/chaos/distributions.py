"""Seeded failure processes: the statistical machinery behind scenarios.

The seed reproduction injected failures from hand-picked ``(iteration,
machine)`` lists or a single uniform-exponential sampler.  Real clusters
fail differently: young machines die more often (infant mortality),
rack/switch faults take down *groups* of machines at once, one flaky host
can dominate the failure log, and stragglers degrade throughput without
crashing anything.

Each process here turns a seeded :class:`numpy.random.Generator` plus a
cluster shape and time horizon into a list of
:class:`~repro.chaos.trace.ChaosEvent` rows.  Processes are small frozen
dataclasses, so a :class:`~repro.chaos.scenarios.ScenarioSpec` composing
them is hashable and printable, and the same ``(process, seed)`` pair
always yields the same events — the contract the
:class:`~repro.chaos.trace.FailureTrace` replay format relies on.

All sampling uses ``numpy.random.default_rng`` streams derived via
:func:`repro.utils.seeding.derive_seed`, never global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.chaos.trace import ChaosEvent
from repro.cluster.failures import FailurePhase
from repro.errors import ConfigurationError

__all__ = [
    "FailureProcess",
    "PoissonMTBF",
    "BathtubMTBF",
    "RackBurst",
    "Cascade",
    "FlakyNode",
    "StragglerOnset",
    "StorageOutage",
    "ScriptedEvents",
]

LN2 = float(np.log(2.0))


@runtime_checkable
class FailureProcess(Protocol):
    """One stochastic (or scripted) source of chaos events.

    Implementations are pure samplers: ``events(rng, num_machines,
    horizon_hours)`` must depend only on its arguments, so scenario
    sampling stays deterministic under a fixed seed.
    ``rate_per_hour(num_machines)`` is the analytic expected event rate
    used by :meth:`ExecutionPlan.describe` predictions.
    """

    def events(
        self,
        rng: np.random.Generator,
        num_machines: int,
        horizon_hours: float,
    ) -> list[ChaosEvent]: ...

    def rate_per_hour(self, num_machines: int) -> float: ...


def _phase_for(rng: np.random.Generator, mid_update_fraction: float) -> tuple[str, int]:
    """Sample the within-iteration crash point.

    Most crashes land between iterations; a configurable fraction lands
    mid-update (the Figure 4 crash-consistency window), with 1-3 layer
    updates already applied.
    """
    if mid_update_fraction > 0 and rng.uniform() < mid_update_fraction:
        return FailurePhase.MID_UPDATE.value, int(rng.integers(1, 4))
    return FailurePhase.ITERATION_START.value, 0


@dataclass(frozen=True)
class PoissonMTBF:
    """Cluster-wide Poisson failures from a per-machine median TBF.

    The paper's simulation-study model (Section 7.3, following Maeng et
    al.): exponential inter-failure times with a given *median*, scaled
    by machine count, the failing machine drawn uniformly.
    """

    median_hours: float = 17.0
    #: scale the rate with cluster size (False = whole-cluster median,
    #: the paper's single-job assumption)
    per_machine: bool = False
    mid_update_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.median_hours <= 0:
            raise ConfigurationError("median_hours must be positive")

    def rate_per_hour(self, num_machines: int) -> float:
        rate = LN2 / self.median_hours
        return rate * num_machines if self.per_machine else rate

    def events(self, rng, num_machines, horizon_hours):
        rate = self.rate_per_hour(num_machines)
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon_hours:
            phase, after = _phase_for(rng, self.mid_update_fraction)
            out.append(ChaosEvent(
                time_hours=t,
                machine_id=int(rng.integers(num_machines)),
                phase=phase, after_updates=after,
            ))
            t += float(rng.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class BathtubMTBF:
    """Bathtub hazard: infant mortality + steady state (+ wear-out).

    The instantaneous per-machine failure rate is::

        rate(t) = steady + infant * exp(-t / infant_decay_hours)
                         + wearout * max(0, t - wearout_onset) / horizon

    sampled by thinning a dominating Poisson process, so young machines
    (or a freshly provisioned cluster) fail markedly more often.
    """

    steady_rate_per_khour: float = 8.0
    infant_rate_per_khour: float = 60.0
    infant_decay_hours: float = 24.0
    wearout_rate_per_khour: float = 0.0
    wearout_onset_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.steady_rate_per_khour < 0 or self.infant_rate_per_khour < 0:
            raise ConfigurationError("rates must be >= 0")
        if self.infant_decay_hours <= 0:
            raise ConfigurationError("infant_decay_hours must be positive")

    def _rate(self, t: float, horizon: float) -> float:
        rate = self.steady_rate_per_khour + self.infant_rate_per_khour * float(
            np.exp(-t / self.infant_decay_hours)
        )
        if self.wearout_rate_per_khour > 0 and horizon > 0:
            rate += self.wearout_rate_per_khour * max(
                0.0, t - self.wearout_onset_hours
            ) / horizon
        return rate / 1000.0

    def rate_per_hour(self, num_machines: int) -> float:
        # long-run average approximated by the steady-state arm plus the
        # amortized infant burst
        steady = self.steady_rate_per_khour / 1000.0
        return steady * num_machines

    def events(self, rng, num_machines, horizon_hours):
        # dominating rate for thinning: rate(0) is the maximum of the
        # infant+steady arms; the wear-out arm peaks at the horizon
        max_rate = max(
            self._rate(0.0, horizon_hours),
            self._rate(horizon_hours, horizon_hours),
        ) * num_machines
        if max_rate <= 0:
            return []
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / max_rate))
        while t < horizon_hours:
            accept = (
                self._rate(t, horizon_hours) * num_machines / max_rate
            )
            if rng.uniform() < accept:
                out.append(ChaosEvent(
                    time_hours=t,
                    machine_id=int(rng.integers(num_machines)),
                ))
            t += float(rng.exponential(1.0 / max_rate))
        return out


@dataclass(frozen=True)
class RackBurst:
    """Correlated rack/switch failures: bursts of co-located crashes.

    Bursts arrive as a Poisson process; each burst picks a rack
    (machines are laid out contiguously, ``rack_size`` per rack) and
    fails 2..rack_size of its machines within a ``burst_window_hours``
    window — the failure pattern single-machine MTBF models miss, and
    the one that distinguishes recovery mechanisms that tolerate
    multi-machine failures from those that do not.
    """

    burst_rate_per_khour: float = 4.0
    rack_size: int = 2
    burst_window_hours: float = 0.05
    mid_update_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.rack_size < 2:
            raise ConfigurationError("rack_size must be >= 2")
        if self.burst_rate_per_khour <= 0:
            raise ConfigurationError("burst_rate_per_khour must be positive")

    def rate_per_hour(self, num_machines: int) -> float:
        # expected crashes/hour: bursts/hour x mean burst size, using
        # the same size cap as events() (a 2-machine cluster can only
        # lose one machine per burst)
        max_size = min(self.rack_size, max(1, num_machines - 1))
        mean_size = (2 + max_size) / 2.0 if max_size >= 2 else 1.0
        return self.burst_rate_per_khour / 1000.0 * mean_size

    def events(self, rng, num_machines, horizon_hours):
        rate = self.burst_rate_per_khour / 1000.0
        num_racks = max(1, num_machines // self.rack_size)
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon_hours:
            rack = int(rng.integers(num_racks))
            first = rack * self.rack_size
            members = list(range(
                first, min(first + self.rack_size, num_machines)
            ))
            # never take the whole cluster down in one burst
            max_size = min(len(members), max(1, num_machines - 1))
            size = (
                int(rng.integers(2, max_size + 1)) if max_size >= 2 else 1
            )
            victims = rng.permutation(len(members))[:size]
            for k, vi in enumerate(sorted(int(v) for v in victims)):
                phase, after = _phase_for(rng, self.mid_update_fraction)
                out.append(ChaosEvent(
                    time_hours=t + k * self.burst_window_hours / max(size, 1),
                    machine_id=members[vi],
                    phase=phase, after_updates=after,
                ))
            t += float(rng.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class FlakyNode:
    """One pathological machine failing far more often than the rest.

    ``machine_id=None`` samples the flaky machine once per trace (the
    usual case: you do not know in advance which host is bad).
    """

    median_hours: float = 4.0
    machine_id: int | None = None

    def __post_init__(self) -> None:
        if self.median_hours <= 0:
            raise ConfigurationError("median_hours must be positive")

    def rate_per_hour(self, num_machines: int) -> float:
        return LN2 / self.median_hours

    def events(self, rng, num_machines, horizon_hours):
        machine = (
            int(rng.integers(num_machines))
            if self.machine_id is None
            else self.machine_id % num_machines
        )
        rate = self.rate_per_hour(num_machines)
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon_hours:
            out.append(ChaosEvent(time_hours=t, machine_id=machine))
            t += float(rng.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class StragglerOnset:
    """Machines degrading to a slowdown factor at a random onset time.

    Synchronous data/pipeline parallelism runs at the slowest worker's
    pace, so one straggler costs the whole job its slowdown factor.
    Events carry ``kind="straggler"`` with the factor in ``magnitude``;
    the analytic goodput evaluation consumes them (the bitwise engine
    paths ignore non-crash events).
    """

    onset_rate_per_khour: float = 5.0
    slowdown_min: float = 1.15
    slowdown_max: float = 1.6

    def __post_init__(self) -> None:
        if not 1.0 <= self.slowdown_min <= self.slowdown_max:
            raise ConfigurationError(
                "need 1.0 <= slowdown_min <= slowdown_max"
            )

    def rate_per_hour(self, num_machines: int) -> float:
        # stragglers do not crash machines; they shave goodput instead
        return 0.0

    def events(self, rng, num_machines, horizon_hours):
        rate = self.onset_rate_per_khour / 1000.0
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon_hours:
            out.append(ChaosEvent(
                time_hours=t,
                machine_id=int(rng.integers(num_machines)),
                kind="straggler",
                magnitude=float(rng.uniform(self.slowdown_min,
                                            self.slowdown_max)),
            ))
            t += float(rng.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class StorageOutage:
    """Global-checkpoint-store outages of sampled duration.

    During an outage checkpoints cannot persist, so a crash landing in
    (or shortly after) the window loses work back to the last checkpoint
    *before* the outage — the failure mode that punishes
    checkpoint-only recovery hardest.  Events carry
    ``kind="storage_outage"`` with the duration in ``magnitude``.
    """

    outage_rate_per_khour: float = 2.0
    duration_hours_min: float = 0.5
    duration_hours_max: float = 3.0

    def __post_init__(self) -> None:
        if not 0 < self.duration_hours_min <= self.duration_hours_max:
            raise ConfigurationError(
                "need 0 < duration_hours_min <= duration_hours_max"
            )

    def rate_per_hour(self, num_machines: int) -> float:
        return 0.0  # outages alone crash nothing

    def events(self, rng, num_machines, horizon_hours):
        rate = self.outage_rate_per_khour / 1000.0
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon_hours:
            out.append(ChaosEvent(
                time_hours=t, machine_id=0, kind="storage_outage",
                magnitude=float(rng.uniform(self.duration_hours_min,
                                            self.duration_hours_max)),
            ))
            t += float(rng.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class Cascade:
    """Cascading failures: each crash may trigger follow-up crashes.

    Primary crashes arrive as a Poisson process; every crash then
    triggers a crash of a *different* machine with probability
    ``cascade_probability`` after a short exponential delay, and the
    follow-up can cascade again (a sub-critical branching process —
    keep ``cascade_probability < 1``).  Models correlated software
    faults: a bad rollout, a poisoned checkpoint, load redistributed
    onto the survivors.
    """

    trigger_median_hours: float = 30.0
    cascade_probability: float = 0.6
    cascade_delay_hours: float = 0.2
    mid_update_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.trigger_median_hours <= 0:
            raise ConfigurationError("trigger_median_hours must be positive")
        if not 0 <= self.cascade_probability < 1:
            raise ConfigurationError(
                "cascade_probability must be in [0, 1)"
            )

    def rate_per_hour(self, num_machines: int) -> float:
        # branching process: E[chain length] = 1 / (1 - p)
        trigger_rate = LN2 / self.trigger_median_hours
        return trigger_rate / (1.0 - self.cascade_probability)

    def events(self, rng, num_machines, horizon_hours):
        trigger_rate = LN2 / self.trigger_median_hours
        out: list[ChaosEvent] = []
        t = float(rng.exponential(1.0 / trigger_rate))
        while t < horizon_hours:
            chain_t = t
            machine = int(rng.integers(num_machines))
            chain_machines = {machine}
            phase, after = _phase_for(rng, self.mid_update_fraction)
            out.append(ChaosEvent(time_hours=chain_t, machine_id=machine,
                                  phase=phase, after_updates=after))
            # follow-ups: geometric chain over fresh machines
            while (
                len(chain_machines) < num_machines
                and rng.uniform() < self.cascade_probability
            ):
                chain_t += float(rng.exponential(self.cascade_delay_hours))
                if chain_t >= horizon_hours:
                    break
                victim = int(rng.integers(num_machines))
                if victim in chain_machines:
                    # pick the next free machine deterministically
                    victim = next(
                        m for m in range(num_machines)
                        if m not in chain_machines
                    )
                chain_machines.add(victim)
                phase, after = _phase_for(rng, self.mid_update_fraction)
                out.append(ChaosEvent(time_hours=chain_t, machine_id=victim,
                                      phase=phase, after_updates=after))
            t += float(rng.exponential(1.0 / trigger_rate))
        return out


@dataclass(frozen=True)
class ScriptedEvents:
    """A deterministic event list, wrapped as a process.

    Lets hand-authored drills (the Appendix-B multi-failure scenarios,
    the fleet demo's two crashes) live in the same scenario registry as
    the stochastic models — named, replayable, and composable.  Events
    are given directly as :class:`ChaosEvent` rows; the rng is unused.
    """

    script: tuple[ChaosEvent, ...] = ()

    def rate_per_hour(self, num_machines: int) -> float:
        crashes = [e for e in self.script if e.kind == "crash"]
        if not crashes:
            return 0.0
        span = max(e.time_hours for e in crashes) or 1.0
        return len(crashes) / span

    def events(self, rng, num_machines, horizon_hours):
        return [
            e for e in self.script
            if e.time_hours < horizon_hours and e.machine_id < num_machines
        ]
