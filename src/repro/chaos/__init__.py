"""repro.chaos — trace- and distribution-driven failure scenarios.

The paper's claim is that logging-based recovery with parallel replay
beats global-restart checkpointing *under realistic failure patterns* —
yet reproductions (this one included, until now) typically inject
failures from a single hand-picked ``(iteration, worker)`` list.  This
package makes failure workloads first-class:

* :mod:`~repro.chaos.distributions` — seeded failure processes:
  Poisson MTBF (the Section 7.3 simulation study's model, behind
  ``steady_mtbf``), bathtub infant mortality, bursty correlated rack
  failures, cascades, flaky nodes, straggler onset, storage outages;
* :mod:`~repro.chaos.trace` — :class:`FailureTrace`, a versioned,
  seed-stamped JSONL record/replay format: any stochastic run can be
  re-executed bitwise-deterministically from its trace;
* :mod:`~repro.chaos.scenarios` — a registry of named scenarios
  ("steady_mtbf", "rack_burst", "flaky_node", "storage_outage",
  "cascading", ...) composable into a :class:`ScenarioSpec`;
* :mod:`~repro.chaos.evaluate` — analytic goodput of each recovery
  method under a trace, on the calibrated paper-scale cost model.

Typical use::

    from repro.chaos import get_scenario

    trace = get_scenario("rack_burst").sample(
        seed=0, num_machines=4, horizon_iters=60)
    schedule = trace.to_schedule()       # feed any engine / Session.run
    trace.save("traces/rack_burst_0.jsonl")   # replay it later, bitwise
"""

from repro.chaos.distributions import (
    BathtubMTBF,
    Cascade,
    FailureProcess,
    FlakyNode,
    PoissonMTBF,
    RackBurst,
    ScriptedEvents,
    StorageOutage,
    StragglerOnset,
)
from repro.chaos.evaluate import (
    GoodputResult,
    TraceColumns,
    evaluate_scenario,
    evaluate_trace,
    evaluate_traces,
    method_for_strategy,
    sample_paired_traces,
)
from repro.chaos.scenarios import (
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.chaos.trace import TRACE_VERSION, ChaosEvent, FailureTrace

__all__ = [
    "ChaosEvent",
    "FailureTrace",
    "TRACE_VERSION",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "FailureProcess",
    "PoissonMTBF",
    "BathtubMTBF",
    "RackBurst",
    "Cascade",
    "FlakyNode",
    "StragglerOnset",
    "StorageOutage",
    "ScriptedEvents",
    "GoodputResult",
    "TraceColumns",
    "evaluate_trace",
    "evaluate_traces",
    "evaluate_scenario",
    "sample_paired_traces",
    "method_for_strategy",
]
