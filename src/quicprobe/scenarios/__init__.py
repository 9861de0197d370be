"""Scenario engine: registry, deterministic ordering, suite runner."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..conn import PrerequisiteError, drive, resolve
from ..protection import DEFAULT_PROVIDER_SEED
from ..traces import Trace, TraceBuilder
from . import codes
from .base import Scenario, ScenarioContext, UnmetPrerequisite, default_client_tp
from .core import ALL_SCENARIOS

_M64 = (1 << 64) - 1

# how long a scenario waits for a peer's first answer: the default of
# ``quicprobe run --timeout-ms``
DEFAULT_TIMEOUT_MS = 10_000


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def scenario_order(names, seed: int) -> list[str]:
    """Seed-determined permutation of the scenario names (Fisher-Yates over
    a splitmix64 stream; the canonical input order is sorted)."""
    order = sorted(names)
    state = seed & _M64
    for i in range(len(order) - 1, 0, -1):
        state, r = _splitmix64(state)
        j = r % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@dataclass
class SuitePlan:
    targets: list[dict]  # {"name", "host", "port"}
    scenarios: list[str] = field(default_factory=lambda: sorted(ALL_SCENARIOS))
    seed: int = 0
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    provider_seed: int = DEFAULT_PROVIDER_SEED
    parallel: int = 1

    def __post_init__(self):
        unknown = set(self.scenarios) - set(ALL_SCENARIOS)
        if unknown:
            raise ValueError(
                f"unknown scenarios: {sorted(unknown)}; "
                f"available: {', '.join(sorted(ALL_SCENARIOS))}"
            )
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout_ms} ms")
        if self.parallel < 1:
            raise ValueError(f"parallel must be at least 1, got {self.parallel}")


def _scenario(name: str, target: dict, address, provider_seed: int, timeout_ms: int):
    """A task for ``drive``: execute one scenario against one target and
    return its finalized trace."""
    scenario = ALL_SCENARIOS[name]()
    trace = TraceBuilder(scenario.name, scenario.scenario_version, dict(target))
    ctx = ScenarioContext(
        target=dict(target),
        trace=trace,
        provider_seed=provider_seed,
        timeout_s=timeout_ms / 1000,
        address=address,
    )
    try:
        code, results = yield from scenario.run(ctx)
    except UnmetPrerequisite as exc:
        code, results = exc.code, exc.results
    except PrerequisiteError as exc:
        code, results = codes.PREREQ_UNRESOLVED, {"error": str(exc)}
    except Exception as exc:  # a scenario bug must not abort the suite
        trace.note("scenario_exception", repr(exc))
        code, results = codes.PREREQ_UNRESOLVED, {"unexpected_error": repr(exc)}
    finally:
        ctx.teardown()
    return trace.finalize(code, results)


def _probe_target(target: dict, order: list[str], provider_seed: int, timeout_ms: int):
    """A task for ``drive``: resolve the target once, then run its
    scenarios together, started in ``order``, and return their traces in
    that order. Against a name that does not resolve, every scenario gets
    the prerequisite code and the resolver's error, and none runs."""
    try:
        address = resolve(target["host"], target["port"])
    except PrerequisiteError as exc:
        return [
            TraceBuilder(name, ALL_SCENARIOS[name].scenario_version, dict(target)).finalize(
                codes.PREREQ_UNRESOLVED, {"error": str(exc)}
            )
            for name in order
        ]
    return (yield [_scenario(name, target, address, provider_seed, timeout_ms) for name in order])


def run_scenario(
    name: str,
    target: dict,
    provider_seed: int = DEFAULT_PROVIDER_SEED,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> Trace:
    """Execute one scenario against one target and finalize its trace."""
    ((trace,),) = drive([_probe_target(target, [name], provider_seed, timeout_ms)])
    return trace


def run_suite(plan: SuitePlan) -> list[Trace]:
    """Run every scenario against every target, each on a fresh connection,
    all on one loop in the calling thread. A target's scenarios run
    together and start in the seed-determined order; up to
    ``plan.parallel`` targets run at once. The traces come back grouped by
    target in input order, each group in the seeded order. Never raises
    for per-scenario failures."""
    order = scenario_order(plan.scenarios, plan.seed)
    targets = iter(enumerate(plan.targets))
    grouped: list[list[Trace]] = [[] for _ in plan.targets]

    def worker():
        # takes the next target once every scenario of its last one returned
        for index, target in targets:
            grouped[index] = yield from _probe_target(
                target, order, plan.provider_seed, plan.timeout_ms
            )

    drive([worker() for _ in range(min(plan.parallel, len(plan.targets)))])
    return [trace for group in grouped for trace in group]


__all__ = [
    "ALL_SCENARIOS",
    "DEFAULT_TIMEOUT_MS",
    "Scenario",
    "ScenarioContext",
    "SuitePlan",
    "codes",
    "default_client_tp",
    "run_scenario",
    "run_suite",
    "scenario_order",
]
