"""Scenario engine: registry, deterministic ordering, suite runner."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..conn import PrerequisiteError
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
            raise ValueError(f"unknown scenarios: {sorted(unknown)}")


def run_scenario(
    name: str,
    target: dict,
    provider_seed: int = DEFAULT_PROVIDER_SEED,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> Trace:
    """Execute one scenario against one target and finalize its trace."""
    scenario = ALL_SCENARIOS[name]()
    trace = TraceBuilder(scenario.name, scenario.scenario_version, dict(target))
    ctx = ScenarioContext(
        target=dict(target),
        trace=trace,
        provider_seed=provider_seed,
        timeout_s=timeout_ms / 1000,
    )
    try:
        code, results = scenario.run(ctx)
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


def run_suite(plan: SuitePlan) -> list[Trace]:
    """Run every scenario against every target, each on a fresh connection.
    A target's scenarios run concurrently and start in the seed-determined
    order; up to ``plan.parallel`` targets run at once. The traces come
    back grouped by target in input order, each group in the seeded order.
    Never raises for per-scenario failures."""
    order = scenario_order(plan.scenarios, plan.seed)

    def probe_target(target: dict) -> list[Trace]:
        # one thread per scenario, submitted in the seeded order
        with ThreadPoolExecutor(max_workers=max(len(order), 1)) as pool:
            futures = [
                pool.submit(run_scenario, name, target, plan.provider_seed, plan.timeout_ms)
                for name in order
            ]
            return [future.result() for future in futures]

    with ThreadPoolExecutor(max_workers=max(plan.parallel, 1)) as pool:
        grouped = list(pool.map(probe_target, plan.targets))
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
