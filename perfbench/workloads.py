"""The four benchmark workloads: inputs from a seed, and what one pass runs.

Every input is derived from ``(workload, seed)`` alone, so the
measuring process and the checking process rebuild identical inputs
without passing them around.  Simulator workloads are batch loads: a
*pass* is a fixed list of :class:`~repro.scenarios.ScenarioSpec` runs,
repeated until the measuring time is used up.  ``serve-mix`` is a
request *plan* driven through a live daemon by one closed-loop client.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, NamedTuple, Tuple

WORKLOADS: Tuple[str, ...] = (
    "table5-stream", "latency-family", "serve-mix", "table1-ddr")

#: Seeds each latency-family pass covers (12 scenarios x this many runs).
LATENCY_SEEDS_PER_PASS = 3

#: serve-mix: every MISS_EVERY-th request asks for a fresh seed (a cache
#: miss); the others repeat an earlier (scenario, seed) (a cache hit).
MISS_EVERY = 10

#: serve-mix requests are this budget: short runs, so hits and misses
#: both fit many times into one measurement.
SERVE_BUDGET = "fast"

#: Longest serve-mix plan; a measurement stops long before its end.
SERVE_PLAN_LEN = 20_000

#: serve-mix reads its peak RSS after this many requests: the daemon
#: keeps every run's result document, so its memory grows with requests
#: served and a peak read at a fixed count does not vary with speed.
SERVE_RSS_REQUESTS = 600

#: serve-mix requests replayed under the profiler (30 misses, 270 hits).
SERVE_TRACE_REQUESTS = 300


class Request(NamedTuple):
    scenario: str
    seed: int
    miss: bool


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _fresh_seed(rng: random.Random, used: set) -> int:
    while True:
        value = rng.randrange(1, 2 ** 31)
        if value not in used:
            used.add(value)
            return value


def latency_names() -> List[str]:
    """Every registered ``latency-*`` scenario (4 policies x 3 shapes)."""
    from repro.scenarios import scenarios_of_kind

    return [s.spec.name for s in scenarios_of_kind("latency")]


def scenario_seeds(workload: str, seed: int) -> List[int]:
    """The scenario seeds a simulator workload runs."""
    rng = _rng(workload, seed)
    used: set = set()
    count = LATENCY_SEEDS_PER_PASS if workload == "latency-family" else 1
    return [_fresh_seed(rng, used) for _ in range(count)]


def pass_specs(workload: str, seed: int,
               engine: str = "fast") -> List[Tuple[str, object]]:
    """``[(label, spec)]`` of one pass of a simulator workload.

    Table 5 and Table 1 run one spec per paper-table row (an offered load,
    a bank count): the full-budget table, split so that one pass yields
    several run samples.
    """
    from repro.scenarios import get_scenario

    seeds = scenario_seeds(workload, seed)
    out: List[Tuple[str, object]] = []
    if workload == "table5-stream":
        base = get_scenario("table5").spec.with_options(
            engine=engine, seed=seeds[0], budget="full")
        for load in base.pick(base.traffic.loads_gbps):
            traffic = dataclasses.replace(base.traffic,
                                          loads_gbps=((load,), (load,)))
            out.append((f"table5/load{load}",
                        dataclasses.replace(base, traffic=traffic)))
    elif workload == "table1-ddr":
        base = get_scenario("table1").spec.with_options(
            engine=engine, seed=seeds[0], budget="full")
        for banks in base.memory.banks:
            memory = dataclasses.replace(base.memory, banks=(banks,))
            out.append((f"table1/banks{banks}",
                        dataclasses.replace(base, memory=memory)))
    elif workload == "latency-family":
        for s in seeds:
            for name in latency_names():
                out.append((f"{name}/seed{s}",
                            get_scenario(name).spec.with_options(
                                engine=engine, seed=s, budget="full")))
    else:
        raise ValueError(f"{workload!r} is not a simulator workload")
    return out


def serve_plan(seed: int) -> List[Request]:
    """The serve-mix request sequence: one fresh (scenario, seed) every
    :data:`MISS_EVERY` requests, cycling through the scenarios in a
    seeded order; every other request repeats a uniformly chosen earlier
    one."""
    rng = _rng("serve-mix", seed)
    names = latency_names()
    used: set = set()
    keys: List[Tuple[str, int]] = []
    order: List[str] = []
    plan: List[Request] = []
    for i in range(SERVE_PLAN_LEN):
        if i % MISS_EVERY == 0:
            if not order:
                order = rng.sample(names, len(names))
            key = (order.pop(), _fresh_seed(rng, used))
            keys.append(key)
            plan.append(Request(key[0], key[1], True))
        else:
            key = rng.choice(keys)
            plan.append(Request(key[0], key[1], False))
    return plan


def ddr_accesses(spec) -> int:
    """Simulated DDR accesses of one Table 1 row: every (scheduler,
    read/write) column replays ``num_accesses``."""
    return 4 * spec.pick(spec.traffic.num_accesses) * len(spec.memory.banks)
