"""Per-package host-time ledger folded from a cProfile run.

Every profiled function's self time (``tottime``) lands in exactly one
bucket: a package of ``src/repro`` from :data:`PACKAGES`, or ``other``.

* A function defined in ``repro.<pkg>`` belongs to ``<pkg>`` when that
  package is listed, else to ``other`` (``repro.analysis``,
  ``repro.trace``, ...).  Membership is the longest ``repro.<pkg>``
  module prefix, the package vocabulary of ``repro-lint.toml``'s layer
  map.
* Built-in and standard-library functions have no package of their own.
  Their self time is split across their callers in proportion to the
  time cProfile recorded on each caller edge, recursively, until it
  reaches a ``repro`` function.  Time that never does (the benchmark's
  own loop, thread bootstraps, event-loop polling) goes to ``other``.

So the buckets sum to the profiled total, which :func:`fold` checks.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: The layers of the ledger, one per package under ``src/repro``.
PACKAGES: Tuple[str, ...] = (
    "engines", "core", "queueing", "policies", "mem", "sim",
    "telemetry", "scenarios", "checkpoint", "serve", "monitor", "net",
)

OTHER = "other"

#: All buckets a fold reports, in report order.
BUCKETS: Tuple[str, ...] = PACKAGES + (OTHER,)

FuncKey = Tuple[str, int, str]


def module_of(filename: str, src_root: str) -> Optional[str]:
    """Dotted module name of a file under ``src_root``, else None."""
    if not filename.endswith(".py"):
        return None
    try:
        rel = os.path.relpath(os.path.abspath(filename), src_root)
    except ValueError:
        return None
    if rel.startswith(".."):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def package_of(module: str) -> str:
    """Ledger bucket of a ``repro`` module (longest listed prefix)."""
    best = OTHER
    best_len = -1
    for pkg in PACKAGES:
        prefix = "repro." + pkg
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = pkg, len(prefix)
    return best


class Ledger:
    """Package attribution over one ``pstats``-style stats mapping:
    ``{func: (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})}``."""

    def __init__(self, stats: Mapping[FuncKey, tuple], src_root: str) -> None:
        self.stats = stats
        self.src_root = os.path.abspath(src_root)
        self._owner: Dict[FuncKey, Optional[str]] = {}
        self._dist: Dict[FuncKey, Dict[str, float]] = {}

    def owner(self, func: FuncKey) -> Optional[str]:
        """The bucket a function is defined in; None for built-in and
        standard-library code, whose time follows its callers."""
        if func not in self._owner:
            module = module_of(func[0], self.src_root)
            if module is not None and module.startswith("repro."):
                self._owner[func] = package_of(module)
            elif module is not None or _is_benchmark_file(func[0]):
                self._owner[func] = OTHER
            else:
                self._owner[func] = None
        return self._owner[func]

    def distribution(self, func: FuncKey) -> Dict[str, float]:
        """Share of ``func``'s self time owed to each bucket (sums to 1)."""
        return self._resolve(func, set())

    def _resolve(self, func: FuncKey, active: set) -> Dict[str, float]:
        own = self.owner(func)
        if own is not None:
            return {own: 1.0}
        if func in self._dist:
            return self._dist[func]
        entry = self.stats.get(func)
        # a caller already on the resolution path is recursion through
        # library code: that edge is dropped, the others keep the time
        edges = [(caller, edge[2], edge[1])
                 for caller, edge in (entry[4] if entry else {}).items()
                 if caller not in active]
        weights = [(c, tt) for c, tt, _n in edges if tt > 0]
        if not weights:  # no timed edge: weigh by call counts
            weights = [(c, float(n)) for c, _tt, n in edges if n > 0]
        total = sum(w for _c, w in weights)
        dist: Dict[str, float] = {}
        if total <= 0:
            dist[OTHER] = 1.0
        else:
            active.add(func)
            for caller, weight in weights:
                for bucket, share in self._resolve(caller, active).items():
                    dist[bucket] = dist.get(bucket, 0.0) + share * weight / total
            active.discard(func)
        self._dist[func] = dist
        return dist

    def caller_bucket(self, func: FuncKey) -> str:
        """The one bucket a call site is charged to (for call counts)."""
        dist = self.distribution(func)
        return max(sorted(dist), key=lambda b: dist[b])

    def fold(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``({bucket: self seconds}, {bucket: calls entering it from
        another bucket}, profiled total seconds)``; raises when the
        buckets do not sum to the total."""
        self_s = {b: 0.0 for b in BUCKETS}
        calls_in = {b: 0 for b in BUCKETS}
        total = 0.0
        for func, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            total += tt
            for bucket, share in self.distribution(func).items():
                self_s[bucket] += tt * share
            own = self.owner(func)
            if own is None:
                continue
            for caller, edge in callers.items():
                if self.caller_bucket(caller) != own:
                    calls_in[own] += edge[1]
        folded = sum(self_s.values())
        if abs(folded - total) > 1e-9 * max(1.0, total):
            raise AssertionError(
                f"ledger fold {folded!r} != profiled total {total!r}")
        return self_s, calls_in, total


def _is_benchmark_file(filename: str) -> bool:
    return os.path.basename(os.path.dirname(os.path.abspath(filename))) \
        == "perfbench"


def merge_stats(profiles: Iterable) -> Dict[FuncKey, tuple]:
    """One stats mapping from several ``cProfile.Profile`` objects (one
    per profiled thread; a thread that made no call adds nothing)."""
    import pstats

    merged: Optional[pstats.Stats] = None
    for prof in profiles:
        prof.create_stats()
        if not prof.stats:  # pstats refuses an empty profile
            continue
        if merged is None:
            merged = pstats.Stats(prof)
        else:
            merged.add(prof)
    return dict(merged.stats) if merged is not None else {}  # type: ignore[attr-defined]


def cumulative_per_call(stats: Mapping[FuncKey, tuple], path_suffix: str,
                        name: str) -> float:
    """Cumulative seconds per call of the function ``name`` defined in a
    file ending with ``path_suffix`` (0 when it never ran)."""
    for (filename, _line, funcname), entry in stats.items():
        if funcname == name and filename.replace(os.sep, "/") \
                .endswith(path_suffix):
            calls = entry[1]
            return entry[3] / calls if calls else 0.0
    return 0.0
