"""Content-addressed result cache for served scenario runs.

Every scenario run is a pure function of its resolved spec (the
engine-identity and resume-identity suites prove as much), so a served
result can be reused for any later request resolving to the same spec
-- *provided the code that produced it has not changed*.  The cache
key therefore folds together:

* :meth:`ScenarioSpec.spec_hash` -- the canonical-JSON SHA-256 of the
  fully resolved spec (engine/seed/budget-sensitive);
* the effective engine, seed and budget once more, spelled out -- they
  are already inside the spec hash, but keeping them visible in the
  key derivation makes a key auditable without replaying the hash;
* :func:`code_version` -- a SHA-256 over every ``.py`` file under the
  installed ``repro`` package, so *any* source change invalidates the
  whole cache rather than risking a stale byte-for-byte "identical"
  result produced by different code.

Cached documents are canonicalized (:func:`canonical_result_dict`):
``wall_clock_s`` is zeroed and the optional rusage profile dropped --
the same scrubbing every identity diff in the repo applies -- so a
cache hit is *byte-identical* to a fresh run of the same spec.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

import repro
from repro.checkpoint.atomic import write_json_atomic

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """SHA-256 fingerprint of the running ``repro`` source tree.

    Computed once per process: the hash of each ``.py`` file's content,
    folded in sorted relative-path order.  Editing any module (adding,
    removing, or changing one) yields a different version, so results
    cached by older code can never satisfy a newer request.
    """
    global _CODE_VERSION
    if _CODE_VERSION is not None:
        return _CODE_VERSION
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    entries = []
    for root, _dirs, files in os.walk(package_dir):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, package_dir)
            with open(path, "rb") as fh:
                entries.append((rel, hashlib.sha256(fh.read())
                                .hexdigest()))
    for rel, file_hash in sorted(entries):
        digest.update(f"{rel}\x00{file_hash}\n".encode("utf-8"))
    _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def cache_key(spec_hash: str, *, engine: str, seed: int,
              budget: str, version: Optional[str] = None) -> str:
    """The content address of one (spec, code-version) result."""
    doc = {
        "spec_hash": spec_hash,
        "engine": engine,
        "seed": seed,
        "budget": budget,
        "code_version": version if version is not None else code_version(),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_result_dict(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A :class:`RunResult` document with the non-reproducible fields
    scrubbed: ``wall_clock_s`` zeroed, rusage profile removed.  What
    remains is a pure function of the resolved spec, so cached and
    fresh documents compare byte-identical."""
    out = dict(doc)
    out["wall_clock_s"] = 0.0
    metrics = out.get("metrics")
    if isinstance(metrics, dict) and "resources" in metrics:
        metrics = dict(metrics)
        metrics.pop("resources")
        out["metrics"] = metrics
    return out


class ResultCache:
    """One JSON document per cache key, persisted atomically.

    Layout is flat -- ``<root>/<key>.json`` -- and writes go through
    :func:`write_json_atomic`, so a concurrently reading server never
    observes a torn document and a crashed writer leaves no partial
    entry behind.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return os.path.join(self.root, key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached document, or None on a miss.  An entry that does
        not parse as a JSON object (truncated or otherwise corrupt on
        disk) is a miss too: the re-run's atomic :meth:`put` replaces
        it."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (FileNotFoundError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def put(self, key: str, doc: Dict[str, Any]) -> None:
        write_json_atomic(self._path(key), canonical_result_dict(doc))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))
