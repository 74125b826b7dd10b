"""R3 -- atomic persistence: JSON reaches disk only via atomic.py.

Write-temp-fsync-rename (:mod:`repro.checkpoint.atomic`) is the rule
everywhere results persist: a reader (resumed sweep, CI diff,
concurrent benchmark) must never observe a torn artifact.  Append-only
logs go through the same module's one line-atomic appender.  This rule
flags the syntactic shapes that bypass either:

* a direct ``json.dump(obj, fh)`` call,
* ``fh.write(json.dumps(...))`` / ``fh.write(... json.dumps ...)``
  where ``fh`` is bound by ``with open(path, "w"/"a"/"x") as fh``
  in an enclosing statement,
* an ``os.open(...)`` whose flags include ``os.O_APPEND`` -- a
  hand-rolled appender beside ``JsonlAppender``,

anywhere outside the configured sanctuary (``checkpoint/atomic.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.modules import ModuleInfo
from repro.lint.registry import Rule, register_rule
from repro.lint.rules.determinism import collect_aliases, resolve_call_chain

#: ``open()`` mode characters that can clobber an artifact.
_WRITE_MODES = ("w", "a", "x")


def _is_write_open(node: ast.AST) -> bool:
    """True for ``open(..., "w")``-shaped calls (literal write mode)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # default "r"
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(ch in mode.value for ch in _WRITE_MODES))


def _has_append_flag(node: ast.Call, aliases: Dict[str, str]) -> bool:
    """True when an ``os.open`` call's flags mention ``os.O_APPEND``."""
    flags = [kw.value for kw in node.keywords if kw.arg == "flags"]
    for expr in node.args[1:2] + flags:
        for sub in ast.walk(expr):
            if resolve_call_chain(sub, aliases) == "os.O_APPEND":
                return True
    return False


def _contains_json_dumps(node: ast.AST, aliases: Dict[str, str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            qual = resolve_call_chain(sub.func, aliases)
            if qual == "json.dumps":
                return True
    return False


@register_rule
class AtomicJsonRule(Rule):
    code = "R3"
    name = "atomic-json"
    summary = ("persisting JSON must go through checkpoint/atomic.py "
               "(temp + fsync + rename, or its O_APPEND line appender), "
               "never a bare write")
    complements = ("crash-safe journal / torn-doc re-run tests "
                   "(tests/checkpoint/test_pool.py)")

    def check(self, module: ModuleInfo,
              config: LintConfig) -> Iterator[Finding]:
        if module.path in config.atomic_allowed_in:
            return
        aliases = collect_aliases(module.tree)

        # Names bound to writable handles by any `with open(..., "w")`.
        write_handles: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (_is_write_open(item.context_expr)
                            and isinstance(item.optional_vars, ast.Name)):
                        write_handles.add(item.optional_vars.id)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = resolve_call_chain(node.func, aliases)
            if qual == "json.dump":
                yield self.finding(
                    module, node.lineno, node.col_offset, "json.dump",
                    "json.dump to an open file can be observed torn; "
                    "use repro.checkpoint.atomic.write_json_atomic")
                continue
            if qual == "os.open" and _has_append_flag(node, aliases):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "os.open(O_APPEND)",
                    "hand-rolled O_APPEND writer; append JSON lines "
                    "through repro.checkpoint.atomic.JsonlAppender")
                continue
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in write_handles
                    and any(_contains_json_dumps(arg, aliases)
                            for arg in node.args)):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"{node.func.value.id}.write(json.dumps)",
                    "writing json.dumps output to a \"w\"-mode file "
                    "bypasses atomic persistence; use "
                    "repro.checkpoint.atomic.write_text_atomic")
