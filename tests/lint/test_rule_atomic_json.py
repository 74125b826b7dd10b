"""R3 fixtures: direct json.dump, dumps-to-write, the atomic sanctuary."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source
from repro.lint.rules.atomic_json import AtomicJsonRule

RULE = [AtomicJsonRule()]
PATH = "repro/fixture/persist.py"


def lint(src, config, path=PATH):
    return lint_source(textwrap.dedent(src), path, config, RULE)


def test_direct_json_dump_flagged(config):
    findings = lint(
        """
        import json

        def save(doc, fh):
            json.dump(doc, fh)
        """, config)
    assert [f.symbol for f in findings] == ["json.dump"]
    assert "atomic" in findings[0].message


def test_dumps_to_write_handle_flagged(config):
    findings = lint(
        """
        import json

        def save(doc, path):
            with open(path, "w") as fh:
                fh.write(json.dumps(doc, indent=2) + "\\n")
        """, config)
    assert [f.symbol for f in findings] == ["fh.write(json.dumps)"]


def test_read_mode_handle_clean(config):
    findings = lint(
        """
        import json

        def load(path):
            with open(path) as fh:
                return json.load(fh)

        def echo(doc, path):
            with open(path, "r") as fh:
                pass
            return json.dumps(doc)
        """, config)
    assert findings == []


def test_atomic_helper_usage_clean(config):
    findings = lint(
        """
        import json
        from repro.checkpoint.atomic import write_text_atomic

        def save(doc, path):
            write_text_atomic(path, json.dumps(doc, indent=2) + "\\n")
        """, config)
    assert findings == []


def test_sanctuary_module_exempt(config):
    src = """
        import json

        def persist(doc, fh):
            json.dump(doc, fh)
        """
    assert lint(src, config, path="repro/checkpoint/atomic.py") == []
    assert len(lint(src, config)) == 1


def test_non_json_write_clean(config):
    findings = lint(
        """
        def save(text, path):
            with open(path, "w") as fh:
                fh.write(text)
        """, config)
    assert findings == []


def test_append_mode_os_open_flagged(config):
    findings = lint(
        """
        import os
        from os import O_APPEND, O_CREAT

        def appender(path):
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def keyword_flags(path):
            return os.open(path, flags=os.O_WRONLY | O_APPEND | O_CREAT)
        """, config)
    assert [f.symbol for f in findings] == ["os.open(O_APPEND)"] * 2
    assert "JsonlAppender" in findings[0].message


def test_aliased_os_open_append_flagged(config):
    findings = lint(
        """
        import os as _os

        def appender(path):
            return _os.open(path, _os.O_APPEND | _os.O_WRONLY, 0o644)
        """, config)
    assert [f.symbol for f in findings] == ["os.open(O_APPEND)"]


def test_non_append_os_open_clean(config):
    findings = lint(
        """
        import os

        def claim(path):
            return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

        def reader(path):
            return os.open(path, os.O_RDONLY)
        """, config)
    assert findings == []


def test_append_primitive_exempt_in_sanctuary(config):
    src = """
        import os

        def appender(path):
            return os.open(path, os.O_WRONLY | os.O_APPEND, 0o644)
        """
    assert lint(src, config, path="repro/checkpoint/atomic.py") == []
    assert len(lint(src, config)) == 1
