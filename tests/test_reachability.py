"""The production-reachability ledger's matcher and allowlist
(``tests/reachability.py``; the ledger itself runs as a CI step)."""

from __future__ import annotations

import importlib.util
import sys

from tests.reachability import (
    called_lines,
    defined_bodies,
    package_bodies,
    profile,
    read_allowlist,
    unreached,
    verdict,
)

SYNTHETIC = '''\
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@traced
def decorated(x):
    return x + 1


class Shape:
    def __init__(self, side):
        self.side = side

    @property
    def area(self):
        return self.side * self.side

    def scaled(self, k):
        def grow(v):
            return v * k

        return grow(self.side)

    def never_called(self):
        return 0
'''


def _run_synthetic(tmp_path):
    path = tmp_path / "synthetic_ledger.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic_ledger", path)
    module = importlib.util.module_from_spec(spec)
    called: dict[int, object] = {}
    uninstall = profile(called)
    try:
        spec.loader.exec_module(module)
        shape = module.Shape(module.decorated(2))
        assert shape.area == 9 and shape.scaled(2) == 6
    finally:
        uninstall()
        sys.modules.pop("synthetic_ledger", None)
    bodies = defined_bodies(path, "synthetic_ledger")
    return bodies, called_lines(called, str(tmp_path))


def test_matcher_reports_exactly_the_uncalled_method(tmp_path):
    bodies, called = _run_synthetic(tmp_path)
    missing, ran = unreached(bodies, called)
    assert missing == ["synthetic_ledger:Shape.never_called"]
    assert set(ran) == {
        "synthetic_ledger:traced",
        "synthetic_ledger:traced.<locals>.wrapper",
        "synthetic_ledger:decorated",
        "synthetic_ledger:Shape.area",
        "synthetic_ledger:Shape.scaled",
        "synthetic_ledger:Shape.scaled.<locals>.grow",
    }
    # ``__init__`` ran, but dunders are exempt by rule either way.
    assert [b.name for b in bodies if b.exempt] == ["synthetic_ledger:Shape.__init__"]


def test_allowlisted_body_that_ran_is_stale(tmp_path):
    bodies, called = _run_synthetic(tmp_path)
    missing, ran = unreached(bodies, called)
    allowed = {"synthetic_ledger:Shape.never_called", "synthetic_ledger:Shape.area"}
    assert verdict(missing, ran, allowed) == ([], ["synthetic_ledger:Shape.area"])
    assert verdict(missing, ran, ()) == (["synthetic_ledger:Shape.never_called"], [])


def test_protocol_bodies_are_exempt(tmp_path):
    path = tmp_path / "proto.py"
    path.write_text(
        "from typing import Protocol\n\n\n"
        "class Policy(Protocol):\n"
        "    def pick(self) -> int:\n"
        "        ...\n"
    )
    assert [b.exempt for b in defined_bodies(path, "proto")] == [True]


def test_every_allowlist_entry_names_a_body_and_gives_a_reason():
    allowed = read_allowlist()
    assert 0 < len(allowed) <= 8
    bodies = {b.name: b for b in package_bodies()}
    for name, reason in allowed.items():
        assert name in bodies, f"allowlist names no function body: {name}"
        assert not bodies[name].exempt, f"allowlisted body is exempt anyway: {name}"
        assert reason, f"allowlist entry without a reason: {name}"
