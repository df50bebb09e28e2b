"""The production-reachability ledger's matcher and allowlist
(``tests/reachability.py``; the ledger itself runs as a CI step)."""

from __future__ import annotations

import importlib.util
import sys

from tests.reachability import (
    called_lines,
    defined_bodies,
    defined_fields,
    is_surface,
    keyed_values,
    known_names,
    package_bodies,
    package_fields,
    package_surface,
    profile,
    read_allowlist,
    single_valued,
    unreached,
    unread_fields,
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
    assert 0 < len(allowed) <= 16
    bodies = package_bodies()
    surface = package_surface(bodies)
    known = known_names(bodies, surface, package_fields())
    exempt = {b.name for b in bodies if b.exempt}
    for name, reason in allowed.items():
        assert name in known, f"allowlist names no body, internal parameter or field: {name}"
        assert name not in exempt, f"allowlisted body is exempt anyway: {name}"
        assert reason, f"allowlist entry without a reason: {name}"


# ----------------------------------------------------------------------
# Single-valued parameters
# ----------------------------------------------------------------------
VALUES = '''\
def knob(x, level=3):
    return x


def fixed(x, mode="a"):
    return x


def spread(x, n=1, obj=None):
    return x


def only_obj(x, obj=None):
    return x


def api(x, depth=2):
    return x


def run():
    knob(1, level=5)
    knob(2, level=5)
    fixed(1)
    fixed(2)
    spread(1, n=1)
    spread(1, n=2, obj=None)
    spread(1, n=2, obj=1.5)
    only_obj(1, obj=[1])
    api(1)
'''


def _values(tmp_path, surface=frozenset()):
    path = tmp_path / "synthetic_values.py"
    path.write_text(VALUES)
    spec = importlib.util.spec_from_file_location("synthetic_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    called: dict[int, object] = {}
    values: dict = {}
    uninstall = profile(called, values, prefix=tmp_path)
    try:
        module.run()
    finally:
        uninstall()
    bodies = defined_bodies(path, "synthetic_values")
    return single_valued(bodies, keyed_values(called, values), set(surface))


def test_one_scalar_value_is_reported_with_its_case(tmp_path):
    found, _ = _values(tmp_path)
    assert found["synthetic_values:knob(level)"] == "default 3 never used; always 5"
    assert found["synthetic_values:fixed(mode)"] == "always the default 'a'"


def test_two_values_or_a_non_scalar_value_are_not_reported(tmp_path):
    found, varied = _values(tmp_path)
    assert set(found) == {
        "synthetic_values:knob(level)",
        "synthetic_values:fixed(mode)",
        "synthetic_values:api(depth)",
    }
    assert set(varied) == {
        "synthetic_values:spread(n)",
        "synthetic_values:spread(obj)",
        "synthetic_values:only_obj(obj)",
    }


def test_surface_functions_are_not_reported(tmp_path):
    found, varied = _values(tmp_path, surface={"synthetic_values:api"})
    assert "synthetic_values:api(depth)" not in {*found, *varied}
    exported, builders = {"m:Engine", "m:api"}, {"m:build"}
    assert [
        name for name in (
            "m:main", "m:api", "m:Engine.__init__", "m:Engine.step",
            "m:Engine._plan", "m:api.<locals>.inner", "m:build",
            "m:build.<locals>.tile", "m:helper",
        )
        if is_surface(name, exported, builders)
    ] == ["m:main", "m:api", "m:Engine.__init__", "m:Engine.step", "m:build", "m:build.<locals>.tile"]


# ----------------------------------------------------------------------
# Unread fields
# ----------------------------------------------------------------------
FIELDS = '''\
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple


@dataclass
class Record:
    used: int
    unused: int = 0


@dataclass
class Exported:
    hidden: int = 0


@dataclass
class Dumped:
    inner: int = 0

    def to_dict(self):
        return asdict(self)


class Pair(NamedTuple):
    left: int
    right: int


def make():
    r = Record(used=1, unused=2)
    r.unused = 3
    p = Pair(1, right=2)
    return r.used + p.left + len(fields(Exported)) + getattr(p, "right")
'''


def _fields(tmp_path):
    path = tmp_path / "synthetic_fields.py"
    path.write_text(FIELDS)
    fields = defined_fields(path, "synthetic_fields")
    return fields, unread_fields([path], fields)


def test_field_set_only_through_the_constructor_is_unread(tmp_path):
    fields, (unread, _) = _fields(tmp_path)
    assert [f[0] for f in fields] == [
        "synthetic_fields:Record.used",
        "synthetic_fields:Record.unused",
        "synthetic_fields:Exported.hidden",
        "synthetic_fields:Dumped.inner",
        "synthetic_fields:Pair.left",
        "synthetic_fields:Pair.right",
    ]
    assert unread == ["synthetic_fields:Record.unused"]


def test_fields_of_a_class_exported_whole_are_read(tmp_path):
    _, (_, read) = _fields(tmp_path)
    assert "synthetic_fields:Exported.hidden" in read  # fields(Exported)
    assert "synthetic_fields:Dumped.inner" in read  # asdict(self)
    assert "synthetic_fields:Pair.right" in read  # named in a string


def test_stale_and_unknown_parameter_and_field_entries(tmp_path):
    found, varied = _values(tmp_path, surface={"synthetic_values:api"})
    fields, (unread, read) = _fields(tmp_path)
    allowed = {
        "synthetic_values:knob(level)",
        "synthetic_values:spread(n)",  # varied: stale
        "synthetic_fields:Record.unused",
        "synthetic_fields:Record.used",  # read: stale
        "synthetic_values:knob(nope)",  # no such parameter
        "synthetic_values:api(depth)",  # a surface parameter
        "synthetic_fields:Record.gone",  # no such field
    }
    assert verdict(found, varied, allowed) == (["synthetic_values:fixed(mode)"], ["synthetic_values:spread(n)"])
    assert verdict(unread, read, allowed) == ([], ["synthetic_fields:Record.used"])
    bodies = defined_bodies(tmp_path / "synthetic_values.py", "synthetic_values")
    known = known_names(bodies, {"synthetic_values:api"}, fields)
    assert sorted(allowed - known) == [
        "synthetic_fields:Record.gone",
        "synthetic_values:api(depth)",
        "synthetic_values:knob(nope)",
    ]
