"""The unified run description: :class:`RunSpec` and :class:`RunResult`.

A :class:`RunSpec` is the single way to describe one simulated run —
workload + parameter overrides, the DRAM/NVM machine, policy + policy
overrides, scheduler, profiler seed, and the fast/full size switch.  It
is frozen, hashable, and picklable, so it can key dictionaries, travel
to worker processes, and address the on-disk result cache.

``cache_key()`` hashes the canonical-JSON form of the spec together with
a code/model version salt (:data:`MODEL_VERSION` + the package version),
so changing either the spec or the simulator's models invalidates stale
cache entries.

A :class:`RunResult` is the JSON-serializable digest of one run — the
trace summary, migration statistics and energy accounting the experiment
suite consumes — or, for a crashed run, a structured failure record.

The *what-if plane* lives here too: :meth:`RunSpec.diff` produces a
canonical dotted-field-path diff between two specs, and
:meth:`RunSpec.with_overrides` builds a new frozen spec from dotted-path
overrides (``spec.with_overrides(**{"nvm.read_bandwidth": bw})``).
Both operate on the serialized :meth:`RunSpec.to_dict` form, so they add
no new fields and existing cache keys stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import traceback as traceback_mod
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.faults.plan import resolve_plan
from repro.memory.device import DeviceKind, MemoryDevice
from repro.memory.presets import DEFAULT_DRAM_CAPACITY
from repro.util.validation import did_you_mean

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tasking.trace import ExecutionTrace

__all__ = [
    "MODEL_VERSION",
    "SPEC_PATH_ALIASES",
    "RunSpec",
    "RunResult",
    "canonical_json",
    "device_fingerprint",
    "version_salt",
]

#: Bump whenever the simulator's timing/placement models change in a way
#: that alters results: every cached entry keyed under the old value
#: becomes unreachable.  (The package ``__version__`` is mixed in too.)
MODEL_VERSION = 1


def version_salt() -> str:
    """The code/model salt mixed into every cache key."""
    import repro

    return f"{repro.__version__}/m{MODEL_VERSION}"


# ----------------------------------------------------------------------
# Canonicalization helpers
# ----------------------------------------------------------------------
def _freeze(value: Any) -> Any:
    """Recursively convert mappings/sequences into hashable tuples."""
    if isinstance(value, Mapping):
        return tuple((str(k), _freeze(value[k])) for k in sorted(value, key=str))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return tuple(_freeze(v) for v in items)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for mapping-shaped tuples."""
    if isinstance(value, tuple):
        if all(isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) for v in value):
            return {k: _thaw(v) for k, v in value}
        return tuple(_thaw(v) for v in value)
    return value


def _jsonable(value: Any) -> Any:
    """Reduce a value to JSON-representable primitives (stable fallback:
    ``repr`` for anything exotic, so the cache key is always computable)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, MemoryDevice):
        return device_fingerprint(value)
    return repr(value)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def device_fingerprint(device: MemoryDevice) -> dict[str, Any]:
    """Everything about a device that can influence a run's result."""
    return {
        "name": device.name,
        "kind": device.kind.value,
        "capacity_bytes": device.capacity_bytes,
        "read_latency_s": device.read_latency_s,
        "write_latency_s": device.write_latency_s,
        "read_bandwidth": device.read_bandwidth,
        "write_bandwidth": device.write_bandwidth,
    }


def device_from_fingerprint(fp: Mapping[str, Any]) -> MemoryDevice:
    """Rebuild a device from :func:`device_fingerprint` output."""
    return MemoryDevice(
        name=fp["name"],
        kind=DeviceKind(fp["kind"]),
        capacity_bytes=int(fp["capacity_bytes"]),
        read_latency_s=fp["read_latency_s"],
        write_latency_s=fp["write_latency_s"],
        read_bandwidth=fp["read_bandwidth"],
        write_bandwidth=fp["write_bandwidth"],
    )


# ----------------------------------------------------------------------
# Dotted spec paths (the what-if plane's vocabulary)
# ----------------------------------------------------------------------
#: Friendly aliases accepted wherever a dotted spec path is: keys map a
#: path (or path prefix) onto its canonical ``to_dict()`` spelling, so
#: "double the DRAM" reads naturally in what-if requests.
SPEC_PATH_ALIASES: dict[str, str] = {
    "memory.dram_bytes": "dram_capacity",
    "memory.dram_capacity": "dram_capacity",
    "memory.nvm": "nvm",
}


def _canonical_path(path: str) -> str:
    """Resolve alias spellings (exact match or prefix) to canonical paths."""
    if path in SPEC_PATH_ALIASES:
        return SPEC_PATH_ALIASES[path]
    for alias, target in SPEC_PATH_ALIASES.items():
        if path.startswith(alias + "."):
            return target + path[len(alias):]
    return path


def _unknown_path(path: str, known: Iterable[str]) -> KeyError:
    candidates = sorted(set(known))
    return KeyError(
        f"unknown spec path {path!r}{did_you_mean(path, candidates)} "
        f"(known top-level paths: {candidates})"
    )


def _diff_nodes(a: Any, b: Any, path: str, out: dict[str, tuple[Any, Any]]) -> None:
    """Recursive field-path diff: descend while both sides are mappings
    with identical key sets; otherwise emit the whole differing subtree
    at the deepest common path (so applying the right-hand values via
    ``with_overrides`` reproduces the right-hand spec exactly)."""
    if a == b:
        return
    if isinstance(a, Mapping) and isinstance(b, Mapping) and set(a) == set(b):
        for key in sorted(a, key=str):
            _diff_nodes(a[key], b[key], f"{path}.{key}", out)
    else:
        out[path] = (a, b)


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """Immutable description of one (workload, machine, policy) run.

    Override mappings may be passed as plain dicts; they are frozen into
    sorted tuples on construction so the spec stays hashable.  Use the
    ``*_kwargs`` properties to read them back as dicts.
    """

    workload: str
    policy: str
    nvm: MemoryDevice
    dram_capacity: int = DEFAULT_DRAM_CAPACITY
    n_workers: int = 8
    fast: bool = True
    #: Profiler seed override; ``None`` keeps the executor default.
    seed: int | None = None
    #: Ready-task ordering policy (see ``repro.experiments.runner.SCHEDULERS``).
    scheduler: str = "fifo"
    workload_overrides: Any = ()
    policy_overrides: Any = ()
    exec_overrides: Any = ()
    #: Fault plan for the run: a :class:`~repro.faults.plan.FaultPlan`, a
    #: preset name, a JSON string/mapping, or ``None`` (no faults).
    #: Normalized through :func:`~repro.faults.plan.resolve_plan`, so an
    #: empty plan becomes ``None`` and the spec — including its cache key
    #: — is indistinguishable from one that never mentioned faults.
    faults: Any = None
    #: Telemetry config for the run: a
    #: :class:`~repro.metrics.telemetry.TelemetryConfig`, ``True``/"on"
    #: (defaults), a JSON string/mapping of field overrides, or ``None``
    #: (off).  Same omitted-when-off convention as ``faults``, so
    #: uninstrumented specs keep their pre-subsystem cache keys.
    telemetry: Any = None
    #: Open-system service mode: a
    #: :class:`~repro.experiments.service.StreamSpec`, ``True``/"on"
    #: (default tenant mix), a JSON string/mapping of field overrides, or
    #: ``None`` (closed-DAG mode).  Same omitted-when-off convention as
    #: ``faults``/``telemetry``, so closed-DAG specs keep their
    #: pre-service-mode cache keys byte-identical.
    stream: Any = None

    def __post_init__(self) -> None:
        from repro.experiments.service import resolve_stream
        from repro.metrics.telemetry import resolve_telemetry

        for name in ("workload_overrides", "policy_overrides", "exec_overrides"):
            object.__setattr__(self, name, _freeze(getattr(self, name) or ()))
        if self.exec_overrides:
            from repro.tasking.executor import ExecutorConfig

            known = {f.name for f in fields(ExecutorConfig)}
            unknown = sorted(set(self.exec_kwargs) - known)
            if unknown:
                raise ValueError(
                    f"unknown exec_overrides fields {unknown} (known: {sorted(known)})"
                )
        object.__setattr__(self, "faults", resolve_plan(self.faults))
        object.__setattr__(self, "telemetry", resolve_telemetry(self.telemetry))
        object.__setattr__(self, "stream", resolve_stream(self.stream))

    # -- dict views of the frozen overrides ----------------------------
    @property
    def workload_kwargs(self) -> dict[str, Any]:
        return dict(_thaw(self.workload_overrides) or {})

    @property
    def policy_kwargs(self) -> dict[str, Any]:
        return dict(_thaw(self.policy_overrides) or {})

    @property
    def exec_kwargs(self) -> dict[str, Any]:
        return dict(_thaw(self.exec_overrides) or {})

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with the given fields changed (dataclasses.replace)."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "nvm":
                value = device_fingerprint(value)
            elif f.name.endswith("_overrides"):
                value = _thaw(value) or {}
            elif f.name == "faults":
                # Omitted entirely when None so fault-free specs keep the
                # exact cache keys they had before the subsystem existed.
                if value is None:
                    continue
                value = value.to_dict()
            elif f.name == "telemetry":
                # Same convention as faults: off means absent.
                if value is None:
                    continue
                value = value.to_dict()
            elif f.name == "stream":
                # Same convention again: closed-DAG specs never mention it.
                if value is None:
                    continue
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        kwargs = dict(data)
        kwargs["nvm"] = device_from_fingerprint(kwargs["nvm"])
        return cls(**kwargs)

    def cache_key(self) -> str:
        """Content address of this spec under the current code version.

        Memoized on the instance per version salt: the spec is frozen, so
        sweeps and the cache layer can re-ask freely without
        re-serializing and re-hashing the spec every time, while a model
        version bump still yields a fresh key.
        """
        salt = version_salt()
        cached = self.__dict__.get("_cache_key")
        if cached is not None and cached[0] == salt:
            return cached[1]
        payload = {"salt": salt, "spec": self.to_dict()}
        key = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        object.__setattr__(self, "_cache_key", (salt, key))
        return key

    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        extras = []
        if self.seed is not None:
            extras.append(f"seed={self.seed}")
        if self.scheduler != "fifo":
            extras.append(self.scheduler)
        if self.faults is not None:
            extras.append(self.faults.label())
        if self.telemetry is not None:
            extras.append(self.telemetry.label())
        if self.stream is not None:
            extras.append(self.stream.label())
        tail = f" [{' '.join(extras)}]" if extras else ""
        return f"{self.workload}/{self.policy}@{self.nvm.name}{tail}"

    # -- the what-if plane ----------------------------------------------
    def diff(self, other: "RunSpec") -> dict[str, tuple[Any, Any]]:
        """Canonical field-path diff: ``{dotted_path: (mine, theirs)}``.

        Paths address the serialized :meth:`to_dict` form
        (``dram_capacity``, ``nvm.read_bandwidth``,
        ``workload_overrides.iterations``, ...).  The diff descends while
        both sides share structure and emits whole subtrees where they do
        not — optional planes (``faults``/``telemetry``/``stream``) that
        one side omits appear as ``(None, <subtree>)`` or the reverse.
        ``spec.diff(spec) == {}``, and feeding the right-hand values back
        through :meth:`with_overrides` reproduces ``other`` exactly
        (byte-identical cache key) — the what-if round-trip the tests pin.
        """
        a, b = self.to_dict(), other.to_dict()
        out: dict[str, tuple[Any, Any]] = {}
        for key in sorted(set(a) | set(b)):
            _diff_nodes(a.get(key), b.get(key), key, out)
        return out

    def with_overrides(self, **overrides: Any) -> "RunSpec":
        """A new frozen spec with dotted-path overrides applied.

        Keys are dotted paths into the :meth:`to_dict` form — pass them
        through ``**{"nvm.read_bandwidth": bw}`` unpacking since dots are
        not identifier characters.  Friendly aliases in
        :data:`SPEC_PATH_ALIASES` (e.g. ``memory.dram_bytes``) are
        accepted.  Unknown paths raise ``KeyError`` with a did-you-mean
        suggestion; the source spec is never mutated.  Values may be
        whole subtrees (e.g. a full ``faults`` plan dict, or ``None`` to
        drop an optional plane) as well as scalar leaves; an ``nvm``
        value may be a :class:`MemoryDevice`.
        """
        data = self.to_dict()
        spec_fields = {f.name for f in fields(RunSpec)}
        scalar_fields = spec_fields - {
            "nvm", "workload_overrides", "policy_overrides", "exec_overrides",
            "faults", "telemetry", "stream",
        }
        nvm_keys = set(device_fingerprint(self.nvm))
        for raw_path, value in overrides.items():
            path = _canonical_path(raw_path)
            parts = path.split(".")
            head = parts[0]
            if head not in spec_fields:
                raise _unknown_path(
                    raw_path, spec_fields | set(SPEC_PATH_ALIASES)
                )
            if head in scalar_fields and len(parts) > 1:
                raise KeyError(
                    f"spec path {raw_path!r} descends into scalar field "
                    f"{head!r}; override it directly"
                )
            if head == "nvm":
                if len(parts) > 2 or (len(parts) == 2 and parts[1] not in nvm_keys):
                    raise _unknown_path(
                        raw_path, {f"nvm.{k}" for k in nvm_keys} | {"nvm"}
                    )
                if len(parts) == 1 and isinstance(value, MemoryDevice):
                    value = device_fingerprint(value)
            node: dict[str, Any] = data
            for part in parts[:-1]:
                child = node.get(part)
                # Copy-on-write down the spine; a missing/scalar interior
                # node becomes a fresh subtree (how a fault-free spec
                # gains e.g. ``faults.seed``).
                node[part] = dict(child) if isinstance(child, Mapping) else {}
                node = node[part]
            leaf = parts[-1]
            if value is None and leaf in ("faults", "telemetry", "stream") and len(parts) == 1:
                node.pop(leaf, None)
            else:
                node[leaf] = _thaw(value) if isinstance(value, tuple) else value
        return RunSpec.from_dict(data)


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """JSON-serializable digest of one run (or a structured failure)."""

    spec: RunSpec
    ok: bool = True
    makespan: float = 0.0
    migrations: int = 0
    migrated_mib: float = 0.0
    overlap: float = 1.0
    overhead_fraction: float = 0.0
    #: ``ExecutionTrace.summary()`` (canonicalized through JSON so fresh,
    #: parallel and cached results compare byte-identically).
    summary: dict[str, Any] = field(default_factory=dict)
    #: ``EnergyReport.summary()`` for the run's actual devices.
    energy: dict[str, float] = field(default_factory=dict)
    #: Failure record (``ok == False``): exception type, message, traceback.
    error_type: str | None = None
    error: str | None = None
    traceback: str | None = None
    #: True when this result came from the on-disk cache.
    cached: bool = False

    @classmethod
    def from_trace(
        cls,
        spec: RunSpec,
        trace: "ExecutionTrace",
        dram: MemoryDevice,
        nvm: MemoryDevice,
    ) -> "RunResult":
        from repro.memory.energy import EnergyReport

        summary = json.loads(canonical_json(trace.summary()))
        energy = json.loads(canonical_json(EnergyReport.from_trace(trace, dram, nvm).summary()))
        return cls(
            spec=spec,
            ok=True,
            makespan=trace.makespan,
            migrations=trace.migration_count,
            migrated_mib=trace.migrated_mib,
            overlap=trace.migration_overlap(),
            overhead_fraction=trace.overhead_fraction(),
            summary=summary,
            energy=energy,
        )

    @classmethod
    def failure(cls, spec: RunSpec, exc: BaseException) -> "RunResult":
        return cls(
            spec=spec,
            ok=False,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback="".join(
                traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def raise_if_failed(self) -> "RunResult":
        """Turn a failure record back into an exception (strict mode)."""
        if not self.ok:
            raise RuntimeError(
                f"run failed for {self.spec.label()}: "
                f"{self.error_type}: {self.error}\n{self.traceback or ''}"
            )
        return self

    # -- cache payloads -------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """The dict stored in the result cache (spec kept for debugging)."""
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "makespan": self.makespan,
            "migrations": self.migrations,
            "migrated_mib": self.migrated_mib,
            "overlap": self.overlap,
            "overhead_fraction": self.overhead_fraction,
            "summary": self.summary,
            "energy": self.energy,
        }

    @classmethod
    def from_payload(cls, spec: RunSpec, payload: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=spec,
            ok=bool(payload.get("ok", True)),
            makespan=payload.get("makespan", 0.0),
            migrations=int(payload.get("migrations", 0)),
            migrated_mib=payload.get("migrated_mib", 0.0),
            overlap=payload.get("overlap", 1.0),
            overhead_fraction=payload.get("overhead_fraction", 0.0),
            summary=dict(payload.get("summary", {})),
            energy=dict(payload.get("energy", {})),
            cached=True,
        )
