"""The metrics registry: counters, gauges and histograms keyed by
name + labels.

Instruments are created lazily through the registry and cached, so hot
paths pay one dict lookup per update; components that may run without
telemetry hold an ``Optional[MetricsRegistry]`` and guard updates with a
single ``is not None`` check (the same pattern as ``FaultInjector``).

Everything here is deterministic: instruments export in sorted
(name, labels) order, histograms use fixed bucket boundaries, and no
wall-clock time ever enters a value — so two runs of the same
:class:`~repro.experiments.spec.RunSpec` under the same seed export
byte-identical snapshots (the property the determinism tests pin).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, partial
from typing import Any, Callable, Iterable, Mapping, TypeVar

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "bind"]

#: Default histogram buckets (seconds-ish magnitudes; powers of ten with
#: 1-2-5 steps cover virtual durations from sub-microsecond to minutes).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-7, 3) for m in (1.0, 2.0, 5.0)
)

LabelsArg = Mapping[str, str] | None
LabelsKey = tuple[tuple[str, str], ...]
_I = TypeVar("_I")


def _label_key(labels: LabelsArg) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bind(
    make: Callable[..., _I], name: str, labels: LabelsArg, help: str
) -> Callable[[], _I]:
    """One series of a registry, bound once: ``make`` is the registry's
    ``counter``, ``gauge`` or ``histogram``; the returned callable asks
    it for ``(name, labels)`` on its first call and returns that
    instrument from then on.  A hot path binds its series when telemetry
    is attached and skips the lookup by name per update, while a series
    still appears only with its first update, as one made by name
    would."""
    return cache(partial(make, name, labels, help=help))


class _Instrument:
    """Common identity of one (name, labels) series."""

    __slots__ = ("name", "labels")

    kind = "untyped"

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey):
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge(_Instrument):
    """Point-in-time level (occupancy, backlog, queue depth)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey):
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram(_Instrument):
    """Distribution over fixed buckets (copy durations, stall times).

    Buckets are cumulative-upper-bound style, as in Prometheus: bucket
    ``i`` counts observations ``<= bounds[i]``, with a final implicit
    ``+Inf`` bucket.  Sum and count are tracked exactly.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelsKey,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels)
        self.bounds: tuple[float, ...] = tuple(sorted(set(float(b) for b in bounds)))
        self.bucket_counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        # Index of the first upper bound >= value (the bucket an
        # observation lands in under "le" semantics); past the last bound
        # it falls into the implicit +Inf bucket.
        idx = bisect_right(self.bounds, value)
        if idx > 0 and self.bounds[idx - 1] == value:
            idx -= 1
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            running += c
            out.append((bound, running))
        running += self.bucket_counts[-1]
        out.append((float("inf"), running))
        return out


class MetricsRegistry:
    """Home of every instrument created during one instrumented run.

    ``counter()``/``gauge()``/``histogram()`` create-or-return the series
    for (name, labels); asking for an existing name with a different
    instrument kind is an error (one name, one kind — the Prometheus
    rule, which keeps every exporter well-formed).
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelsKey], _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(
        self,
        cls: type,
        name: str,
        labels: LabelsArg,
        help: str | None,
        **kwargs: Any,
    ) -> Any:
        key = (name, _label_key(labels))
        inst = self._series.get(key)
        if inst is not None:
            if inst.kind != cls.kind:
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"requested as {cls.kind}"
                )
            return inst
        prior = self._kinds.get(name)
        if prior is not None and prior != cls.kind:
            raise TypeError(
                f"metric {name!r} already registered as {prior}, "
                f"requested as {cls.kind}"
            )
        inst = cls(name, key[1], **kwargs)
        self._series[key] = inst
        self._kinds[name] = cls.kind
        if help:
            self._help[name] = help
        return inst

    def counter(self, name: str, labels: LabelsArg = None, help: str | None = None) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels: LabelsArg = None, help: str | None = None) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: LabelsArg = None,
        help: str | None = None,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, help, bounds=bounds)

    # ------------------------------------------------------------------
    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def series(self) -> list[_Instrument]:
        """Every instrument, sorted by (name, labels) — export order."""
        return [self._series[k] for k in sorted(self._series)]

    def snapshot(self, *, every_bucket: bool = False) -> dict[str, Any]:
        """Plain-data view of every series (the JSON exporter's input).

        Histogram buckets keep only the boundaries where the cumulative
        count moves (plus +Inf); ``every_bucket`` keeps them all, as the
        Prometheus scrape of a live registry lists them."""
        out: list[dict[str, Any]] = []
        for inst in self.series():
            entry: dict[str, Any] = {
                "name": inst.name,
                "kind": inst.kind,
                "labels": inst.labels_dict,
            }
            if isinstance(inst, Histogram):
                entry["count"] = inst.count
                entry["sum"] = inst.sum
                buckets = []
                prev = -1
                for b, c in inst.cumulative():
                    # Keep only boundaries where the cumulative count moves
                    # (plus +Inf), so empty tails don't bloat the export.
                    if every_bucket or c != prev or b == float("inf"):
                        # JSON has no Infinity literal; Prometheus spelling.
                        buckets.append(
                            {"le": "+Inf" if b == float("inf") else b, "count": c}
                        )
                        prev = c
                entry["buckets"] = buckets
            else:
                entry["value"] = inst.value
            out.append(entry)
        return {"series": out}
