"""Telemetry subsystem: registry/export determinism, Prometheus lint,
audit-log reconciliation with the migration engine, disabled-mode
neutrality, and the frozen policy-API surface."""

from __future__ import annotations

import inspect
import json
import re

import pytest

from repro.experiments.runner import execute_spec
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.metrics import (
    MetricsRegistry,
    PlacementAuditLog,
    Telemetry,
    TelemetryConfig,
    json_digest,
    resolve_telemetry,
    to_csv,
    to_json,
    to_prometheus,
)

from tests.helpers import audit_migrated_bytes, audit_select, parse_labels_str

NVM = nvm_bandwidth_scaled(0.5)


def spec(workload="cg", policy="tahoe", **changes) -> RunSpec:
    base = dict(workload=workload, policy=policy, nvm=NVM, fast=True)
    base.update(changes)
    return RunSpec(**base)


def instrumented_run(s: RunSpec) -> Telemetry:
    tel = Telemetry(TelemetryConfig())
    execute_spec(s, telemetry=tel)
    return tel


class TestConfigResolution:
    def test_on_off_spellings(self):
        assert resolve_telemetry(None) is None
        assert resolve_telemetry(False) is None
        assert resolve_telemetry("off") is None
        assert resolve_telemetry(True) == TelemetryConfig()
        assert resolve_telemetry("on") == TelemetryConfig()

    def test_json_overrides(self):
        cfg = resolve_telemetry('{"cadence_s": 0.001, "audit": false}')
        assert cfg.cadence_s == 0.001
        assert not cfg.audit

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry config"):
            resolve_telemetry({"cadence": 1.0})

    def test_rides_on_spec_and_cache_key_neutral_when_off(self):
        off = spec()
        on = spec(telemetry="on")
        assert "telemetry" not in off.to_dict()
        assert off.to_dict() != on.to_dict()


class TestDigestDeterminism:
    def test_same_spec_same_seed_byte_identical_export(self):
        a = instrumented_run(spec())
        b = instrumented_run(spec())
        assert json_digest(a.export()) == json_digest(b.export())
        assert to_json(a.export()) == to_json(b.export())

    def test_different_policy_different_digest(self):
        a = instrumented_run(spec(policy="tahoe"))
        b = instrumented_run(spec(policy="nvm-only"))
        assert json_digest(a.export()) != json_digest(b.export())

    def test_export_stable_after_end_run(self):
        tel = instrumented_run(spec())
        assert tel.export() is tel.export()


_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? [0-9.eE+\-]+(\s|$)"
)


class TestPrometheusLint:
    @pytest.fixture(scope="class")
    def text(self):
        return to_prometheus(instrumented_run(spec()))

    def test_every_line_is_comment_or_valid_sample(self, text):
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _PROM_SAMPLE.match(line), line

    def test_help_and_type_precede_samples(self, text):
        seen_type: set[str] = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                seen_type.add(line.split()[2])
            elif line and not line.startswith("#"):
                family = line.split("{")[0].split(" ")[0]
                base = re.sub(r"_(bucket|sum|count)$", "", family)
                assert family in seen_type or base in seen_type, line

    def test_histogram_buckets_cumulative_and_end_at_inf(self, text):
        buckets: dict[str, list[tuple[str, float]]] = {}
        for line in text.splitlines():
            m = re.match(r"^(\w+)_bucket\{(.*)le=\"([^\"]+)\"\} ([0-9.eE+\-]+)", line)
            if m:
                key = m.group(1) + "{" + m.group(2) + "}"
                buckets.setdefault(key, []).append((m.group(3), float(m.group(4))))
        assert buckets, "no histogram families exported"
        for key, series in buckets.items():
            counts = [c for _, c in series]
            assert counts == sorted(counts), key
            assert series[-1][0] == "+Inf", key


class TestExporterEscaping:
    """Regression tests for the exporter escaping fixes: the CSV labels
    column must round-trip structural characters, and Prometheus HELP
    lines must not escape double quotes (only label values do)."""

    NASTY = {
        "path": "a=b;c",
        "expr": "x\\=y",
        "plain": "ok",
        "trailing": "end\\",
    }

    def test_csv_labels_round_trip(self):
        from repro.metrics.export import _labels_str

        encoded = _labels_str(self.NASTY)
        assert parse_labels_str(encoded) == self.NASTY

    @pytest.mark.parametrize(
        "labels",
        [
            {},
            {"k": ""},
            {"k": ";"},
            {"k": "="},
            {"k": "\\"},
            {"k": "\\;"},
            {"a;b": "c=d", "e\\f": "g;h"},
        ],
    )
    def test_csv_labels_round_trip_edge_cases(self, labels):
        from repro.metrics.export import _labels_str

        assert parse_labels_str(_labels_str(labels)) == labels

    def test_csv_rows_with_nasty_labels_parse_back(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels=self.NASTY).inc(3)
        text = to_csv({"metrics": reg.snapshot()})
        rows = text.splitlines()
        assert rows[0] == "record,name,labels,field,time,value"
        import csv as csv_mod
        import io

        (row,) = list(csv_mod.DictReader(io.StringIO(text)))
        assert parse_labels_str(row["labels"]) == self.NASTY

    def test_prom_registry_scrape_is_pinned(self):
        """A live registry renders through its snapshot (every bucket)
        plus its HELP text; the bytes are pinned, flat bucket runs and
        escaping included."""
        reg = MetricsRegistry()
        reg.counter(
            "copies_total", labels={"dst": "dram"}, help='Copies "issued"\nper tier'
        ).inc(3)
        reg.gauge("lane_backlog_seconds", labels={"lane": 'helper "0"'}).set(0.25)
        hist = reg.histogram(
            "task_seconds", help="Task time", bounds=(1e-3, 5e-3, 0.1, 1.0, 5e-6)
        )
        hist.observe(0.002)
        hist.observe(0.5)
        assert to_prometheus(reg) == (
            '# HELP repro_copies_total Copies "issued"\\nper tier\n'
            "# TYPE repro_copies_total counter\n"
            'repro_copies_total{dst="dram"} 3.0\n'
            "# TYPE repro_lane_backlog_seconds gauge\n"
            'repro_lane_backlog_seconds{lane="helper \\"0\\""} 0.25\n'
            "# HELP repro_task_seconds Task time\n"
            "# TYPE repro_task_seconds histogram\n"
            'repro_task_seconds_bucket{le="5e-06"} 0\n'
            'repro_task_seconds_bucket{le="0.001"} 0\n'
            'repro_task_seconds_bucket{le="0.005"} 1\n'
            'repro_task_seconds_bucket{le="0.1"} 1\n'
            'repro_task_seconds_bucket{le="1.0"} 2\n'
            'repro_task_seconds_bucket{le="+Inf"} 2\n'
            "repro_task_seconds_sum 0.502\n"
            "repro_task_seconds_count 2\n"
        )

    def test_prom_help_keeps_quotes_verbatim(self):
        reg = MetricsRegistry()
        reg.counter("hits", help='Counts "hits" per tier \\ tenant').inc()
        text = to_prometheus(reg)
        help_line = next(ln for ln in text.splitlines() if ln.startswith("# HELP"))
        # Quotes verbatim; backslash escaped; no \" sequence anywhere.
        assert '"hits"' in help_line
        assert "\\\\" in help_line
        assert '\\"' not in help_line

    def test_prom_help_escapes_newline(self):
        reg = MetricsRegistry()
        reg.gauge("depth", help="line one\nline two").set(1)
        text = to_prometheus(reg)
        help_line = next(ln for ln in text.splitlines() if ln.startswith("# HELP"))
        assert "\n" not in help_line and "\\n" in help_line

    def test_prom_label_values_still_escape_quotes(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"tenant": 'say "hi"\\now'}).inc()
        text = to_prometheus(reg)
        sample = next(
            ln for ln in text.splitlines() if ln and not ln.startswith("#")
        )
        assert 'tenant="say \\"hi\\"\\\\now"' in sample


class TestAuditReconciliation:
    @pytest.fixture(scope="class")
    def run(self):
        tel = Telemetry(TelemetryConfig())
        trace = execute_spec(spec(), telemetry=tel)
        return tel, trace

    def test_every_engine_record_has_a_copy_entry(self, run):
        tel, trace = run
        assert len(audit_select(tel.audit, "copy")) == len(trace.migrations.records)

    def test_migrated_bytes_reconcile_exactly(self, run):
        tel, trace = run
        engine_bytes = sum(
            m.nbytes for m in trace.migrations.records if not m.failed
        )
        assert audit_migrated_bytes(tel.audit) == engine_bytes

    def test_copy_entries_carry_policy_inputs(self, run):
        tel, _ = run
        reasons = {
            e.inputs.get("reason")
            for e in audit_select(tel.audit, "copy")
            if e.inputs
        }
        assert "promotion" in reasons

    def test_initial_placements_logged(self, run):
        tel, trace = run
        initial = audit_select(tel.audit, "initial")
        assert initial and all(e.time == 0.0 for e in initial)

    def test_exported_uids_are_dense_per_run_ids(self, run):
        tel, _ = run
        uids = {e["obj_uid"] for e in tel.export()["audit"]["entries"]}
        assert uids and max(uids) < 200  # raw global uids would be unbounded


class TestDisabledModeNeutrality:
    def test_makespan_identical_with_and_without_telemetry(self):
        bare = execute_spec(spec())
        tel = Telemetry(TelemetryConfig())
        instrumented = execute_spec(spec(), telemetry=tel)
        assert instrumented.makespan == pytest.approx(bare.makespan, rel=1e-12)
        assert instrumented.migration_count == bare.migration_count

    def test_off_by_default_everywhere(self):
        s = spec()
        trace = execute_spec(s)
        assert s.telemetry is None
        assert trace.telemetry is None
        assert "telemetry" not in trace.summary()

    def test_spec_telemetry_rides_on_trace(self):
        trace = execute_spec(spec(telemetry="on"))
        assert trace.telemetry is not None
        assert trace.summary()["telemetry"]["n_audit_entries"] > 0


class TestExporters:
    @pytest.fixture(scope="class")
    def tel(self):
        return instrumented_run(spec())

    def test_csv_is_long_form(self, tel):
        lines = to_csv(tel.export()).splitlines()
        assert len(lines) > 10
        assert lines[0] == "record,name,labels,field,time,value"

    def test_json_round_trips(self, tel):
        data = json.loads(to_json(tel.export()))
        assert set(data) >= {"metrics", "samplers", "audit"}

    def test_audit_log_caps_and_counts_drops(self):
        log = PlacementAuditLog(max_entries=2)
        for i in range(5):
            log.log(float(i), "noop", obj_uid=i)
        assert len(log) == 2
        assert log.dropped == 3

    def test_registry_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError, match="x_total"):
            reg.gauge("x_total")


class TestStablePolicyAPI:
    """The policy/run API surface this PR freezes (satellite #4)."""

    def test_executor_public_surface(self):
        import repro.tasking.executor as ex

        assert ex.__all__ == [
            "ExecutorConfig", "ExecContext", "PlacementPolicy", "Executor",
        ]

    def test_placement_policy_hook_signatures_frozen(self):
        from repro.tasking.executor import PlacementPolicy

        hooks = {
            "on_run_start": ["self", "ctx"],
            "before_task": ["self", "task", "ctx", "now"],
            "after_task": ["self", "task", "record", "ctx"],
        }
        for name, params in hooks.items():
            sig = inspect.signature(getattr(PlacementPolicy, name))
            assert list(sig.parameters) == params, name

    def test_exec_context_public_surface_frozen(self):
        from repro.tasking.executor import ExecContext

        public = {
            n for n, v in vars(ExecContext).items()
            if not n.startswith("_") and callable(v) or isinstance(v, property)
        }
        assert public == {
            "dram", "nvm", "place_initial", "request_migration",
            "remaining_indices", "profile",
            "migration_backlog", "profiling_overhead",
        }

    def test_request_migration_signature_frozen(self):
        from repro.tasking.executor import ExecContext

        sig = inspect.signature(ExecContext.request_migration)
        assert list(sig.parameters) == [
            "self", "obj", "device", "now", "inputs",
        ]

    def test_metrics_package_exports(self):
        import repro.metrics as m

        for name in (
            "MetricsRegistry", "PlacementAuditLog", "Telemetry",
            "TelemetryConfig", "resolve_telemetry", "to_json", "to_csv",
            "to_prometheus", "json_digest", "export_as",
        ):
            assert name in m.__all__, name
