"""Telemetry through the real layers: engine, cache, pool, dynamic, CLI.

The zero-cost-off contract is asserted here too: a disabled run must
leave the registry completely empty -- no instrument is even registered
from the hot paths.
"""

from concurrent.futures.process import BrokenProcessPool

import json

import pytest

import repro.flow
from repro import obs
from repro.__main__ import main
from repro.compiler.driver import compile_source
from repro.flow import FlowJob, clear_pool_fallbacks, pool_fallbacks, run_flows
from repro.programs import get_benchmark
from repro.sim.cpu import Cpu

NAMES = ["brev", "crc"]


def _jobs(names=NAMES):
    return [FlowJob(source=get_benchmark(name).source, name=name)
            for name in names]


def _counter_value(name):
    metric = obs.registry().get(name)
    return metric.value if metric is not None else 0


class TestEngineMetrics:
    def test_superblock_run_populates_engine_metrics(self, telemetry):
        exe = compile_source(get_benchmark("brev").source)
        result = Cpu(exe).run()
        assert _counter_value("engine.runs_total") == 1
        assert _counter_value("engine.runs.superblock") == 1
        assert _counter_value("engine.instructions_total") == result.steps
        assert _counter_value("engine.cycles_total") == result.cycles
        # the block/stepped split accounts for every instruction
        split = (_counter_value("engine.instructions_in_blocks")
                 + _counter_value("engine.instructions_stepped"))
        assert split == result.steps
        assert _counter_value("engine.instructions_in_blocks") > 0
        assert _counter_value("engine.codegen_units_total") > 0

    @pytest.mark.parametrize("interval", [1, 7, 97])
    def test_sampled_split_accounts_for_every_instruction(
        self, telemetry, interval
    ):
        # sampled folds and cold-counter spills must not lose or double
        # count a block instruction in the run-end split
        exe = compile_source(get_benchmark("brev").source)
        cpu = Cpu(exe, spill_after=1)
        result = cpu.run(sample_interval=interval,
                         on_sample=lambda counts, taken: None)
        assert _counter_value("engine.instructions_total") == result.steps
        split = (_counter_value("engine.instructions_in_blocks")
                 + _counter_value("engine.instructions_stepped"))
        assert split == result.steps
        assert cpu._sb.spilled > 0 and cpu._sb.reheats > 0
        assert _counter_value("engine.counter_spills_total") == cpu._sb.spilled
        assert _counter_value("engine.counter_reheats_total") \
            == cpu._sb.reheats

    def test_threaded_run_counts_under_its_engine(self, telemetry):
        exe = compile_source(get_benchmark("crc").source)
        Cpu(exe, engine="threaded").run()
        assert _counter_value("engine.runs.threaded") == 1
        assert obs.registry().get("engine.runs.superblock") is None

    def test_consecutive_runs_report_per_run_deltas(self, telemetry):
        exe = compile_source(get_benchmark("brev").source)
        cpu = Cpu(exe)
        first = cpu.run()
        units_after_first = _counter_value("engine.codegen_units_total")
        second = cpu.run()
        # cumulative table stats must not be double-counted on run 2
        # (the table is warm, so no new units are generated)
        assert units_after_first > 0
        assert _counter_value("engine.codegen_units_total") == units_after_first
        assert _counter_value("engine.instructions_total") \
            == first.steps + second.steps
        assert _counter_value("engine.runs_total") == 2

    def test_disabled_run_registers_nothing(self):
        obs.disable()
        obs.clear_metrics()
        exe = compile_source(get_benchmark("brev").source)
        Cpu(exe).run()
        assert len(obs.registry()) == 0


class TestPoolMetrics:
    def test_parallel_sweep_merges_worker_registries(self, telemetry):
        run_flows(_jobs(), max_workers=2, cache=False)
        # worker-side counts came back through the payload merge
        assert _counter_value("pool.jobs_total") == 2
        assert obs.registry().get("pool.job_seconds").count == 2
        assert obs.registry().get("pool.queue_wait_seconds").count == 2
        assert _counter_value("engine.runs_total") >= 2

    def test_serial_sweep_records_pool_metrics_too(self, telemetry):
        run_flows(_jobs(), max_workers=1, cache=False)
        assert _counter_value("pool.jobs_total") == 2
        assert obs.registry().get("pool.job_seconds").count == 2

    def test_parallel_matches_serial_with_telemetry_on(self, telemetry):
        serial = run_flows(_jobs(), max_workers=1, cache=False)
        parallel = run_flows(_jobs(), max_workers=2, cache=False)
        for s, p in zip(serial, parallel):
            assert s.summary_row() == p.summary_row()
            assert s.run.cycles == p.run.cycles


class TestPoolFallbackEvents:
    @pytest.fixture(autouse=True)
    def _clean_fallbacks(self):
        clear_pool_fallbacks()
        yield
        clear_pool_fallbacks()

    def test_fallback_is_structured_and_counted(self, telemetry, monkeypatch):
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(BrokenProcessPool("worker terminated abruptly")),
        )
        reports = run_flows(_jobs(), max_workers=2, cache=False)
        assert [r.name for r in reports] == NAMES
        [fallback] = pool_fallbacks()
        assert fallback.cause == "BrokenProcessPool"
        assert "terminated" in fallback.message
        assert fallback.jobs == 2
        assert _counter_value("pool.serial_fallback_total") == 1
        assert any(e["name"] == "pool.serial_fallback"
                   for e in obs.trace_events())

    def test_fallback_recorded_without_telemetry(self, monkeypatch):
        obs.disable()
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(OSError("semaphores not allowed")),
        )
        reports = run_flows(_jobs(), max_workers=2, cache=False)
        assert [r.name for r in reports] == NAMES
        [fallback] = pool_fallbacks()
        assert fallback.cause == "OSError"


class TestFlowSpans:
    def test_flow_stages_produce_spans(self, telemetry):
        run_flows(_jobs(["brev"]), max_workers=1, cache=False)
        names = {e["name"] for e in obs.trace_events()}
        assert {"flow.compile", "flow.simulate",
                "flow.decompile", "flow.partition"} <= names


class TestDecompilerMetrics:
    PASSES = ("constant_propagation", "copy_propagation",
              "dead_code_elimination", "stack_removal", "strength_promotion",
              "loop_rerolling", "size_reduction")

    def test_passes_produce_spans_and_run_counts(self, telemetry):
        from repro.decompile import decompile

        program = decompile(compile_source(get_benchmark("brev").source))
        functions = len(program.functions)
        for name in self.PASSES:
            assert _counter_value(f"decompile.pass.{name}.runs_total") > 0, name
        # structural passes run once per function
        assert _counter_value("decompile.pass.loop_rerolling.runs_total") \
            == functions
        # every constant-propagation run is one solve
        assert _counter_value("decompile.constprop_solves_total") == \
            _counter_value("decompile.pass.constant_propagation.runs_total")
        # a structural pass that changed nothing skips its cleanup round
        assert _counter_value("decompile.cleanup_rounds_skipped_total") > 0
        spans = [e for e in obs.trace_events()
                 if e["name"].startswith("decompile.pass.")]
        assert {e["name"] for e in spans} == {
            f"decompile.pass.{name}" for name in self.PASSES}
        assert {e["args"]["function"] for e in spans} == set(program.functions)

    def test_disabled_pass_is_not_counted(self, telemetry):
        from repro.decompile import decompile
        from repro.decompile.decompiler import DecompilationOptions

        options = DecompilationOptions(loop_rerolling=False)
        decompile(compile_source(get_benchmark("brev").source), options)
        assert obs.registry().get("decompile.pass.loop_rerolling.runs_total") \
            is None
        assert _counter_value("decompile.pass.size_reduction.runs_total") > 0

    def test_disabled_decompile_registers_nothing(self):
        from repro.decompile import decompile

        obs.disable()
        obs.clear_metrics()
        obs.clear_trace()
        decompile(compile_source(get_benchmark("brev").source))
        assert len(obs.registry()) == 0
        assert not obs.trace_events()

    def test_stats_prints_decompiler_counters(self, telemetry, capsys):
        from repro.decompile import decompile

        decompile(compile_source(get_benchmark("crc").source))
        obs.save_stats(obs.snapshot())
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "decompile.pass.constant_propagation.runs_total" in out
        assert "decompile.constprop_solves_total" in out


class TestDynamicMetrics:
    def test_multi_app_run_populates_dynamic_metrics(self, telemetry):
        from repro.dynamic.multi import AppSpec, run_multi_app_flow

        specs = [AppSpec(get_benchmark(name).source, name) for name in NAMES]
        report = run_multi_app_flow(specs)
        assert len(report.reports) == 2
        assert _counter_value("dynamic.multi_app_apps_total") == 2
        assert _counter_value("dynamic.lifts_total") > 0
        assert _counter_value("fabric.placements_total") > 0
        assert obs.registry().get("dynamic.repartition_seconds").count > 0
        names = {e["name"] for e in obs.trace_events()}
        assert {"cad.decompile", "cad.synthesize"} <= names


class TestCli:
    def test_stats_without_saved_file(self, telemetry, capsys):
        assert main(["stats"]) == 1
        assert "no saved telemetry" in capsys.readouterr().err

    def test_metrics_and_trace_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv(obs.ENABLE_ENV, "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        obs.clear_metrics()
        obs.clear_trace()
        trace_file = tmp_path / "trace.json"
        try:
            rc = main(["sweep", "brev", "--serial",
                       "--metrics", "--trace-out", str(trace_file)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "telemetry: metrics saved" in out
            # cache was on: the single uncached flow is a miss + store
            assert _counter_value("cache.misses_total") == 1
            assert _counter_value("cache.stores_total") == 1
            payload = json.loads(trace_file.read_text())
            assert payload["traceEvents"]

            assert main(["stats"]) == 0
            report = capsys.readouterr().out
            assert "engine.runs_total" in report
            assert "pool.jobs_total" in report
            assert "cache.stores_total" in report
        finally:
            obs.disable()
            obs.clear_metrics()
            obs.clear_trace()


def _failing_pool(error):
    class _Pool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            raise error

    return _Pool
