"""Each dynamic flow decompiles its binary once.

The on-chip CAD decompiles the running binary the first time it
repartitions; the static side of the comparison then reuses that
program through ``run_flow_on_executable(program=...)``.  Only when the
CAD never ran does the static side decompile.  The same holds per
application in a multi-application scenario.

The input checks of ``run_flow_on_executable`` that guard this hand-off
(and the ``run=`` hand-off beside it) live here too.
"""

from collections import Counter

import pytest

from repro.compiler import compile_source
from repro.decompile.decompiler import Decompiler, decompile
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.dynamic.multi import AppSpec, run_multi_app_flow
from repro.flow import run_dynamic_flow, run_flow_on_executable
from repro.platform import MIPS_200MHZ
from repro.programs import get_benchmark
from repro.sim.cpu import run_executable

_CONFIG = DynamicConfig(sample_interval=2_000, repartition_samples=2)

#: halts long before the first repartition check, so the CAD never runs
_TINY = """
int checksum;
int main(void) { checksum = 3; return 0; }
"""


@pytest.fixture
def spy(monkeypatch):
    """Count ``Decompiler.run`` calls per executable and record every
    controller the flows build."""
    calls: Counter = Counter()
    controllers: list[DynamicPartitionController] = []
    real_run = Decompiler.run
    real_init = DynamicPartitionController.__init__

    def counting_run(self):
        calls[id(self.exe)] += 1
        return real_run(self)

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        controllers.append(self)

    monkeypatch.setattr(Decompiler, "run", counting_run)
    monkeypatch.setattr(DynamicPartitionController, "__init__", recording_init)
    return calls, controllers


def _dynamic(name):
    return run_dynamic_flow(get_benchmark(name).source, name, opt_level=1,
                            platform=MIPS_200MHZ, config=_CONFIG)


class TestSingleApp:
    def test_recovering_benchmark(self, spy):
        calls, controllers = spy
        report = _dynamic("brev")
        assert dict(calls) == {id(report.static.exe): 1}
        (controller,) = controllers
        assert controller.program is not None, "the CAD should have run"
        assert report.static.program is controller.program
        assert report.recovered and report.static.metrics.kernels

    def test_unrecoverable_benchmark(self, spy):
        calls, controllers = spy
        report = _dynamic("tblook")
        assert dict(calls) == {id(report.static.exe): 1}
        (controller,) = controllers
        assert controller.program is not None, "the CAD should have run"
        assert report.static.program is controller.program
        assert not report.recovered
        assert "indirect jump" in report.static.failure_reason

    def test_cad_never_runs(self, spy):
        calls, controllers = spy
        report = run_dynamic_flow(_TINY, "tiny", platform=MIPS_200MHZ,
                                  config=_CONFIG)
        (controller,) = controllers
        assert controller.program is None
        # the static side decompiles instead
        assert dict(calls) == {id(report.static.exe): 1}
        assert report.static.program is not None


class TestMultiApp:
    def test_one_decompile_per_app(self, spy):
        calls, controllers = spy
        apps = [AppSpec(get_benchmark(name).source, name)
                for name in ("brev", "crc")]
        result = run_multi_app_flow(apps, platform=MIPS_200MHZ, config=_CONFIG)
        assert dict(calls) == {id(report.static.exe): 1
                               for report in result.reports}
        assert len(controllers) == 2
        for report, controller in zip(result.reports, controllers):
            assert controller.program is not None, report.name
            assert report.static.program is controller.program


@pytest.fixture(scope="module")
def brev_exe():
    return compile_source(get_benchmark("brev").source, opt_level=1)


class TestStaticFlowInputs:
    def test_unprofiled_run_rejected(self, brev_exe):
        # an unprofiled run has no pc_counts: the flow used to report a
        # software-only 1.0x with no kernels instead of failing
        _, run = run_executable(brev_exe, profile=False, cpi=MIPS_200MHZ.cpi)
        assert run.steps > 0 and not run.pc_counts
        with pytest.raises(ValueError, match="profile=True"):
            run_flow_on_executable(brev_exe, "brev", platform=MIPS_200MHZ,
                                   run=run)

    def test_program_of_another_executable_rejected(self, brev_exe):
        other = compile_source(get_benchmark("brev").source, opt_level=1)
        with pytest.raises(ValueError, match="another executable"):
            run_flow_on_executable(brev_exe, "brev", platform=MIPS_200MHZ,
                                   program=decompile(other))

    def test_matching_program_reused(self, brev_exe, spy):
        calls, _ = spy
        fresh = run_flow_on_executable(brev_exe, "brev", platform=MIPS_200MHZ)
        program = decompile(brev_exe)
        calls.clear()
        reused = run_flow_on_executable(brev_exe, "brev", platform=MIPS_200MHZ,
                                        program=program)
        assert not calls, "a passed program must not be decompiled again"
        assert reused.program is program
        assert reused.summary_row() == fresh.summary_row()
        assert reused.decompile_stats == fresh.decompile_stats
        assert reused.summary_row()["kernels"] == 4
