"""CLI smoke tests (python -m repro ...)."""

import pytest

from repro.__main__ import main

_SOURCE = """
int data[64];
int checksum;
int main(void) {
    int i; int r;
    for (r = 0; r < 10; r++)
        for (i = 0; i < 64; i++) data[i] = (data[i] + i) & 1023;
    checksum = data[7];
    return 0;
}
"""


@pytest.fixture()
def binary(tmp_path):
    source = tmp_path / "kernel.c"
    source.write_text(_SOURCE)
    out = tmp_path / "kernel.sxe"
    assert main(["compile", str(source), "-O", "1", "-o", str(out)]) == 0
    assert out.exists()
    return out


def test_compile_and_run(binary, capsys):
    assert main(["run", str(binary), "--read", "checksum"]) == 0
    output = capsys.readouterr().out
    assert "halted: True" in output
    assert "checksum" in output


@pytest.mark.parametrize("extra", [[], ["--profile"]],
                         ids=["plain", "profile"])
def test_run_engines_agree(binary, capsys, extra):
    # the summary line carries steps, cycles and CPI: both dispatch
    # engines must print it identically
    lines = {}
    for engine in ("superblock", "threaded"):
        assert main(["run", str(binary), "--engine", engine, *extra]) == 0
        lines[engine] = capsys.readouterr().out.splitlines()[0]
    assert lines["superblock"] == lines["threaded"]
    assert lines["superblock"].startswith("halted: True")


def test_partition(binary, capsys):
    assert main(["partition", str(binary), "--cpu-mhz", "200"]) == 0
    output = capsys.readouterr().out
    assert "application speedup" in output
    assert "energy savings" in output
    assert "pipeline" in output  # per-pass wall clock


def test_partition_multi_device(binary, capsys):
    assert main([
        "partition", str(binary),
        "--devices", "fabric:40000", "fabric:40000", "cgra:20000@150",
        "--algorithm", "greedy",
    ]) == 0
    output = capsys.readouterr().out
    assert "fabric1" in output
    assert "cgra0" in output
    assert "algorithm           : greedy" in output


def test_partition_explicit_passes(binary, capsys):
    assert main([
        "partition", str(binary),
        "--passes", "filter,annotate,place,legalize,report",
        "--algorithm", "gclp",
    ]) == 0
    output = capsys.readouterr().out
    assert "legalize" in output


def test_partition_rejects_bad_device_spec(binary):
    with pytest.raises(SystemExit):
        main(["partition", str(binary), "--devices", "quantum:100"])


def test_decompile(binary, capsys):
    assert main(["decompile", str(binary), "--function", "main"]) == 0
    output = capsys.readouterr().out
    assert "function main()" in output
    assert "loop header" in output


def test_vhdl(binary, tmp_path, capsys):
    out = tmp_path / "kernel.vhd"
    assert main(["vhdl", str(binary), "-o", str(out)]) == 0
    text = out.read_text()
    assert "entity" in text and "architecture rtl" in text


def test_partition_reports_failure_for_switch_binary(tmp_path, capsys):
    source = tmp_path / "sw.c"
    source.write_text("""
int checksum;
int pick(int x) {
    switch (x) {
    case 0: return 1; case 1: return 2; case 2: return 3;
    case 3: return 4; case 4: return 5; default: return 0;
    }
}
int main(void) { checksum = pick(3); return 0; }
""")
    out = tmp_path / "sw.sxe"
    assert main(["compile", str(source), "-o", str(out)]) == 0
    assert main(["partition", str(out)]) == 1
    assert "recovery failed" in capsys.readouterr().out.lower()
    # the extension flag recovers it
    assert main(["partition", str(out), "--jump-tables"]) == 0
