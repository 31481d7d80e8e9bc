"""The decompiler's outputs are pinned: 20 benchmarks x O0-O3 x four pass
configurations must reproduce ``golden_decompile.json`` exactly.

A failure names the case, the function and which part moved (pass
statistics, op listing, structure, footprints).  Regenerate the file with
``PYTHONPATH=src python -m tests.decompile._golden --write`` only when an
output change is intended, and say so in the change description.
"""

import json
import pickle

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.programs import ALL_BENCHMARKS

from tests.decompile._golden import (
    CONFIGS,
    GOLDEN_PATH,
    OPT_LEVELS,
    case_key,
    case_record,
    function_digests,
)

_GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    expected = {
        case_key(bench.name, level, config)
        for bench in ALL_BENCHMARKS
        for level in OPT_LEVELS
        for config in CONFIGS
    }
    assert set(_GOLDEN) == expected


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_decompiler_output_matches_golden(bench):
    for level in OPT_LEVELS:
        exe = compile_source(bench.source, opt_level=level)
        for config, options in CONFIGS.items():
            key = case_key(bench.name, level, config)
            got = case_record(exe, options)
            want = _GOLDEN[key]
            assert got["failures"] == want["failures"], key
            assert sorted(got["functions"]) == sorted(want["functions"]), key
            for name, digests in got["functions"].items():
                assert digests == want["functions"][name], f"{key} {name}"


def test_golden_digest_survives_pickling():
    # the flow cache and the process pool ship decompiled programs by
    # pickle; the round trip must not change a single digest
    exe = compile_source(ALL_BENCHMARKS[0].source, opt_level=3)
    program = decompile(exe)
    clone = pickle.loads(pickle.dumps(program))
    for name, func in program.functions.items():
        assert function_digests(clone.functions[name]) == function_digests(func)
