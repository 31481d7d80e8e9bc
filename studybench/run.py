"""Study benchmark: end-to-end flow time of the DATE'05 partitioning study.

Usage, from the root of a repository checkout::

    python3 studybench/run.py --workload study_o1 --seed 1 --seconds 60 --trace 0

One process runs passes one after another, each pass in a fresh child
interpreter (``study_pass.py``) that runs the workload's 20 flows serially
with the flow cache and the persistent trace cache off.  Passes repeat
while the next one would still end within ``--seconds`` (and at least
:data:`MIN_PASSES`).

``--trace 0`` reports the end-to-end metrics of untraced passes.  Times
are in reference seconds (see ``study_pass.py``): wall time scaled by a
host-speed probe run beside every flow (set-up time by the pass's mean
probe), so that a shared host's drifting speed does not show as a change
in the program; the raw wall times are printed next to them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run's fingerprint, every pass and (traced) every span
are written to ``studybench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from study_pass import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: untraced passes per run at least: 5 x 20 flows gives flow_p90_s the
#: 100 samples it needs (ten beyond the 90th percentile)
MIN_PASSES = 5
#: traced/untraced pairs per traced run at least
MIN_PAIRS = 2
#: start no new pass after this many seconds, so a run ends within 180 s
LAST_START = 110.0
PASS_TIMEOUT = 60.0

#: the declared metric names and units; results are reported under these
SPEC = ROOT / "BENCHMARK.json"


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git (which
    would search directories above the checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def child_env(order_seed: int) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    paths = [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    env["REPRO_CACHE"] = "off"
    env["REPRO_TRACE_PERSIST"] = "off"
    # string hashing order follows the pass's seed, like the flow order
    env["PYTHONHASHSEED"] = str(order_seed % (2**32 - 1))
    return env


def run_child(workload: str, order_seed: int, traced: bool) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "study_pass.py"), "--workload", workload,
         "--order-seed", str(order_seed), "--trace", str(int(traced)),
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=child_env(order_seed), capture_output=True, text=True,
        timeout=PASS_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"studybench: pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(passes: list[dict]) -> dict:
    flow_seconds = [f["ref_seconds"] for p in passes for f in p["flows"]]
    return {
        "study_s": statistics.median(p["ref_pass_seconds"] for p in passes),
        "flow_p50_s": statistics.median(flow_seconds),
        "flow_p90_s": statistics.quantiles(flow_seconds, n=10)[-1],
        "setup_s": statistics.median(p["ref_setup_seconds"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_share"] = (
        statistics.median(p["ref_pass_seconds"] for p in traced)
        / statistics.median(p["ref_pass_seconds"] for p in untraced) - 1
    )
    return values


def outcome(passes: list[dict]) -> tuple[int, int, list]:
    """(flows attempted, flows that failed a check, every problem seen)."""
    flows = [f for p in passes for f in p["flows"]]
    problems = [(f["benchmark"], problem) for f in flows for problem in f["problems"]]
    return len(flows), sum(1 for f in flows if f["problems"]), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"studybench: no program source under {ROOT / 'src'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    # build: byte-compile the program once, so no pass pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    info = fingerprint(args)
    rng = random.Random(args.seed)
    kinds = (False, True) if args.trace else (False,)
    wanted = MIN_PAIRS if args.trace else MIN_PASSES
    passes: list[dict] = []
    round_seconds: list[float] = []
    started = time.monotonic()
    while True:
        round_started = time.monotonic()
        for traced in kinds:
            passes.append(run_child(args.workload, rng.getrandbits(32), traced))
        now = time.monotonic()
        round_seconds.append(now - round_started)
        # stop before a round that would end past --seconds, so a run
        # lasts about --seconds whatever the pass length
        ends_at = now - started + statistics.median(round_seconds)
        if len(round_seconds) >= wanted and ends_at > args.seconds \
                or now - started > LAST_START:
            break
    info["loadavg_after"] = os.getloadavg()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        values, declared = per_layer(untraced, traced), "per_layer"
    else:
        values, declared = end_to_end(untraced), "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[declared]}
    metrics = {name: values[name] for name in units}
    attempted, failed, problems = outcome(passes)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "fingerprint": info, "metrics": metrics, "passes": passes,
    }))

    for benchmark, problem in problems:
        print(f"FAILED {benchmark}: {problem}")
    print("fingerprint " + json.dumps(info))
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"flows {attempted}; record {record.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_share':32s} {failed / attempted:14.6g} ratio")
    wall = [f["seconds"] for p in untraced for f in p["flows"]]
    print(f"wall (unscaled): pass median "
          f"{statistics.median(p['pass_seconds'] for p in untraced):.4f} s, "
          f"flow p50 {statistics.median(wall):.4f} s, setup "
          f"{statistics.median(p['setup_seconds'] for p in untraced):.4f} s, probe median "
          f"{statistics.median(x for p in untraced for x in p['probes']):.5f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
