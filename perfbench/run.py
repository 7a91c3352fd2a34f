"""Closed-loop benchmark of the kuengine command line.

    python3 perfbench/run.py --workload ext-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run from the root of a source checkout; nothing needs to be installed.
Each workload (perfbench/workloads.json) is a fixed list of `kuengine`
commands.  One client sends one command at a time, each in a fresh
interpreter (`python -m kuengine.cli` with PYTHONPATH=src), and waits for
it to exit: a closed loop of one client with no concurrency.  Fresh
processes matter because the package's unbounded lru_caches make
in-process call order change timings, and because a user pays interpreter
start, imports and cold caches on every run.  A round is every command of
the workload once plus one set-up sample (`import kuengine.cli` and
exit), in an order drawn from --seed; rounds repeat until --seconds is
used up, and the medians over rounds are reported.

Times are scaled to a fixed machine speed: a stdlib-only reference
program runs before and after every timed child, and the child's wall and
CPU times are multiplied by REF_S over the reference's mean time around
it (see REF below).  The unscaled wall time is printed alongside.

Every command's output (stdout, or the --out file) is checked against the
golden sha256 and exit code in workloads.json; a mismatch counts as a
failed command.  Each child is timed with Popen + os.wait4, so its CPU time
and max-RSS are its own and not the high-water mark of earlier children.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end").
--trace 1 alternates untraced rounds with rounds run under
perfbench/tracer.py and reports the per-layer metrics ("per_layer"),
each the median over traced rounds of its sum over the round's commands.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

CLI = [sys.executable, "-m", "kuengine.cli"]
TRACED_CLI = [sys.executable, str(HERE / "tracer.py"), str(WORK / "stats.json")]
IMPORT_ONLY = [sys.executable, "-c", "import kuengine.cli"]
SETUP = -1  # round item standing for one set-up sample

SETUPS_PER_ROUND = 1
MIN_ROUNDS = 3

# The reference program: fixed stdlib-only Python work in a fresh
# interpreter, run between every two timed children.  The machine this
# benchmark was defined on (a shared 2-core Xeon VM) changes speed by
# 20-50% over seconds to minutes, which moves every child alike; each
# child's times are therefore scaled by REF_S over the mean time of the
# reference runs just before and after it.  REF_S is the reference
# program's median wall time on that machine and only fixes the scale, so
# the reported seconds read as seconds at that machine's typical speed.
REF = [sys.executable, "-c",
       "d = {}\n"
       "for i in range(900000):\n"
       "    d[i % 997] = d.get(i % 997, 0) + i * i\n"
       "sorted(str(i) for i in range(150000))\n"]
REF_S = 0.30

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    stats: dict | None = None


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, float, int]:
    """Run one child to exit; (wall s, user+sys CPU s, max-RSS MB, exit code)
    from its own rusage."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=ENV, cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_command(cmd: dict, traced: bool) -> Sample:
    """One command in a fresh interpreter, checked against its golden
    digest and exit code."""
    stdout, out, stats = WORK / "stdout", WORK / "out", WORK / "stats.json"
    for f in (stdout, out, out.with_name("out.tmp"), stats):
        f.unlink(missing_ok=True)
    uses_out = "{out}" in cmd["argv"]
    args = [str(out) if a == "{out}" else a for a in cmd["argv"]]
    wall, cpu, rss, rc = spawn((TRACED_CLI if traced else CLI) + args, stdout)
    ok = rc == cmd["exit"] and sha256(out if uses_out else stdout) == cmd["sha256"]
    if not ok:
        err = (WORK / "stderr").read_text(errors="replace")[-2000:]
        print(f"FAILED (exit {rc}): kuengine {' '.join(args)}\n{err}", file=sys.stderr)
    sample = Sample(wall, cpu, rss, ok)
    if traced and stats.is_file():
        sample.stats = json.loads(stats.read_text())
    return sample


def reference() -> tuple[float, float]:
    """(wall s, CPU s) of one run of the reference program."""
    wall, cpu, _, rc = spawn(REF, WORK / "stdout")
    if rc != 0:
        raise RuntimeError(f"reference program exited {rc}")
    return wall, cpu


def setup_sample() -> Sample:
    """Fresh interpreter importing kuengine.cli and exiting, with no work.
    A failed import also fails every command, so it is not counted apart."""
    wall, cpu, rss, rc = spawn(IMPORT_ONLY, WORK / "stdout")
    return Sample(wall, cpu, rss, rc == 0)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool) -> Result:
    """Warm up, then run rounds until `seconds` is used up.  A round runs
    every command once and SETUPS_PER_ROUND set-up samples, shuffled, with
    the reference program before and after each; under --trace 1 it is
    followed by a traced pass over the same commands."""
    rng = random.Random(seed)
    commands = workload["commands"]
    setup_sample()  # untimed warm-up: compiles the package's .pyc files
    items = list(range(len(commands))) + [SETUP] * SETUPS_PER_ROUND

    # Each round maps command index -> Sample, in the order run.
    plain: list[dict[int, Sample]] = []
    traced: list[dict[int, Sample]] = []
    raw_walls: list[float] = []
    setups: list[Sample] = []
    round_s: list[float] = []
    ref = reference()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        done: dict[int, Sample] = {}
        raw_wall = 0.0
        for i in rng.sample(items, len(items)):
            sample = setup_sample() if i == SETUP else run_command(commands[i], False)
            after = reference()
            wall_scale = REF_S / ((ref[0] + after[0]) / 2)
            cpu_scale = REF_S / ((ref[1] + after[1]) / 2)
            ref = after
            if i == SETUP:
                setups.append(sample)
            else:
                raw_wall += sample.wall_s
                done[i] = sample
            sample.wall_s *= wall_scale
            sample.cpu_s *= cpu_scale
        plain.append(done)
        raw_walls.append(raw_wall)
        if trace:
            traced.append({i: run_command(commands[i], True) for i in done})
        round_s.append(time.perf_counter() - start)
        left = deadline - time.perf_counter()
        if len(plain) >= MIN_ROUNDS and left < statistics.median(round_s) / 2:
            break

    samples = [s for r in plain + traced for s in r.values()]
    failed = sum(not s.ok for s in samples)
    attempted = len(samples)
    print(f"[{name}] {len(plain)} rounds of {len(commands)} commands, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}, "
          f"unscaled wall_s median {statistics.median(raw_walls):.4f} s")
    if trace:
        return Result(layer_metrics(traced, raw_walls), attempted, failed)
    series = {
        "wall_s": [sum(s.wall_s for s in r.values()) for r in plain],
        "cpu_s": [sum(s.cpu_s for s in r.values()) for r in plain],
        "peak_rss_mb": [max(s.rss_mb for s in r.values()) for r in plain],
        "setup_s": [s.wall_s for s in setups],
    }
    metrics = {}
    for metric, unit in END_TO_END:
        q1, med, q3 = quartiles(series[metric])
        print(f"[{name}] {metric}: {med:.4f} {unit} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(series[metric])})")
        metrics[metric] = {"value": med, "unit": unit}
    for i, cmd in enumerate(commands):
        per = statistics.median(r[i].wall_s for r in plain)
        print(f"[{name}]   {per:.4f} s  kuengine {' '.join(cmd['argv'])}")
    return Result(metrics, attempted, failed)


def layer_metrics(traced: list[dict[int, Sample]], plain_walls: list[float]) -> dict:
    """Median over traced rounds of each per-layer metric summed over the
    round's commands, plus the tracing overhead on (unscaled) wall time."""
    per_round = []
    absent: set[str] = set()
    for r in traced:
        totals: dict[str, float] = {}
        for s in r.values():
            if s.stats is None:  # the traced command died; counted as failed
                continue
            absent.update(s.stats["absent_caches"])
            for key, val in s.stats["metrics"].items():
                totals[key] = totals.get(key, 0) + val
        per_round.append(totals)
    traced_walls = [sum(s.wall_s for s in r.values()) for r in traced]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = {}
    for metric, unit in tracer.layer_metrics():
        if metric == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(t.get(metric, 0) for t in per_round)
        metrics[metric] = {"value": value, "unit": unit}
    for cache in sorted(absent):
        print(f"cache.{cache}: absent (reported as 0 hits, 0 misses)")
    for metric, m in metrics.items():
        print(f"  {metric}: {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kuengine" / "cli.py").is_file():
        print(f"perfbench: no kuengine sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    print("machine " + json.dumps(machine_facts()))
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {n: measure(n, workloads[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        print(f"{'workload':14s} {'metric':32s} {'value':>12s} unit   outputs")
        for n, res in results.items():
            match = "matched" if res.failed == 0 else f"{res.failed} mismatched"
            rows = [*((k, m["value"], m["unit"]) for k, m in res.metrics.items()),
                    ("fail_ratio", res.failed / res.attempted, "1")]
            for metric, value, unit in rows:
                print(f"{n:14s} {metric:32s} {value:12.4f} {unit:6s} {match}")
        metrics = {f"{n}/{k}": v for n, res in results.items() for k, v in res.metrics.items()}
    else:
        metrics = results[args.workload].metrics
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
