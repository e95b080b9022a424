"""toric-gac benchmark: end-to-end metrics per workload, or per-layer
metrics from a separate traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload embed_sampling --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` reports the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program under test is imported from
``src/`` of the checkout; without it the benchmark exits 2.

The timed phase lasts ``--seconds`` of wall time.  It runs rounds of a
workload's calls, each input once per round in a seeded shuffled order,
so a run that ends inside a round still samples the whole mix.
``setup_s`` is the median over several fresh processes of the time from
spawn to the point where the first timed call would start;
``cold_start_ms`` is the mean wall time of several ``analyze``
subprocesses.  Both are sampled between calls, spread over the timed
phase, because machine speed on shared hosts drifts within a run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
COLD_START_SAMPLES = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
# the untraced phase of a traced run; the traced phase repeats its calls at
# up to 1.5x the cost, so the whole run stays within --seconds
UNTRACED_SHARE = 0.4


class Sample(NamedTuple):
    key: int  # the call's input: its index in the workload's round
    seconds: float
    items: int
    ok: bool


class Phase(NamedTuple):
    samples: list
    rounds: int  # rounds begun
    busy_s: float  # time spent inside calls


def run_rounds(round_fn, rng, *, seconds=None, calls=None, first=0,
               tracer=None, probes=()) -> Phase:
    """Run rounds from round ``first`` on, each in an order drawn from
    ``rng``, until ``seconds`` of wall time have passed (probes included)
    or ``calls`` calls are done.  The run may stop inside a round; the
    shuffled order keeps a partial round an unbiased sample of the mix.
    ``probes`` run between calls, spread evenly over the wall time, so
    every metric of a run averages over the same stretch of machine time;
    their time is not part of any call."""
    clock = time.perf_counter
    start = clock()
    samples: list[Sample] = []
    probes = list(probes)
    total_probes = len(probes)
    busy = 0.0
    r = first
    while True:
        batch = round_fn(r)
        r += 1
        for key in rng.permutation(len(batch)):
            if seconds is not None:
                while probes and (clock() - start) * total_probes >= seconds * (
                        total_probes - len(probes)):
                    probes.pop(0)()
                done = samples and clock() - start >= seconds
            else:
                done = len(samples) >= calls
            if done:
                for probe in probes:
                    probe()
                return Phase(samples, r - first, busy)
            if tracer is not None:
                tracer.request = len(samples)
            t0 = clock()
            try:
                items, ok = batch[key]()
            except Exception:  # a failed call is counted, not fatal
                traceback.print_exc()
                items, ok = 0, False
            dt = clock() - t0
            busy += dt
            samples.append(Sample(int(key), dt, items, ok))


def median_input_ms(samples: list[Sample]) -> float:
    """Median over the workload's inputs of each input's mean latency, in
    ms.  Taking the mean per input first makes the figure follow the
    machine's speed over the whole run instead of jumping between the
    latencies of neighbouring inputs when that speed drifts."""
    per_input: dict[int, list[float]] = {}
    for s in samples:
        per_input.setdefault(s.key, []).append(s.seconds)
    return 1e3 * statistics.median(statistics.fmean(v)
                                   for v in per_input.values())


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile that still has TAIL_BEYOND samples
    beyond it, that percentile, and the sample count.  With too few
    samples the maximum stands in (percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "platform": platform.platform()}


@contextlib.contextmanager
def scratch_dir():
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh process doing the workload's set-up
    (imports, input generation, warm-up)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process exited {code}")
    return elapsed


def check_totals(phase: Phase, controls) -> tuple[int, int]:
    attempted = len(phase.samples) + len(controls)
    failed = (sum(not s.ok for s in phase.samples)
              + sum(not ok for _, ok in controls))
    return attempted, failed


def interleave(a: list, b: list) -> list:
    """Merge two lists so each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), x) for i, x in enumerate(a)]
    keyed += [((i + 0.5) / len(b), x) for i, x in enumerate(b)]
    return [x for _, x in sorted(keyed, key=lambda kx: kx[0])]


def timed_run(workloads, name: str, seed: int, seconds: float):
    setups: list[float] = []
    colds: list[float] = []
    with scratch_dir() as scratch:
        wl = workloads.WORKLOADS[name](seed, scratch)
        probes = interleave(
            [lambda: setups.append(measure_setup(name, seed))] * SETUP_REPEATS,
            [lambda: colds.append(workloads.cold_start_s(scratch))]
            * COLD_START_SAMPLES)
        phase = run_rounds(wl.round, workloads.call_order(seed),
                           seconds=seconds, probes=probes)
        controls = wl.controls()
        rss = wl.peak_rss_mb()
    durations = [s.seconds for s in phase.samples]
    tail_s, tail_pct, n = tail(durations)
    attempted, failed = check_totals(phase, controls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (sum(s.items for s in phase.samples) / phase.busy_s,
                        "1/s"),
        "call_ms_p50": (median_input_ms(phase.samples), "ms"),
        "call_ms_tail": (1e3 * tail_s, "ms"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "cold_start_ms": (1e3 * statistics.fmean(colds), "ms"),
    }
    print(f"calls {n} in {phase.rounds} rounds, busy {phase.busy_s:.2f} s; "
          f"call_ms_tail is p{tail_pct:.1f} of {n} calls; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"cold start {', '.join(f'{1e3 * c:.0f}' for c in colds)} ms")
    return phase, controls, attempted, failed, metrics


def import_times(workloads) -> tuple[float, float]:
    """Cumulative import time of ``toric_gac.cli`` and of the outermost
    scipy imports it triggers, from ``-X importtime``, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import toric_gac.cli"],
        capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT,
        timeout=120, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        rows.append((depth, field.strip(), int(cumulative)))
    cli_us = next((cum for _, mod, cum in rows if mod == "toric_gac.cli"), 0)
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # ancestors, walking parents first
    for depth, mod, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = mod == "scipy" or mod.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_us += cum
        stack.append((depth, is_scipy))
    return cli_us / 1e3, scipy_us / 1e3


def cli_start_metrics(workloads, scratch: Path) -> dict:
    bare = [workloads.spawn((sys.executable, "-c", "pass"), scratch)[3]
            for _ in range(5)]
    imports = [import_times(workloads) for _ in range(3)]
    return {
        "cli.interpreter_ms": (1e3 * statistics.median(bare), "ms"),
        "cli.import_ms": (statistics.median(i[0] for i in imports), "ms"),
        "cli.import_scipy_ms": (statistics.median(i[1] for i in imports),
                                "ms"),
    }


def traced_run(workloads, name: str, seed: int, seconds: float):
    """Untraced calls for UNTRACED_SHARE of the time, then as many calls
    again, in the same order of inputs but on fresh ones, with every layer
    wrapped; the difference in busy time is the tracing overhead."""
    with scratch_dir() as scratch:
        wl = workloads.WORKLOADS[name](seed, scratch)
        round_fn = getattr(wl, "in_process_round", wl.round)
        plain = run_rounds(round_fn, workloads.call_order(seed),
                           seconds=seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(round_fn, workloads.call_order(seed),
                                calls=len(plain.samples), first=plain.rounds,
                                tracer=tracer)
        finally:
            tracer.uninstall()
        controls = wl.controls()
        zero = {"cli.interpreter_ms": (0.0, "ms"),
                "cli.import_ms": (0.0, "ms"),
                "cli.import_scipy_ms": (0.0, "ms")}
        starts = (cli_start_metrics(workloads, scratch)
                  if name == "cli_commands" else zero)
    metrics = tracer.metrics(traced.busy_s)
    metrics.update(starts)
    metrics["trace.untraced_s"] = (plain.busy_s, "s")
    metrics["trace.traced_s"] = (traced.busy_s, "s")
    metrics["trace.overhead_s"] = (traced.busy_s - plain.busy_s, "s")
    spans = OUT / f"spans-{name}.csv"
    tracer.write_spans(spans)
    print(f"traced {len(traced.samples)} calls in {traced.rounds} rounds; "
          f"{len(tracer.spans)} spans written to "
          f"{spans.relative_to(ROOT)}; absent: {tracer.absent or 'none'}")
    attempted, failed = check_totals(traced, controls)
    attempted_p, failed_p = check_totals(plain, [])
    return (traced, controls, attempted + attempted_p, failed + failed_p,
            metrics)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("embed_sampling", "curve_crossing",
                             "cli_commands"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and exit "
                         "(used to time set-up in a fresh process)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toric_gac" / "__init__.py").is_file():
        print(f"error: no toric_gac source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        with scratch_dir() as scratch:
            workloads.WORKLOADS[args.workload](args.seed, scratch)
            print("ready", flush=True)
        return 0

    print("machine " + json.dumps(machine()))
    run = traced_run if args.trace else timed_run
    _, controls, attempted, failed, metrics = run(
        workloads, args.workload, args.seed, args.seconds)
    for label, ok in controls:
        verdict = "rejected" if ok else "NOT rejected"
        print(f"negative control {label}: {verdict}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
