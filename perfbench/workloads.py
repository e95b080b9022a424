"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  A workload builds its inputs from the run
seed, warms up on inputs the timed phase never uses, and hands the runner
one *round* of calls at a time.  A call takes no arguments and returns
``(items, ok)``: the units of certified work it did and whether its output
check passed.

* ``embed_sampling``: build the inclusion certificate and sample-verify it
  for every corpus network at every band; an item is one sampled trial.
* ``curve_crossing``: build the separating curve of each two-species
  network, verify its sampled certificate and integrate a batch of banded
  schedules against it; an item is one crossing trajectory.
* ``cli_commands``: a fixed mix of ``toric-gac`` subprocess invocations;
  an item is one invocation.

The benchmark calls library functions through their modules
(``embedding.build_embedding``), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from toric_gac import cli, corpus, dynamics, embedding, network, surfaces

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_PREFIX = (sys.executable, "-c", "from toric_gac.cli import main; main()")
SPAWN_TIMEOUT_S = 120.0

# Sizes.  Each call keeps a batch of work (trials, schedules, starts) so a
# batched implementation has something to batch.
EMBED_EPSILONS = (0.9, 0.5, 0.1)
EMBED_NETWORKS = corpus.EMBEDDING_CORPUS
# the block `embed-verify` checks by default; a call long enough that its
# time averages over the host's short speed swings
EMBED_TRIALS = 1000
CONTROL_TRIALS = 2000  # the halved-width failure rate is about 1% per trial
CURVE_NETWORKS = tuple(n for n in corpus.EMBEDDING_CORPUS
                       if corpus.load(n).n == 2)
CURVE_EPSILONS = (0.9, 0.5, 0.1)
# a batch, yet small enough that a run calls every input about twice, so
# each input's mean latency spans more than one moment of the host's speed
CURVE_SCHEDULES = 4
GENERATED_NETWORKS = 4
GENERATED_EPSILON = 0.5
HORIZON = 50.0
CROSSING_OPTS = dynamics.IntegratorOptions(rtol=1e-6, atol=1e-9)

# seed tags: warm-up, timed calls, controls, generated networks and the
# order of calls in a round draw from disjoint streams
_WARMUP, _TIMED, _CONTROL, _GENERATE, _ORDER = range(5)


def derive(seed: int, *tags: int) -> int:
    """Deterministic 31-bit seed for one (run seed, tags) stream."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def call_order(seed: int) -> np.random.Generator:
    """The stream that shuffles the calls of each round."""
    return np.random.default_rng(derive(seed, _ORDER))


Call = Callable[[], tuple[int, bool]]


# -- subprocesses ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(cmd, log_dir: Path) -> tuple[int, bytes, int, float]:
    """Run ``cmd`` to completion from the checkout root.  Returns the exit
    code, stdout, the child's peak RSS in KiB and the wall time from spawn
    to exit."""
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err,
                                env=child_env(), cwd=SRC.parent)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], SPAWN_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss, wall


def crn_text(net: network.ReactionNetwork) -> str:
    """The network in explicit ``.crn`` form (one line per reaction)."""
    def cplx(i):
        return "complex (" + ", ".join(
            repr(float(v)) for v in net.complexes[i].y) + ")"
    lines = ["species " + " ".join(net.species)]
    lines += [f"{cplx(r.source)} -> {cplx(r.target)} ; k={float(r.rate)!r}"
              for r in net.reactions]
    return "\n".join(lines) + "\n"


def cold_start_s(scratch: Path) -> float:
    """Wall time of one ``analyze`` of a small network, spawn to exit."""
    path = scratch / "cold_start.crn"
    if not path.exists():
        path.write_text(crn_text(corpus.load("rev_pair")))
    code, _, _, wall = spawn((*CLI_PREFIX, "analyze", str(path), "--format",
                              "json", "--out", str(scratch / "cold_start")),
                             scratch)
    if code != 0:
        raise RuntimeError(f"analyze exited {code}")
    return wall


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- embed_sampling -------------------------------------------------------

class EmbedSampling:
    """Certificate build + sampled cone membership, every corpus network at
    every band.  One call verifies one block of ``EMBED_TRIALS`` trials."""

    name = "embed_sampling"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.pairs = [(name, corpus.load(name), dynamics.RateBand(eps))
                      for name in EMBED_NETWORKS for eps in EMBED_EPSILONS]
        for i, (_, net, band) in enumerate(self.pairs):
            self._verify(net, band, 10, derive(seed, _WARMUP, i))

    @staticmethod
    def _verify(net, band, trials, seed):
        cert = embedding.build_embedding(net, band)
        return embedding.sample_verify_embedding(
            cert, net, band, trials, box=(-8.0, 8.0), seed=seed, tol=1e-9)

    def _call(self, net, band, seed) -> tuple[int, bool]:
        rep = self._verify(net, band, EMBED_TRIALS, seed)
        return rep.trials, rep.all_passed and rep.trials == EMBED_TRIALS

    def round(self, r: int) -> list[Call]:
        return [partial(self._call, net, band, derive(self.seed, _TIMED, r, i))
                for i, (_, net, band) in enumerate(self.pairs)]

    def controls(self) -> list[tuple[str, bool]]:
        """Criterion 8(a): halving delta0 on the triangle at eps 0.1 must
        fail, and the first witness must replay as not contained."""
        net, band = corpus.load("triangle"), dynamics.RateBand(0.1)
        cert = embedding.build_embedding(net, band)
        bad = replace(cert, delta0=cert.delta0 / 2.0)
        rep = embedding.sample_verify_embedding(
            bad, net, band, CONTROL_TRIALS, box=(-8.0, 8.0),
            seed=derive(self.seed, _CONTROL), tol=1e-9)
        rejected = not rep.all_passed and bool(rep.failures)
        if rejected:
            w = rep.failures[0]
            replay = embedding.verify_embedding_at(
                bad, net, dynamics.RateSchedule.constant(np.array(w.rates),
                                                         band),
                0.0, np.array(w.x), tol=1e-9)
            rejected = not replay.contained and replay.witness is not None
        return [("halved_delta0_fails_and_replays", rejected)]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# -- curve_crossing -------------------------------------------------------

_GRID = [(float(a), float(b)) for a in range(3) for b in range(3)]


def generated_network(rng: np.random.Generator):
    """Seeded reversible chain on three lattice complexes in {0,1,2}^2 whose
    separating curve at GENERATED_EPSILON crosses at least two bands, so
    curve construction takes its band-to-band connector path."""
    band = dynamics.RateBand(GENERATED_EPSILON)
    while True:
        picks = rng.choice(len(_GRID), size=3, replace=False)
        complexes = tuple(network.Complex(i, _GRID[p])
                          for i, p in enumerate(picks))
        rates = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=4))
        reactions = tuple(network.Reaction(s, t, float(k)) for (s, t), k in
                          zip(((0, 1), (1, 0), (1, 2), (2, 1)), rates))
        net = network.ReactionNetwork(("A", "B"), complexes, reactions)
        emb = embedding.build_embedding(net, band)
        try:
            curve = surfaces.build_zero_separating_curve_2d(
                emb.arrangement, emb.delta0)
        except surfaces.BandsOverlap:
            continue
        if sum(s.band_index is not None for s in curve.segments) >= 2:
            return net


class CurveCrossing:
    """Criterion 6 shape: per network x band, build the curve, verify its
    sampled certificate and run one crossing test over a schedule batch."""

    name = "curve_crossing"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.inputs = [(name, corpus.load(name), dynamics.RateBand(eps))
                       for name in CURVE_NETWORKS for eps in CURVE_EPSILONS]
        rng = np.random.default_rng(derive(seed, _GENERATE))
        band = dynamics.RateBand(GENERATED_EPSILON)
        self.generated = [generated_network(rng)
                          for _ in range(GENERATED_NETWORKS)]
        self.inputs += [(f"generated{i}", net, band)
                        for i, net in enumerate(self.generated)]
        warm = generated_network(
            np.random.default_rng(derive(seed, _WARMUP)))
        self._certify(warm, band, 2, derive(seed, _WARMUP, 1))

    @staticmethod
    def _certify(net, band, schedules, seed):
        emb = embedding.build_embedding(net, band)
        curve = surfaces.build_zero_separating_curve_2d(
            emb.arrangement, emb.delta0, scale=1e-3)
        sampled = surfaces.curve_to_certificate(curve, samples_per_segment=10)
        outcome = surfaces.verify_zero_separating(
            sampled, emb.arrangement, emb.delta0, tol=1e-9)
        rep = surfaces.trajectory_crossing_test(
            curve, net, band, n_schedules=schedules, horizon=HORIZON,
            seed=seed, switch_period=HORIZON / 8.0, opts=CROSSING_OPTS)
        return outcome, rep

    def _call(self, net, band, seed) -> tuple[int, bool]:
        outcome, rep = self._certify(net, band, CURVE_SCHEDULES, seed)
        ok = (outcome.passed and not rep.crossed
              and len(rep.per_schedule) == CURVE_SCHEDULES
              and all(d > 0.0 for d in rep.per_schedule))
        return len(rep.per_schedule), ok

    def round(self, r: int) -> list[Call]:
        return [partial(self._call, net, band, derive(self.seed, _TIMED, r, i))
                for i, (_, net, band) in enumerate(self.inputs)]

    def controls(self) -> list[tuple[str, bool]]:
        """Criterion 8(b): reversing the normals of one band segment must be
        reported at exactly the reversed samples."""
        net = self.generated[0]
        emb = embedding.build_embedding(
            net, dynamics.RateBand(GENERATED_EPSILON))
        curve = surfaces.build_zero_separating_curve_2d(
            emb.arrangement, emb.delta0, scale=1e-3)
        per_seg = 10
        sampled = surfaces.curve_to_certificate(curve,
                                                samples_per_segment=per_seg)
        target = next(i for i, s in enumerate(curve.segments)
                      if s.band_index is not None)
        flipped_idx = {i for i in range(len(sampled.samples))
                       if i // per_seg == target}
        flipped = tuple((x, tuple(-c for c in nu)) if i in flipped_idx
                        else (x, nu)
                        for i, (x, nu) in enumerate(sampled.samples))
        outcome = surfaces.verify_zero_separating(
            surfaces.SurfaceCertificate(flipped, sampled.h),
            emb.arrangement, emb.delta0, tol=1e-9)
        reported = {v.sample_index for v in outcome.violations}
        rejected = not outcome.passed and reported == flipped_idx
        return [("reversed_normals_rejected", rejected)]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# -- cli_commands ---------------------------------------------------------

CLI_NETWORKS = ("rev_pair", "triangle", "rev_triangle_db", "rev_triangle_skew",
                "two_triangles_vertex", "square", "two_pairs_4sp", "cycle_4sp")
NOT_WEAKLY_REVERSIBLE = "species A B\nA -> B ; k=1\n"


def cli_mix(crn, out, seeds) -> list[tuple[tuple[str, ...], int]]:
    """(argv, expected exit code) for one round.  Every flag is explicit so
    a changed default cannot change the workload.  ``--epsilon`` on
    persist/gac is accepted but unused today; gac gets 1.0, the one value
    every planned meaning of the flag accepts."""
    s_embed, s_persist, s_gac = seeds
    mix = [
        (("analyze", crn("rev_pair"), "--format", "json"), 0),
        (("equilibrium", crn("rev_triangle_skew"), "--tol", "1e-10",
          "--format", "json"), 0),
        (("simulate", crn("triangle"), "--x0", "2.9,0.1", "--horizon", "10",
          "--format", "json"), 0),
        (("analyze", crn("two_pairs_4sp"), "--format", "json"), 0),
        (("embed-verify", crn("two_triangles_vertex"), "--epsilon", "0.5",
          "--trials", "1000", "--seed", str(s_embed), "--tol", "1e-9",
          "--format", "json"), 0),
        (("curve2d", crn("rev_triangle_skew"), "--epsilon", "0.5",
          "--format", "json"), 0),
        (("certify-surface", crn("square"), "--epsilon", "0.5",
          "--samples", "10", "--tol", "1e-9", "--format", "json"), 0),
        (("persist", crn("triangle"), "--epsilon", "0.5", "--horizon", "50",
          "--trials", "10", "--seed", str(s_persist), "--tol", "1e-6",
          "--format", "json"), 0),
        (("gac", crn("rev_triangle_db"), "--epsilon", "1.0", "--horizon", "50",
          "--trials", "10", "--seed", str(s_gac), "--tol", "1e-6",
          "--format", "json"), 0),
        (("embed-verify", crn("a_to_b"), "--epsilon", "0.5", "--trials",
          "1000", "--seed", str(s_embed), "--tol", "1e-9", "--format",
          "json"), 1),
    ]
    return [((*argv, "--out", str(out / f"{i:02d}-{argv[0]}")), code)
            for i, (argv, code) in enumerate(mix)]


def check_report(stdout: str, expected: int, code: int) -> bool:
    """Exit code as expected; on success a schema-1 JSON report whose
    verdicts all passed; on the expected failure no report at all."""
    if code != expected:
        return False
    if expected != 0:
        return stdout == ""
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    if report.get("schema") != 1 or report.get("passed") is False:
        return False
    if "verification" in report and not report["verification"]["passed"]:
        return False
    sampling = report.get("sampling")
    if sampling is not None and sampling["passes"] != sampling["trials"]:
        return False
    return True


class CliCommands:
    """A fixed mix of subcommands, one subprocess at a time, each launched
    the way a user without an installed console script would."""

    name = "cli_commands"

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        for name in CLI_NETWORKS:
            (scratch / f"{name}.crn").write_text(crn_text(corpus.load(name)))
        (scratch / "a_to_b.crn").write_text(NOT_WEAKLY_REVERSIBLE)
        (scratch / "warmup.crn").write_text(crn_text(corpus.load("pair_3sp")))
        seeds = tuple(derive(seed, _TIMED, i) for i in range(3))
        self.mix = cli_mix(lambda n: str(scratch / f"{n}.crn"),
                           scratch / "out", seeds)
        self.outputs: dict[tuple[str, ...], str] = {}
        self.peak_rss_kb = 0
        code, _, _, _ = spawn((*CLI_PREFIX, "analyze",
                               str(scratch / "warmup.crn"), "--format",
                               "json"), scratch)
        if code != 0:
            raise RuntimeError(f"warm-up analyze exited {code}")

    def _checked(self, argv, expected, code, stdout) -> bool:
        first = self.outputs.setdefault(argv, stdout)
        return first == stdout and check_report(stdout, expected, code)

    def _spawn_call(self, argv, expected) -> tuple[int, bool]:
        code, out, rss_kb, _ = spawn((*CLI_PREFIX, *argv), self.scratch)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return 1, self._checked(argv, expected, code,
                                out.decode("utf-8", "replace"))

    def _dispatch_call(self, argv, expected) -> tuple[int, bool]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(list(argv))
        return 1, self._checked(argv, expected, code, out.getvalue())

    def round(self, r: int) -> list[Call]:
        return [partial(self._spawn_call, argv, expected)
                for argv, expected in self.mix]

    def in_process_round(self, r: int) -> list[Call]:
        """The same mix through ``cli_dispatch`` in this process, so the
        traced run sees every layer the subcommands reach."""
        return [partial(self._dispatch_call, argv, expected)
                for argv, expected in self.mix]

    def controls(self) -> list[tuple[str, bool]]:
        return []  # the non-weakly-reversible embed-verify is in the mix

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (EmbedSampling, CurveCrossing, CliCommands)}
