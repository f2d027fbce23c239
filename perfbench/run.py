"""Benchmark of the sympla command line.

    python3 perfbench/run.py --workload {cochain,search,dense} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it measures ``sympla`` from ``src/`` and
changes nothing there.  Load is one client in a closed loop: each command goes
to the public dispatcher ``sympla.cli.run`` when the previous one has returned,
and the ``lru_cache`` of ``search.symplectic_rank_bounds`` and
``search._enumerate_cached`` is cleared before every command, as in a fresh
CLI process.

The machine's speed drifts by a third and more within a minute, so a bare
time says as much about the machine as about the program.  ``--trace 0``
therefore measures the program beside a speed reference: a frozen copy of
sympla as it was when the benchmark was defined (``reference/``).  Each runs
in a worker process (``worker.py``); both get the same set-up or command, and
then run in turns, the other one stopped, until both are done (see ``Pair``).
Only one of them runs at any moment, and both see the same machine.
``wall_s`` and ``setup_s`` are the program's time over the reference's,
times the reference's time at seed 0 (``REF_PASS_S``, ``REF_SETUP_S``): the
program's time on a machine as fast as the one those constants come from.
The raw times are printed on the report lines.

A run makes as many whole passes over the workload's command list as fit in
``--seconds`` for both workers at ``REF_PASS_S``, and at least one, so that
two versions of the program measured with the same ``--seconds`` do the same
work.

``--trace 0`` reports the end-to-end metrics.  The result object carries the
bounded ones (``GATED``); the per-command times, ``resolved_ratio`` and
``fail_ratio`` are printed on the report lines above it.  ``--trace 1`` runs
one pass in this process untraced and the same pass under
``tracer.Tracer``, and reports the per-layer metrics.  Every output is checked
(see ``checks.py``).  The last stdout line is one JSON object; the exit code
is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import LAYERS, Tracer
from worker import import_sympla

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Time of one pass and of one set-up of the reference at seed 0 on a
# 2-core x86-64 KVM guest, Python 3.11.7.  Fixed once: they only set the scale.
REF_PASS_S = {"cochain": 12.8, "search": 20.0, "dense": 12.5}
REF_SETUP_S = {"cochain": 0.16, "search": 0.16, "dense": 0.30}
# The shorter side's turn; the longer side's turn is longer in proportion to the
# time ratio of the two sides measured so far, up to MAX_TURN_RATIO times.
SLICE_S = 0.02
MAX_TURN_RATIO = 50.0
MIN_PASSES = 1
SETUP_REPEATS = 7
# End-to-end metrics whose run-to-run spread is small enough to bound.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
TAIL_BEYOND = 10
# One cheap command per workload, also run as `python -m sympla` in a fresh process.
PARITY_LABEL = {"cochain": "cohomology g8 --degree 1", "search": "rank filiform4",
                "dense": "analyze dense:filiform4"}


@dataclass
class Outcome:
    command: workloads.Command
    code: int | None
    stdout: str
    seconds: float
    error: str | None


class Caches:
    """The search caches: cleared before every command, their hits tallied."""

    def __init__(self, search):
        self.caches = {"rank": search.symplectic_rank_bounds,
                       "enum": search._enumerate_cached}
        self.hits = dict.fromkeys(self.caches, 0)
        self.lookups = dict.fromkeys(self.caches, 0)

    def reset(self) -> None:
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[key] += info.hits
            self.lookups[key] += info.hits + info.misses
            cache.cache_clear()

    def hit_ratio(self, key: str) -> float:
        return self.hits[key] / self.lookups[key] if self.lookups[key] else 0.0


class Pair:
    """The program's and the reference's worker, run in turns on each request.

    Each worker leads its own process group, and a turn stops or continues
    the whole group, so that any process the program starts runs only in its
    turns too.  A request's time on one side is the sum of that side's turns,
    up to its answer.

    The turns' lengths follow the ratio of the two sides' times so far on
    requests of the same kind, so that both sides tend to finish a request
    together even when one is much faster: time one side spends running alone
    at the end is time the other side's speed was not sampled in.

    A context manager: leaving it ends both workers and waits for them.
    """

    SIDES = ("program", "reference")

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.asked = 0
        self.totals: dict[str, list[float]] = {}  # per kind of request, both sides' time
        try:
            for side in self.SIDES:
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py"), side], cwd=ROOT,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                    start_new_session=True))
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "Pair":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            self._signal(proc, signal.SIGCONT)
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @staticmethod
    def _signal(proc: subprocess.Popen, sig: int) -> None:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass

    def ask(self, request: dict) -> tuple[dict, dict]:
        """Both workers' answers, each with its ``seconds``.

        The first turn alternates between requests.
        """
        for proc in self.procs:
            self._signal(proc, signal.SIGSTOP)
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
        answers: list[dict | None] = [None, None]
        seconds = [0.0, 0.0]
        totals = self.totals.setdefault(request["op"], [0.0, 0.0])
        ratio = totals[0] / totals[1] if min(totals) > 0 else 1.0
        ratio = min(max(ratio, 1 / MAX_TURN_RATIO), MAX_TURN_RATIO)
        turns = (SLICE_S * max(ratio, 1.0), SLICE_S * max(1 / ratio, 1.0))
        turn = self.asked % 2
        self.asked += 1
        while None in answers:
            if answers[turn] is None:
                proc = self.procs[turn]
                alone = answers[1 - turn] is not None
                start = time.perf_counter()
                self._signal(proc, signal.SIGCONT)
                ready, _, _ = select.select([proc.stdout], [], [],
                                            None if alone else turns[turn])
                if not ready:
                    self._signal(proc, signal.SIGSTOP)
                seconds[turn] += time.perf_counter() - start
                if ready:  # the worker keeps running until its answer is read
                    line = proc.stdout.readline()
                    if not line:
                        raise RuntimeError(f"the {self.SIDES[turn]} worker ended "
                                           f"(exit {proc.wait()})")
                    answers[turn] = dict(json.loads(line), seconds=seconds[turn])
            turn = 1 - turn
        totals[0] += seconds[0]
        totals[1] += seconds[1]
        return answers[0], answers[1]


def run_pass(cli, caches: Caches, commands, tracer: Tracer | None = None):
    """Run the commands once in this process; returns (pass time, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for cmd in commands:
        caches.reset()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, stdout = cli.run(list(cmd.argv))
            else:
                code, stdout = tracer.call("cli", "run", cli.run, list(cmd.argv))
            error = None
        except Exception as exc:  # a command that raises counts as failed
            code, stdout, error = None, "", f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(cmd, code, stdout, time.perf_counter() - t0, error))
    caches.reset()
    return time.perf_counter() - start, outcomes


def verify(workload: str, seed: int, outcomes: list[Outcome]):
    """Check every outcome; returns (failed count, problems, answers resolved)."""
    from sympla import catalog

    golden = checks.load_golden(workload) if seed == 0 else {}
    if seed == 0 and workload in ("cochain", "search") and not golden:
        raise FileNotFoundError(f"no golden outputs for {workload}")
    reference = checks.load_dense_reference() if workload == "dense" else {}
    expected: dict = {}
    failed, problems, resolved = 0, [], []
    for o in outcomes:
        cmd = o.command
        found = []
        if o.error is not None:
            found.append(o.error)
        elif golden and o.stdout != golden.get(cmd.label):
            found.append("stdout differs from the golden output")
        else:
            key = (cmd.entry, cmd.params)
            if key not in expected:
                expected[key] = catalog.build(cmd.entry, **dict(cmd.params)).expected
            try:
                payload = json.loads(o.stdout)
                spec = cmd.label.split("dense:", 1)[-1]
                found += checks.problems(cmd.kind, o.code, payload, expected[key],
                                         reference.get(spec))
                if not found:
                    resolved += checks.answers(cmd.kind, payload)
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"malformed output: {type(exc).__name__}: {exc}")
        if found:
            failed += 1
            problems += [f"{cmd.label}: {p}" for p in found]
    return failed, problems, resolved


def cli_parity(outcome: Outcome) -> str | None:
    """The output of ``cli.run`` must equal that of a fresh `python -m sympla` process."""
    command = outcome.command
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "sympla", *command.argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != outcome.code or proc.stdout != outcome.stdout:
        return (f"{command.label}: in-process output differs from `python -m sympla` "
                f"(exit {outcome.code} vs {proc.returncode})")
    return None


def tail(values: list[float]) -> tuple[float, int, int]:
    """Nearest-rank value with at least TAIL_BEYOND samples above it.

    Returns (value, rank, sample count); with too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], k, n


def layer_metrics(tr: Tracer, caches: Caches, traced_wall: float, wall: float) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.self_s[layer], "s")
        m[f"{layer}.calls"] = (tr.calls[layer], "count")

    def ratio(key):
        return tr.hits[key] / tr.counts[key] if tr.counts[key] else 0.0

    m.update({
        "exactla.det_calls": (tr.counts["exactla.Matrix.det"], "count"),
        "exactla.rref_calls": (tr.counts["exactla.rref"], "count"),
        "exactla.rref_rows": (tr.rows, "count"),
        "exactla.span_calls": (tr.counts["exactla.Subspace.span"], "count"),
        "exactla.span_s": (tr.seconds["exactla.Subspace.span"], "s"),
        "exactla.subspace_full_calls": (tr.counts["exactla.Subspace.full"], "count"),
        "exactla.kernel_calls": (tr.counts["exactla.Matrix.kernel_basis"], "count"),
        "liealg.coboundary_matrix_s": (tr.seconds["liealg.coboundary_matrix"], "s"),
        "liealg.cohomology_s": (tr.seconds["liealg.cohomology"], "s"),
        "liealg.ideal_tests": (tr.counts["liealg.ideal_test"], "count"),
        "liealg.ideal_test_s": (tr.seconds["liealg.ideal_test"], "s"),
        "liealg.bracket_calls": (tr.counts["liealg.LieAlgebra.bracket"], "count"),
        "liealg.bracket_span_calls": (tr.counts["liealg.bracket_span"], "count"),
        "symplectic.isotropy_report_calls": (tr.counts["symplectic.isotropy_report"], "count"),
        "symplectic.omega_orthogonal_calls":
            (tr.counts["symplectic.omega_orthogonal"], "count"),
        "search.enumerate_s": (tr.seconds["search.enumerate"], "s"),
        "search.candidates_found": (tr.candidates, "count"),
        "search.rank_cache_hit_ratio": (caches.hit_ratio("rank"), "ratio"),
        "search.enum_cache_hit_ratio": (caches.hit_ratio("enum"), "ratio"),
        "certificates.envelope_s": (tr.seconds["certificates.envelope"], "s"),
        "certificates.trap_s": (tr.seconds["certificates.trap"], "s"),
        "certificates.structure_s": (tr.seconds["certificates.structure"], "s"),
        "certificates.envelope_success_ratio": (ratio("certificates.envelope"), "ratio"),
        "certificates.trap_success_ratio": (ratio("certificates.trap"), "ratio"),
        "certificates.structure_success_ratio": (ratio("certificates.structure"), "ratio"),
        "reduction.reduce_calls": (tr.counts["reduction.reduce"], "count"),
        "reduction.fingerprint_s": (tr.seconds["reduction.fingerprint"], "s"),
        "lagext.lagrangian_cohomology_s": (tr.seconds["lagext.lagrangian_cohomology"], "s"),
        "catalog.build_s": (tr.seconds["catalog.build"], "s"),
        "cli.parse_s": (tr.seconds["cli.parse"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.bench_s": (traced_wall - sum(s[5] - s[4] for s in tr.spans if s[1] == 0), "s"),
        "trace.overhead_ratio": (traced_wall / wall - 1.0, "ratio"),
    })
    return m


def scaled(times: list[float], ref_times: list[float], ref_nominal: float) -> float:
    """Median of time / reference time, times the reference's nominal time."""
    return statistics.median(t / r for t, r in zip(times, ref_times)) * ref_nominal


def measure_paired(workload: str, seed: int, passes: int, workdir: Path, keep):
    """Set-ups and passes beside the reference.

    Returns (inputs, outcomes, metrics, problems, report notes).
    """
    (workdir / "inputs").mkdir(parents=True)
    inputs = workloads.make_inputs(workload, seed, workdir / "inputs", passes)
    if keep is not None:
        inputs.passes = [[c for c in p if keep(c)] for p in inputs.passes]
    problems: list[str] = []
    outcomes: list[Outcome] = []
    with Pair() as pair:
        setups, ref_setups = [], []
        for _ in range(SETUP_REPEATS):
            prog, ref = pair.ask({"op": "setup", "workload": workload, "seed": seed,
                                  "passes": passes, "workdir": str(workdir)})
            setups.append(prog["seconds"])
            ref_setups.append(ref["seconds"])
        walls, ref_walls = [], []
        for commands in inputs.passes:
            wall = ref_wall = 0.0
            for cmd in commands:
                prog, ref = pair.ask({"op": "run", "argv": list(cmd.argv)})
                outcomes.append(Outcome(cmd, prog["code"], prog.get("stdout", ""),
                                        prog["seconds"], prog.get("error")))
                if ref["code"] != 0:
                    problems.append(f"{cmd.label}: the reference copy failed: "
                                    f"{ref.get('error') or 'exit ' + str(ref['code'])}")
                wall += prog["seconds"]
                ref_wall += ref["seconds"]
            walls.append(wall)
            ref_walls.append(ref_wall)
        rss = pair.ask({"op": "rss"})[0]["peak_rss_mb"]
    times = [o.seconds for o in outcomes]
    p_value, rank, n = tail(times)
    metrics = {
        "setup_s": (scaled(setups, ref_setups, REF_SETUP_S[workload]), "s"),
        "wall_s": (scaled(walls, ref_walls, REF_PASS_S[workload]), "s"),
        "raw_setup_s": (statistics.median(setups), "s"),
        "raw_wall_s": (statistics.median(walls), "s"),
        "ref_setup_s": (statistics.median(ref_setups), "s"),
        "ref_wall_s": (statistics.median(ref_walls), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (p_value, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"  cmd_tail_s is p{100.0 * rank / n:.1f} of n={n} command times "
             f"({n - rank} beyond it)",
             "  raw_* and ref_* are the program's and the reference's times, summed "
             "over their turns; cmd_* are the program's"]
    return inputs, outcomes, metrics, problems, notes


def measure_traced(workload: str, seed: int, workdir: Path, keep):
    """One pass untraced and one traced, in this process."""
    cli, search = import_sympla()
    (workdir / "inputs").mkdir(parents=True)
    inputs = workloads.make_inputs(workload, seed, workdir / "inputs", 1)
    if keep is not None:
        inputs.passes = [[c for c in p if keep(c)] for p in inputs.passes]
    wall, outcomes = run_pass(cli, Caches(search), inputs.passes[0])
    caches = Caches(search)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = run_pass(cli, caches, inputs.passes[0], tracer)
    finally:
        tracer.uninstall()
    problems = [f"{a.command.label}: traced stdout differs from untraced"
                for a, b in zip(outcomes, traced) if (a.code, a.stdout) != (b.code, b.stdout)]
    metrics = layer_metrics(tracer, caches, traced_wall, wall)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{workload}-seed{seed}.json")
    return inputs, outcomes + traced, metrics, problems, []


def measure(workload: str, seed: int, seconds: int, trace: bool,
            keep=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, report lines).

    ``keep`` keeps only the commands it accepts (a reduced pass for tests).
    """
    passes = max(MIN_PASSES, int(seconds // (2 * REF_PASS_S[workload])))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if trace:
            inputs, outcomes, metrics, problems, notes = measure_traced(
                workload, seed, workdir, keep)
        else:
            inputs, outcomes, metrics, problems, notes = measure_paired(
                workload, seed, passes, workdir, keep)
        failed, found, resolved = verify(workload, seed, outcomes)
        problems += found
        parity = [o for o in outcomes if o.command.label == PARITY_LABEL[workload]]
        if parity:
            mismatch = cli_parity(parity[0])
            if mismatch:
                problems.append(mismatch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    if not trace:
        metrics["resolved_ratio"] = (sum(resolved) / len(resolved) if resolved else 1.0,
                                     "ratio")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    lines = [f"workload={workload} seed={seed} passes={len(inputs.passes)} "
             f"commands={attempted} params={json.dumps(inputs.params, default=str)}"]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += notes
    lines.append(f"  fail_ratio counts {failed} of {attempted} commands; resolved_ratio "
                 f"counts {sum(resolved)} of {len(resolved)} answers exact or certified")
    lines += [f"  FAILED {p}" for p in problems]
    reported = metrics if trace else {k: metrics[k] for k in GATED}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sympla" / "__init__.py").is_file():
        print(f"error: no sympla sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, still end the workers and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
