"""Benchmark of ardlkit on three workloads; see perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times operations untraced and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
blocks of rounds and prints the per-layer metrics. Every operation's output
is checked, outside the timed region. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 5
SPAWN_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 5
# reference work after each round, as a share of the round's time
REFERENCE_SHARE = 0.05
# traced and untraced blocks of rounds last about this long
BLOCK_S = 0.25
# main() sets these before numpy loads, so the benchmark's modules, which
# import numpy, are imported inside functions
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Operation loop with per-operation timing, checks and failure count."""

    def __init__(self, workload):
        self.w = workload
        self.i = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failed_ops: list[int] = []
        self.timed_s = 0.0
        self.setup: list[float] = []
        # per scaled round: raw operation seconds and the reference ms
        self.log: list[tuple[list[float], float]] = []

    def one(self, tracer=None, profile=False) -> float:
        """Run, time and check operation ``self.i``. With an installed
        tracer, spans are recorded for the operation, not for its check."""
        i = self.i
        self.i += 1
        self.w.stage(i)
        call = lambda: self.w.op(i)  # noqa: E731
        if tracer is not None:
            tracer.op = i
            if profile:
                call = tracer.profiled(call)
        error = None
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        dt = time.perf_counter() - t0
        self.timed_s += dt
        if tracer is not None:
            tracer.op = -1
        if error is not None:
            found = [f"raised {error!r}"]
        else:
            try:
                found = self.w.check(i, out)
            except Exception as exc:  # a malformed output fails its check
                found = [f"check raised {exc!r}"]
        if found:
            self.failed += 1
            self.failed_ops.append(i)
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"op {i}: " + "; ".join(found))
        return dt

    def round(self, tracer=None, profile=False) -> list[float]:
        return [self.one(tracer, profile) for _ in range(self.w.round_size)]

    def scaled_round(self, reps: int, tracer=None) -> tuple[list[float],
                                                            float]:
        """One round, then ``reps`` runs of the reference work. Returns the
        operations' times in ms scaled to the reference speed, and the
        scale factor."""
        import speed

        raw = self.round(tracer)
        ref = speed.reference_ms(reps)
        self.log.append((raw, ref))
        scale = speed.REFERENCE_MS / ref
        return [d * 1e3 * scale for d in raw], scale


def sizing_round(run: Run) -> tuple[int, float]:
    """Run one round; return the reference runs per round that take about
    REFERENCE_SHARE of a round's time, and the round's seconds."""
    import speed

    round_s = sum(run.round())
    reps = round(REFERENCE_SHARE * round_s * 1e3 / speed.reference_ms(3))
    return max(1, reps), round_s


def setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Time from spawning a fresh interpreter to the end of its first
    operation. The caller waits, so the spawn overlaps no timed work."""
    cmd = [sys.executable, str(HERE / "first_op.py"), name, str(seed),
           str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=SPAWN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "done":
        raise RuntimeError(f"first-operation process exited "
                           f"{proc.returncode}")
    return t1 - t0


def untraced(run: Run, seconds: float, spawn) -> dict:
    """Time whole rounds for ``seconds`` of operation time. The first two
    rounds, warm-up and sizing, are left out of the figures. The
    SETUP_SPAWNS cold starts are spread over the run, so that their median
    spans the machine's speed over the run rather than over a few seconds."""
    run.round()
    reps, _ = sizing_round(run)
    ms = []
    while not ms or run.timed_s < seconds:
        if len(run.setup) < SETUP_SPAWNS * min(1.0, run.timed_s / seconds):
            run.setup.append(spawn())
        ms += run.scaled_round(reps)[0]
    while len(run.setup) < SETUP_SPAWNS:
        run.setup.append(spawn())
    return {
        "setup_s": (statistics.median(run.setup), "s"),
        "op_ms": (statistics.median(ms), "ms"),
        "ops_per_s": (len(ms) / sum(ms) * 1e3, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced(run: Run, seconds: float, tracer, trace_path: Path) -> tuple:
    """Alternate untraced and traced blocks of rounds. The first round runs
    traced and under sys.setprofile too, to check the wrappers' OLS count;
    it and the sizing round are left out of the figures."""
    problems = []
    first_ops = list(range(run.i, run.i + run.w.round_size))
    tracer.install()
    run.round(tracer, profile=True)
    tracer.uninstall()
    wrapped = tracer.summary(first_ops)["linreg.ols.calls"] * len(first_ops)
    if round(wrapped) != tracer.profiled_ols_calls:
        problems.append(f"traced OLS calls {wrapped} != profiled "
                        f"{tracer.profiled_ols_calls}")

    reps, round_s = sizing_round(run)
    # blocks of about BLOCK_S: the untraced and traced halves see the same
    # machine speed, and the wrappers are swapped in a few times a second
    # rather than around every round
    rounds = max(1, round(BLOCK_S / round_s))
    plain, spanned, scale_of = [], [], {}
    while not spanned or run.timed_s < seconds:
        for _ in range(rounds):
            plain += run.scaled_round(reps)[0]
        tracer.install()
        for _ in range(rounds):
            start = run.i
            ms, scale = run.scaled_round(reps, tracer)
            spanned += ms
            scale_of.update((op, scale) for op in range(start, run.i))
        tracer.uninstall()
    traced_ops = sorted(scale_of)
    metrics = tracer.summary(traced_ops, scale_of)
    metrics["trace.overhead_pct"] = (
        statistics.fmean(spanned) / statistics.fmean(plain) - 1.0) * 100.0
    tracer.dump(trace_path, {
        "traced_ops": traced_ops,
        "scale": [scale_of[op] for op in traced_ops],
        "profiled_ops": first_ops,
        "profiled_ols_calls": tracer.profiled_ols_calls,
        "wrapped_ols_calls": wrapped,
        "per_layer": metrics,
    })
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the fits are small, and a second thread only adds
    # contention for the machine's cores to the figures
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "ardlkit" / "__init__.py").is_file():
        print("perfbench: no ardlkit sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        w = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        w.prepare()
        run = Run(w)
        if args.trace:
            import tracing

            metrics, problems = traced(
                run, args.seconds, tracing.Tracer(),
                OUT / f"trace-{args.workload}-{args.seed}.json")
            metrics = {name: (metrics[name], unit)
                       for name, unit in tracing.metrics().items()}
        else:
            metrics = untraced(run, args.seconds, lambda: setup_seconds(
                args.workload, args.seed, workdir))
            problems = []
        problems += w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.problems:
        print(f"failed {line}", file=sys.stderr)
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)
    notes = w.notes()
    if notes:
        print(f"notes: {json.dumps(notes)}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run.i,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    details = {"failures": run.problems, "failed_ops": run.failed_ops,
               "problems": problems,
               "notes": notes, "setup_s": run.setup, "rounds": run.log}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, **details}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
