#!/usr/bin/env python3
"""Benchmark for arbopack: seeded corpora, solved end to end and re-checked.

    python3 bench/run.py --workload pack_heavy --seed 1 --seconds 40 --trace 0

One process, one caller, a closed loop: each instance is parsed and solved
with the defaults (``DEFAULT_BOUNDS``, ``jobs=1``) only after the previous
one finished.  A run sets up (import plus corpus generation), then repeats
rounds until ``--seconds`` are spent.  A round solves the whole corpus,
re-checks every answer with the public validators against the verdict the
construction fixed, runs ``python -m arbopack.cli solve FILE`` as a process
on the next few files of a fixed subsample, and times one more set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (see ``layers.py``), reports the per-layer
metrics, and writes the spans of the last traced pass under ``.bench_out``.
End-to-end numbers never come from a traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CORPUS_SIZE = 110  # p90 over the instances then has 10 samples beyond it
CLI_SAMPLE = 20  # the first instances; every workload cycles its families
CLI_SHARE = 0.5  # of a run's time, spent in CLI processes
SETUP_REPEATS = 9  # at least
MIN_ROUNDS = 3
INTERPRETER_REPEATS = 10
CHECK_REPEATS = 10
CHECK_SECONDS = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "check_s": "s",
    "cli_solve_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _ours(module_name: str) -> bool:
    return module_name == "arbopack" or module_name.startswith("arbopack.")


def _import_arbopack():
    """Import the package afresh from this checkout's ``src``, never from elsewhere."""
    for name in [m for m in sys.modules if _ours(m)]:
        del sys.modules[name]
    import arbopack
    import arbopack.cli

    if Path(arbopack.__file__).resolve().parent != SRC / "arbopack":
        raise ImportError(f"arbopack imported from {arbopack.__file__}, not {SRC}")
    return arbopack


def set_up(workload: str, seed: int, size: int):
    """Import the package and generate the corpus; returns both and the time."""
    t0 = time.perf_counter()
    arbopack = _import_arbopack()
    corpus = workloads.corpus(workload, seed, size)
    return arbopack, corpus, time.perf_counter() - t0


def write_corpus(corpus, workdir: Path) -> list[Path]:
    """One ``.mg`` file per instance: the bytes both the library and the CLI read."""
    paths = []
    for inst in corpus:
        path = workdir / f"{inst.name}.mg"
        path.write_bytes(inst.text.encode())
        paths.append(path)
    return paths


class SetUpClock:
    """Times whole set-ups at points spread over the run.

    A set-up lasts well under a second, so repeats made back to back all
    see the same moment of a shared machine; spreading them over the run
    makes their median steady.  Only the first set-up's package and corpus
    are used; a repeat's freshly imported modules are dropped again.
    """

    def __init__(self, workload: str, seed: int, size: int):
        self.args = (workload, seed, size)
        self.times: list[float] = []

    def first(self):
        arbopack, corpus, seconds = set_up(*self.args)
        self.times.append(seconds)
        return arbopack, corpus

    def again(self) -> None:
        kept = {name: m for name, m in sys.modules.items() if _ours(name)}
        try:
            self.times.append(set_up(*self.args)[2])
        finally:
            for name in [m for m in sys.modules if _ours(m)]:
                del sys.modules[name]
            sys.modules.update(kept)


def canonical(arbopack, result) -> str:
    """An answer as a string that is equal exactly when the answers are."""
    if isinstance(result, arbopack.MixedPacking):
        body = [
            [t.root_index, t.root, list(t.arcs), [[u.id, u.tail, u.head] for u in t.edges]]
            for t in result.trees
        ]
        return json.dumps({"feasible": True, "trees": body})
    bisets = [[sorted(b.outer), sorted(b.inner)] for b in result.bisets]
    return json.dumps(
        {
            "feasible": False,
            "atom_index": result.atom_index,
            "bisets": bisets,
            "lhs": result.lhs,
            "rhs": result.rhs,
        }
    )


def canonical_cli(payload: dict) -> str:
    """The same string built from ``arbopack solve`` JSON output."""
    if payload["feasible"]:
        body = [
            [
                t["root_index"] - 1,
                t["root"],
                [a["id"] for a in t["arcs"] if a["origin"] == "arc"],
                [[a["id"], a["tail"], a["head"]] for a in t["arcs"] if a["origin"] == "edge"],
            ]
            for t in payload["trees"]
        ]
        return json.dumps({"feasible": True, "trees": body})
    c = payload["certificate"]
    bisets = [[sorted(b["outer"]), sorted(b["inner"])] for b in c["bisets"]]
    return json.dumps(
        {
            "feasible": False,
            "atom_index": c["atom_index"] - 1,
            "bisets": bisets,
            "lhs": c["lhs"],
            "rhs": c["rhs"],
        }
    )


def _digest(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()


class Run:
    """Counts attempts and failures, and remembers each instance's answer."""

    def __init__(self, arbopack, corpus, texts):
        self.arbopack = arbopack
        self.corpus = corpus
        self.texts = texts
        self.answers: list[str | None] = [None] * len(corpus)
        self.attempted = 0
        self.failed = 0

    def fail(self, inst, why: str) -> None:
        self.failed += 1
        print(f"FAIL {inst.name}: {why}", file=sys.stderr)

    def solve_pass(self, tracer: Tracer | None = None):
        """Parse and solve every instance, then re-check every answer.

        Returns the seconds each instance took to solve and to check.
        """
        ap = self.arbopack
        results = []
        times = []
        clock = time.perf_counter
        for i, text in enumerate(self.texts):
            if tracer is not None:
                tracer.instance = i
                tracer.counting = True
            t0 = clock()
            try:
                g, roots = ap.parse_mixed_graph(text)
                item = (g, roots, ap.solve(g, roots))
            except Exception:  # any crash is a failed instance, not a dead run
                item = traceback.format_exc(limit=3)
            times.append(clock() - t0)
            results.append(item)
        if tracer is not None:
            tracer.counting = False

        # A cheap check phase is repeated, up to CHECK_REPEATS times or
        # CHECK_SECONDS, and each instance keeps its best time: a single
        # check of a small certificate takes under 0.1 ms and is mostly noise.
        verdicts = [None] * len(results)
        check_times = [float("inf")] * len(results)
        spent = 0.0
        repeats = 1 if tracer is not None else CHECK_REPEATS
        for _ in range(repeats):
            phase = clock()
            for i, item in enumerate(results):
                if tracer is not None:
                    tracer.instance = i
                if isinstance(item, str):
                    check_times[i] = 0.0
                    continue
                g, roots, result = item
                check = (
                    ap.validate_mixed_packing
                    if isinstance(result, ap.MixedPacking)
                    else ap.verify_certificate
                )
                t0 = clock()
                try:
                    verdict = check(g, roots, result)
                except Exception:
                    verdict = traceback.format_exc(limit=3)
                check_times[i] = min(check_times[i], clock() - t0)
                if verdicts[i] is None:  # the validators are pure; repeats only time
                    verdicts[i] = verdict
            spent += clock() - phase
            if spent > CHECK_SECONDS:
                break

        for i, (inst, item, verdict) in enumerate(zip(self.corpus, results, verdicts)):
            self.attempted += 1
            if isinstance(item, str):
                self.fail(inst, "solve raised\n" + item)
                continue
            if isinstance(verdict, str):
                self.fail(inst, "validator raised\n" + verdict)
                continue
            result = item[2]
            if isinstance(result, ap.MixedPacking) != inst.feasible:
                self.fail(inst, f"verdict differs from construction (feasible={inst.feasible})")
            elif not verdict:
                self.fail(inst, f"validator rejected the answer: {verdict.reason}")
            else:
                self._same_answer(i, canonical(ap, result))
        return times, check_times

    def _same_answer(self, i: int, answer: str) -> None:
        """Every pass, traced or not, must give the first pass's answer."""
        inst = self.corpus[i]
        d = _digest(answer)
        if self.answers[i] is None:
            self.answers[i] = d
        elif self.answers[i] != d:
            self.fail(inst, "answer differs from the first pass")

    def cli_call(self, i: int, path: Path, env) -> float:
        """Run ``python -m arbopack.cli solve FILE`` on instance ``i``'s file.

        Returns the seconds the process took, start to exit.
        """
        inst = self.corpus[i]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arbopack.cli", "solve", str(path)],
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=120,
        )
        seconds = time.perf_counter() - t0
        self.attempted += 1
        want = 0 if inst.feasible else 2
        if proc.returncode != want:
            self.fail(inst, f"CLI exit {proc.returncode}, expected {want}: {proc.stderr!r}")
            return seconds
        try:
            answer = canonical_cli(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(inst, f"CLI output unreadable: {exc}")
            return seconds
        if self.answers[i] != _digest(answer):
            self.fail(inst, "CLI answer differs from the library's")
        return seconds


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _process_s(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def cli_layers(run: Run, paths, env) -> dict[str, float]:
    """Interpreter start, package import and in-process ``cli.main``, in ms.

    Bare and importing interpreters alternate and each keeps its best
    time, so the difference is not skewed by a slow spell hitting one.
    """
    bare, imports = [], []
    for _ in range(INTERPRETER_REPEATS):
        bare.append(_process_s([sys.executable, "-c", "pass"], env))
        imports.append(_process_s([sys.executable, "-c", "import arbopack.cli"], env))
    main = run.arbopack.cli.main
    times = []
    for i, path in enumerate(paths):
        inst = run.corpus[i]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = main(["solve", str(path)])
        times.append(time.perf_counter() - t0)
        run.attempted += 1
        if code != (0 if inst.feasible else 2):
            run.fail(inst, f"cli.main returned {code}")
        elif run.answers[i] != _digest(canonical_cli(json.loads(sink.getvalue()))):
            run.fail(inst, "cli.main answer differs from the library's")
    return {
        "cli.interpreter_ms": min(bare) * 1e3,
        "cli.import_ms": (min(imports) - min(bare)) * 1e3,
        "cli.main_ms": statistics.median(times) * 1e3,
    }


def _best(per_instance: list[list[float]]) -> list[float]:
    """Each instance's fastest time over the passes of this run.

    Other load on a shared machine only ever adds time, so the minimum
    over passes is the steadiest estimate of what the instance itself
    costs (the estimator ``timeit`` recommends).
    """
    return [min(ts) for ts in per_instance]


def measure(run: Run, paths, seconds: float, clock: SetUpClock) -> dict[str, float]:
    """End-to-end metrics from untraced rounds.

    A round is a solve pass, CLI processes on the next instances of the
    sample in turn, and a set-up.  A round runs CLI processes until they
    have had ``CLI_SHARE`` of the run's time so far, so every round is
    short and the samples of each kind spread evenly over the run.  More
    rounds leave fewer instances that a slow spell of the machine hit in
    every one of them.
    """
    start = time.perf_counter()
    solve = [[] for _ in run.corpus]
    checks = [[] for _ in run.corpus]
    env = _cli_env()
    sample = paths[:CLI_SAMPLE]
    cli = [[] for _ in sample]
    cli_spent = 0.0
    calls = 0

    def cli_next() -> float:
        nonlocal calls
        i = calls % len(sample)
        t = run.cli_call(i, sample[i], env)
        cli[i].append(t)
        calls += 1
        return t

    rounds = 0
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        gc.collect()
        times, check_times = run.solve_pass()
        for ts, t in zip(solve, times):
            ts.append(t)
        for ts, t in zip(checks, check_times):
            ts.append(t)
        while cli_spent < CLI_SHARE * (time.perf_counter() - start):
            cli_spent += cli_next()
        clock.again()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        rounds += 1
        if rounds >= MIN_ROUNDS and now + longest > start + seconds:
            break
    while calls < len(sample):  # only a very short run gets here
        cli_next()
    while len(clock.times) < SETUP_REPEATS:
        clock.again()

    best = _best(solve)
    print(
        f"# {len(best)} solve samples, each the best of {rounds} passes; "
        f"{len(cli)} CLI samples, each the best of {min(map(len, cli))}-{max(map(len, cli))} "
        f"runs; {len(clock.times)} set-ups"
    )
    return {
        "setup_s": statistics.median(clock.times),
        "solve_s": sum(best),
        "solve_ms_p50": statistics.median(best) * 1e3,
        "solve_ms_p90": statistics.quantiles(best, n=10)[-1] * 1e3,
        "check_s": sum(_best(checks)),
        "cli_solve_ms_p50": statistics.median(_best(cli)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_layers(run: Run, paths, seconds: float, spans_file: Path) -> dict[str, float]:
    """Per-layer metrics: untraced and traced passes in turn, and the CLI layers."""
    start = time.perf_counter()
    metrics = {}
    plain = [[] for _ in run.corpus]
    traced = [[] for _ in run.corpus]
    layer_runs = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        gc.collect()
        times, _ = run.solve_pass()
        for ts, t in zip(plain, times):
            ts.append(t)
        if not layer_runs:  # the CLI answers are checked against this pass's
            metrics.update(cli_layers(run, paths[:CLI_SAMPLE], _cli_env()))
        gc.collect()
        tracer = Tracer()
        with tracer:
            times, _ = run.solve_pass(tracer)
        for ts, t in zip(traced, times):
            ts.append(t)
        layer_runs.append(tracer.layer_metrics())
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now + longest > start + seconds:
            break

    # times vary pass to pass, counts do not
    for name, value in layer_runs[-1].items():
        metrics[name] = (
            statistics.median(r[name] for r in layer_runs) if name.endswith("_ms") else value
        )
    if tracer.absent:
        print(f"absent from the package, not reported: {sorted(tracer.absent)}", file=sys.stderr)
    metrics["trace.overhead_frac"] = sum(_best(traced)) / sum(_best(plain)) - 1
    with gzip.open(spans_file, "wt") as fh:
        json.dump(
            {
                "columns": ["name", "start_ns", "end_ns", "parent", "instance"],
                "spans": tracer.rows(),
            },
            fh,
        )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=CORPUS_SIZE,
                    help="corpus size (smaller only for the smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "arbopack" / "__init__.py").is_file():
        print(f"error: no arbopack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        clock = SetUpClock(args.workload, args.seed, args.instances)
        arbopack, corpus = clock.first()
        paths = write_corpus(corpus, workdir)
        run = Run(arbopack, corpus, [p.read_text() for p in paths])
        if args.trace:
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            metrics = measure_layers(run, paths, args.seconds, spans_file)
            metrics["error_rate"] = run.failed / run.attempted
            units = {name: _unit(name) for name in metrics}
        else:
            metrics = measure(run, paths, args.seconds, clock)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name:38s} {value:14.4f} {units[name]}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name in ("trace.overhead_frac", "error_rate"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
