"""Dataset-free benchmark of the namgrow command line.

    python3 perfbench/run.py --workload grow-scan --seed 3 --seconds 30 --trace 0

Run from the root of a namgrow source tree.  The benchmark writes seeded
synthetic CIFAR-10-binary and MNIST-IDX files, prepares the workload's
input checkpoint (set-up, timed as setup_s), then repeats the workload's
namgrow commands for --seconds, each as its own `python -m namgrow.cli`
process, one at a time, with BLAS threads capped through --threads.  A
command with several samples (eval) runs that many times in a row in each
untraced repetition.  After every repetition it checks the outputs.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced repetitions with traced ones, which run each
command through tracing.py, and reports the per-layer metrics of the traced
repetitions plus trace.overhead_ratio.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric
names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
# BLAS thread cap passed to every command through --threads.  The commands
# run one at a time; one thread leaves the second core of a two-core machine
# to run.py itself and the system, which keeps timings steadier.
THREADS = 1

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class ProcessResult:
    """Exit code, wall time, CPU time and peak RSS of one child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    log: Path


def run_process(argv: list[str], log: Path, env) -> ProcessResult:
    """Run argv to completion; rusage comes from wait4 on that child alone."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(proc.returncode, wall,
                         usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, log)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One benchmark run: a workload, a data seed, a trace setting."""

    def __init__(self, workload, seed: int, ws: Path):
        self.workload = workload
        self.seed = seed
        self.ws = ws
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def cli(self, name: str, args: list[str], log_dir: Path,
            trace: Path | None = None) -> ProcessResult:
        """Run one namgrow command; a non-zero exit is a failed operation."""
        cli_args = [*args, "--threads", str(THREADS)]
        if trace is None:
            argv = [sys.executable, "-m", "namgrow.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace),
                    "--", *cli_args]
        log_dir.mkdir(parents=True, exist_ok=True)
        result = run_process(argv, log_dir / f"{name}.log", self.env)
        if not self.check(f"{name} exits 0", result.returncode == 0,
                          f"exit {result.returncode}"):
            tail = result.log.read_text(errors="replace").splitlines()[-5:]
            print(f"{name} failed:\n  " + "\n  ".join(tail), file=sys.stderr)
        return result

    def setup(self) -> float:
        """Write the inputs SETUP_REPEATS times; return the median CPU time
        (this process's own plus that of its set-up commands).

        CPU time, because wall time on a shared virtual machine follows how
        much CPU the host lends it.  Every repeat must produce byte-identical
        inputs."""
        times, digests = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.ws, ignore_errors=True)
            self.ws.mkdir(parents=True)
            children = []
            start = time.process_time()
            self.workload.setup(self.ws, self.seed,
                                lambda name, args: children.append(self.cli(
                                    name, args, self.ws / "logs")))
            times.append(time.process_time() - start
                         + sum(c.cpu_s for c in children))
            digests.append({str(p.relative_to(self.ws)): sha256(p)
                            for p in sorted(self.ws.rglob("*"))
                            if p.is_file() and p.suffix != ".log"})
        self.check("set-up inputs repeat", all(d == digests[0]
                                               for d in digests),
                   "inputs differ between set-ups")
        return statistics.median(times)

    def repetition(self, traced: bool) -> dict:
        """Run the workload's commands once and check their outputs."""
        rep = self.ws / "rep"
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        results, samples, traces, digests = {}, {}, [], {}
        for cmd in self.workload.commands(self.ws, rep):
            trace = rep / f"trace-{cmd.name}.json" if traced else None
            runs = [self.cli(cmd.name, cmd.args, rep / "logs", trace)
                    for _ in range(1 if traced else cmd.samples)]
            results[cmd.name] = runs[0]
            samples[cmd.name] = runs
            if all(r.returncode == 0 for r in runs):
                digests.update({f: sha256(rep / f) for f in cmd.outputs})
            if traced:
                traces.append(json.loads(trace.read_text())
                              if trace.is_file() else None)
        try:
            for name, ok, detail in self.workload.checks(self.ws, rep):
                self.check(name, ok, detail)
            evaluated = json.loads((rep / "eval.json").read_text())
            accuracy = evaluated["accuracy"]
            passes = evaluated["branch_count"] * self.workload.eval_images
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.check("outputs readable", False, repr(exc))
            accuracy, passes = None, 0
        return {"traced": traced, "results": results, "samples": samples,
                "traces": traces, "digests": digests, "accuracy": accuracy,
                "eval_passes": passes,
                "wall_s": sum(r.wall_s for r in results.values())}


def cpu_s(rep: dict) -> float:
    return sum(p.cpu_s for p in rep["results"].values())


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(reps: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Medians over untraced repetitions: (metrics, per-command times).

    A per-command time is the median over every timed run of that command,
    all samples of all repetitions; cpu_s and wall_s count each command's
    first run of a repetition.

    BENCHMARK.json gates on the CPU times: on a shared virtual machine the
    wall time of a command also counts the time the host lent its CPU to
    others (steal), which swung wall times by a quarter between runs.

    eval is gated as a rate, branch-image passes (branches of the evaluated
    network times images of the split) per CPU second: the networks that
    grow and transfer build differ in size by a quarter between data seeds,
    and eval's CPU time follows their size.  The rate is taken at the lower
    quartile of eval's CPU times, not their median: its runs, about a second
    each, fall in two modes a third apart, as the host leaves the core
    alone or not for a few seconds at a time, and the median of a run
    followed the share of the second mode, which swung between runs."""
    med = lambda f: statistics.median(f(r) for r in reps)  # noqa: E731
    commands = {}
    for name in reps[0]["results"]:
        runs = [p for r in reps for p in r["samples"][name]]
        commands[f"{name}_s"] = statistics.median(p.wall_s for p in runs)
        commands[f"{name}_cpu_s"] = statistics.median(p.cpu_s for p in runs)
    metrics = {
        "setup_s": setup_s,
        "wall_s": med(lambda r: r["wall_s"]),
        "cpu_s": med(cpu_s),
        "peak_rss_mib": med(lambda r: max(p.maxrss_mib
                                          for runs in r["samples"].values()
                                          for p in runs)),
        "eval_passes_per_cpu_s": reps[0]["eval_passes"] / lower_quartile(
            [p.cpu_s for r in reps for p in r["samples"]["eval"]]),
        "test_accuracy": med(lambda r: r["accuracy"] or 0.0),
    }
    return metrics, commands


def fingerprint(seed: int) -> dict:
    import numpy as np

    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        # Only the checkout's own repository counts, not an enclosing one.
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "namgrow").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "data_seed": seed,
    }


def compare_reference(workload: str, seed: int, digests: dict,
                      counters: dict) -> str:
    """Say whether outputs and exact counters equal those recorded in
    reference.json for this workload and seed, so a change shows."""
    recorded = json.loads((BENCH_DIR / "reference.json").read_text())
    recorded = recorded.get(workload, {}).get(str(seed))
    if recorded is None:
        return f"reference: nothing recorded for seed {seed}"
    verdict = lambda same: "same" if same else "DIFFERENT"  # noqa: E731
    line = (f"reference (seed {seed}): output digests "
            f"{verdict(recorded['digests'] == digests)}")
    if counters and "counters" in recorded:
        line += f", exact counters {verdict(recorded['counters'] == counters)}"
    return line


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "namgrow" / "cli.py").is_file():
        print(f"error: no namgrow sources under {ROOT / 'src'}; run from the "
              "root of a namgrow source tree", file=sys.stderr)
        return 2
    contract = load_contract()
    if not 0 < THREADS <= (os.cpu_count() or 1):
        print("error: thread cap exceeds the available cores", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed,
                  WORK / f"{workload.name}-{args.seed}-{os.getpid()}")

    # Byte-compile once so that no timed process pays for it.
    warm = run_process([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "namgrow")],
                       Path(os.devnull), bench.env)
    if warm.returncode != 0:
        print("error: namgrow sources do not compile", file=sys.stderr)
        return 2
    setup_s = bench.setup()

    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(bench.repetition(traced))
        kinds = {r["traced"] for r in reps}
        if time.perf_counter() - start >= args.seconds and \
                (not args.trace or kinds == {False, True}):
            break
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]

    first = reps[0]["digests"]
    for i, rep in enumerate(reps[1:], 1):
        bench.check("outputs repeat", rep["digests"] == first,
                    f"repetition {i} ({'traced' if rep['traced'] else 'untraced'})"
                    " output digests differ from repetition 0")
    metrics, commands = end_to_end(untraced, setup_s)

    exact = {}
    if args.trace:
        from tracing import EXACT_COUNTERS, layer_metrics, median_metrics

        per_rep = []
        for rep in traced_reps:
            if None in rep["traces"]:
                bench.check("trace written", False, "a traced command wrote "
                            "no trace")
                continue
            per_rep.append(layer_metrics(rep["traces"], rep["wall_s"]))
        for i, m in enumerate(per_rep[1:], 1):
            bench.check("exact counters repeat",
                        all(m[k] == per_rep[0][k] for k in EXACT_COUNTERS),
                        f"traced repetition {i} counters differ")
        reported = (median_metrics(per_rep) if per_rep else
                    {m["name"]: 0.0 for m in contract["per_layer"]})
        reported["trace.overhead_ratio"] = statistics.median(
            cpu_s(r) for r in traced_reps) / metrics["cpu_s"]
        exact = {k: reported[k] for k in EXACT_COUNTERS}
        declared = contract["per_layer"]
    else:
        reported = metrics
        declared = contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not set(units) <= set(reported):
        print("error: BENCHMARK.json names metrics the benchmark does not "
              f"measure: {sorted(set(units) - set(reported))}",
              file=sys.stderr)
        return 3

    failed = len(bench.failures)
    env = fingerprint(args.seed)
    e2e_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    print(f"workload {workload.name}: {workload.why}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced_reps)} traced "
          f"in {time.perf_counter() - start:.1f} s; set-up {SETUP_REPEATS} "
          "times; medians over the untraced repetitions:")
    for name, value in commands.items():
        if name not in metrics:
            print(f"  {name:<40} {value:16.6f} s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:16.6f} {e2e_units.get(name, 's')}")
    print(f"  {'failed_ops':<40} {failed / bench.attempted:16.6f} ratio "
          f"({failed} of {bench.attempted} commands and checks)")
    print("  wall_s of each repetition (T = traced): " + " ".join(
        f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in reps))
    print("  eval CPU s of each untraced run: " + " ".join(
        f"{p.cpu_s:.3f}" for r in untraced for p in r["samples"]["eval"]))
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    for name, digest in sorted(first.items()):
        print(f"  sha256 {name} {digest}")
    if args.trace:
        print("exact counters " + json.dumps(exact))
    print(compare_reference(workload.name, args.seed, first, exact))
    if args.trace:
        print("per-layer metrics (medians over the traced repetitions):")
        for name in units:
            print(f"  {name:<40} {reported[name]:16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in units},
    }
    summary = {"environment": env, "digests": first, "counters": exact,
               "result": result, "commands": commands, "end_to_end": metrics}
    (WORK / f"result-{workload.name}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(bench.ws, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
