"""Benchmark of hapkit CLI runs.

Run from the repository root:

    python3 perfbench/run.py --workload freeprod --seed 1 --seconds 55 --trace 0

One run builds seeded inputs round by round (see ``workloads.py``) and
drives the workload's fixed invocation list until ``--seconds`` are used:

* ``--trace 0``: each round runs the list as fresh ``python -m hapkit``
  processes (``cli_s``, ``peak_rss_mb``) and then in-process through
  ``hapkit.cli.main`` (``work_s``); ``setup_s`` is the import time of
  hapkit in fresh interpreters.  Outputs of the two modes must match.
* ``--trace 1``: rounds alternate between traced and untraced in-process
  runs and report the per-layer metrics (see ``tracing.py``).

Every report is checked against the expected exit code, verdicts and closed
forms.  The last line of stdout is the JSON result; lines before it give the
environment, the sha256 of every report, and every metric with its unit.
The program is imported from ``src/`` under the current directory only.
"""

from __future__ import annotations

import os
import sys

# One driving process and single-threaded BLAS, fixed before numpy loads:
# the benchmark never uses more BLAS threads than there are CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_INTERPRETERS = 5
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "cli_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in tracing.SELF_TIMES},
    **{f"{name}.calls": "count" for name in tracing.CALLS},
    **{name: "count" for name in tracing.COUNTERS},
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "cfree.block_bytes": "bytes",
    "fourier.check_c0.prefilter_accept_frac": "ratio",
    "trace.work_s": "s",
    "trace.untraced_work_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_share": "ratio",
}


class MissingProgram(Exception):
    """The checkout has no importable hapkit under src/."""


@dataclass
class Outcome:
    """What one mode of one invocation produced."""

    rc: int | None
    stdout: str = ""
    stderr: str = ""
    report: str | None = None
    written: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_hapkit():
    if not (SRC / "hapkit" / "__init__.py").is_file():
        raise MissingProgram(f"no hapkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    hapkit = importlib.import_module("hapkit")
    if SRC.resolve() not in Path(hapkit.__file__).resolve().parents:
        raise MissingProgram(f"hapkit imported from {hapkit.__file__}, not from {SRC}")
    return importlib.import_module("hapkit.cli")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "driving_processes": 1,
    }


def measure_setup() -> float:
    """Median import time of hapkit over fresh interpreters (after one warm-up
    that compiles bytecode)."""
    code = ("import time; t = time.perf_counter(); import hapkit; "
            "print(repr(time.perf_counter() - t)); print(hapkit.__file__)")
    samples = []
    for i in range(SETUP_INTERPRETERS + 1):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise MissingProgram(f"import hapkit failed:\n{proc.stderr}")
        seconds, origin = proc.stdout.split()
        if SRC.resolve() not in Path(origin).resolve().parents:
            raise MissingProgram(f"child imported hapkit from {origin}")
        if i:
            samples.append(float(seconds))
    return statistics.median(samples)


def _argv(inv, out: Path) -> list:
    return ([a.replace("{out}", str(out)) for a in inv.argv]
            + ["--json", str(out / f"{inv.name}.report.json")])


def _collect(inv, out: Path, outcome: Outcome) -> Outcome:
    report = out / f"{inv.name}.report.json"
    if report.is_file():
        outcome.report = report.read_text()
    for name in inv.written:
        path = out / name
        outcome.written[name] = path.read_bytes() if path.is_file() else None
    return outcome


class Launcher:
    """The small process that spawns every CLI child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, argv, out: Path, name: str) -> dict:
        request = {"argv": argv, "cwd": str(ROOT), "env": _child_env(),
                   "stdout": str(out / f"{name}.stdout"), "stderr": str(out / f"{name}.stderr"),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli(launcher: Launcher, invocations, out: Path):
    """Each invocation as a fresh process, one after another; returns the
    outcomes, each invocation's wall time and each child's peak RSS in KiB."""
    out.mkdir(parents=True)
    outcomes, times, rss = [], [], []
    for inv in invocations:
        reply = launcher.run([sys.executable, "-m", "hapkit", *_argv(inv, out)], out, inv.name)
        stdout = (out / f"{inv.name}.stdout").read_text()
        stderr = (out / f"{inv.name}.stderr").read_text()
        if reply["rc"] is None:
            stderr += f"\ntimed out after {CHILD_TIMEOUT_S} s"
        times.append(reply["seconds"])
        rss.append(reply["maxrss_kib"])
        outcomes.append(_collect(inv, out, Outcome(reply["rc"], stdout, stderr)))
    return outcomes, times, rss


def run_inprocess(cli, invocations, out: Path, tracer=None):
    """The same list through hapkit.cli.main after one import; returns the
    outcomes and each main() call's wall time.  Objects alive before the list
    are frozen out of the cyclic GC, as in a fresh process."""
    out.mkdir(parents=True)
    outcomes, times = [], []
    gc.collect()
    gc.freeze()
    try:
        for i, inv in enumerate(invocations):
            argv = _argv(inv, out)
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.invocation = i
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception:
                    # a crash is a failed invocation, recorded with its traceback
                    rc = None
                    stderr.write(traceback.format_exc())
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.flush_counters()
            outcomes.append(_collect(inv, out, Outcome(rc, stdout.getvalue(), stderr.getvalue())))
    finally:
        gc.unfreeze()
    return outcomes, times


def check(inv, outcome: Outcome, out: Path) -> list:
    """Problems with one outcome: exit code, traceback, report, verdicts, closed form."""
    problems = []
    if outcome.rc != inv.exit_code:
        problems.append(f"exit code {outcome.rc}, expected {inv.exit_code}")
    if "Traceback (most recent call last)" in outcome.stderr:
        problems.append("traceback: " + outcome.stderr.strip().splitlines()[-1])
    try:
        report = json.loads(outcome.report)
    except (TypeError, ValueError):
        return problems + ["JSON report missing or does not parse"]
    if not isinstance(report, dict):
        return problems + ["JSON report is not an object"]
    verdicts = [(c.get("name"), c.get("passed")) for c in report.get("conditions", [])]
    if verdicts != [tuple(v) for v in inv.verdicts]:
        return problems + [f"verdicts {verdicts}, expected {inv.verdicts}"]
    if inv.check is not None:
        try:
            problems += inv.check(report, out)
        except (KeyError, ValueError, TypeError, OSError) as exc:
            problems.append(f"closed-form check could not read the output: {exc!r}")
    return problems


def compare(cli_outcome: Outcome, inproc_outcome: Outcome) -> list:
    problems = []
    if cli_outcome.stdout != inproc_outcome.stdout:
        problems.append("text report differs between subprocess and in-process runs")
    if cli_outcome.report != inproc_outcome.report:
        problems.append("JSON report differs between subprocess and in-process runs")
    for name, data in cli_outcome.written.items():
        if data != inproc_outcome.written.get(name):
            problems.append(f"{name} differs between subprocess and in-process runs")
    return problems


def _sha(text) -> str:
    return hashlib.sha256((text or "").encode()).hexdigest()


def report_round(round_idx, invocations, outcomes, problems_per_inv) -> int:
    """Print each report's digests and each problem; returns the failed count."""
    failed = 0
    for inv, outcome, problems in zip(invocations, outcomes, problems_per_inv):
        print(f"digest round={round_idx} inv={inv.name} "
              f"text=sha256:{_sha(outcome.stdout)} json=sha256:{_sha(outcome.report)}")
        if problems:
            failed += 1
            for p in problems:
                print(f"FAILED round={round_idx} inv={inv.name}: {p}", file=sys.stderr)
    return failed


class Rounds:
    """Round loop bounded by the run's seconds: after the minimum number of
    rounds, a new round starts only if it is expected to end in time."""

    def __init__(self, seconds: float, minimum: int):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.minimum = minimum

    def __iter__(self):
        for r in range(workloads.MAX_ROUNDS):
            begun = time.perf_counter()
            yield r
            elapsed = time.perf_counter() - self.start
            last = time.perf_counter() - begun
            if r + 1 >= self.minimum and elapsed + last > self.seconds:
                return


def timed_run(cli, args, work: Path) -> dict:
    setup_s = measure_setup()
    cli_samples, work_samples, rss_samples, failures = [], [], [], []
    launcher = Launcher()
    try:
        for r in Rounds(args.seconds, minimum=1):
            rdir = work / f"round{r}"
            invocations = workloads.build(args.workload, args.seed, r, args.size, rdir / "in")
            cli_out, cli_times, rss = run_cli(launcher, invocations, rdir / "cli")
            inproc_out, work_times = run_inprocess(cli, invocations, rdir / "inproc")
            problems = [check(inv, b, rdir / "inproc") + compare(a, b)
                        for inv, a, b in zip(invocations, cli_out, inproc_out)]
            report_round(r, invocations, inproc_out, problems)
            cli_samples.append(cli_times)
            work_samples.append(work_times)
            rss_samples.append(rss)
            failures.append([bool(p) for p in problems])
            shutil.rmtree(rdir)
    finally:
        launcher.close()
    print(f"rounds {len(cli_samples)}: cli_s {_fmt_list(map(sum, cli_samples))} "
          f"work_s {_fmt_list(map(sum, work_samples))}")

    def summary(columns):
        """End-to-end metrics and failure counts over the given invocations."""
        def pick(rounds):
            return [[row[i] for i in columns] for row in rounds]
        metrics = {
            "setup_s": setup_s,
            "cli_s": list_time(pick(cli_samples)),
            "work_s": list_time(pick(work_samples)),
            "peak_rss_mb": statistics.median(map(max, pick(rss_samples))) * 1024 / 1e6,
        }
        return metrics, sum(map(sum, pick(failures))), len(cli_samples) * len(columns)

    for part in workloads.WORKLOADS[args.workload]:
        columns = [i for i, inv in enumerate(invocations) if inv.part == part]
        metrics, failed, attempted = summary(columns)
        print(f"part {part}: " + ", ".join(
            f"{name} {value:.4f} {END_TO_END_UNITS[name]}"
            for name, value in metrics.items() if name != "setup_s")
            + f", fail_frac {failed / attempted:.4f} ratio ({failed}/{attempted})")
    metrics, failed, attempted = summary(range(len(invocations)))
    return _result(metrics, END_TO_END_UNITS, attempted, failed)


def traced_run(cli, args, work: Path) -> dict:
    tracer = tracing.Tracer()
    traced, untraced, self_share = [], [], []
    self_samples = {name: [] for name in tracing.SELF_TIMES}
    first_calls, first_counters = None, None
    attempted = failed = 0
    for r in Rounds(args.seconds, minimum=2):
        rdir = work / f"round{r}"
        invocations = workloads.build(args.workload, args.seed, r, args.size, rdir / "in")
        if r % 2 == 0:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                outcomes, times = run_inprocess(cli, invocations, rdir / "inproc", tracer)
            finally:
                tracer.uninstall()
            self_s, calls = tracer.self_times(first_span)
            traced.append(times)
            self_share.append(sum(self_s.values()) / sum(times))
            for name in tracing.SELF_TIMES:
                self_samples[name].append(self_s.get(name, 0.0))
            if first_calls is None:
                first_calls, first_counters = dict(calls), dict(tracer.counters)
        else:
            outcomes, times = run_inprocess(cli, invocations, rdir / "inproc")
            untraced.append(times)
        problems = [check(inv, o, rdir / "inproc") for inv, o in zip(invocations, outcomes)]
        failed += report_round(r, invocations, outcomes, problems)
        attempted += len(invocations)
        shutil.rmtree(rdir)
    spans_path = STATE_DIR / f"spans-{args.workload}.tsv"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    metrics = {f"{name}.self_s": statistics.median(v) for name, v in self_samples.items()}
    metrics.update({f"{name}.calls": first_calls.get(name, 0) for name in tracing.CALLS})
    metrics.update({name: first_counters.get(name, 0) for name in tracing.COUNTERS})
    scanned = metrics["fourier.check_c0.blocks_scanned"]
    metrics["fourier.check_c0.prefilter_accept_frac"] = (
        metrics["fourier.check_c0.prefilter_accepts"] / scanned if scanned else 0.0)
    metrics["trace.work_s"] = list_time(traced)
    metrics["trace.untraced_work_s"] = list_time(untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.work_s"] / metrics["trace.untraced_work_s"]
    metrics["trace.self_share"] = statistics.median(self_share)
    print(f"rounds {len(traced) + len(untraced)}: traced work_s {_fmt_list(map(sum, traced))} "
          f"untraced work_s {_fmt_list(map(sum, untraced))}")
    return _result(metrics, PER_LAYER_UNITS, attempted, failed)


def list_time(rounds) -> float:
    """Time of one pass over the list: the sum over invocations of each
    invocation's median time across rounds.  Rounds have the same shapes, so
    this is a median list time that a short stall in one call cannot move."""
    return sum(statistics.median(column) for column in zip(*rounds))


def _fmt_list(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric fail_frac {failed / attempted!r} ratio ({failed}/{attempted} invocations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="input scale; 'tiny' is for the smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_hapkit()
        print("env " + json.dumps(environment(), sort_keys=True))
        work = STATE_DIR / f"work-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = (traced_run if args.trace else timed_run)(cli, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
