"""Benchmark for the multisep command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 28 --trace 0

Runs the seeded job list of one workload (see workloads.py) as repeated
passes, in this process, through `multisep.cli.main(argv)` with stdout
captured: one client, one job at a time, each job sent when the last
returned (a closed loop).  Every job's output is checked, and its sha256
digest must equal the one from the first pass and from any earlier run
of the same code and seed.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced
reference passes, then traced passes, and prints the per-layer metrics
(tracer.py).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs (result, digests,
spans) go to perfbench/out/.

BLAS runs single-threaded (BLAS_THREADS); the setting is recorded.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
SETUP_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import multisep, multisep.cli"

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import multisep from this checkout's src/; exit with an error if it is not there."""
    if not (SRC / "multisep" / "cli.py").is_file():
        sys.exit(f"perfbench: no multisep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import multisep.cli
    if Path(multisep.__file__).resolve().parent != SRC / "multisep":
        sys.exit(f"perfbench: imported multisep from {multisep.__file__}, not {SRC}")
    return multisep.cli


def measure_setup():
    """Median time for a fresh interpreter to import multisep and multisep.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def code_hash():
    """Digest of the program's sources and this benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed, code):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "code_hash": code,
        "seed": seed,
    }


class Runner:
    """Runs passes of one job list, checking every output."""

    def __init__(self, cli, jobs, known_digests):
        self.cli = cli
        self.jobs = jobs
        self.digests = dict(known_digests)
        self.attempted = 0
        self.failures = []
        self.job_s = [[] for _ in jobs]

    def run_job(self, index, job, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        rc, problem = None, None
        if tracer is not None:
            tracer.begin_job(index)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed job, and the run goes on
            problem = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        stdout = out.getvalue()
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        if problem is None and "Traceback" in err.getvalue():
            problem = "traceback on stderr"
        if problem is None:
            try:
                job.check(stdout)
            except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"check: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if problem is None and self.digests.setdefault(str(index), digest) != digest:
            problem = "stdout digest differs from an earlier run of the same code and seed"
        self.attempted += 1
        self.job_s[index].append(elapsed)
        if problem is not None:
            self.failures.append({"job": index, "label": job.label, "argv": job.argv,
                                  "problem": problem})
        return elapsed

    def run_pass(self, tracer=None):
        return sum(self.run_job(i, job, tracer) for i, job in enumerate(self.jobs))

    def run_for(self, seconds, tracer=None):
        """Passes until the next one would end past `seconds`; at least one."""
        t0 = time.perf_counter()
        times = []
        while True:
            times.append(self.run_pass(tracer))
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(times) > seconds:
                return times


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    cuts = statistics.quantiles(samples, n=100, method="inclusive") if n >= 2 else []
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": cuts[p - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)

    jobs = workloads.build(args.workload, args.seed, scratch)
    code = code_hash()
    digest_file = OUT / f"digests-{args.workload}-s{args.seed}-{code[:16]}.json"
    known = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    runner = Runner(cli, jobs, known)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "jobs": len(jobs), "provenance": provenance(args.seed, code)}
    if args.trace:
        import tracer as tracing
        untraced = runner.run_for(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_for(args.seconds - sum(untraced), tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced), untraced, traced)
        span_file = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write_spans(span_file)
        record.update(untraced_pass_s=untraced, traced_pass_s=traced, spans=str(span_file))
        summary = (f"traced passes {len(traced)}, untraced {len(untraced)}, "
                   f"overhead {metrics['trace.overhead_s']['value']:.3f} s/pass")
    else:
        setup_s, setup_samples = measure_setup()
        passes = runner.run_for(args.seconds)
        ok_ratio = (runner.attempted - len(runner.failures)) / runner.attempted
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
            "ok_ratio": {"value": ok_ratio, "unit": "ratio"},
        }
        wall_tail = tail(passes)
        record.update(pass_s=passes, wall_s_tail=wall_tail, setup_s_samples=setup_samples)
        summary = (f"wall_s median {statistics.median(passes):.4f} s over {len(passes)} passes"
                   + (f", p{wall_tail['percentile']} {wall_tail['value']:.4f} s"
                      if wall_tail["percentile"]
                      else ", no percentile above the median has 10 samples beyond it")
                   + f", setup {setup_s:.4f} s")

    if not runner.failures:
        digest_file.write_text(json.dumps(runner.digests, sort_keys=True))
    record.update(metrics=metrics, attempted=runner.attempted, failures=runner.failures,
                  job_s=[{"label": job.label, "median_s": statistics.median(t), "samples": t}
                         for job, t in zip(jobs, runner.job_s)])
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs/pass, {summary}, "
          f"{len(runner.failures)} failed of {runner.attempted}")
    for failure in runner.failures[:5]:
        print(f"  FAILED job {failure['job']} ({failure['label']}): {failure['problem']}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
