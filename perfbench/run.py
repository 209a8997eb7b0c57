"""Run one workload of the wrightlens benchmark and print one JSON line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Load is one caller in a closed loop: each job starts when the previous one
returns, and jobs run in whole blocks (see jobs.py).  With ``--trace 0`` the
loop runs until the jobs have taken ``--seconds`` and the end-to-end metrics
are printed.  With ``--trace 1`` a fixed number of blocks runs twice, first
untraced and then traced, and the per-layer metrics are printed.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every answer was right and 1 on any wrong answer.
A result file with the environment, sample counts and failure classes (and
in traced runs the spans) is written to ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify", "certify", "radii", "cli")
SETUP_REPEATS = 5
# Timings are per block, then the value this share (%) of blocks reach
# (see timed_run).
BLOCK_PERCENTILE = 90
IMPORT_REPEATS = 3
# Blocks per pass of a traced run: fixed, so counts repeat exactly for a seed.
TRACE_BLOCKS = {"verify": 20, "certify": 15, "radii": 15, "cli": 4}

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "special.phi_values.calls": "count",
    "special.phi_values.coeffs": "count",
    "special.phi_values.self_s": "s",
    "special.phi_values.unique_ratio": "ratio",
    "laurent.evaluate.calls": "count",
    "laurent.evaluate.points": "count",
    "laurent.evaluate.self_s": "s",
    "laurent.hadamard.calls": "count",
    "laurent.hadamard.self_s": "s",
    "laurent.csv.self_s": "s",
    "bounds.series_identity_oracle.self_s": "s",
    "bounds.extraction_residuals.self_s": "s",
    "bounds.bound_sequence_closed.self_s": "s",
    "bounds.bound_sequence_recursive.self_s": "s",
    "bounds.coefficient_bound_check.self_s": "s",
    "bounds.operator_weights.calls": "count",
    "bounds.operator_weights.self_s": "s",
    "membership.schwarz_generate.self_s": "s",
    "membership.caratheodory_series.self_s": "s",
    "membership.convolution_scan.self_s": "s",
    "membership.convolution_kernel.calls": "count",
    "membership.membership_check.self_s": "s",
    "membership.sufficiency_predicate.self_s": "s",
    "membership.tau_transform.calls": "count",
    "radii.solve_radius.calls": "count",
    "radii.solve_radius.self_s": "s",
    "radii.constraint_sum.calls": "count",
    "radii.bisect_useful_ratio": "ratio",
    "radii.predicate.self_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.main.self_s": "s",
    "cli.process_overhead_frac": "ratio",
    "special.self_s": "s",
    "laurent.self_s": "s",
    "bounds.self_s": "s",
    "membership.self_s": "s",
    "radii.self_s": "s",
    "cli.self_s": "s",
    "special.errors": "count",
    "laurent.errors": "count",
    "bounds.errors": "count",
    "membership.errors": "count",
    "radii.errors": "count",
    "cli.errors": "count",
    "warnings.leaked": "count",
    "trace_overhead_frac": "ratio",
    "max_rel_err": "ratio",
    "fail_frac": "ratio",
}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import wrightlens.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


@dataclass
class Record:
    """One job: its timed seconds and what the checks made of it."""

    kind: str
    block: int
    seconds: float
    error: str | None = None  # failure class; None when the job succeeded
    detail: str = ""
    wrong: str | None = None
    errors: dict = field(default_factory=dict)
    runtime_warnings: int = 0
    truncation_warnings: int = 0
    inprocess_s: float = 0.0
    inprocess_code: int = 0


def _layer_of(exc: BaseException) -> str:
    """The wrightlens module of the innermost frame that raised ``exc``."""
    layer = "harness"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == SRC / "wrightlens":
            layer = path.stem
        tb = tb.tb_next
    return layer


def run_one(workload, job, tmp, refs, tracer=None) -> Record:
    """Time one job, then check it outside the timed region."""
    import jobs
    import reference

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None and workload != "cli":
            tracer.active = True
        start = time.perf_counter()
        try:
            out, exc = jobs.run_job(workload, job, tmp), None
        except Exception as err:  # a job that raises is a measured failure
            out, exc = None, err
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    rec = Record(job["kind"], job["block"], seconds)
    rec.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    rec.truncation_warnings = sum(w.category.__name__ == "TruncationWarning" for w in caught)
    classes = []
    if exc is not None:
        classes.append(type(exc).__name__)
        rec.detail = f"{_layer_of(exc)}: {exc}"[:300]
    elif workload == "cli":
        if tracer is not None:
            tracer.active = True
        try:
            inprocess = reference.run_inprocess(job, tmp)
        finally:
            if tracer is not None:
                tracer.active = False
        rec.inprocess_code, rec.inprocess_s = inprocess[0], inprocess[2]
        rec.runtime_warnings = len(inprocess[3])
        stderr = out.stderr.decode(errors="replace")
        if out.returncode != job["expect"]:
            classes.append(f"exit_{out.returncode}")
            rec.detail = (stderr.strip().splitlines() or [""])[-1][:300]
        if "Traceback" in stderr:
            classes.append("Traceback")
        rec.errors, rec.wrong = reference.check_cli(job, out, refs, inprocess)
    else:
        rec.errors, rec.wrong = reference.CHECKS[workload](job, out, refs)
    if workload == "cli":
        leaked = out is not None and b"RuntimeWarning" in out.stderr
    else:
        leaked = rec.runtime_warnings > 0
    if leaked:
        classes.append("RuntimeWarning")
        if workload == "cli" and not rec.detail:
            rec.detail = next(l for l in out.stderr.decode(errors="replace").splitlines()
                              if "RuntimeWarning" in l).strip()[:300]
    if rec.wrong is not None:
        classes.append("WrongAnswer")
        rec.detail = rec.detail or rec.wrong
    rec.error = "+".join(classes) or None
    return rec


def run_blocks(workload, seed, refs, tmp, *, blocks=None, seconds=None, tracer=None):
    """Whole blocks until ``blocks`` are done or the jobs took ``seconds``."""
    import jobs
    import reference

    records, block, busy = [], 0, 0.0
    while (block < blocks) if blocks is not None else (block == 0 or busy < seconds):
        # Keep the harness's own objects (references, records) out of the
        # cyclic collector's scans, so its heap does not slow the jobs.
        gc.collect()
        gc.freeze()
        for job in jobs.make_block(workload, seed, block):
            job = reference.prepare(workload, job, refs)
            if tracer is not None:
                tracer.job = len(records)
            rec = run_one(workload, job, tmp, refs, tracer)
            busy += rec.seconds
            records.append(rec)
        block += 1
    return records, block


def measure_setup(workload, seed, refs, tmp) -> float:
    """Median time for a fresh interpreter to import wrightlens and finish
    the workload's first job; inputs are generated beforehand."""
    import jobs
    import reference

    job = reference.prepare(workload, jobs.make_block(workload, seed, 0)[0], refs)
    if workload == "cli":
        cmd = [sys.executable, "-m", "wrightlens.cli"] + jobs.cli_argv(job, tmp)
        env = jobs.cli_env(job)
    else:
        spec = tmp / "first_job.json"
        spec.write_text(json.dumps(job))
        cmd = [sys.executable, str(ROOT / "perfbench" / "first_job.py"), workload, str(spec)]
        env = None
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if workload != "cli" and proc.returncode != 0:
            raise RuntimeError("first-job process failed:\n" + proc.stderr.decode()[-2000:])
    return statistics.median(times)


def measure_imports() -> tuple[float, float]:
    """Median (numpy import, wrightlens.cli import) seconds in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    numpy_s, total_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        a, b = (float(x) for x in proc.stdout.split())
        numpy_s.append(a)
        total_s.append(b)
    return statistics.median(numpy_s), statistics.median(total_s)


def environment(seed: int) -> dict:
    import mpmath

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
        "load": "closed loop, one caller, one process",
    }


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summarize(records) -> dict:
    failures = Counter(r.error for r in records if r.error)
    examples = {}
    for r in records:
        if r.error and r.error not in examples:
            examples[r.error] = r.detail
    by_check = {}
    for r in records:
        for name, value in r.errors.items():
            by_check[name] = max(by_check.get(name, 0.0), value)
    by_kind = {}
    for kind in sorted({r.kind for r in records}):
        mine = [r for r in records if r.kind == kind]
        by_kind[kind] = {
            "jobs": len(mine),
            "failed": sum(bool(r.error) for r in mine),
            "p50_ms": _percentile([r.seconds * 1e3 for r in mine], 50),
        }
    return {
        "attempted": len(records),
        "failed": sum(bool(r.error) for r in records),
        "wrong": [r.wrong for r in records if r.wrong][:10],
        "failures_by_class": dict(failures),
        "failure_examples": examples,
        "max_rel_err": max(by_check.values(), default=0.0),
        "max_rel_err_by_check": by_check,
        "truncation_warnings": sum(r.truncation_warnings for r in records),
        "by_kind": by_kind,
    }


def timed_run(workload, seed, seconds, blocks, refs, tmp):
    import jobs
    import reference

    setup_s = measure_setup(workload, seed, refs, tmp)
    # Warm-up: one untimed job, so lazy first-call costs stay out of the loop.
    run_one(workload, reference.prepare(workload, jobs.make_block(workload, seed, 0)[0], refs),
            tmp, refs)
    records, n_blocks = run_blocks(workload, seed, refs, tmp, blocks=blocks, seconds=seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    ok = sum(r.error is None for r in records)
    latency_ms = [r.seconds * 1e3 for r in records]
    # Blocks hold the same job mix, so per-block figures are comparable.  On
    # a shared machine the speed switches between a contended state and
    # faster ones for seconds to minutes at a time.  Taking each figure per
    # block, and then the value that 90 % of blocks reach, tracks the
    # contended state however much of a run the faster ones cover, while a
    # change in the program's speed moves every block alike.
    rates, p50s, p90s = [], [], []
    for block in range(n_blocks):
        mine = [r for r in records if r.block == block]
        rates.append(sum(r.error is None for r in mine) / sum(r.seconds for r in mine))
        p50s.append(_percentile([r.seconds * 1e3 for r in mine], 50))
        p90s.append(_percentile([r.seconds * 1e3 for r in mine], 90))
    metrics = {
        "jobs_per_s": _percentile(rates, 100 - BLOCK_PERCENTILE),
        "job_p50_ms": _percentile(p50s, BLOCK_PERCENTILE),
        "job_p90_ms": _percentile(p90s, BLOCK_PERCENTILE),
        "ok_frac": ok / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    summary = summarize(records)
    extra = {"blocks": n_blocks, "jobs_per_block": len(records) // n_blocks,
             "block_rates": rates, "block_p50_ms": p50s, "block_p90_ms": p90s,
             "timed_job_seconds": sum(r.seconds for r in records),
             "job_ms": latency_ms, "job_block": [r.block for r in records]}
    return records, metrics, dict(summary, **extra)


def traced_run(workload, seed, blocks, refs, tmp, spans_path):
    from spans import LAYERS, Tracer

    n_blocks = blocks if blocks is not None else TRACE_BLOCKS[workload]
    untraced, _ = run_blocks(workload, seed, refs, tmp, blocks=n_blocks)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_blocks(workload, seed, refs, tmp, blocks=n_blocks, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    def layer_self(layer):
        return sum(t for name, (_, t) in spans.items() if name.startswith(layer + "."))

    numpy_s, import_s = measure_imports()
    if workload == "cli":
        base = sum(r.inprocess_s for r in untraced)
        overhead = sum(r.inprocess_s for r in traced) / base - 1.0
        process_overhead = 1.0 - base / sum(r.seconds for r in untraced)
    else:
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0
        process_overhead = 0.0
    phi_calls = calls("special.phi_values")
    solves_run = tracer.counts["radii.solves_run"]
    summary = summarize(traced)
    metrics = {
        "special.phi_values.calls": phi_calls,
        "special.phi_values.coeffs": tracer.counts["special.phi_values.coeffs"],
        "special.phi_values.self_s": self_s("special.phi_values"),
        "special.phi_values.unique_ratio": len(tracer.phi_keys) / phi_calls if phi_calls else 0.0,
        "laurent.evaluate.calls": calls("laurent.evaluate"),
        "laurent.evaluate.points": tracer.counts["laurent.evaluate.points"],
        "laurent.evaluate.self_s": self_s("laurent.evaluate"),
        "laurent.hadamard.calls": calls("laurent.hadamard"),
        "laurent.hadamard.self_s": self_s("laurent.hadamard"),
        "laurent.csv.self_s": self_s("laurent.read_coefficient_csv",
                                     "laurent.write_coefficient_csv"),
        "bounds.operator_weights.calls": calls("bounds.operator_weights"),
        "membership.convolution_kernel.calls": calls("membership.convolution_kernel"),
        "membership.tau_transform.calls": calls("membership.tau_transform"),
        "radii.solve_radius.calls": calls("radii.solve_radius"),
        "radii.constraint_sum.calls": calls("radii.constraint_sum"),
        # Solves returned over bisections run; failed solves return nothing.
        "radii.bisect_useful_ratio": (
            (calls("radii.solve_radius") - sum(n for (layer, _), n in tracer.errors.items()
                                                if layer == "radii")) / solves_run
            if solves_run else 0.0),
        "radii.predicate.self_s": self_s("radii.starlike_predicate", "radii.convex_predicate"),
        "cli.import_s": import_s,
        "cli.import_numpy_s": numpy_s,
        "cli.main.self_s": self_s("cli.main"),
        "cli.process_overhead_frac": process_overhead,
        "warnings.leaked": sum(r.runtime_warnings for r in traced),
        "trace_overhead_frac": overhead,
        "max_rel_err": summary["max_rel_err"],
        "fail_frac": summary["failed"] / summary["attempted"],
    }
    for name in ("bounds.series_identity_oracle", "bounds.extraction_residuals",
                 "bounds.bound_sequence_closed", "bounds.bound_sequence_recursive",
                 "bounds.coefficient_bound_check", "bounds.operator_weights",
                 "membership.schwarz_generate", "membership.caratheodory_series",
                 "membership.convolution_scan", "membership.membership_check",
                 "membership.sufficiency_predicate", "radii.solve_radius"):
        metrics[name + ".self_s"] = self_s(name)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = layer_self(layer)
        metrics[layer + ".errors"] = sum(n for (where, _), n in tracer.errors.items()
                                         if where == layer)
    # The CLI turns exceptions into exit codes, so its own errors are the
    # in-process runs that returned non-zero.
    metrics["cli.errors"] = sum(r.inprocess_code != 0 for r in traced)
    extra = {
        "blocks": n_blocks,
        "errors_by_layer": {f"{layer}.{cls}": n for (layer, cls), n in tracer.errors.items()},
        "span_count": len(tracer.ends),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_wrong": [r.wrong for r in untraced if r.wrong][:10],
    }
    return untraced + traced, metrics, dict(summary, **extra)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=None,
                        help="run exactly this many blocks (smoke tests use 1)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or (args.blocks is not None and args.blocks < 1):
        parser.error("--seconds and --blocks must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wrightlens" / "__init__.py").is_file():
        print(f"error: {SRC / 'wrightlens'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{stem}-{os.getpid()}"
    tmp.mkdir()
    refs = reference.References()
    try:
        if args.trace:
            records, metrics, summary = traced_run(
                args.workload, args.seed, args.blocks, refs, tmp, OUT / f"{stem}-spans.npz")
            units = PER_LAYER
        else:
            records, metrics, summary = timed_run(
                args.workload, args.seed, args.seconds, args.blocks, refs, tmp)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = not any(r.wrong for r in records)
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), **summary, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
