"""certlap benchmark: sequential ``certlap run`` sweeps through the public
entry points ``cli.run_checks`` and ``cli.write_outputs``.

    python3 perfbench/run.py --workload catalog3d --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; certlap is imported from the
checkout's ``src/`` and from nowhere else.  With ``--trace 0`` the run
measures set-up and untraced passes and reports the end-to-end metrics of
BENCHMARK.json, its times scaled to a reference machine speed sampled
while the run goes on (speed.py); with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, with provenance,
failures and the span table, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import speed
import tracing
from workloads import RUN_CONFIG, WORKLOADS, problem_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS / OpenMP pools a numpy or scipy build may start
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# set-up probes before the passes and as many after, so that their median
# does not rest on one phase of a machine whose speed drifts
SETUP_REPEATS = 3
ORACLE_REL_TOL = 1e-13
# report.json blocks that hold timings or environment, left out of digests
NON_RESULT_KEYS = frozenset({"work", "provenance"})


@dataclass
class Outcome:
    """One problem run of one pass."""

    problem: str
    status: Optional[int]  # run_checks status; None when the run raised
    error: Optional[str] = None  # "ExceptionClass: message" when it raised
    flags: Optional[dict] = None  # the checks' boolean verdict fields
    digest: str = ""
    enclosure_misses: int = 0
    oracle_misses: int = 0
    worst_oracle_rel_err: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status != 0


@dataclass
class Pass:
    sweep_s: float  # wall time
    scaled_s: float  # wall time less the speed kernel's, at reference speed
    outcomes: list[Outcome]
    spans: Optional[list] = None  # set on traced passes

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(o.digest for o in self.outcomes).encode()).hexdigest()


def pin_thread_pools() -> None:
    """One BLAS/OpenMP thread (never more than nproc): the sweep is
    sequential, and one thread keeps timings steady on a shared machine.
    Must run before numpy is imported; set-up probes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_certlap():
    """Import certlap from this checkout; returns (package, import seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import certlap
    import certlap.cli  # noqa: F401  (run_checks and write_outputs)

    import_s = time.perf_counter() - t0
    if SRC.resolve() not in Path(certlap.__file__).resolve().parents:
        raise ImportError(f"certlap was imported from {certlap.__file__}, not from {SRC}")
    return certlap, import_s


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(certlap) -> dict:
    import numpy
    import scipy

    return {
        "certlap": certlap.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall seconds of fresh interpreters that import certlap and build every
    ProblemSpec of the workload."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in NON_RESULT_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def judge(name: str, status: Optional[int], exc: Optional[BaseException], exact) -> Outcome:
    """Digest and correctness gates of one problem run, from the files it
    wrote (or from the exception it raised)."""
    if exc is not None:
        error = f"{type(exc).__name__}: {exc}"
        return Outcome(name, None, error, hashlib.sha256(f"{name}|{error}".encode()).hexdigest())
    out_dir = OUT / "reports" / name
    report = json.loads((out_dir / "report.json").read_text())
    h = hashlib.sha256(json.dumps(_strip(report), sort_keys=True).encode())
    h.update((out_dir / "convergence.csv").read_bytes())
    checks = report.get("checks", {})
    flags = {
        f"{check}.{key}": value
        for check, block in checks.items() if isinstance(block, dict)
        for key, value in block.items() if isinstance(value, bool)
    }
    outcome = Outcome(name, status, digest=h.hexdigest(), flags=flags)
    closed_form = exact.get(name)
    for row in checks.get("laplace", {}).get("rows", []):
        outcome.enclosure_misses += not row["bound_ok"]
        if closed_form is not None:
            ref = closed_form(int(row["N"]))
            rel = abs(row["oracle"] - ref) / abs(ref)
            outcome.worst_oracle_rel_err = max(outcome.worst_oracle_rel_err, rel)
            outcome.oracle_misses += rel > ORACLE_REL_TOL
    return outcome


def run_pass(problems, config: dict, seed: int, exact, meter: speed.Speedometer) -> Pass:
    """One pass: every problem through run_checks and write_outputs, in order.
    A problem that raises is recorded and the pass goes on."""
    from certlap import cli
    from certlap.config import RunConfig

    runs = []
    first = meter.mark()
    t0 = time.perf_counter()
    for problem in problems:
        name = problem_name(problem)
        out_dir = str(OUT / "reports" / name)
        cfg = RunConfig(problem=problem, seed=seed, output_path=out_dir, **config)
        try:
            status, report = cli.run_checks(cfg)
            cli.write_outputs(report, out_dir)
        except Exception as exc:  # noqa: BLE001  a failing run is a result
            runs.append((name, None, exc))
        else:
            runs.append((name, status, None))
    sweep_s = time.perf_counter() - t0
    scaled_s = meter.scale(sweep_s, first, meter.mark())
    # each problem writes to its own directory, so the files outlive the loop
    outcomes = [judge(name, status, exc, exact) for name, status, exc in runs]
    return Pass(sweep_s, scaled_s, outcomes)


def run_passes(problems, config: dict, seed: int, seconds: float, trace: bool, exact,
               meter: speed.Speedometer):
    """Passes until the next would end after ``seconds``; at least one.  With
    ``trace`` each round is an untraced pass and then a traced one."""
    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(problems, config, seed, exact, meter))
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                p = run_pass(problems, config, seed, exact, meter)
            p.spans = tracer.spans
            traced.append(p)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return untraced, traced


def end_to_end(untraced: list[Pass], setup_times: list[float], run_speed: float) -> dict:
    """Times at reference speed.  A set-up probe runs in another process and
    lasts under a second, too few samples for a speed of its own, so the
    median probe is scaled by ``run_speed``, the speed over the passes."""
    runs = [o for p in untraced for o in p.outcomes]
    return {
        "sweep_s": statistics.median(p.scaled_s for p in untraced),
        "setup_s": statistics.median(setup_times) * run_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs_completed_frac": sum(o.error is None for o in runs) / len(runs),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [tracing.layer_metrics(p.spans, p.sweep_s) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.scaled_s for p in traced)
        / statistics.median(p.scaled_s for p in untraced) - 1.0
    )
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(metrics: dict, units: dict[str, str], passes: list[Pass]) -> dict:
    """The final JSON object.  Correct when no enclosure or oracle gate
    missed and every pass of the run, traced or not, gave the same digest."""
    if set(metrics) != set(units):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    runs = [o for p in passes for o in p.outcomes]
    correct = len({p.digest for p in passes}) == 1 and not any(
        o.enclosure_misses or o.oracle_misses for o in runs
    )
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(o.failed for o in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def summary(result: dict, untraced: list[Pass], traced: list[Pass], setup_times, import_s,
            run_speed: float) -> list[str]:
    """Human-readable lines printed before the result."""
    runs = [o for p in untraced + traced for o in p.outcomes]
    lines = [
        f"passes: {len(untraced)} untraced, {len(traced)} traced; "
        f"untraced wall s per pass {[round(p.sweep_s, 4) for p in untraced]}, "
        f"at reference speed {[round(p.scaled_s, 4) for p in untraced]}"
        + (f"; traced wall s {[round(p.sweep_s, 4) for p in traced]}, "
           f"at reference speed {[round(p.scaled_s, 4) for p in traced]}" if traced else ""),
    ]
    lines.append(f"machine speed over the passes {run_speed:.4f} of reference")
    if setup_times:
        lines.append(f"set-up wall s per probe {[round(t, 4) for t in setup_times]}")
    for name, m in result["metrics"].items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    worst = max((o.worst_oracle_rel_err for o in runs), default=0.0)
    lines.append(
        f"gate enclosure_misses = {sum(o.enclosure_misses for o in runs)}, "
        f"oracle_misses = {sum(o.oracle_misses for o in runs)} "
        f"(worst closed-form relative error {worst:.3g}, limit {ORACLE_REL_TOL:g}), "
        f"distinct pass digests = {len({p.digest for p in untraced + traced})}"
    )
    lines.append(
        f"runs_failed_frac = {result['failed'] / result['attempted']:.4g} "
        f"({result['failed']} of {result['attempted']} problem runs)"
    )
    reasons = {
        (o.problem, o.error or f"status {o.status}; " + ", ".join(f"{k}={v}" for k, v in o.flags.items()))
        for o in runs if o.failed
    }
    lines += [f"failed {problem}: {why}" for problem, why in sorted(reasons)]
    if traced:
        table = tracing.span_table(traced[0].spans)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"span {name}: calls {row['calls']}, s {row['s']:.4f}, self_s {row['self_s']:.4f}"
            )
        accounted = sum(row["self_s"] for row in table.values())
        lines.append(
            f"self times of all spans {accounted:.4f} s of traced sweep {traced[0].sweep_s:.4f} s; "
            f"unaccounted {traced[0].sweep_s - accounted:.4f} s"
        )
        lines.append(
            f"note: catalog.get_problem.s and config.problem_from_config.s are dwarfed by "
            f"the import of certlap ({import_s:.3f} s in this process), which setup_s includes"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_thread_pools()
    try:
        certlap, import_s = import_certlap()
    except ImportError as exc:
        print(f"perfbench: cannot import certlap from {SRC}: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared_units("per_layer" if trace else "end_to_end")
    exact = {s.name: s.exact_integral for s in certlap.catalog() if s.exact_integral}

    # the meter samples the passes only: while a set-up probe runs, the
    # kernel would share the host's cores with it
    meter = speed.Speedometer()
    setup_times = [] if trace else measure_setup(args.workload)
    with meter:
        untraced, traced = run_passes(
            WORKLOADS[args.workload], RUN_CONFIG, args.seed, args.seconds, trace, exact, meter
        )
    if not trace:
        setup_times += measure_setup(args.workload)
    run_speed = meter.speed()
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setup_times, run_speed)
    result = result_line(metrics, units, untraced + traced)

    prov = provenance(certlap)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args),
        "provenance": prov,
        "import_s": import_s,
        "setup_s": setup_times,
        "run_speed": run_speed,
        "speed_samples_s": meter.samples,
        "passes": [
            {"traced": p.spans is not None, "sweep_s": p.sweep_s, "scaled_s": p.scaled_s,
             "digest": p.digest,
             "outcomes": [asdict(o) for o in p.outcomes]}
            for p in untraced + traced
        ],
        "spans": {
            name: {k: v for k, v in row.items() if k != "durations"}
            for name, row in tracing.span_table(traced[0].spans).items()
        } if traced else {},
        "result": result,
    }, indent=1))
    print(f"provenance {json.dumps(prov)}")
    for line in summary(result, untraced, traced, setup_times, import_s, run_speed):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
