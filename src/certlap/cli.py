"""Command-line front end: run N-sweeps of the certified checks and emit
machine-readable reports.

Subcommands
-----------
run       execute selected checks for one problem over an N-sweep; writes
          ``<output>/report.json`` and ``<output>/convergence.csv``.
list      print the catalog (name, dimension, maximum type, closed form).
plotdata  convert a report.json into log-log columns for external plotting.

Exit status: 0 all soundness assertions passed; 1 at least one failed;
2 configuration/parse error, nothing written: an unreadable config file, an
unknown problem or check, a key that a run config, an inline definition,
a field definition, a polynomial term or epsilon does not have, a malformed
inline problem (domain of dimension at most 4, field and its numeric
values, polynomial powers nonnegative integers, neighborhood inside the
domain, epsilon a definition with a negative exponent and a nonnegative
scale, classify_grid_res at least 8), an integer setting (an N of the
sweep, grid_res, seed, sample_count, classify_grid_res, n_zero) that is not
a JSON integer, a float setting (tol, safety_factor) that is not a JSON
number (a bool or a string is neither), a run setting that does not parse (a
non-integer N in --n-sweep), or one out of range (N-sweep not increasing or
not above the problem's n_zero, grid_res < 16, safety_factor < 1,
tol < 1e-14, sample_count < 1, seed < 0, or sample_count < 100 with the
fluctuations check), an output_path that is not a nonempty string free of
NUL or whose directory cannot be made (its nearest existing ancestor is not
a writable directory), checked before any work, or, for plotdata, a
malformed report (not UTF-8 JSON, no checks object, or a row without a
number it reads) or an output whose directory does not exist, which
writes no CSV;
3 an assumption violation (a certified constant or structural hypothesis
failed, named in the message); a requested check's hypotheses that the
spec alone decides (Proposition 1's eps(N) sqrt(N) nonincreasing, when
preposition1 runs at an interior maximum) are checked before any check
runs, so a problem that breaks one reports that violation, with nothing
written, even where another check would have raised a different error
first; 4 numerical budget exhaustion.

``run`` takes ten flags: ``--config FILE`` (JSON) and one per RunConfig
field in kebab case, ``--problem``, ``--n-sweep``, ``--grid-res``,
``--tol``, ``--safety-factor``, ``--seed``, ``--checks``,
``--output-path`` and ``--sample-count``.  The file overrides built-in
defaults, and explicit flags override the file.  The environment variable
CERTLAP_OUTPUT_DIR supplies the default output directory.  The KS
threshold of the fluctuations check is the constant
``gibbs.KS_THRESHOLD``.

Problem config grammar (JSON)
-----------------------------
Either a catalog name::

    {"problem": "gauss1d"}

or an inline definition::

    {"problem": {
        "name": "demo",
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "f": {"type": "polynomial",
               "terms": [{"coeff": -0.5, "powers": [2]}]},
        "g": {"type": "constant", "value": 1.0},           # optional
        "sigma": {"type": "polynomial", "terms": [...]},   # optional
        "epsilon": {"class": "power", "exponent": -0.75},  # optional
        "neighborhood": {"lower": [-0.5], "upper": [0.5]}  # optional
    }}

Each field is a definition with a ``type``: ``polynomial`` (terms with
``coeff`` and per-axis nonnegative integer ``powers``), ``exponential``
(``scale * exp(linear . x + offset)``), ``constant``.  Two more optional
keys: ``classify_grid_res`` (the classification grid per axis, default 64,
at least 8) and ``n_zero`` (a floor for the admissible threshold); a
definition has no other key, and a field, polynomial term or epsilon
definition none but its own (``type`` and ``value``; ``type`` and
``terms``, each ``coeff`` and ``powers``; ``type``, ``linear``, ``scale``
and ``offset``; ``class``, ``scale`` and ``exponent``).  The maximum is
classified automatically, on the given neighborhood when there is one.
Every catalog entry is such a definition (``certlap.catalog``), so each is
a template for an inline problem.

Report schema
-------------
``report.json`` keys: config, problem, n_zero, maximum_kind, checks{...},
passed, status.  ``convergence.csv`` header (bit-exact)::

    N,leading,oracle,abs_error,remainder_magnitude,bound_ok,mgf_x_residual,mgf_y_residual,ks_stat

``plotdata`` emits natural-log columns::

    log_n,log_rel_error,log_rel_remainder,log_mgf_x_residual,log_mgf_y_residual
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .catalog import catalog
from .config import (KNOWN_CHECKS, RunConfig, load_json, problem_from_config, strict_json,
                     writable_dir)
from .constants import audit_constants, estimate_constants
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DefinitenessError,
    QuadratureBudgetError,
    ToolkitError,
)
from .gibbs import (
    KS_THRESHOLD,
    RESIDUAL_FLOOR,
    empirical_limit_test,
    fluctuation_verdict,
    gibbs_measure,
    measure_of,
    mgf_X,
    mgf_Y,
    require_proposition1,
    sample,
    tilted_maximizer_check,
)
from .grammar import json_float, json_int
from .laplace import approximate
from .oracle import integrate
from .problems import INTERIOR, UNIT_WEIGHT, BoxDomain, limit_axes

CSV_HEADER = [
    "N", "leading", "oracle", "abs_error", "remainder_magnitude", "bound_ok",
    "mgf_x_residual", "mgf_y_residual", "ks_stat",
]
PLOT_HEADER = [
    "log_n", "log_rel_error", "log_rel_remainder",
    "log_mgf_x_residual", "log_mgf_y_residual",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _tilt(spec, interior: float, boundary: float) -> np.ndarray:
    """xi with ``interior`` on the first axis of an interior problem, or
    ``boundary`` on the exponential axis."""
    axis, _, _ = limit_axes(spec)
    xi = np.zeros(spec.dimension)
    xi[axis or 0] = interior if axis is None else boundary
    return xi


def _check_laplace(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    out = []
    all_ok = True
    for n in sweep:
        res = approximate(spec, consts, n)
        orc = (measure(n).normalizer if spec.g is UNIT_WEIGHT  # with g = 1 it is Z(N)
               else integrate(spec, n, tol=config.tol))
        ok = res.contains_oracle(orc)
        all_ok &= ok
        d = asdict(res)
        d["oracle"] = orc.value
        d["oracle_error_estimate"] = orc.abs_error_estimate
        d["bound_ok"] = ok
        out.append(d)
    return {"rows": out, "all_bounds_ok": all_ok}, all_ok


def _check_constants(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    audit = audit_constants(spec, consts, seed=config.seed)
    return audit, audit["ok"]


def _check_lln(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    xi = _tilt(spec, 0.5, 0.5)
    out = []
    residuals = []
    for n in sweep:
        rep = mgf_X(measure(n), xi)
        residuals.append(rep.residual)
        out.append(asdict(rep))
    decay_ok = all(
        b <= a * (1 + 1e-9) + RESIDUAL_FLOOR for a, b in zip(residuals, residuals[1:])
    )
    ratios = [r / max(x.get("expected_decay", 1.0), 1e-300) for r, x in zip(residuals, out)]
    span = max(ratios) / max(min(ratios), 1e-300) if ratios else 1.0
    block = {"rows": out, "residual_nonincreasing": decay_ok, "tracking_span": span}
    return block, decay_ok


def _check_fluctuations(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    xi = _tilt(spec, 1.0, 0.5)  # clear of the exponential pole at xi_1 = rate
    out = []
    reports = []
    ks_all_ok = True
    # mgf_Y then sample at each N, so a sampler failure stops the sweep at
    # the first N instead of after every normaliser and MGF
    for n in sweep:
        rep = mgf_Y(measure(n), xi)
        reports.append(rep)
        entry = asdict(rep)
        draws = batch(n)
        ks = empirical_limit_test(draws)
        entry["ks"] = ks
        entry["acceptance_rate"] = draws.acceptance_rate
        ks_all_ok &= ks["max_ks"] <= KS_THRESHOLD
        out.append(entry)
    verdict = fluctuation_verdict(reports)
    # a flagged hypothesis violation is a detection, not a failure; residuals
    # that refuse to decay although the schedule claims they should are a
    # soundness failure; otherwise the KS tests decide
    ok = verdict["hypothesis_violated"] if verdict["flagged"] else ks_all_ok
    return {"rows": out, **verdict, "ks_all_ok": ks_all_ok}, ok


def _check_preposition1(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    if spec.maximum.kind != INTERIOR:
        return {"skipped": "boundary maximum"}, True
    tbl = tilted_maximizer_check(spec, np.ones(spec.dimension), sweep)
    first = tbl[0]
    ok = all(
        r[k] <= 3.0 * first[k] + 1e-9
        for r in tbl
        for k in ("stat_drift", "stat_value", "stat_det")
    )
    return {"rows": tbl, "bounded": ok}, ok


def _check_sampler(spec, consts, config, sweep, measure, batch) -> tuple[dict, bool]:
    n = sweep[-1]
    audit = _sampler_audit(measure(n), batch(n), seed=config.seed)
    return audit, audit["ok"]


# one entry per name in KNOWN_CHECKS, run in that order; each takes
# (spec, consts, config, sweep, measure, batch), where measure(N) is the
# run's Gibbs measure at N and batch(N) its batch of sample_count draws
# from it
CHECKS = {
    "laplace": _check_laplace,
    "constants": _check_constants,
    "lln": _check_lln,
    "fluctuations": _check_fluctuations,
    "preposition1": _check_preposition1,
    "sampler": _check_sampler,
}


def run_checks(config: RunConfig) -> tuple[int, dict]:
    """Execute the configured checks; returns (status, report dict)."""
    config.validate()
    spec = problem_from_config(config.problem)
    sweep = tuple(int(n) for n in config.n_sweep)
    settings = asdict(config)
    del settings["output_path"]
    report: dict = {
        "config": {
            **settings,
            "problem": config.problem if isinstance(config.problem, str) else "inline",
            "n_sweep": list(sweep),
            "ks_threshold": KS_THRESHOLD,
        },
        "problem": spec.name,
        "n_zero": spec.n_zero,
        "maximum_kind": spec.maximum.kind,
        "checks": {},
    }
    if sweep[0] <= spec.n_zero:
        raise ConfigError(f"every sweep N must exceed n_zero={spec.n_zero}")
    # a requested check's hypotheses that the spec alone decides are checked
    # before any check does work
    if "preposition1" in config.checks and spec.maximum.kind == INTERIOR:
        require_proposition1(spec)
    consts = estimate_constants(
        spec, grid_res=config.grid_res, n_sweep=sweep, safety_factor=config.safety_factor
    )
    report["constants"] = asdict(consts)

    # the run owns the Gibbs measures of its sweep and the sample batches
    # drawn from them: each normaliser Z(N) and each N's batch is computed
    # once, by the first check that asks for it
    measure = functools.cache(lambda n: gibbs_measure(spec, n, tol=config.tol))
    batch = functools.cache(
        lambda n: sample(measure(n), config.sample_count, seed=config.seed, consts=consts)
    )

    passed = True
    try:
        for name in KNOWN_CHECKS:
            if name in config.checks:
                report["checks"][name], ok = CHECKS[name](
                    spec, consts, config, sweep, measure, batch)
                passed &= ok
    finally:
        # an error raised by a check keeps this frame alive in its traceback
        # as long as the error is held: the run's measures and batches end
        # with the run, not with the error
        measure.cache_clear()
        batch.cache_clear()
    report["passed"] = bool(passed)
    report["status"] = 0 if passed else 1
    return report["status"], report


def _sampler_audit(meas, batch, seed: int) -> dict:
    """Empirical box probabilities vs the quadrature measure on ten random
    boxes, within five standard errors."""
    spec = meas.spec
    rng = np.random.default_rng([seed, 104729])
    z = spec.domain.to_box(batch.draws)
    n = batch.count
    rows = []
    ok = True
    # the spread from the row-major draws, whose axis-0 summation order sets
    # the boxes' last bits; membership from one contiguous row per axis
    sd = np.maximum(np.std(z, axis=0), 1e-3 * spec.domain.edges)
    cols = np.ascontiguousarray(z.T)
    z_star = spec.z_star_of_N(meas.N)
    for _ in range(10):
        half = rng.uniform(0.5, 3.0, size=spec.dimension) * sd
        center = z_star + rng.uniform(-1.0, 1.0, size=spec.dimension) * sd
        lo = np.maximum(spec.domain.lower, center - half)
        hi = np.minimum(spec.domain.upper, center + half)
        if np.any(hi - lo <= 0):
            continue
        box = BoxDomain(lo, hi, spec.domain.rotation)
        p = measure_of(meas, box)
        emp = float(np.mean(box.contains_columns(cols)))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        good = abs(emp - p) <= 5.0 * se + 1e-9
        ok &= good
        rows.append({"p_oracle": p, "p_empirical": emp, "se": se, "ok": good})
    return {
        "ok": bool(ok),
        "acceptance_rate": batch.acceptance_rate,
        "boxes": rows,
        "count": n,
    }


def _per_n_columns(checks: dict) -> dict[int, dict]:
    """Per-N values of the convergence columns, read from a report's
    ``checks`` block; shared by the CSV and plotdata writers."""
    per_n: dict[int, dict] = {}
    for r in checks.get("laplace", {}).get("rows", []):
        # a written report has null where a value was not finite
        known = r["oracle"] is not None and r["leading"] is not None
        per_n.setdefault(int(r["N"]), {}).update(
            leading=r["leading"], oracle=r["oracle"],
            abs_error=abs(r["oracle"] - r["leading"]) if known else None,
            remainder_magnitude=r["remainder_magnitude"], bound_ok=r["bound_ok"],
        )
    for r in checks.get("lln", {}).get("rows", []):
        per_n.setdefault(int(r["N"]), {})["mgf_x_residual"] = r["residual"]
    for r in checks.get("fluctuations", {}).get("rows", []):
        row = per_n.setdefault(int(r["N"]), {})
        row["mgf_y_residual"] = r["residual"]
        if "ks" in r:
            row["ks_stat"] = r["ks"]["max_ks"]
    return per_n


def write_outputs(report: dict, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "convergence.csv")
    with open(report_path, "w") as fh:
        # one write, where json.dump writes once per encoder chunk
        text = json.dumps(strict_json(report), indent=2, sort_keys=True, allow_nan=False)
        fh.write(text + "\n")
    per_n = _per_n_columns(report.get("checks", {}))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for n in report["config"]["n_sweep"]:
            row = per_n.get(int(n), {})
            writer.writerow([str(int(n))] + [_fmt(row.get(k)) for k in CSV_HEADER[1:]])
    return report_path, csv_path


def emit_convergence_plotdata(report_path: str, out_path: str | None = None) -> str:
    """log-log columns (natural logarithm) for external plotting; empty
    report produces a header-only CSV.  Every row is formed before the
    output is opened, so a malformed report is a ConfigError that writes
    nothing; so is an output whose directory is not an existing writable
    directory."""
    if out_path is None:
        out_path = os.path.join(os.path.dirname(report_path) or ".", "plotdata.csv")
    if not writable_dir(os.path.dirname(out_path) or ".") or os.path.isdir(out_path):
        raise ConfigError(f"cannot write plotdata to {out_path!r}: its directory does not "
                          "exist or is not writable, or it is a directory")

    def _log(v):
        if v is None:
            return ""
        v = float(v)
        return _fmt(math.log(v)) if v > 0 else ""

    def _rel(v, ref):
        return v / abs(ref) if v is not None and ref else None

    try:
        with open(report_path) as fh:
            per_n = _per_n_columns(json.load(fh)["checks"])
        rows = [
            [
                _fmt(math.log(n)),
                _log(_rel(d.get("abs_error"), d.get("oracle"))),
                _log(_rel(d.get("remainder_magnitude"), d.get("leading"))),
                _log(d.get("mgf_x_residual")),
                _log(d.get("mgf_y_residual")),
            ]
            for n, d in sorted(per_n.items())
        ]
    except (OSError, ValueError, TypeError, LookupError, AttributeError, ArithmeticError,
            RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"malformed report {report_path!r}: {exc}") from exc
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLOT_HEADER)
        writer.writerows(rows)
    return out_path


def list_problems() -> str:
    lines = [f"{'name':<12} {'dim':>3} {'maximum':<12} {'closed form':<11}"]
    for spec in catalog():
        lines.append(
            f"{spec.name:<12} {spec.dimension:>3} {spec.maximum.kind:<12} "
            f"{'yes' if spec.exact_integral else 'oracle':<11}"
        )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="certlap", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run checks for one problem over an N-sweep")
    runp.add_argument("--config", help="JSON config file (flags override it)")
    runp.add_argument("--problem", help="catalog problem name")
    runp.add_argument("--n-sweep", help="comma-separated increasing N values")
    runp.add_argument("--grid-res", type=int)
    runp.add_argument("--tol", type=float)
    runp.add_argument("--safety-factor", type=float)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--checks", help=f"comma-separated subset of {','.join(KNOWN_CHECKS)}")
    runp.add_argument("--output-path", help="output directory (default: CERTLAP_OUTPUT_DIR or .)")
    runp.add_argument("--sample-count", type=int)

    sub.add_parser("list", help="list catalog problems")

    plotp = sub.add_parser("plotdata", help="emit log-log convergence columns from a report")
    plotp.add_argument("report", help="path to a report.json produced by run")
    plotp.add_argument("--output", help="output CSV path")
    return p


# coercions for the RunConfig fields besides the problem, the settings a
# config file or flag may give; an integer one must be an integer, which a
# flag gives as a decimal string
_RUN_FIELD_TYPES = {
    "n_sweep": lambda v: tuple(json_int(n, "each N of n_sweep") for n in v),
    "grid_res": lambda v: json_int(v, "grid_res"),
    "tol": lambda v: json_float(v, "tol"),
    "safety_factor": lambda v: json_float(v, "safety_factor"),
    "seed": lambda v: json_int(v, "seed"),
    "checks": tuple,
    "output_path": lambda v: v,  # RunConfig.validate checks it
    "sample_count": lambda v: json_int(v, "sample_count"),
}


def _config_from_args(args) -> RunConfig:
    """The run's RunConfig: the config file's settings, overridden by the
    flags given.  ``run_checks`` validates it before anything is written."""
    merged = load_json(args.config) if args.config else {}
    known = ("problem", *_RUN_FIELD_TYPES)
    unknown = sorted(set(merged) - set(known))
    if unknown:
        raise ConfigError(f"unknown run settings {unknown}; known: {list(known)}")
    flags = {k: getattr(args, k) for k in known if getattr(args, k) is not None}
    merged.update(flags)
    merged.setdefault("output_path", os.environ.get("CERTLAP_OUTPUT_DIR", "."))
    if "problem" not in merged:
        raise ConfigError("a problem is required (--problem or config file)")
    try:
        # comma-separated lists as flags
        if "n_sweep" in flags:
            merged["n_sweep"] = [int(t) for t in flags["n_sweep"].split(",") if t.strip()]
        if "checks" in flags:
            merged["checks"] = [t.strip() for t in flags["checks"].split(",") if t.strip()]
        given = {k: conv(merged[k]) for k, conv in _RUN_FIELD_TYPES.items() if k in merged}
        return RunConfig(problem=merged["problem"], **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            print(list_problems())
            return 0
        if args.command == "plotdata":
            out = emit_convergence_plotdata(args.report, args.output)
            print(out)
            return 0
        cfg = _config_from_args(args)
        status, report = run_checks(cfg)
        report_path, csv_path = write_outputs(report, cfg.output_path)
        print(f"report: {report_path}")
        print(f"convergence table: {csv_path}")
        print("PASS" if status == 0 else "FAIL")
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolationError, DefinitenessError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except QuadratureBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
