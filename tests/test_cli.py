import csv
import json
import math

import numpy as np
import pytest

import certlap.cli
import certlap.gibbs
from certlap.cli import (
    CHECKS,
    CSV_HEADER,
    PLOT_HEADER,
    emit_convergence_plotdata,
    list_problems,
    main,
    run_checks,
    write_outputs,
)
from certlap.config import KNOWN_CHECKS, RunConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_gauss1d_laplace_pipeline(self, tmp_path):
        code = main([
            "run", "--problem", "gauss1d", "--checks", "laplace",
            "--n-sweep", "25,100,400,1600", "--output-path", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5
        bound_col = CSV_HEADER.index("bound_ok")
        assert all(r[bound_col] == "true" for r in rows[1:])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True

    def test_exp1d_fluctuations(self, tmp_path):
        code = main([
            "run", "--problem", "exp1d", "--checks", "fluctuations",
            "--n-sweep", "100,400", "--sample-count", "20000",
            "--output-path", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "convergence.csv")
        ks_col = CSV_HEADER.index("ks_stat")
        assert all(r[ks_col] != "" for r in rows[1:])

    def test_unknown_check_is_status_2_no_files(self, tmp_path):
        out = tmp_path / "nothing"
        code = main([
            "run", "--problem", "gauss1d", "--checks", "laplace,bogus",
            "--output-path", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_unknown_problem_is_status_2(self, tmp_path):
        code = main(["run", "--problem", "nope", "--output-path", str(tmp_path)])
        assert code == 2

    def test_assumption_violation_is_status_3(self, tmp_path):
        # inline problem with a degenerate interior curvature
        cfg = {
            "problem": {
                "name": "flat4",
                "domain": {"lower": [-1.0], "upper": [1.0]},
                "f": {"type": "polynomial", "terms": [{"coeff": -0.25, "powers": [4]}]},
            },
            "checks": ["constants"],
            "n_sweep": [25, 100],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path), "--output-path", str(tmp_path)])
        assert code == 3

    def test_inline_problem_runs(self, tmp_path):
        cfg = {
            "problem": {
                "name": "halfgauss",
                "domain": {"lower": [-0.75], "upper": [0.75]},
                "f": {"type": "polynomial", "terms": [{"coeff": -0.5, "powers": [2]}]},
                "g": {"type": "constant", "value": 2.0},
            },
            "checks": ["laplace"],
            "n_sweep": [100, 400],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path), "--output-path", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        lead = report["checks"]["laplace"]["rows"][0]["leading"]
        assert lead == pytest.approx(2.0 * math.sqrt(2 * math.pi / 100), rel=1e-10)

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "gauss1d", "n_sweep": [25, 100]}))
        code = main([
            "run", "--config", str(cfg_path), "--problem", "exp1d",
            "--checks", "laplace", "--n-sweep", "100,400",
            "--output-path", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["problem"] == "exp1d"
        assert report["config"]["n_sweep"] == [100, 400]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CERTLAP_OUTPUT_DIR", str(tmp_path / "envout"))
        code = main([
            "run", "--problem", "exp1d", "--checks", "laplace",
            "--n-sweep", "100,400",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_all_checks_interior(self, tmp_path):
        # gauss1d has no maximizer drift, so the fluctuation KS threshold is
        # meaningful at small N too (drifting problems legitimately trip it
        # until eps(N) sqrt(N) is small)
        cfg = RunConfig(
            problem="gauss1d", n_sweep=(25, 100),
            checks=("laplace", "constants", "lln", "fluctuations", "preposition1", "sampler"),
            sample_count=20_000, seed=4,
        )
        status, report = run_checks(cfg)
        assert status == 0
        assert report["checks"]["constants"]["ok"]
        assert report["checks"]["preposition1"]["bounded"]
        assert report["checks"]["sampler"]["ok"]
        assert report["checks"]["lln"]["residual_nonincreasing"]
        write_outputs(report, str(tmp_path))
        rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 3

    def test_preposition_check_skips_boundary(self):
        cfg = RunConfig(problem="exp1d", n_sweep=(100, 400), checks=("preposition1",))
        status, report = run_checks(cfg)
        assert status == 0
        assert "skipped" in report["checks"]["preposition1"]

    def test_reports_deterministic(self, tmp_path):
        cfg = RunConfig(problem="mixed2d", n_sweep=(25, 100), checks=("laplace", "lln"),
                        seed=7)
        _, rep1 = run_checks(cfg)
        _, rep2 = run_checks(cfg)
        p1 = write_outputs(rep1, str(tmp_path / "a"))
        p2 = write_outputs(rep2, str(tmp_path / "b"))
        assert open(p1[0]).read() == open(p2[0]).read()
        assert open(p1[1]).read() == open(p2[1]).read()


def _strict_loads(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_exp1d_report(self, tmp_path):
        # the one-dimensional boundary problem has an empty tangent block,
        # so F2_prime is infinite in the constants report
        code = main([
            "run", "--problem", "exp1d", "--checks", "laplace,constants",
            "--n-sweep", "100,400", "--output-path", str(tmp_path),
        ])
        assert code == 0
        report = _strict_loads((tmp_path / "report.json").read_text())
        assert report["constants"]["F2_prime"] is None
        assert report["constants"]["F2_prime_Omega"] is None

    def test_overflowing_leading_term(self, tmp_path):
        # f = x on [0, 1]: N f* = 1600 overflows exp, so the linear-space
        # leading term and enclosure are not finite
        cfg = {
            "problem": {
                "name": "rising",
                "domain": {"lower": [0.0], "upper": [1.0]},
                "f": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
            },
            "checks": ["laplace"],
            "n_sweep": [1600],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        main(["run", "--config", str(cfg_path), "--output-path", str(tmp_path)])
        report = _strict_loads((tmp_path / "report.json").read_text())
        row = report["checks"]["laplace"]["rows"][0]
        assert row["leading"] is None
        assert math.isfinite(row["log_abs_leading"])
        rows = read_csv(emit_convergence_plotdata(str(tmp_path / "report.json")))
        assert rows[0] == PLOT_HEADER and len(rows) == 2


# f = x on [0, 1]: at N = 1600 the leading term exp(N f*) overflows
RISING_CONFIG = {
    "problem": {
        "name": "rising",
        "domain": {"lower": [0.0], "upper": [1.0]},
        "f": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
    },
    "checks": ["laplace"],
    "n_sweep": [1600],
}


def test_overflowing_leading_term_is_contained(tmp_path):
    # the enclosure is (nan, inf) in linear space, but its log-space fields
    # contain the oracle value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RISING_CONFIG))
    code = main(["run", "--config", str(cfg_path), "--output-path", str(tmp_path)])
    assert code == 0
    report = _strict_loads((tmp_path / "report.json").read_text())
    assert report["checks"]["laplace"]["rows"][0]["bound_ok"] is True


def test_overflowing_oracle_error_is_null(tmp_path):
    # the oracle value e^1592.6 overflows, and so does its absolute error
    # estimate (about e^1561); a capped figure of e^700 times the shifted
    # error would be finite and wrong
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RISING_CONFIG))
    main(["run", "--config", str(cfg_path), "--output-path", str(tmp_path)])
    row = _strict_loads((tmp_path / "report.json").read_text())["checks"]["laplace"]["rows"][0]
    assert row["oracle"] is None
    assert row["oracle_error_estimate"] is None


def test_one_check_function_per_known_check():
    assert tuple(CHECKS) == KNOWN_CHECKS


def test_one_gibbs_measure_per_n(monkeypatch):
    """A full-check run builds each sweep N's Gibbs measure once and shares
    it: 4 normalisers, which with g = 1 are also the laplace oracles, 4 mgf_X,
    4 mgf_Y and 10 sampler box probabilities make 22 integrate calls."""
    measures, integrals = [], []

    def counting(calls, real):
        def wrapper(spec, N, *args, **kwargs):
            calls.append(N)
            return real(spec, N, *args, **kwargs)

        return wrapper

    for module in (certlap.cli, certlap.gibbs):
        monkeypatch.setattr(module, "gibbs_measure", counting(measures, module.gibbs_measure))
        monkeypatch.setattr(module, "integrate", counting(integrals, module.integrate))
    cfg = RunConfig(problem="gauss1d", checks=KNOWN_CHECKS, sample_count=20_000, seed=1)
    run_checks(cfg)
    assert sorted(measures) == [25, 100, 400, 1600]
    assert len(integrals) == 22


def test_non_unit_weight_keeps_its_laplace_oracle(monkeypatch):
    """With g other than the unit weight the laplace check integrates g
    itself: 4 oracles beside the 4 normalisers, 26 integrate calls."""
    integrals = []
    real = certlap.gibbs.integrate

    def counting(spec, N, *args, **kwargs):
        integrals.append(N)
        return real(spec, N, *args, **kwargs)

    for module in (certlap.cli, certlap.gibbs):
        monkeypatch.setattr(module, "integrate", counting)
    problem = {
        "name": "tiltg1d",
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "f": {"type": "polynomial", "terms": [{"coeff": -0.5, "powers": [2]}]},
        "g": {"type": "exponential", "linear": [0.3]},
    }
    run_checks(RunConfig(problem=problem, checks=KNOWN_CHECKS, sample_count=20_000, seed=1))
    assert len(integrals) == 26


def test_sampler_shares_the_batch_at_any_count(monkeypatch):
    """At the CLI default of 100000 draws too, the sampler check audits the
    fluctuations check's batch: 4 sample calls for 4 N."""
    counts = []
    real = certlap.cli.sample

    def counting(meas, count, *args, **kwargs):
        counts.append(count)
        return real(meas, count, *args, **kwargs)

    monkeypatch.setattr(certlap.cli, "sample", counting)
    cfg = RunConfig(problem="gauss1d", checks=KNOWN_CHECKS, sample_count=100_000, seed=1)
    status, report = run_checks(cfg)
    assert status == 0
    assert counts == [100_000] * 4
    assert report["checks"]["sampler"]["count"] == 100_000


class TestListProblems:
    def test_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l][1:]
        assert len(lines) >= 6
        assert all(("interior_a" in l) or ("boundary_b" in l) for l in lines)

    def test_stable(self):
        assert list_problems() == list_problems()


class TestPlotdata:
    def _run(self, tmp_path, problem, checks="laplace", sweep="25,100,400,1600"):
        code = main([
            "run", "--problem", problem, "--checks", checks,
            "--n-sweep", sweep, "--output-path", str(tmp_path),
        ])
        assert code == 0
        return tmp_path / "report.json"

    @staticmethod
    def _column(path, name):
        rows = read_csv(path)
        idx = rows[0].index(name)
        return rows[0], [(float(r[0]), float(r[idx])) for r in rows[1:] if r[idx] != ""]

    def test_certified_rate_slope_interior(self, tmp_path):
        report = self._run(tmp_path, "cubic1d")
        out = emit_convergence_plotdata(str(report))
        header, pts = self._column(out, "log_rel_remainder")
        assert header == PLOT_HEADER
        slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_exp1d_actual_error_collapses(self, tmp_path):
        # closed-form error exp(-N)/N: the log-log slope is far below -1
        # (small N keeps the error above the float64 noise floor)
        report = self._run(tmp_path, "exp1d", sweep="5,10,20")
        out = emit_convergence_plotdata(str(report))
        _, pts = self._column(out, "log_rel_error")
        assert len(pts) >= 2
        slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
        assert slope < -5.0

    def test_malformed_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plotdata", str(bad)]) == 2

    def test_empty_report_header_only(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"checks": {}}))
        out = emit_convergence_plotdata(str(empty))
        rows = read_csv(out)
        assert rows == [PLOT_HEADER]


def test_one_sample_batch_per_n(monkeypatch):
    """The fluctuations check and the sampler check share the last sweep N's
    batch: a full-check run draws one batch per sweep N."""
    calls = []
    real = certlap.cli.sample

    def counting(meas, count, **kwargs):
        calls.append((meas.N, count))
        return real(meas, count, **kwargs)

    monkeypatch.setattr(certlap.cli, "sample", counting)
    cfg = RunConfig(problem="gauss1d", checks=KNOWN_CHECKS, sample_count=20_000, seed=1)
    run_checks(cfg)
    assert sorted(calls) == [(n, 20_000) for n in cfg.n_sweep]


def test_held_error_keeps_no_sample_batch(monkeypatch):
    """A check that raises after the batches are drawn leaves run_checks'
    frame in the error's traceback; holding the error must not hold the
    run's batches."""
    import gc
    import weakref

    refs = []
    real = certlap.cli.sample

    def drawing(*args, **kwargs):
        batch = real(*args, **kwargs)
        refs.append(weakref.ref(batch))
        return batch

    def failing(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(certlap.cli, "sample", drawing)
    monkeypatch.setattr(certlap.cli, "tilted_maximizer_check", failing)
    cfg = RunConfig(problem="gauss1d", checks=("fluctuations", "preposition1"),
                    sample_count=2000, seed=1)
    with pytest.raises(RuntimeError) as held:
        run_checks(cfg)
    gc.collect()
    assert held.value.__traceback__ is not None
    assert len(refs) == len(cfg.n_sweep) and all(ref() is None for ref in refs)


def _inline_demo(**extra):
    return {
        "name": "demo",
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "f": {"type": "polynomial", "terms": [{"coeff": -0.5, "powers": [2]}]},
        **extra,
    }


def _inline_file(**extra):
    return {"problem": _inline_demo(**extra)}


def _poly_1d(*terms):
    return {"type": "polynomial", "terms": [{"coeff": c, "powers": [e]} for c, e in terms]}


@pytest.mark.parametrize("flags, config", [
    (["--grid-res", "8"], None),
    (["--safety-factor", "0.5"], None),
    (["--tol", "1e-20"], None),
    (["--n-sweep", "1,2"], None),  # gauss1d has n_zero = 7
    (["--sample-count", "0", "--checks", "sampler"], None),
    ([], _inline_file(neighborhood={"upper": [0.5]})),
    ([], _inline_file(neighborhood={"lower": [-2.0], "upper": [0.5]})),
    ([], _inline_file(epsilon={"class": "power"})),
    ([], _inline_file(epsilon={"class": "power", "exponent": 0.5})),
    # eps(N) must stay nonnegative and nonincreasing, and NaN fails both tests
    ([], _inline_file(sigma={"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
                      epsilon={"class": "power", "exponent": -0.75, "scale": -1.0})),
    ([], _inline_file(epsilon={"class": "power", "exponent": float("nan")})),
    ([], _inline_file(epsilon={"class": "power", "exponent": -0.75, "scale": float("nan")})),
    (["--n-sweep", "25,abc"], None),
    # refused before classification, whose grid would have 65^5 points
    ([], {"problem": {
        "domain": {"lower": [-1.0] * 5, "upper": [1.0] * 5},
        "f": {"type": "polynomial",
              "terms": [{"coeff": -0.5, "powers": [2 if j == i else 0 for j in range(5)]}
                        for i in range(5)]}}}),
    # a power is a nonnegative integer: -x - 1/x on [0.5, 2] and x^2.5 are refused,
    # not read as other polynomials
    ([], _inline_file(domain={"lower": [0.5], "upper": [2.0]},
                      f=_poly_1d((-1.0, 1), (-1.0, -1)))),
    ([], _inline_file(f=_poly_1d((-0.5, 2.5)))),
    # an integer setting is a JSON integer, not a decimal, a bool or a string
    ([], {"problem": "gauss1d", "n_sweep": [25.9, 100.2]}),
    ([], {"problem": "gauss1d", "grid_res": 16.7}),
    ([], {"problem": "gauss1d", "seed": True}),
    ([], {"problem": "gauss1d", "n_sweep": "59"}),
    ([], _inline_file(classify_grid_res=16.5)),
    ([], _inline_file(n_zero=2.5)),
    # a field is a definition with a type, not a bare number
    ([], _inline_file(g=2.0)),
    # a float setting is a JSON number, not a bool or a string
    ([], {"problem": "gauss1d", "tol": True}),
    ([], {"problem": "gauss1d", "tol": "1e-10"}),
    ([], {"problem": "gauss1d", "safety_factor": True}),
    # a key that a field or epsilon definition does not have is refused, not dropped
    ([], _inline_file(g={"type": "exponential", "linear": [0.3], "offest": 5.0})),
    ([], _inline_file(sigma={"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
                      epsilon={"class": "power", "exponent": -0.75, "scael": 0.5})),
    # a scale or exponent with the zero class, explicit or defaulted, is refused, not dropped
    ([], _inline_file(sigma={"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
                      epsilon={"exponent": -0.75})),
    ([], _inline_file(epsilon={"class": "zero", "exponent": -0.75, "scale": 2.0})),
    ([], _inline_file(epsilon={"scale": 0.0})),
    # a number in a field or epsilon definition is a JSON number, not a bool or a string
    ([], _inline_file(f={"type": "polynomial", "terms": [{"coeff": True, "powers": [2]}]})),
    ([], _inline_file(f=_poly_1d(("-0.5", 2)))),
    ([], _inline_file(g={"type": "constant", "value": "2.5"})),
    ([], _inline_file(g={"type": "constant", "value": True})),
    ([], _inline_file(g={"type": "exponential", "linear": [True]})),
    ([], _inline_file(g={"type": "exponential", "linear": ["0.3"]})),
    ([], _inline_file(g={"type": "exponential", "linear": [0.3], "scale": True})),
    ([], _inline_file(g={"type": "exponential", "linear": [0.3], "offset": "1.0"})),
    ([], _inline_file(sigma={"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
                      epsilon={"class": "power", "exponent": "-0.75"})),
    ([], _inline_file(sigma={"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
                      epsilon={"class": "power", "exponent": -0.75, "scale": True})),
    # a float setting is a finite number: JSON's Infinity, or inf as a flag, is refused
    ([], {"problem": "gauss1d", "tol": float("inf")}),
    (["--tol", "inf"], None),
    ([], {"problem": "gauss1d", "safety_factor": float("inf")}),
    ([], {"problem": "gauss1d", "tol": 10 ** 400}),  # an integer beyond the float range
], ids=["grid_res", "safety_factor", "tol", "n_zero", "sample_count", "nb_no_lower",
        "nb_outside", "eps_no_exponent", "eps_exponent_positive", "eps_scale_negative",
        "eps_exponent_nan", "eps_scale_nan", "n_sweep_not_int",
        "dimension_5", "power_negative", "power_fractional", "n_sweep_decimal",
        "grid_res_decimal", "seed_bool", "n_sweep_string", "classify_grid_res_decimal",
        "n_zero_decimal", "field_bare_number", "tol_bool", "tol_string",
        "safety_factor_bool", "field_key_typo", "epsilon_key_typo", "eps_no_class_exponent",
        "eps_zero_class_keys", "eps_no_class_scale", "coeff_bool", "coeff_string",
        "value_string", "value_bool", "linear_bool", "linear_string", "scale_bool",
        "offset_string", "eps_exponent_string", "eps_scale_bool", "tol_infinity",
        "tol_flag_inf", "safety_factor_infinity", "tol_beyond_float_range"])
def test_bad_setting_is_config_error(tmp_path, capsys, flags, config):
    args = ["run", "--problem", "gauss1d"]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args = ["run", "--config", str(cfg_path)]
    out = tmp_path / "out"
    code = main(args + flags + ["--output-path", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("config, key", [
    ({"problem": "gauss1d", "n-sweep": [400, 1600]}, "n-sweep"),
    ({"problem": "gauss1d", "ks_threshold": 0.05}, "ks_threshold"),
    (_inline_file(neighbourhood={"lower": [-0.9], "upper": [0.9]}), "neighbourhood"),
    ({"problem": {"catalog": "gauss1d"}}, "catalog"),
    # a field's "name" is no longer read
    (_inline_file(g={"type": "constant", "value": 2.0, "name": "two"}), "name"),
    (_inline_file(f={"type": "polynomial", "terms": [{"coeff": -0.5, "power": [2]}]}), "power"),
    (_inline_file(epsilon={"class": "power", "exponent": -0.75, "rate": 1.0}), "rate"),
    # a misspelt rotation would otherwise build the identity frame
    (_inline_file(domain={"lower": [-1.0], "upper": [1.0], "rotaton": [[-1.0]]}), "rotaton"),
    (_inline_file(neighborhood={"lower": [-0.9], "upper": [0.9], "centre": [0.0]}), "centre"),
], ids=["run_config", "ks_threshold", "inline", "catalog_form", "field", "polynomial_term",
        "epsilon", "domain", "neighborhood"])
def test_unknown_key_is_config_error(tmp_path, capsys, config, key):
    """A key that a run config, an inline definition, its domain or
    neighborhood, a field, a polynomial term or epsilon does not have is
    refused and named, not ignored."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--output-path", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and repr(key) in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("text", [
    '{"problem": "gauss1d", "seed": ' + "1" * 5000 + "}",
    '{"problem": "gauss1d", "seed": 1',
], ids=["seed_of_5000_digits", "unterminated"])
def test_unparsable_config_is_config_error(tmp_path, capsys, text):
    """Every ValueError json.load raises, an integer past Python's digit
    limit as well as malformed JSON, is a config error: status 2 and
    nothing written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--output-path", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_settings_are_the_run_config_fields():
    """A config file or flag may set every RunConfig field and nothing else;
    the KS threshold is a constant, still recorded in the report."""
    import dataclasses

    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert fields == ["problem", *certlap.cli._RUN_FIELD_TYPES]
    assert len(fields) == 9
    assert certlap.gibbs.KS_THRESHOLD == 0.02
    _, report = run_checks(RunConfig(problem="gauss1d", n_sweep=(25, 100)))
    assert report["config"]["ks_threshold"] == 0.02


def _key_paths(obj, prefix=""):
    """Every key path of a JSON value, with [] for a list's elements."""
    paths = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            p = f"{prefix}.{k}" if prefix else k
            paths |= {p} | _key_paths(v, p)
    elif isinstance(obj, list):
        for v in obj:
            paths |= _key_paths(v, prefix + "[]")
    return paths


_MGF_ROW = "N expected_decay hypothesis_violated kind limit_prediction mgf_value residual xi"
REPORT_KEYS = {
    "": "checks config constants maximum_kind n_zero passed problem status",
    "config": "checks grid_res ks_threshold n_sweep problem safety_factor sample_count seed tol",
    "constants": "F1_prime F1_prime_Omega F2 F2_prime F2_prime_Omega F3 G G1 Lambda_det "
                 "boundary_axis fd_step grid_res lambda_det n_sweep problem safety_factor",
    "checks": "constants fluctuations laplace lln preposition1 sampler",
    "checks.constants": "failures n_points ok problem",
    "checks.fluctuations": "flagged hypothesis_violated ks_all_ok residual_nondecaying rows",
    "checks.fluctuations.rows[]": _MGF_ROW + " acceptance_rate ks",
    "checks.fluctuations.rows[].ks": "count marginals max_ks",
    "checks.fluctuations.rows[].ks.marginals[]": "ks law sqrt_n_ks",
    "checks.laplace": "all_bounds_ok rows",
    "checks.laplace.rows[]": "N bound_ok enclosure leading leading_sign log_abs_leading "
                             "log_remainder omega_bound oracle oracle_error_estimate "
                             "remainder_magnitude theorem",
    "checks.lln": "residual_nonincreasing rows tracking_span",
    "checks.lln.rows[]": _MGF_ROW,
    "checks.sampler": "acceptance_rate boxes count ok",
    "checks.sampler.boxes[]": "ok p_empirical p_oracle se",
}
PREPOSITION_KEYS = {
    "interior": {"checks.preposition1": "bounded rows",
                 "checks.preposition1.rows[]": "N stat_det stat_drift stat_value"},
    "boundary": {"checks.preposition1": "skipped"},
}


@pytest.mark.parametrize("problem, kind", [("gauss1d", "interior"), ("mixed2d", "boundary")])
def test_report_schema(tmp_path, problem, kind):
    """The key paths of an all-checks report.json."""
    expected = set()
    for prefix, keys in {**REPORT_KEYS, **PREPOSITION_KEYS[kind]}.items():
        expected |= {f"{prefix}.{k}" if prefix else k for k in keys.split()}
    cfg = RunConfig(problem=problem, n_sweep=(25, 100), checks=KNOWN_CHECKS, sample_count=2000)
    _, report = run_checks(cfg)
    report_path, _ = write_outputs(report, str(tmp_path))
    with open(report_path) as fh:
        assert sorted(_key_paths(json.load(fh))) == sorted(expected)


@pytest.mark.parametrize("extra", [
    {"epsilon": 0.5},
    {"classify_grid_res": 4},
    {"g": {"type": "constant", "value": "one"}},
    {"g": {"type": "exponential", "linear": ["x"]}},
    # every number of a definition is a finite JSON number: a domain, neighborhood or
    # rotation entry too, and neither Infinity nor NaN anywhere
    {"domain": {"lower": ["-1"], "upper": [True]}},
    {"domain": {"lower": [-math.inf], "upper": [1.0]}},
    {"domain": {"lower": [-1.0], "upper": [1.0], "rotation": [["1"]]}},
    {"neighborhood": {"lower": [-0.5], "upper": [math.nan]}},
    {"f": {"type": "polynomial", "terms": [{"coeff": -0.5, "powers": [2]},
                                           {"coeff": math.nan, "powers": [1]}]}},
    {"sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
     "epsilon": {"class": "power", "exponent": -0.75, "scale": math.inf}},
], ids=["eps_not_a_dict", "classify_grid_res", "constant_value", "exponential_linear",
        "domain_string_and_bool", "domain_infinity", "rotation_string", "neighborhood_nan",
        "coeff_nan", "eps_scale_infinity"])
def test_malformed_inline_is_config_error(tmp_path, capsys, extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": _inline_demo(**extra)}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--output-path", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_fluctuations_need_the_ks_minimum(tmp_path, capsys):
    """A sample_count below the KS test's minimum is a configuration error
    when the fluctuations check runs, and only then."""
    from certlap.gibbs import KS_MIN_SAMPLES

    out = tmp_path / "out"
    code = main(["run", "--problem", "gauss1d", "--checks", "fluctuations",
                 "--sample-count", str(KS_MIN_SAMPLES - 1), "--output-path", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    RunConfig(problem="gauss1d", checks=("fluctuations",), sample_count=KS_MIN_SAMPLES).validate()
    RunConfig(problem="gauss1d", checks=("sampler",), sample_count=50).validate()


class TestSpecOnlyHypotheses:
    """A requested check's hypotheses that the spec alone decides are
    checked before any check does work."""

    def test_viol1d_raises_before_any_check_runs(self, monkeypatch):
        from certlap.errors import AssumptionViolationError

        calls = []

        def refuse(name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")

            return wrapper

        for module, name in ((certlap.cli, "estimate_constants"), (certlap.cli, "gibbs_measure"),
                             (certlap.cli, "sample"), (certlap.cli, "integrate"),
                             (certlap.gibbs, "gibbs_measure"), (certlap.gibbs, "integrate")):
            monkeypatch.setattr(module, name, refuse(name))
        cfg = RunConfig(problem="viol1d", checks=KNOWN_CHECKS, sample_count=20_000, seed=1)
        with pytest.raises(AssumptionViolationError) as err:
            run_checks(cfg)
        assert str(err.value) == (
            "epsilon_sqrtN: eps(N) sqrt(N) must be nonincreasing on the sweep")
        assert calls == []

    def test_viol1d_exits_3_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--problem", "viol1d", "--checks", ",".join(KNOWN_CHECKS),
                     "--output-path", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "assumption violation: epsilon_sqrtN: eps(N) sqrt(N) must be nonincreasing "
            "on the sweep\n")
        assert not out.exists()

    def test_viol1d_without_preposition1_still_passes(self, tmp_path):
        code = main(["run", "--problem", "viol1d", "--checks", "laplace,lln,fluctuations",
                     "--sample-count", "20000", "--output-path", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # the CLT's hypothesis is flagged, not raised
        assert report["checks"]["fluctuations"]["hypothesis_violated"]
