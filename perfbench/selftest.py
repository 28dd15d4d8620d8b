"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the tracing wrappers restore the original functions, that
nested spans get the right self times, that the speed sampler scales a
stretch by its own samples and puts the SIGALRM handler back, and that a
tiny smoke pass emits every metric BENCHMARK.json names, with its unit,
traced and untraced.
"""

import signal
import sys
import time
import unittest

import run
import speed
import tracing
from workloads import WORKLOADS

run.pin_thread_pools()
certlap, _ = run.import_certlap()

SMOKE_PROBLEMS = ["gauss1d", WORKLOADS["inline2d"][0]]
SMOKE_CONFIG = dict(run.RUN_CONFIG, n_sweep=(25, 100), sample_count=2000)


def _certlap_bindings(fname):
    return {
        name: vars(mod)[fname]
        for name, mod in sys.modules.items()
        if (name == "certlap" or name.startswith("certlap.")) and fname in vars(mod)
    }


class WrapperTest(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        before = {fname: _certlap_bindings(fname) for _, fname, _, _ in tracing.TRACED}
        self.assertEqual(
            set(before["integrate"]),
            {"certlap", "certlap.oracle", "certlap.gibbs", "certlap.cli"},
        )
        with tracing.installed(tracing.Tracer()):
            for fname, bindings in before.items():
                for modname, original in bindings.items():
                    self.assertIsNot(_certlap_bindings(fname)[modname], original, (fname, modname))
        self.assertEqual({f: _certlap_bindings(f) for f in before}, before)

    def test_restored_when_the_block_raises(self):
        original = certlap.oracle.integrate
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracing.Tracer()):
                raise RuntimeError("boom")
        self.assertIs(certlap.oracle.integrate, original)
        self.assertIs(certlap.gibbs.integrate, original)

    def test_failed_call_is_marked_and_reraised(self):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            with self.assertRaises(certlap.errors.ConfigError):
                certlap.config.problem_from_config(42)
        self.assertEqual([(s.name, s.failed) for s in tracer.spans],
                         [("config.problem_from_config", True)])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        with tracer.span("outer"):          # 0 .. 10
            with tracer.span("child"):      # 1 .. 4
                with tracer.span("leaf"):   # 2 .. 3
                    pass
            with tracer.span("child"):      # 5 .. 6
                pass
        outer, child, leaf, child2 = tracer.spans
        self.assertEqual((outer.self_s, child.self_s, leaf.self_s, child2.self_s), (6.0, 2.0, 1.0, 1.0))
        self.assertEqual((child.parent, leaf.parent, child2.parent), (0, 1, 0))
        table = tracing.span_table(tracer.spans)
        self.assertEqual(table["child"]["calls"], 2)
        self.assertEqual(table["child"]["s"], 4.0)
        self.assertEqual(sum(row["self_s"] for row in table.values()), outer.duration)

    def test_recursive_span_counted_once_in_inclusive_time(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        with tracer.span("f"):
            with tracer.span("f"):
                pass
        row = tracing.span_table(tracer.spans)["f"]
        self.assertEqual((row["calls"], row["s"], row["self_s"]), (2, 4.0, 4.0))


class SpeedometerTest(unittest.TestCase):
    def test_scale_uses_the_samples_of_the_stretch(self):
        meter = speed.Speedometer()
        ref = speed.REF_KERNEL_S
        meter.samples = [ref, ref, 2 * ref, 4 * ref, ref]
        scaled_s = meter.scale(10.0, 1, 4)  # samples ref, 2 ref, 4 ref
        self.assertAlmostEqual(scaled_s, (10.0 - 7 * ref) * (1 + 0.5 + 0.25) / 3)

    def test_samples_while_entered_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Speedometer(period_s=0.01) as meter:
            t0 = time.perf_counter()
            while meter.mark() < 3 and time.perf_counter() - t0 < 5:
                sum(range(10000))
        n = meter.mark()
        self.assertGreaterEqual(n, 3)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        time.sleep(0.03)
        self.assertEqual(meter.mark(), n)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        exact = {s.name: s.exact_integral for s in certlap.catalog() if s.exact_integral}
        with speed.Speedometer() as cls.meter:
            cls.untraced, cls.traced = run.run_passes(
                SMOKE_PROBLEMS, SMOKE_CONFIG, seed=7, seconds=0, trace=True, exact=exact,
                meter=cls.meter,
            )
        cls.setup_times = run.measure_setup("catalog3d", repeats=1)

    def _check(self, kind, metrics, passes):
        units = run.declared_units(kind)
        result = run.result_line(metrics, units, passes)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], len(SMOKE_PROBLEMS) * len(passes))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)

    def test_one_untraced_and_one_traced_pass_with_equal_digests(self):
        self.assertEqual((len(self.untraced), len(self.traced)), (1, 1))
        self.assertEqual(self.untraced[0].digest, self.traced[0].digest)
        self.assertIsNone(self.untraced[0].spans)

    def test_end_to_end_metrics(self):
        metrics = run.end_to_end(self.untraced, self.setup_times, self.meter.speed())
        self._check("end_to_end", metrics, self.untraced)
        self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_per_layer_metrics(self):
        metrics = run.per_layer(self.untraced, self.traced)
        self._check("per_layer", metrics, self.untraced + self.traced)
        for name in ("oracle.integrate.evals", "gibbs.sample.draws", "problems.locate_maximum.calls",
                     "catalog.get_problem.calls", "derivatives.calls"):
            self.assertGreater(metrics[name], 0, name)

    def test_self_times_account_for_the_traced_pass(self):
        p = self.traced[0]
        accounted = sum(s.self_s for s in p.spans)
        self.assertLessEqual(accounted, p.sweep_s)
        self.assertLess(p.sweep_s - accounted, 0.05 * p.sweep_s)


if __name__ == "__main__":
    unittest.main()
