"""Gate power: each row names a gate of ``certlap run``, a problem, the N
it is read at, and a forbidden mutation of the value the gate guards.  The
gate must pass the value as computed, with its finite-N bias, and fail the
mutated one.  Each mutation is applied in the test, with
``dataclasses.replace`` on the result or report the gate reads."""

import dataclasses
import math

import pytest

from certlap import approximate, audit_constants, integrate


def _laplace_gate(spec, consts, n, factor) -> bool:
    """Whether the oracle value at N lies in the enclosure about the leading
    term times ``factor``, the remainder bound unchanged."""
    res = approximate(spec, consts, n)
    lead, rem = factor * res.leading, res.remainder_magnitude
    res = dataclasses.replace(res, leading=lead, enclosure=(lead - rem, lead + rem),
                              log_abs_leading=res.log_abs_leading + math.log(factor))
    return bool(res.contains_oracle(integrate(spec, n, tol=1e-10)))


def _constants_gate(spec, consts, n, factor) -> bool:
    """Whether the random-point audit of the whole sweep passes with F2'
    times ``factor``."""
    bad = dataclasses.replace(consts, F2_prime=factor * consts.F2_prime)
    return audit_constants(spec, bad, seed=0)["ok"]


GATES = {"laplace": _laplace_gate, "constants": _constants_gate}

# (gate, problem, N or None for the whole sweep, factor on the guarded value:
# the leading term for laplace, F2' for constants)
ROWS = [
    *(("laplace", name, 1600, k)
      for name in ("iso2d", "gauss3d", "boundary3d", "exp1d") for k in (0.99, 1.01)),
    *(("constants", name, None, 2.0) for name in ("gauss1d", "cubic1d", "iso2d")),
]


@pytest.mark.parametrize("gate, name, n, factor", ROWS,
                         ids=[f"{g}-{p}-x{k}" for g, p, _, k in ROWS])
def test_gate_catches_mutation(gate, name, n, factor, specs, consts_cache):
    spec, consts = specs[name], consts_cache(name)
    assert GATES[gate](spec, consts, n, 1.0)
    assert not GATES[gate](spec, consts, n, factor)
