import numpy as np
import pytest

from leftdef import (
    CoefficientSet,
    InitKind,
    Sequence,
    solve_recurrence,
    wronskian_constancy_report,
)
from leftdef.verify import BLOCK, run_campaign, solution_residual_ratio


def reference_campaigns(seed, cases, N=200):
    """Both recurrence campaigns one case at a time, on the same draws."""
    rng = np.random.default_rng(seed)
    wronskian, consistency = [0.0, 0], [0.0, 0]
    for _ in range(cases):
        c = CoefficientSet(p=Sequence(0, rng.uniform(1.0, 2.0, N + 1)),
                           q=Sequence(0, rng.uniform(0.0, 0.5, N + 1)),
                           w=Sequence(1, rng.uniform(-0.5, 0.5, N + 1)))
        lam = float(rng.uniform(-10.0, 10.0))
        init = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        phi = solve_recurrence(c, lam, InitKind.VALUE_PAIR, init[0], init[1], N)
        theta = solve_recurrence(c, lam, InitKind.VALUE_PAIR, init[2], init[3], N)
        rep = wronskian_constancy_report(c, phi, theta)
        wronskian[0] = max(wronskian[0], rep.lhs / rep.rhs)
        wronskian[1] += not rep.holds
        for sol in (phi, theta):
            ratio = solution_residual_ratio(c, sol)
            consistency[0] = max(consistency[0], ratio)
            consistency[1] += ratio > 1.0
    return {"wronskian-constancy": wronskian, "solver-consistency": consistency}


@pytest.mark.parametrize("cases", [1, BLOCK, BLOCK + 1, 37])
def test_batched_campaigns_match_case_by_case_reference(cases):
    seed = 11 + cases
    ref = reference_campaigns(seed, cases)
    for name, (worst, failures) in ref.items():
        r = run_campaign(name, seed, cases)
        assert r.cases == cases
        assert (r.failures, r.worst) == (failures, worst)


def test_empty_campaign():
    for name in ("wronskian-constancy", "solver-consistency"):
        r = run_campaign(name, 0, 0)
        assert (r.cases, r.failures, r.worst) == (0, 0, 0.0)
