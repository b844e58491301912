"""Acceptance suite: one test per certified criterion.

Each test runs a single criterion through the registry and prints its
pass/fail line (visible under ``pytest -v -s`` or in the failure report).
The same registry backs ``polyhelix reproduce``.
"""

import pytest

from polyhelix import acceptance, odelab

CRITERIA = {criterion.number: criterion for criterion in acceptance.CRITERIA}


def check(number: int) -> None:
    result = acceptance.run_criterion(CRITERIA[number], seed=42)
    print(result.line())
    assert result.passed, result.detail
    assert result.within_limit, (
        f"criterion {number} took {result.elapsed:.2f}s, "
        f"limit {result.limit_seconds:.0f}s"
    )


def test_criterion_01_frame_derivative_expansions():
    check(1)


def test_criterion_02_helix_constraint_systems():
    check(2)


def test_criterion_03_top_equation_curvature_sum():
    check(3)


def test_criterion_04_biharmonic_sphere_curves():
    check(4)


def test_criterion_05_triharmonic_sphere_curves():
    check(5)


def test_criterion_06_fourharmonic_sphere_curve():
    check(6)


def test_criterion_07_geodesic_curvature_values():
    check(7)


def test_criterion_08_variational_stationarity():
    check(8)


def test_criterion_09_negative_curvature_rigidity():
    check(9)


def test_criterion_10_conservation_laws():
    check(10)


def test_criterion_11_inverse_power_profile_scan():
    check(11)


def test_criterion_12_integrator_order():
    check(12)


def test_lab_criteria_take_no_step_beyond_their_samples(monkeypatch):
    # #10-#12 read no error estimate, so each RK4 step they take is the step
    # to one of their samples: no 2h pass runs
    sample_steps, rk4_steps = [], []
    integrate, step_maps = odelab.integrate_frenet, odelab._step_maps

    def record_run(*args):
        samples = integrate(*args)
        sample_steps.append(len(samples) - 1)
        return samples

    def record_steps(*args):
        rk4_steps.append(args[-1])
        return step_maps(*args)

    monkeypatch.setattr(odelab, "integrate_frenet", record_run)
    monkeypatch.setattr(odelab, "_step_maps", record_steps)
    for number in (10, 11, 12):
        check(number)
    assert sum(rk4_steps) == sum(sample_steps) == 35_000


def test_registry_is_complete():
    assert sorted(CRITERIA) == list(range(1, 13))
    names = [criterion.name for criterion in acceptance.CRITERIA]
    assert len(set(names)) == 12


def test_selection_filters():
    assert len(acceptance.select_criteria("symbolic")) == 3
    assert len(acceptance.select_criteria("sphere")) == 4
    assert [c.number for c in acceptance.select_criteria("12")] == [12]
    with pytest.raises(ValueError):
        acceptance.select_criteria("no-such-tag")


def test_summary_counts():
    results = acceptance.run_all("symbolic", seed=42)
    lines = acceptance.summary_lines(results)
    assert lines[-1] == "3/3 criteria passed"
