"""Shared fixtures: the builtin suite, run twice for the determinism gate."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def suite_runs(tmp_path_factory):
    """Run the full builtin scenario suite twice into separate directories.

    Returns (outcomes_by_name, dir_one, dir_two, first_run_seconds,
    per_scenario_seconds).
    """
    from fejerflow.cli import run_suite
    from fejerflow.scenarios import builtin_scenarios, run_scenario
    from fejerflow.cli import write_artifacts, _write_suite_summary

    dir_one = tmp_path_factory.mktemp("suite_one")
    dir_two = tmp_path_factory.mktemp("suite_two")

    registry = builtin_scenarios()
    names = [n for n in sorted(registry) if not n.startswith("negative_")]
    outcomes = {}
    timings = {}
    start = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        outcome = run_scenario(registry[name].config)
        timings[name] = time.perf_counter() - t0
        write_artifacts(outcome, dir_one / name)
        outcomes[name] = outcome
    _write_suite_summary(list(outcomes.values()), dir_one)
    first_run_seconds = time.perf_counter() - start

    run_suite(dir_two)
    return outcomes, dir_one, dir_two, first_run_seconds, timings
