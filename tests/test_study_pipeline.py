"""One study pipeline: every study driver runs its cells on a
:class:`SweepRunner`, and every study fails the same way.

A cell that keeps raising is retried ``--retries`` times, quarantined,
rendered as FAIL, and the study exits 3 -- whichever study it belongs
to and whatever ``--jobs`` says.
"""

import inspect

import pytest

import repro.core.parallel as parallel
from repro.cli import main
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import run_size_sweep
from repro.core.offload import run_offload_study
from repro.core.parallel import SweepRunner
from repro.core.repeat import gain_statistics, replicate
from repro.core.scale import run_coalesce_sweep, run_scale_sweep
from repro.diagnose import find_saturation, run_diagnosis

DRIVERS = (
    run_size_sweep, run_scale_sweep, run_coalesce_sweep,
    run_offload_study, replicate, gain_statistics, find_saturation,
    run_diagnosis,
)

EXECUTOR_PARAMS = {"cache", "progress", "jobs", "runner", "journal",
                   "runstore"}


@pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
def test_runner_is_the_only_executor_parameter(driver):
    params = set(inspect.signature(driver).parameters)
    assert params & EXECUTOR_PARAMS == {"runner"}
    assert inspect.signature(driver).parameters["runner"].default is None


@pytest.fixture
def failing(monkeypatch):
    """Make ``run_experiment`` raise for configs ``pred`` selects;
    returns the list of failed attempts (one label each)."""
    attempts = []
    real = parallel.run_experiment

    def install(pred):
        def run_experiment(config, cache=None, progress=None):
            if pred(config):
                attempts.append(config.label())
                raise RuntimeError("injected failure")
            return real(config, cache=cache, progress=progress)

        monkeypatch.setattr(parallel, "run_experiment", run_experiment)
        return attempts

    return install


TINY = ["--warmup-ms", "1", "--measure-ms", "2", "--no-cache",
        "--no-runstore"]


def test_offload_failed_cell_renders_fail_and_exits_3(failing, capsys):
    attempts = failing(lambda c: c.affinity == "toe")
    rc = main(["offload", "--directions", "rx", "--modes", "full,toe",
               "--connections", "2"] + TINY)
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL" in captured.out
    assert "offload incomplete" in captured.err
    assert len(attempts) == 2  # the default --retries 1: two attempts


def test_coalesce_failed_cell_renders_fail_and_exits_3(failing, capsys):
    attempts = failing(lambda c: c.net_overrides.get("coalesce_us") == 25)
    rc = main(["scale", "--coalesce-sweep", "--cpus", "2", "--queues", "2",
               "--connections", "4", "--coalesce-us", "5", "25",
               "--coalesce-variants", "baseline", "--jobs", "1",
               "--retries", "0"] + TINY)
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL" in captured.out
    assert "coalesce incomplete" in captured.err
    assert len(attempts) == 1  # --retries 0 is honoured


@pytest.mark.parametrize("retries", [0, 2])
def test_serial_diagnose_honours_retries(failing, capsys, tmp_path,
                                         retries):
    attempts = failing(
        lambda c: "copy_cost_scale" in c.net_overrides
    )
    rc = main([
        "diagnose", "--direction", "rx", "--modes", "none",
        "--knobs", "copy-engine", "--size", "8192", "--connections", "2",
        "--steps", "0", "--jobs", "1", "--retries", str(retries),
        "--json", str(tmp_path / "diag.json"),
    ] + TINY)
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL" in captured.out
    assert len(attempts) == retries + 1


def test_replicate_refuses_to_average_over_a_failed_cell(failing):
    failing(lambda c: c.seed == 5)
    config = ExperimentConfig(direction="tx", message_size=1024,
                              n_connections=2, warmup_ms=1, measure_ms=2)
    with pytest.raises(RuntimeError, match="1 cell\\(s\\) failed"):
        replicate(config, seeds=(3, 5), runner=SweepRunner(jobs=1,
                                                           retries=0))
