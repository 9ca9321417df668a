"""Unit tests for the pluggable parallel execution engine."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.executor import (
    BACKENDS,
    ExecutorConfig,
    available_workers,
    coerce_executor,
    run_ordered,
)


def square(x):
    return x * x


def offset_square(x, offset):
    return x * x + offset


def boom(x):
    raise ValueError(f"boom {x}")


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig()
        config.validate()
        assert config.backend == "serial"
        assert config.n_jobs is None
        assert config.resolved_jobs() == 1
        assert not config.parallel

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_validate(self, backend):
        ExecutorConfig(backend=backend, n_jobs=2).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(backend="mpi").validate()

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, n_jobs):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(backend="thread", n_jobs=n_jobs).validate()

    def test_serial_always_one_job(self):
        assert ExecutorConfig(backend="serial", n_jobs=8).resolved_jobs() == 1

    def test_none_jobs_resolves_to_available_cores(self):
        config = ExecutorConfig(backend="thread", n_jobs=None)
        assert config.resolved_jobs() == available_workers()

    def test_explicit_jobs_resolve_verbatim(self):
        assert ExecutorConfig(backend="thread", n_jobs=4).resolved_jobs() == 4

    def test_parallel_property(self):
        assert ExecutorConfig(backend="thread", n_jobs=2).parallel
        assert not ExecutorConfig(backend="thread", n_jobs=1).parallel
        assert not ExecutorConfig(backend="serial", n_jobs=4).parallel


class TestCoerceExecutor:
    def test_none_is_serial(self):
        config = coerce_executor(None)
        assert config.backend == "serial"

    def test_string_backend(self):
        config = coerce_executor("thread", n_jobs=3)
        assert config.backend == "thread"
        assert config.n_jobs == 3

    def test_existing_config_passthrough(self):
        original = ExecutorConfig(backend="thread", n_jobs=2)
        assert coerce_executor(original) is original

    def test_jobs_fills_config_without_jobs(self):
        config = coerce_executor(ExecutorConfig(backend="thread"), n_jobs=5)
        assert config.n_jobs == 5

    def test_invalid_type_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_executor(42)

    def test_invalid_backend_string_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_executor("gpu")
        with pytest.raises(ConfigurationError):
            coerce_executor("process")


class TestRunOrdered:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_results_in_task_order(self, backend, n_jobs):
        config = ExecutorConfig(backend=backend, n_jobs=n_jobs)
        args = [(i,) for i in range(9)]
        assert run_ordered(square, args, config) == [i * i for i in range(9)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_argument_tasks(self, backend):
        config = ExecutorConfig(backend=backend, n_jobs=2)
        args = [(i, 100) for i in range(5)]
        expected = [i * i + 100 for i in range(5)]
        assert run_ordered(offset_square, args, config) == expected

    def test_empty_task_list(self):
        config = ExecutorConfig(backend="thread", n_jobs=2)
        assert run_ordered(square, [], config) == []

    def test_single_task_runs_inline(self):
        config = ExecutorConfig(backend="thread", n_jobs=4)
        assert run_ordered(square, [(3,)], config) == [9]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_exception_propagates(self, backend):
        config = ExecutorConfig(backend=backend, n_jobs=2)
        with pytest.raises(ValueError, match="boom"):
            run_ordered(boom, [(1,), (2,)], config)
