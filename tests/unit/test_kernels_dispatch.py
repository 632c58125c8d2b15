"""Unit tests for the kernel registry, backend selection, and dtype policy."""

import threading

import numpy as np
import pytest

from repro.kernels import dispatch


class TestRegistry:
    def test_get_known_kernel(self):
        assert callable(dispatch.get_kernel("packed.bit_differences"))
        assert callable(dispatch.get_kernel("linear.matmul"))

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no kernel registered"):
            dispatch.get_kernel("no.such.kernel")

    def test_unknown_backend_falls_back_to_numpy(self):
        numpy_impl = dispatch.get_kernel("linear.matmul", backend="numpy")

        @dispatch.register_kernel("test.only_numpy")
        def only_numpy():
            return "numpy"

        assert dispatch.get_kernel("test.only_numpy", backend="threaded") is only_numpy
        assert dispatch.get_kernel("linear.matmul", backend="numpy") is numpy_impl

    def test_register_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.register_kernel("test.bad", backend="cuda")

    def test_list_kernels_names_backends(self):
        listing = dispatch.list_kernels()
        assert "numpy" in listing["packed.bit_differences"]
        assert "threaded" in listing["packed.bit_differences"]

    def test_available_backends_are_numpy_and_threaded(self):
        assert dispatch.available_backends() == ["numpy", "threaded"]

    def test_threaded_override_wins_for_threaded_backend(self):
        @dispatch.register_kernel("test.both")
        def both_numpy():
            return "numpy"

        @dispatch.register_kernel("test.both", backend="threaded")
        def both_threaded():
            return "threaded"

        assert dispatch.get_kernel("test.both", backend="numpy") is both_numpy
        assert dispatch.get_kernel("test.both", backend="threaded") is both_threaded
        with dispatch.use_backend("threaded"):
            assert dispatch.get_kernel("test.both")() == "threaded"
        assert dispatch.get_kernel("test.both")() == "numpy"


class TestBackendSelection:
    def test_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        dispatch.set_backend(None)
        assert dispatch.active_backend() == "numpy"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
        dispatch.set_backend(None)
        assert dispatch.active_backend() == "threaded"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")

    def test_use_backend_context(self):
        with dispatch.use_backend("threaded"):
            assert dispatch.active_backend() == "threaded"
        assert dispatch.active_backend() == "numpy"

    def test_set_backend_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.set_backend("gpu")

    def test_set_backend_none_defers_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
        dispatch.set_backend("numpy")
        try:
            assert dispatch.active_backend() == "numpy"  # explicit wins
        finally:
            dispatch.set_backend(None)
        assert dispatch.active_backend() == "threaded"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert dispatch.active_backend() == "numpy"

    def test_num_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert dispatch.num_threads() == 3
        monkeypatch.delenv("REPRO_KERNEL_THREADS")
        assert dispatch.num_threads() >= 1


class TestFloatDtypePolicy:
    def test_default_is_float32(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOAT_DTYPE", raising=False)
        dispatch.set_float_dtype(None)
        assert dispatch.float_dtype() == np.dtype(np.float32)

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "float64")
        dispatch.set_float_dtype(None)
        assert dispatch.float_dtype() == np.dtype(np.float64)
        monkeypatch.delenv("REPRO_FLOAT_DTYPE")

    def test_use_float_dtype_context(self):
        with dispatch.use_float_dtype(np.float64):
            assert dispatch.float_dtype() == np.dtype(np.float64)
        assert dispatch.float_dtype() == np.dtype(np.float32)

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError, match="floating dtype"):
            dispatch.set_float_dtype(np.int32)


class TestEnvironmentValidation:
    def test_unknown_env_backend_raises(self, monkeypatch):
        dispatch.set_backend(None)
        # A typo of "threaded", and a process-pool backend no kernel provides:
        # a stale setting must fail loudly instead of silently running numpy.
        for backend in ("thread", "multiprocess"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
            with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
                dispatch.active_backend()
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")

    def test_non_integer_thread_count_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "four")
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            dispatch.num_threads()
        monkeypatch.delenv("REPRO_KERNEL_THREADS")

    def test_run_sharded_matches_direct(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        data = np.arange(20.0).reshape(10, 2)
        result = dispatch.run_sharded(lambda start, stop: data[start:stop] * 2, 10)
        np.testing.assert_array_equal(result, data * 2)
        monkeypatch.delenv("REPRO_KERNEL_THREADS")


class TestRunSharded:
    def test_small_input_runs_inline(self, monkeypatch):
        # Below two rows per thread the direct call is used: one call over
        # the whole range, no executor round trip.
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        calls = []
        data = np.arange(14.0).reshape(7, 2)

        def compute(start, stop):
            calls.append((start, stop))
            return data[start:stop] * 2

        np.testing.assert_array_equal(dispatch.run_sharded(compute, 7), data * 2)
        assert calls == [(0, 7)]

    @pytest.mark.parametrize("num_rows", [6, 7, 10, 31])
    def test_shards_tile_the_rows_and_concatenate_in_order(
        self, monkeypatch, num_rows
    ):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        calls = []
        lock = threading.Lock()
        data = np.arange(num_rows * 3.0).reshape(num_rows, 3)

        def compute(start, stop):
            with lock:
                calls.append((start, stop))
            return data[start:stop] + 1

        result = dispatch.run_sharded(compute, num_rows)
        np.testing.assert_array_equal(result, data + 1)
        bounds = sorted(calls)
        assert len(bounds) == 3
        assert bounds[0][0] == 0 and bounds[-1][1] == num_rows
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start  # contiguous, no gaps, no overlap
