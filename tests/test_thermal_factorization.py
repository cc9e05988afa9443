"""Tests for the shared content-keyed sparse LU factorisation cache."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import repro.thermal.factorization as factorization_module
from repro.thermal import (
    FactorizationCache,
    clear_factorization_cache,
    factorization_cache_stats,
    factorize,
    matrix_content_key,
)


def spd_matrix(n=12, seed=0, scale=1.0):
    """A small sparse SPD matrix (diffusion-like tridiagonal plus noise)."""
    rng = np.random.default_rng(seed)
    diag = 2.0 + rng.random(n)
    off = -rng.random(n - 1)
    matrix = sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    return (scale * matrix).tocsc()


class TestMatrixContentKey:
    def test_content_addressed(self):
        a = spd_matrix(seed=1)
        b = spd_matrix(seed=1)
        assert a is not b
        assert matrix_content_key(a) == matrix_content_key(b)

    def test_layout_independent(self):
        a = spd_matrix(seed=2)
        assert matrix_content_key(a) == matrix_content_key(a.tocsr())
        assert matrix_content_key(a) == matrix_content_key(a.tocoo())

    def test_sensitive_to_values_and_pattern(self):
        a = spd_matrix(seed=3)
        scaled = spd_matrix(seed=3, scale=1.0 + 1e-12)
        assert matrix_content_key(a) != matrix_content_key(scaled)
        widened = sparse.lil_matrix(a)
        widened[0, 5] = 1.0e-30
        assert matrix_content_key(a) != matrix_content_key(widened.tocsc())
        assert matrix_content_key(a) != matrix_content_key(spd_matrix(n=13, seed=3))


class TestFactorizationCache:
    def test_reuse_is_keyed_by_content(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=4)
        first, key, reused = cache.factorize(matrix)
        assert not reused
        # An independently assembled but identical matrix is served the same
        # factorisation object.
        second, same_key, reused = cache.factorize(spd_matrix(seed=4))
        assert reused and same_key == key and second is first
        other, other_key, reused = cache.factorize(spd_matrix(seed=5))
        assert not reused and other_key != key
        assert cache.stats() == {"built": 2, "reused": 1, "entries": 2}

    def test_served_factorization_solves_identically(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=6)
        rhs = np.arange(matrix.shape[0], dtype=np.float64)
        built, _, _ = cache.factorize(matrix)
        served, _, reused = cache.factorize(spd_matrix(seed=6))
        assert reused
        np.testing.assert_array_equal(built.solve(rhs), served.solve(rhs))

    def test_precomputed_key_is_trusted(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=7)
        key = matrix_content_key(matrix)
        _, returned, reused = cache.factorize(matrix, key=key)
        assert returned == key and not reused
        _, _, reused = cache.factorize(matrix, key=key)
        assert reused

    def test_lru_eviction_is_bounded(self):
        cache = FactorizationCache(max_entries=1)
        cache.factorize(spd_matrix(seed=8))
        cache.factorize(spd_matrix(seed=9))  # evicts seed-8
        assert len(cache) == 1
        _, _, reused = cache.factorize(spd_matrix(seed=8))
        assert not reused  # was evicted: rebuilt
        assert cache.stats()["built"] == 3

    def test_clear_keeps_lifetime_counters(self):
        cache = FactorizationCache()
        cache.factorize(spd_matrix(seed=10))
        cache.factorize(spd_matrix(seed=10))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["built"] == 1 and stats["reused"] == 1


class TestSharedCache:
    def test_module_level_cache_round_trip(self):
        clear_factorization_cache()
        before = factorization_cache_stats()
        matrix = spd_matrix(seed=11)
        _, key, reused = factorize(matrix)
        assert not reused
        _, _, reused = factorize(spd_matrix(seed=11), key=key)
        assert reused
        after = factorization_cache_stats()
        assert after["built"] == before["built"] + 1
        assert after["reused"] == before["reused"] + 1
        clear_factorization_cache()


class OwnedStub:
    """Stands in for a SuperLU object: records where it was built and freed."""

    def __init__(self, freed):
        self.built_on = threading.get_ident()
        self._freed = freed

    def solve(self, rhs):
        return np.asarray(rhs, dtype=float).copy()

    def __del__(self):
        self._freed.append((self.built_on, threading.get_ident()))


def wait_for(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class TestLuThreads:
    def test_lu_is_freed_on_the_thread_that_built_it(self, monkeypatch):
        freed = []
        monkeypatch.setattr(
            factorization_module, "splu", lambda *args, **kwargs: OwnedStub(freed)
        )
        cache = FactorizationCache()
        with ThreadPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(threading.get_ident).result()
            handle, _, _ = pool.submit(cache.factorize, spd_matrix(seed=12)).result()
        rhs = np.arange(12.0)
        np.testing.assert_array_equal(handle.solve(rhs), rhs)
        # Dropped on the main thread, by the handle and then by the cache.
        del handle
        cache.clear()
        assert wait_for(lambda: len(freed) == 1)
        built_on, freed_on = freed[0]
        assert freed_on == built_on
        assert built_on not in (worker, threading.get_ident())

    def test_concurrent_requests_share_one_build(self, monkeypatch):
        calls = []
        original = factorization_module.splu

        def slow_splu(*args, **kwargs):
            calls.append(1)
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(factorization_module, "splu", slow_splu)
        clear_factorization_cache()
        before = factorization_cache_stats()
        barrier = threading.Barrier(2)

        def request():
            barrier.wait()
            return factorize(spd_matrix(seed=13))

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(request) for _ in range(2)]
            results = [future.result() for future in futures]
        assert len(calls) == 1
        after = factorization_cache_stats()
        assert after["built"] - before["built"] == 1
        assert after["reused"] - before["reused"] == 1
        assert results[0][0] is results[1][0]
        assert sorted(reused for _, _, reused in results) == [False, True]
        clear_factorization_cache()

    def test_stress_one_build_per_key(self, monkeypatch):
        # More requesting threads than cores, switching as often as possible:
        # a lost claim or a duplicated build breaks the counts below.
        calls = []
        original = factorization_module.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(factorization_module, "splu", counting_splu)
        cache = FactorizationCache(max_entries=16)
        keys = 6
        matrices = [spd_matrix(n=40, seed=100 + index) for index in range(keys)]
        requests = [(position, position % keys) for position in range(96)]

        def request(position, index):
            matrix = matrices[index]
            if position % 3 == 0:
                build = cache.prefetch(lambda: matrix, matrix_content_key(matrix))
                return index, build.result(timeout=60), None
            handle, _, reused = cache.factorize(matrix)
            return index, handle, reused

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4 * (os.cpu_count() or 1)) as pool:
                futures = [pool.submit(request, *args) for args in requests]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == keys
        stats = cache.stats()
        assert stats["built"] == keys
        flags = [reused for _, _, reused in results if reused is not None]
        assert stats["reused"] == sum(flags)
        handles = {}
        for index, handle, reused in results:
            assert handles.setdefault(index, handle) is handle
        fresh = [index for index, _, reused in results if reused is False]
        assert len(fresh) == len(set(fresh))  # at most one new build per key

    def test_prefetch_is_collected_by_factorize(self, monkeypatch):
        calls = []
        original = factorization_module.splu

        def counting_splu(*args, **kwargs):
            calls.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(factorization_module, "splu", counting_splu)
        cache = FactorizationCache()
        matrix = spd_matrix(seed=14)
        key = matrix_content_key(matrix)
        build = cache.prefetch(lambda: matrix, key)
        assert cache.prefetch(lambda: matrix, key) is build  # no second build
        handle, _, reused = cache.factorize(matrix, key=key)
        assert reused and handle is build.result()
        assert len(calls) == 1 and calls[0] != threading.get_ident()
        assert cache.stats() == {"built": 1, "reused": 1, "entries": 1}

    def test_cancelled_prefetch_is_rebuilt_on_request(self):
        cache = FactorizationCache()
        release = threading.Event()
        started = []

        def blocked_matrix():
            started.append(1)
            release.wait()
            return spd_matrix(seed=15)

        # Occupy every LU thread so the prefetch below has to wait.
        limit = max(2, os.cpu_count() or 1)
        blockers = [
            cache.prefetch(blocked_matrix, f"blocker-{index}") for index in range(limit)
        ]
        try:
            assert wait_for(lambda: len(started) == limit)
            matrix = spd_matrix(seed=16)
            build = cache.prefetch(lambda: matrix, matrix_content_key(matrix))
            cache.cancel_prefetches([build])
            assert build.cancelled()
        finally:
            release.set()
        cache.cancel_prefetches(blockers)
        assert all(blocker.done() for blocker in blockers)
        _, _, reused = cache.factorize(matrix)
        assert not reused

    def test_failed_build_is_not_cached(self):
        cache = FactorizationCache()
        singular = sparse.csc_matrix((4, 4))
        with pytest.raises(RuntimeError):
            cache.factorize(singular)
        assert len(cache) == 0 and cache.stats()["built"] == 0

    def test_forked_worker_starts_its_own_lu_threads(self):
        factorize(spd_matrix(seed=17))  # the parent's LU threads are running
        with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
            solution = pool.submit(_solve_in_child, 18).result(timeout=60)
        matrix = spd_matrix(seed=18)
        rhs = np.arange(matrix.shape[0], dtype=np.float64)
        np.testing.assert_allclose(matrix @ solution, rhs)

    def test_interpreter_exits_cleanly(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from scipy import sparse
            from repro.thermal import factorize

            def matrix(seed):
                rng = np.random.default_rng(seed)
                return sparse.diags([-rng.random(7), 3.0 + rng.random(8), -rng.random(7)],
                                    [-1, 0, 1], format="csc")

            handle, _, _ = factorize(matrix(0))
            handle.solve(np.ones(8))
            del handle                      # freed by its LU thread
            kept, _, _ = factorize(matrix(1))  # alive until exit
            """
        )
        src = Path(factorization_module.__file__).resolve().parents[2]
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert completed.returncode == 0
        assert completed.stderr == ""


def _solve_in_child(seed):
    matrix = spd_matrix(seed=seed)
    handle, _, _ = factorize(matrix)
    return handle.solve(np.arange(matrix.shape[0], dtype=np.float64))
