"""Shared content-keyed sparse LU factorisation cache, built on LU threads.

Both :class:`~repro.thermal.solver.SteadyStateSolver` (the conductance
matrix ``K``) and :class:`~repro.thermal.transient.TransientSolver` (one
implicit matrix ``C/dt + θK`` per distinct step size) factorise sparse
matrices with the same ``splu`` call and the same ``MMD_AT_PLUS_A``
ordering, and each used to hand-roll its own cache.  This module is the
single integration point: factorisations are keyed by a SHA-256 over the
matrix *content* (shape, sparsity pattern, values), so every solver
instance assembling the identical matrix — the 60+ scenarios of a campaign
that share a mesh pattern, or the steady and transient solvers of one flow
— pays the factorisation once per process instead of once per instance.

The cache is process-global and bounded (LRU): a factorisation of a
paper-scale mesh holds tens of megabytes, so sweeps varying the step size
or the mesh must not accumulate them without limit.  Reuse is numerically
invisible — ``splu`` is deterministic in the matrix content, so a served
factorisation yields bit-identical solves — which is what lets the
executor-conformance suite keep pinning artifacts byte-identical whatever
the process topology.

**LU threads.**  SciPy's SuperLU objects return their memory only when
they are freed on the thread that built them; one dropped on any other
thread is never freed (30 build/drop rounds of a 10k-cell matrix grow the
resident set by gigabytes).  A resident process — ``repro serve``, a
thread-pool executor — builds on one thread and drops from an LRU or the
garbage collector on another, so every SuperLU object of the library is
built *and* freed on a small set of dedicated LU threads.  Callers get a
:class:`Factorization` handle; when the handle dies, its SuperLU object is
passed back to the thread that built it.  ``splu`` releases the GIL, so
the threads also let an LU build overlap other work: :func:`prefetch`
starts a factorisation that a later :func:`factorize` of the same key
collects, and concurrent requests for one key share one build.
"""

from __future__ import annotations

import atexit
import collections
import hashlib
import os
import queue
import threading
from concurrent.futures import Future, wait
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu, splu

from ..caching import LruCache

#: Fill-reducing ordering used by every direct solve of the library (roughly
#: halves the factorisation time of the default COLAMD on these meshes).
PERMC_SPEC = "MMD_AT_PLUS_A"

#: Inbox of one LU thread: builds to run and released SuperLU objects to free.
_Inbox = queue.SimpleQueue

#: Set once the interpreter is shutting down: handles stop routing their
#: SuperLU objects back, the memory is returned with the process anyway.
_exiting = threading.Event()


def matrix_content_key(matrix: sparse.spmatrix) -> str:
    """SHA-256 over the content of a sparse matrix (shape, pattern, values).

    Two matrices assembled independently from the same mesh and boundary
    conditions hash identically, so the key is a cross-solver,
    cross-scenario content address.  The matrix is viewed in sorted CSC
    form — the layout ``splu`` consumes — so the key is layout-independent.
    """
    csc = matrix.tocsc()
    csc.sort_indices()
    digest = hashlib.sha256()
    digest.update(b"csc-v1:")
    digest.update(np.asarray(csc.shape, dtype=np.int64).tobytes())
    digest.update(str(csc.indices.dtype).encode("ascii"))
    digest.update(csc.indptr.tobytes())
    digest.update(csc.indices.tobytes())
    digest.update(np.ascontiguousarray(csc.data, dtype=np.float64).tobytes())
    return digest.hexdigest()


class Factorization:
    """Handle of a SuperLU object owned by the LU thread that built it.

    The SuperLU object sits in a one-element list that nothing else
    references; when the handle dies, the list goes to the owner's inbox
    and the owner empties it, so the object is freed on its own thread.
    """

    __slots__ = ("_box", "_owner")

    def __init__(self, lu: object, owner: Optional[_Inbox]) -> None:
        self._box = [lu]
        self._owner = owner

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (one vector or a stacked right-hand-side matrix)."""
        return self._box[0].solve(rhs)

    def __del__(self, _exiting: threading.Event = _exiting) -> None:
        # The default argument survives module teardown at exit.
        if self._owner is not None and not _exiting.is_set():
            self._owner.put(self._box)


class _Build(Future):
    """One pending or finished build, shared by every request for its key."""

    def __init__(
        self,
        make: Callable[[], object],
        claimed: bool,
        cache: Optional["FactorizationCache"] = None,
        key: str = "",
    ) -> None:
        super().__init__()
        self.make: Optional[Callable[[], object]] = make
        #: False while only a prefetch asked for it (it may still be cancelled).
        self.claimed = claimed
        self.cache = cache
        self.key = key


def _run(build: _Build, owner: Optional[_Inbox]) -> None:
    """Run one build (a function, so no local outlives it on the thread)."""
    make, cache = build.make, build.cache
    build.make = build.cache = None  # a finished build holds no matrix
    if not build.set_running_or_notify_cancel():
        if cache is not None:
            cache._forget(build)
        return
    try:
        handle = Factorization(make(), owner)
    except BaseException as error:  # re-raised by every waiter's result()
        if cache is not None:
            cache._forget(build)
        build.set_exception(error)
    else:
        if cache is not None:
            cache._count_built()
        build.set_result(handle)


class _LuThreads:
    """Dedicated threads that build and free every SuperLU object.

    A build goes to an idle thread, or waits in a backlog where builds a
    caller is blocked on run before prefetches.  Threads start on demand,
    up to ``max(2, os.cpu_count())``: two let a prefetch overlap the
    foreground factorisation even on a 2-core machine.
    """

    def __init__(self) -> None:
        self._limit = max(2, os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._urgent: Deque[_Build] = collections.deque()
        self._prefetches: Deque[_Build] = collections.deque()
        self._idle: List[_Inbox] = []
        self._threads: List[Tuple[threading.Thread, _Inbox]] = []

    def submit(self, build: _Build) -> None:
        thread = None
        with self._lock:
            if self._idle:
                inbox = self._idle.pop()
            elif len(self._threads) < self._limit:
                inbox = queue.SimpleQueue()
                thread = threading.Thread(
                    target=self._serve,
                    args=(inbox,),
                    name=f"repro-lu-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append((thread, inbox))
            else:
                (self._urgent if build.claimed else self._prefetches).append(build)
                return
        inbox.put(build)
        if thread is not None:
            thread.start()

    def _next(self, inbox: _Inbox) -> Optional[_Build]:
        """The oldest waiting build, or ``None`` after marking ``inbox`` idle."""
        with self._lock:
            backlog = self._urgent or self._prefetches
            if backlog:
                return backlog.popleft()
            self._idle.append(inbox)
            return None

    def _serve(self, inbox: _Inbox) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            if isinstance(item, list):
                item.clear()  # a released handle's SuperLU object
                continue
            while item is not None:
                _run(item, inbox)
                item = self._next(inbox)

    def stop(self) -> None:
        """Cancel the waiting builds and join every thread."""
        with self._lock:
            waiting = list(self._urgent) + list(self._prefetches)
            self._urgent.clear()
            self._prefetches.clear()
            threads = list(self._threads)
        for build in waiting:
            build.cancel()
        for _, inbox in threads:
            inbox.put(None)
        for thread, _ in threads:
            thread.join()


_threads: Optional[_LuThreads] = None
_threads_lock = threading.Lock()


def _submit(build: _Build) -> None:
    """Hand ``build`` to the LU threads (or, once exiting, run it here)."""
    global _threads
    with _threads_lock:
        exiting = _exiting.is_set()
        if not exiting and _threads is None:
            _threads = _LuThreads()
        threads = _threads
    if exiting:
        _run(build, None)
    else:
        threads.submit(build)


def _stop_lu_threads() -> None:
    with _threads_lock:
        _exiting.set()
        threads = _threads
    if threads is not None:
        threads.stop()


def _reset_after_fork() -> None:
    """A forked child has none of its parent's threads: start afresh."""
    global _threads, _threads_lock
    _threads = None
    _threads_lock = threading.Lock()
    shared_cache._reset()


class FactorizationCache:
    """Bounded, thread-safe cache of ``splu`` factorisations by content key.

    Entries are builds (futures), so a key is factorised once however many
    callers ask for it at the same time.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self._entries: LruCache[_Build] = LruCache(max_entries)
        self._lock = threading.Lock()
        #: Lifetime counters (monotone, unaffected by eviction).
        self.built = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(
        self, key: str, make: Callable[[], object], claimed: bool
    ) -> Tuple[_Build, bool]:
        """The build of ``key`` and whether it existed; submitted if new."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry.cancelled():
                if claimed:
                    entry.claimed = True
                    self.reused += 1
                return entry, True
            entry = _Build(make, claimed, self, key)
            self._entries.put(key, entry)
        _submit(entry)
        return entry, False

    def factorize(
        self, matrix: sparse.spmatrix, key: Optional[str] = None
    ) -> Tuple[Factorization, str, bool]:
        """LU factorisation of ``matrix``, served from the cache when known.

        Returns ``(factorization, content key, reused)``.  Pass ``key`` when
        the caller already knows the content key (saves the re-hash).  The
        build runs on an LU thread while the caller waits; a request for a
        key already being built waits for that build.
        """
        if key is None:
            key = matrix_content_key(matrix)
        entry, reused = self._entry(
            key, lambda: splu(matrix.tocsc(), permc_spec=PERMC_SPEC), True
        )
        return entry.result(), key, reused

    def prefetch(
        self, build_matrix: Callable[[], sparse.spmatrix], key: str
    ) -> Future:
        """Start factorising ``build_matrix()`` under ``key`` on an LU thread.

        Returns the build.  A later :meth:`factorize` of ``key`` collects it
        and counts as reused; nothing new starts when ``key`` is cached or
        in flight.  ``build_matrix`` runs on the LU thread too.
        """
        entry, _ = self._entry(
            key,
            lambda: splu(build_matrix().tocsc(), permc_spec=PERMC_SPEC),
            False,
        )
        return entry

    def cancel_prefetches(self, builds: Iterable[Future]) -> None:
        """Withdraw prefetches nobody has asked for: cancel those still
        waiting for a thread, and wait for those already running."""
        running = []
        with self._lock:
            for build in builds:
                if not build.claimed and not build.cancel():
                    running.append(build)
        wait(running)

    def _count_built(self) -> None:
        with self._lock:
            self.built += 1

    def _forget(self, build: _Build) -> None:
        """Drop a cancelled or failed build, so the next request retries."""
        with self._lock:
            if self._entries.peek(build.key) is build:
                self._entries.discard(build.key)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._entries = LruCache(self._entries.max_entries)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current entry count."""
        with self._lock:
            return {
                "built": self.built,
                "reused": self.reused,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        """Drop every cached factorisation (counters are kept)."""
        with self._lock:
            self._entries.clear()


#: Process-global cache shared by every solver of the process.
shared_cache = FactorizationCache()

atexit.register(_stop_lu_threads)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def factorize(
    matrix: sparse.spmatrix, key: Optional[str] = None
) -> Tuple[Factorization, str, bool]:
    """Factorise through the process-global cache (see
    :meth:`FactorizationCache.factorize`)."""
    return shared_cache.factorize(matrix, key)


def prefetch(build_matrix: Callable[[], sparse.spmatrix], key: str) -> Future:
    """Start a factorisation in the process-global cache (see
    :meth:`FactorizationCache.prefetch`)."""
    return shared_cache.prefetch(build_matrix, key)


def cancel_prefetches(builds: Iterable[Future]) -> None:
    """Withdraw process-global prefetches (see
    :meth:`FactorizationCache.cancel_prefetches`)."""
    shared_cache.cancel_prefetches(builds)


def incomplete_factorize(
    matrix: sparse.spmatrix, drop_tol: float, fill_factor: float
) -> Factorization:
    """Uncached incomplete LU (``spilu``) of ``matrix``, built on an LU thread.

    ``spilu`` returns a SuperLU object too, so it is owned the same way.
    """
    build = _Build(
        lambda: spilu(matrix.tocsc(), drop_tol=drop_tol, fill_factor=fill_factor),
        claimed=True,
    )
    _submit(build)
    return build.result()


def factorization_cache_stats() -> Dict[str, int]:
    """Counters of the process-global cache."""
    return shared_cache.stats()


def clear_factorization_cache() -> None:
    """Drop every entry of the process-global cache (tests, memory pressure)."""
    shared_cache.clear()
