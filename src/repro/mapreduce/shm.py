"""Shared-memory column segments for the multi-process parallel engine.

The columnar engines of PRs 1--5 keep every hot data structure as a flat
``array('q')`` / ``array('d')`` / byte-mask buffer.  Those buffers are exactly
what :mod:`multiprocessing.shared_memory` can expose to worker processes
without copying: the driver packs the named columns of one pipeline phase
into a single segment (:class:`ColumnSegment`), ships the tiny picklable
:attr:`~ColumnSegment.spec` to the workers, and every worker attaches the
segment once and reads the columns through zero-copy ``memoryview`` casts
(and ``numpy.frombuffer`` views over those in the vectorised kernels).

Lifecycle rules (see also the :mod:`repro.mapreduce` package docstring):

* the **driver** owns every segment: it creates the block of memory, keeps
  the :class:`ColumnSegment` handle, and calls :meth:`ColumnSegment.destroy`
  (close + unlink) when the parallel engine shuts down;
* **workers** only ever attach.  Python's :class:`SharedMemory` registers
  every attachment with the ``resource_tracker`` as if the attaching process
  owned the segment (fixed upstream only in 3.13 via ``track=False``).  What
  that implies depends on the start method: a *spawned* worker runs its own
  tracker, which at worker exit would warn about -- and, worse, unlink --
  the driver's "leaked" segments, so :func:`attach` must unregister the
  attachment immediately (``unregister=True``); a *forked* worker shares the
  driver's tracker process, where the segment is already registered by the
  driver's create (the registry is a set, so the attach-register is a
  no-op), and unregistering there would strip the driver's own entry and
  make the final unlink trip a tracker ``KeyError`` (``unregister=False``).
  :class:`~repro.mapreduce.parallel.ParallelEngine` configures the worker
  side accordingly via the pool initializer;
* ``memoryview`` casts pin the mapped buffer, so
  :meth:`AttachedSegment.release` drops every view *before* closing the
  mapping (closing first raises ``BufferError``).

The janitor
-----------

Ownership in :meth:`ColumnSegment.destroy` covers the orderly paths, but a
driver that dies by SIGKILL (or a test run aborted mid-engine) never reaches
``close()`` and would leave its segments pinned in ``/dev/shm`` forever.
Three mechanisms close that hole:

* every segment this module creates carries a **parseable name**,
  ``repro-<driver pid>-<run token>-<seq>`` (see :func:`new_run_prefix`), so a
  stray segment can always be traced back to its owning process;
* a process-wide **live registry** records every not-yet-destroyed segment,
  and an ``atexit`` hook destroys whatever is still registered at interpreter
  shutdown -- covering exceptions that bypass engine ``close()``;
* the audit API -- :func:`orphaned_segments` lists ``repro-*`` entries in
  ``/dev/shm`` whose owner pid is no longer alive (or that this very process
  abandoned), and :func:`sweep` unlinks them.  The parallel engine sweeps on
  startup, so a crashed previous run is cleaned by the next one; operators
  and the chaos tests call it directly.

Workers never create ``repro-*`` segments, so the janitor can never reclaim
memory a live run still needs: liveness of the *driver* pid is the single
ownership criterion.
"""

from __future__ import annotations

import atexit
import os
import secrets
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple, Union

#: item size per supported typecode ("q" int64, "d" float64, "B" byte mask)
_ITEM_SIZES = {"q": 8, "d": 8, "b": 1, "B": 1}

#: common name prefix of every segment this module creates -- what the
#: janitor scans /dev/shm for
SEGMENT_PREFIX = "repro-"

#: where POSIX shared memory lives on Linux (janitor is a no-op elsewhere)
_SHM_DIR = "/dev/shm"

#: segments created by this process that have not been destroyed yet
_live_segments: Dict[str, "ColumnSegment"] = {}


def new_run_prefix() -> str:
    """A fresh, parseable segment-name prefix: ``repro-<pid>-<token>``.

    The pid identifies the owning driver (so :func:`orphaned_segments` can
    test its liveness); the random token keeps two engines in one process --
    or a recycled pid -- from colliding.
    """
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(3)}"


def _atexit_sweep() -> None:  # pragma: no cover - runs at interpreter exit
    for segment in list(_live_segments.values()):
        try:
            segment.destroy()
        except Exception:
            pass


atexit.register(_atexit_sweep)


def _owner_pid(name: str) -> Optional[int]:
    """The driver pid encoded in a janitor-managed segment name, if any."""
    if not name.startswith(SEGMENT_PREFIX):
        return None
    pid_text = name[len(SEGMENT_PREFIX) :].split("-", 1)[0]
    return int(pid_text) if pid_text.isdigit() else None


def orphaned_segments() -> List[str]:
    """Names of ``repro-*`` segments in ``/dev/shm`` with no live owner.

    A segment is orphaned when the pid in its name no longer refers to a
    running process, or when it names this very process but is no longer in
    the live registry (created and then lost without ``destroy()``).
    Segments of other *live* pids are never reported: they belong to a
    running driver.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    orphans = []
    for name in sorted(os.listdir(_SHM_DIR)):
        pid = _owner_pid(name)
        if pid is None:
            continue
        if pid == os.getpid():
            if name not in _live_segments:
                orphans.append(name)
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            orphans.append(name)
        except PermissionError:  # pragma: no cover - pid alive, other user
            pass
    return orphans


def sweep() -> List[str]:
    """Unlink every orphaned ``repro-*`` segment; returns the swept names."""
    swept = []
    for name in orphaned_segments():
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:  # pragma: no cover - raced another sweeper
            continue
        swept.append(name)
    return swept

#: picklable layout: (shared-memory name, {column: (typecode, offset, items)})
SegmentSpec = Tuple[str, Dict[str, Tuple[str, int, int]]]

ColumnData = Union[array, bytes, bytearray, memoryview]


def _column_bytes(typecode: str, data: ColumnData) -> bytes:
    if isinstance(data, array):
        if data.typecode != typecode:
            raise ValueError(f"array typecode {data.typecode!r} != column typecode {typecode!r}")
        return data.tobytes()
    return bytes(data)


class ColumnSegment:
    """One shared-memory segment holding named flat columns (driver side).

    Parameters
    ----------
    columns:
        ``{name: (typecode, data)}`` with typecode ``"q"`` (int64), ``"d"``
        (float64) or ``"b"``/``"B"`` (bytes).  The data is copied into the
        segment once at construction; offsets are 8-byte aligned so every
        column can be cast (and ``numpy.frombuffer``-viewed) directly.
    name:
        Explicit segment name, normally ``"<run prefix>-<seq>"`` from
        :func:`new_run_prefix` so the janitor can attribute the segment to
        its owning driver.  When ``None`` a fresh prefix is minted.  A stale
        ``/dev/shm`` entry under the same name (a dead owner's leftover) is
        swept and the creation retried once.
    """

    def __init__(
        self, columns: Dict[str, Tuple[str, ColumnData]], name: Optional[str] = None
    ) -> None:
        payload: Dict[str, bytes] = {}
        layout: Dict[str, Tuple[str, int, int]] = {}
        offset = 0
        for column, (typecode, data) in columns.items():
            item_size = _ITEM_SIZES[typecode]
            raw = _column_bytes(typecode, data)
            if len(raw) % item_size:
                raise ValueError(f"column {column!r} is not a whole number of {typecode!r} items")
            payload[column] = raw
            layout[column] = (typecode, offset, len(raw) // item_size)
            # 8-byte alignment keeps int64/float64 casts legal at any offset
            offset += (len(raw) + 7) & ~7
        if name is None:
            name = f"{new_run_prefix()}-0"
        # zero-length segments are rejected by the OS: allocate one byte
        try:
            self._shm = shared_memory.SharedMemory(create=True, size=max(1, offset), name=name)
        except FileExistsError:
            # only a dead owner's leftover can collide (live prefixes are
            # unique per engine): reclaim it and retry once
            if name not in orphaned_segments():
                raise
            os.unlink(os.path.join(_SHM_DIR, name))
            self._shm = shared_memory.SharedMemory(create=True, size=max(1, offset), name=name)
        _live_segments[self._shm.name] = self
        buf = self._shm.buf
        for column, raw in payload.items():
            _typecode, start, _items = layout[column]
            buf[start : start + len(raw)] = raw
        self.spec: SegmentSpec = (self._shm.name, layout)
        self.nbytes = max(1, offset)
        self._destroyed = False

    def destroy(self) -> None:
        """Close the driver's mapping and unlink the segment (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        _live_segments.pop(self._shm.name, None)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external removal
            pass

    def __del__(self) -> None:  # pragma: no cover - safety net only
        try:
            self.destroy()
        except Exception:
            pass


class AttachedSegment:
    """A worker's zero-copy view of a :class:`ColumnSegment`.

    :attr:`views` maps every column name to a typed ``memoryview`` over the
    shared buffer.  :meth:`release` must drop the views before closing the
    mapping; the worker-side cache in :mod:`repro.mapreduce.worker` calls it
    when evicting a segment.
    """

    __slots__ = ("name", "views", "_shm", "_released")

    def __init__(self, spec: SegmentSpec, unregister: bool = False) -> None:
        name, layout = spec
        self._shm = shared_memory.SharedMemory(name=name)
        if unregister:
            # the attachment is not an ownership: without this, a spawned
            # worker's own resource tracker would try to unlink the driver's
            # segment at exit and warn about "leaked" shared memory
            try:
                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
        self.name = name
        buf = self._shm.buf
        views: Dict[str, memoryview] = {}
        for column, (typecode, offset, items) in layout.items():
            nbytes = items * _ITEM_SIZES[typecode]
            views[column] = buf[offset : offset + nbytes].cast(typecode)
        self.views = views
        self._released = False

    def release(self) -> None:
        """Drop every view, then close the worker's mapping (idempotent)."""
        if self._released:
            return
        self._released = True
        for view in self.views.values():
            view.release()
        self.views = {}
        self._shm.close()


def attach(spec: SegmentSpec, unregister: bool = False) -> AttachedSegment:
    """Attach to a driver-owned segment (worker side).

    ``unregister`` must be ``True`` exactly when this process runs its own
    resource tracker (spawned workers) -- see the module docstring.
    """
    return AttachedSegment(spec, unregister=unregister)
