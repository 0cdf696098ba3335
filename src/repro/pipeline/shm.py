"""Shared-memory storage for zero-copy process-pool fan-out.

One mechanism, :class:`SharedFrameArena`, puts every array a pool
worker reads into named :mod:`multiprocessing.shared_memory` blocks, so
a pool task ships tiny picklable references instead of the arrays.  It
has two users, each opening one arena only when a process pool runs:

- the study's fit stage
  (:func:`~repro.pipeline.study.execute_unit_plan`, which the batch
  study and the stream's finalize both run): it copies the plan's panel
  into a block with :meth:`SharedFrameArena.share_panel` — each task
  then carries a :class:`SharedPanelRef` (the matrix's
  :class:`SharedArrayRef` plus the time and unit labels) — and packs
  the pre-factored fit slabs into more blocks;
- the campaign scheduler, which shares every scenario's panel through
  one arena for the whole campaign.

A :class:`SharedArrayRef` holds a block's name and shape, so a block is
raw float64 data only and a worker-side ``load()`` is a bare attach
plus an ``np.ndarray`` view, memoised per process.

Lifecycle rules the pipelines rely on:

- blocks are independent of any process pool, so a
  ``BrokenProcessPool`` rebuild needs no re-publication: respawned
  workers attach lazily by name;
- :meth:`SharedFrameArena.close` unlinks every block exactly once; the
  name disappears immediately while live views (the parent's arrays,
  attached workers) stay valid until dropped, so teardown never races
  the last fits;
- every created block is tracked in :func:`live_arena_blocks` until it
  is unlinked, which is what the leak tests assert drains to empty.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import PipelineError
from repro.synthcontrol.donor import Panel

#: Block-name prefix; also how the leak tests recognise our blocks in
#: ``/dev/shm``.  Kept short: POSIX shm names are limited (NAME_MAX).
ARENA_PREFIX = "rpr-arena-"

#: Block names created by this process and not yet unlinked, with their
#: block sizes in bytes (``SharedMemory.size``) so the resource sampler
#: can report live ``/dev/shm`` byte totals without stat-ing the
#: filesystem.
_LIVE_ARENA: dict[str, int] = {}

#: Per-process attach cache: block name -> (mapping, view).  A pooled
#: worker touches the same blocks on every task; the first load
#: attaches, the rest hit this dict.
_ATTACHED_ARRAYS: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Per-process panel views, keyed by their matrix block's name and
#: dropped together with that block's attach-cache entry.
_PANELS: dict[str, Panel] = {}

#: Attach-cache bound for blocks this process did not create.  A
#: campaign interleaves many scenarios' tasks on one pool, so the cache
#: keeps the most recently attached blocks up to this bound and evicts
#: the oldest-attached first.
_ATTACH_CAPACITY = 16


def live_arena_blocks() -> tuple[str, ...]:
    """Block names this process created and has not unlinked yet."""
    return tuple(sorted(_LIVE_ARENA))


def live_shm_bytes() -> int:
    """Total bytes of the live blocks this process owns.

    This is the byte-exact ``/dev/shm`` footprint of the blocks in
    :func:`live_arena_blocks` (each block's ``SharedMemory.size``),
    which the resource sampler records and the leak tests cross-check
    against the filesystem.  The dict is copied before summing: the
    sampler thread reads while the study thread allocates.
    """
    return sum(dict(_LIVE_ARENA).values())


def live_shm_blocks() -> int:
    """How many live blocks this process owns."""
    return len(_LIVE_ARENA)


def _defuse_handle(shm: shared_memory.SharedMemory) -> None:
    """Release a block handle without unmapping under live numpy views.

    ``SharedMemory.close()`` (also run by ``__del__``) unmaps
    unconditionally on interpreters where numpy views hold no buffer
    export — any view still alive would then read freed pages.  Detaching
    the private ``_mmap``/``_buf``/``_fd`` fields makes ``close()`` a
    no-op: the descriptor is closed here, and the ``mmap`` object —
    referenced by every view's ``.base`` — unmaps itself when the last
    view is collected.  Falls back to a plain ``close()`` when the
    fields are absent (a non-CPython layout), accepting the eager unmap.
    """
    if not hasattr(shm, "_mmap"):  # pragma: no cover - unexpected layout
        try:
            shm.close()
        except BufferError:
            pass
        return
    shm._mmap = None
    shm._buf = None
    fd = getattr(shm, "_fd", -1)
    shm._fd = -1
    if fd is not None and fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass


def _forget(name: str) -> tuple[shared_memory.SharedMemory, np.ndarray] | None:
    """Drop *name*'s attach-cache entry (and its panel view), if any."""
    _PANELS.pop(name, None)
    return _ATTACHED_ARRAYS.pop(name, None)


def _make_room() -> None:
    """Evict the oldest attached foreign blocks to leave room for one more.

    Blocks this process created stay: their arena releases them on
    close.  An evicted handle is defused, not closed, so a view that
    escaped the cache keeps its pages until it is collected.
    """
    foreign = [name for name in _ATTACHED_ARRAYS if name not in _LIVE_ARENA]
    excess = len(_ATTACHED_ARRAYS) - _ATTACH_CAPACITY + 1
    for name in foreign[: max(excess, 0)]:
        hit = _forget(name)
        if hit is not None:
            _defuse_handle(hit[0])


@dataclass(frozen=True)
class SharedArrayRef:
    """A picklable, zero-copy reference to one float64 array in a named block.

    There is no in-band header: the shape rides in the (tiny) pickled
    reference, so the block holds raw float64 data only and a
    worker-side :meth:`load` is a bare attach plus an ``np.ndarray``
    view.
    """

    name: str
    shape: tuple[int, ...]

    def load(self) -> np.ndarray:
        """Attach (memoised per process) and return the array view."""
        hit = _ATTACHED_ARRAYS.get(self.name)
        if hit is not None:
            if hit[1].shape != tuple(self.shape):
                raise PipelineError(
                    f"shared array block {self.name!r} is attached with "
                    f"shape {hit[1].shape} but was requested as {self.shape}"
                )
            return hit[1]
        _make_room()
        try:
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            raise PipelineError(
                f"shared array block {self.name!r} does not exist "
                "(already unlinked, or never published in this host)"
            ) from None
        nbytes = int(np.prod(self.shape, dtype=np.int64)) * 8
        if shm.size < nbytes:
            shm.close()
            raise PipelineError(
                f"shared array block {self.name!r} holds {shm.size} bytes "
                f"but shape {self.shape} needs {nbytes}"
            )
        view = np.ndarray(self.shape, dtype=np.float64, buffer=shm.buf)
        _ATTACHED_ARRAYS[self.name] = (shm, view)
        return view


@dataclass(frozen=True)
class SharedPanelRef:
    """A picklable, zero-copy reference to a panel whose matrix is a block.

    This is all a process-pool task carries in place of the panel: the
    matrix's :class:`SharedArrayRef` and the labels.  The labels grow
    with ``T + J`` (a few KB on a wide panel), the matrix with
    ``T x J``, and only the labels ride in the pickle.
    """

    matrix: SharedArrayRef
    times: tuple
    units: tuple[str, ...]

    def __post_init__(self) -> None:
        if tuple(self.matrix.shape) != (len(self.times), len(self.units)):
            raise PipelineError(
                f"panel labels do not match matrix shape {self.matrix.shape}: "
                f"{len(self.times)} times, {len(self.units)} units"
            )

    def load(self) -> Panel:
        """Attach (memoised per block) and return the panel view."""
        matrix = self.matrix.load()
        panel = _PANELS.get(self.matrix.name)
        if panel is None or panel.matrix is not matrix:
            panel = Panel(times=self.times, units=self.units, matrix=matrix)
            _PANELS[self.matrix.name] = panel
        return panel


class SharedFrameArena:
    """Parent-side owner of a set of named float64 shared-memory blocks.

    One arena per fit stage (a study's panel and pre-factored fit
    slabs) or campaign (its scenarios' panels): every :meth:`allocate`
    call creates one named block whose uninitialised array view the
    caller fills in place.  :meth:`close` unlinks every block exactly
    once (idempotent); live views — the parent's own arrays, attached
    workers — stay valid until dropped, the POSIX ``shm_unlink``
    contract.
    """

    def __init__(self, tag: str = "frame") -> None:
        self._tag = str(tag)
        self._blocks: list[tuple[str, shared_memory.SharedMemory, SharedArrayRef]] = []
        self._closed = False

    def allocate(self, label: str, shape: tuple[int, ...]) -> np.ndarray:
        """A new named block's uninitialised float64 view of *shape*.

        *label* is bookkeeping only (diagnostics and :meth:`ref`
        lookup); the block name is random.  Zero-length arrays are
        valid (the block is padded to one byte — ``shared_memory``
        rejects empty blocks).
        """
        if self._closed:
            raise PipelineError(f"arena {self._tag!r} is already closed")
        shape = tuple(int(n) for n in shape)
        if any(n < 0 for n in shape):
            raise PipelineError(f"arena array {label!r} has negative shape {shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        name = ARENA_PREFIX + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        _LIVE_ARENA[name] = shm.size
        ref = SharedArrayRef(name=name, shape=shape)
        view = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
        # The parent reads (and fills) through the attach cache too, so
        # a later ref.load() in-process is the same view, not a second
        # mapping of the same block.
        _ATTACHED_ARRAYS[name] = (shm, view)
        self._blocks.append((str(label), shm, ref))
        return view

    def share_panel(self, panel: Panel) -> tuple[Panel, SharedPanelRef]:
        """A copy of *panel* in a new block of this arena, and its task ref.

        Pool workers then read exactly the bytes the parent holds.
        """
        matrix = self.allocate("panel", panel.matrix.shape)
        np.copyto(matrix, panel.matrix)
        ref = SharedPanelRef(
            matrix=self._blocks[-1][2],
            times=tuple(panel.times),
            units=tuple(panel.units),
        )
        return Panel(times=panel.times, units=panel.units, matrix=matrix), ref

    def ref(self, label: str) -> SharedArrayRef:
        """The picklable reference of the first block labelled *label*."""
        for block_label, _shm, ref in self._blocks:
            if block_label == label:
                return ref
        raise PipelineError(f"arena {self._tag!r} has no array labelled {label!r}")

    @property
    def names(self) -> tuple[str, ...]:
        """Block names still owned by this arena."""
        return tuple(shm.name for _label, shm, _ref in self._blocks)

    def close(self) -> None:
        """Unlink every block (idempotent); live views stay valid.

        Panels and prefactor slabs can outlive the arena (the parent
        may still hold a shared panel's view), and numpy views do not
        register buffer exports, so an eager ``SharedMemory.close()``
        would silently unmap pages under them.  Instead each handle is
        *defused*: the name is unlinked (the ``/dev/shm`` entry
        disappears — what the leak tests assert) and the descriptor
        closed, while the mapping
        itself stays owned by the views through their
        ``ndarray.base -> mmap`` chain and is unmapped by the garbage
        collector when the last view dies.
        """
        if self._closed:
            return
        self._closed = True
        blocks, self._blocks = self._blocks, []
        for _label, shm, _ref in blocks:
            _LIVE_ARENA.pop(shm.name, None)
            hit = _forget(shm.name)
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink race
                pass
            _defuse_handle(shm)
            if hit is not None and hit[0] is not shm:
                # ref.load() re-attached after a cache eviction: a second,
                # independent mapping of the same block gets the same
                # treatment so its views stay valid too.
                _defuse_handle(hit[0])

    def __enter__(self) -> "SharedFrameArena":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False
