"""The three DPFS striping methods / file levels (§3).

Each method knows how to

- enumerate the file's bricks and their byte sizes (what the placement
  algorithm consumes at create time), and
- translate a logical request — a byte-extent list for linear files, an
  N-d :class:`~repro.hpf.regions.Region` for multidimensional and array
  files — into :class:`~repro.core.brick.BrickSlice` lists whose
  ``buffer_offset`` fields define the packed payload order.

A region becomes one strided run per (touched brick × region
intersection) — per index of the dimensions above the last two when the
rank exceeds 2 — never one object per row (the datatype-I/O step of
Ching et al., "Noncontiguous I/O through PVFS").

Layouts
-------
*Linear* (§3.1): the file is a byte stream; brick ``b`` covers bytes
``[b·bs, (b+1)·bs)``.

*Multidimensional* (§3.2): the array is tiled by ``brick_shape``; bricks
are numbered row-major over the tile grid and each brick stores its
tile row-major, padded to the full tile volume when the array does not
divide evenly (so subfile offsets stay uniform).

*Array* (§3.3): one brick per processor chunk of an HPF distribution;
each brick stores its chunk row-major and brick sizes vary with chunk
volume.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from enum import Enum

from ..errors import StripingError
from ..hpf.distribution import Dist, decompose, grid_shape, parse_pattern, pattern_str
from ..hpf.regions import Region
from ..util import Extent, ceil_div, row_major_coords
from .brick import BrickSlice

__all__ = [
    "FileLevel",
    "StripingMethod",
    "LinearStriping",
    "MultidimStriping",
    "ArrayStriping",
]


class FileLevel(Enum):
    """The three DPFS file levels, lowest (most general) first."""

    LINEAR = "linear"
    MULTIDIM = "multidim"
    ARRAY = "array"


class StripingMethod(ABC):
    """Common interface of the three striping methods."""

    level: FileLevel

    @abstractmethod
    def brick_sizes(self) -> list[int]:
        """Byte size of every brick, in brick-id order."""

    @property
    @abstractmethod
    def brick_count(self) -> int:
        ...

    @abstractmethod
    def total_bytes(self) -> int:
        """Logical file size in bytes (payload, excluding tile padding)."""

    @abstractmethod
    def slices_for_extents(self, extents: Sequence[Extent]) -> list[BrickSlice]:
        """Brick slices for a list of logical byte extents."""

    def slices_for_region(self, region: Region) -> list[BrickSlice]:
        """Brick slices for an N-d element region (array-aware levels)."""
        raise StripingError(
            f"{self.level.value} files do not support region addressing"
        )

    # -- shared helper -----------------------------------------------------
    @staticmethod
    def _merge(slices: list[BrickSlice]) -> list[BrickSlice]:
        """Merge payload-order-adjacent single-row slices that abut
        inside one brick."""
        out: list[BrickSlice] = []
        for s in slices:
            if (
                out
                and s.count == 1
                and out[-1].count == 1
                and out[-1].brick_id == s.brick_id
                and out[-1].offset + out[-1].length == s.offset
                and out[-1].buffer_offset + out[-1].length == s.buffer_offset
            ):
                prev = out[-1]
                out[-1] = BrickSlice(
                    prev.brick_id,
                    prev.offset,
                    prev.length + s.length,
                    prev.buffer_offset,
                )
            else:
                out.append(s)
        return out


class LinearStriping(StripingMethod):
    """§3.1 — the file is a stream of ``brick_size``-byte linear bricks."""

    level = FileLevel.LINEAR

    def __init__(self, brick_size: int, file_size: int) -> None:
        if brick_size <= 0:
            raise StripingError(f"brick size must be positive, got {brick_size}")
        if file_size < 0:
            raise StripingError(f"file size must be >= 0, got {file_size}")
        self.brick_size = brick_size
        self.file_size = file_size

    @property
    def brick_count(self) -> int:
        return ceil_div(self.file_size, self.brick_size) if self.file_size else 0

    def brick_sizes(self) -> list[int]:
        # The last brick is padded to full size on storage, like the tile
        # padding of the multidim level, so subfile offsets stay uniform.
        return [self.brick_size] * self.brick_count

    def total_bytes(self) -> int:
        return self.file_size

    def grow_to(self, new_size: int) -> int:
        """Grow the logical size; returns how many *new* bricks appeared."""
        if new_size < self.file_size:
            raise StripingError("linear files can only grow")
        old_bricks = self.brick_count
        self.file_size = new_size
        return self.brick_count - old_bricks

    def slices_for_extents(self, extents: Sequence[Extent]) -> list[BrickSlice]:
        slices: list[BrickSlice] = []
        payload = 0
        bs = self.brick_size
        for off, ln in extents:
            if off < 0 or ln < 0:
                raise StripingError(f"invalid extent ({off}, {ln})")
            if off + ln > self.file_size:
                raise StripingError(
                    f"extent [{off}, {off + ln}) beyond EOF {self.file_size}"
                )
            while ln > 0:
                brick = off // bs
                within = off - brick * bs
                take = min(bs - within, ln)
                slices.append(BrickSlice(brick, within, take, payload))
                off += take
                ln -= take
                payload += take
        return self._merge(slices)


def _row_major_strides(shape: Sequence[int], elem: int) -> list[int]:
    """Byte stride of each dimension of a row-major ``shape`` box."""
    strides = [elem] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    return strides


class _ArrayLevel(StripingMethod):
    """What the two array-aware levels share: an N-d ``array_shape`` of
    ``element_size``-byte elements, addressed by region.

    Both levels cut every dimension into equal slots of ``_block[k]``
    cells (the last slot clipped at the array edge), number bricks
    row-major over the slot ``grid`` and store each brick as a row-major
    box, whose byte strides :meth:`_brick_strides` gives.
    """

    array_shape: tuple[int, ...]
    element_size: int
    grid: tuple[int, ...]
    _block: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.array_shape)

    @abstractmethod
    def _brick_strides(self, brick_id: int) -> list[int]:
        """Byte stride of each dimension inside a stored brick."""

    def slices_for_region(self, region: Region) -> list[BrickSlice]:
        """One strided run per (touched brick × region intersection), in
        row-major order over the brick grid; for rank > 2, one run per
        index of the dimensions above the last two."""
        if region.rank != self.rank:
            raise StripingError(
                f"region rank {region.rank} != array rank {self.rank}"
            )
        if not Region.full(self.array_shape).covers(region):
            raise StripingError(f"{region!r} outside array {self.array_shape}")
        if region.empty:
            return []
        buf_strides = _row_major_strides(region.shape, self.element_size)
        id_strides = _row_major_strides(self.grid, 1)
        # per dimension, each touched slot as (brick-id term, first cell
        # inside the slot, payload byte term, cells)
        axes = []
        for lo, hi, b, ids, bs in zip(
            region.starts, region.stops, self._block, id_strides, buf_strides
        ):
            axis = []
            for g in range(lo // b, (hi - 1) // b + 1):
                first = max(lo, g * b)
                axis.append(
                    (g * ids, first - g * b, (first - lo) * bs,
                     min(hi, g * b + b) - first)
                )
            axes.append(axis)
        runs: list[BrickSlice] = []
        for parts in itertools.product(*axes):
            brick_id = at = offset = 0
            for p in parts:
                brick_id += p[0]
                at += p[2]
            strides = self._brick_strides(brick_id)
            for p, st in zip(parts, strides):
                offset += p[1] * st
            length = parts[-1][3] * self.element_size
            count, stride, bstride = (
                (parts[-2][3], strides[-2], buf_strides[-2])
                if len(parts) > 1 else (1, 0, 0)
            )
            if count == 1 or (stride == length and bstride == length):
                length, count, stride, bstride = length * count, 1, 0, 0
            for index in itertools.product(*(range(p[3]) for p in parts[:-2])):
                off, buf = offset, at
                for i, st, bs in zip(index, strides, buf_strides):
                    off += i * st
                    buf += i * bs
                runs.append(BrickSlice(
                    brick_id, off, length, buf, count, stride, bstride
                ))
        return self._merge(runs)

    def total_bytes(self) -> int:
        return math.prod(self.array_shape) * self.element_size

    def slices_for_extents(self, extents: Sequence[Extent]) -> list[BrickSlice]:
        """Linear byte extents over the *row-major flattened* array.

        Provided so an array file can still be read as a stream (e.g.
        export to a sequential file, §7): each flattened extent is cut
        at row ends and every piece is striped as a one-row region.
        """
        slices: list[BrickSlice] = []
        payload = 0
        elem = self.element_size
        row_len = self.array_shape[-1]
        total = self.total_bytes()
        for off, ln in extents:
            if off < 0 or ln < 0 or off + ln > total:
                raise StripingError(f"extent ({off}, {ln}) outside file")
            if off % elem or ln % elem:
                raise StripingError(
                    f"linear access to {self.level.value} files must be "
                    "element-aligned"
                )
            first, stop = off // elem, (off + ln) // elem
            while first < stop:
                cell = row_major_coords(first, self.array_shape)
                run = min(row_len - cell[-1], stop - first)
                stops = tuple(c + 1 for c in cell[:-1]) + (cell[-1] + run,)
                for s in self.slices_for_region(Region(cell, stops)):
                    slices.append(BrickSlice(
                        s.brick_id, s.offset, s.length, payload + s.buffer_offset
                    ))
                payload += run * elem
                first += run
        return self._merge(slices)


class MultidimStriping(_ArrayLevel):
    """§3.2 — bricks are N-d tiles of the array (the paper's novelty)."""

    level = FileLevel.MULTIDIM

    def __init__(
        self,
        array_shape: Sequence[int],
        element_size: int,
        brick_shape: Sequence[int],
    ) -> None:
        if element_size <= 0:
            raise StripingError("element size must be positive")
        if len(array_shape) != len(brick_shape):
            raise StripingError("array/brick rank mismatch")
        if not array_shape:
            raise StripingError("array rank must be >= 1")
        for dim, (n, b) in enumerate(zip(array_shape, brick_shape)):
            if n <= 0 or b <= 0:
                raise StripingError(f"dimension {dim}: sizes must be positive")
            if b > n:
                raise StripingError(
                    f"dimension {dim}: brick extent {b} exceeds array extent {n}"
                )
        self.array_shape = tuple(array_shape)
        self.element_size = element_size
        self.brick_shape = tuple(brick_shape)
        #: tile-grid shape: bricks per dimension
        self.grid = tuple(
            ceil_div(n, b) for n, b in zip(self.array_shape, self.brick_shape)
        )
        self._block = self.brick_shape
        self._strides = _row_major_strides(self.brick_shape, element_size)
        self._brick_volume = math.prod(self.brick_shape)

    @property
    def brick_count(self) -> int:
        return math.prod(self.grid)

    def brick_sizes(self) -> list[int]:
        size = self._brick_volume * self.element_size
        return [size] * self.brick_count

    # -- brick geometry ----------------------------------------------------
    def brick_id_of(self, grid_coords: Sequence[int]) -> int:
        idx = 0
        for c, g in zip(grid_coords, self.grid):
            if not 0 <= c < g:
                raise StripingError(
                    f"grid coords {tuple(grid_coords)} outside grid {self.grid}"
                )
            idx = idx * g + c
        return idx

    def brick_region(self, brick_id: int) -> Region:
        """The array region a brick covers (clipped at array bounds)."""
        if not 0 <= brick_id < self.brick_count:
            raise StripingError(f"brick {brick_id} outside grid {self.grid}")
        coords = []
        rest = brick_id
        for g in reversed(self.grid):
            coords.append(rest % g)
            rest //= g
        coords.reverse()
        starts = tuple(c * b for c, b in zip(coords, self.brick_shape))
        stops = tuple(
            min(s + b, n)
            for s, b, n in zip(starts, self.brick_shape, self.array_shape)
        )
        return Region(starts, stops)

    def _brick_strides(self, brick_id: int) -> list[int]:
        return self._strides


class ArrayStriping(_ArrayLevel):
    """§3.3 — one coarse-grain brick per processor chunk (HPF notation)."""

    level = FileLevel.ARRAY

    def __init__(
        self,
        array_shape: Sequence[int],
        element_size: int,
        pattern: str | Sequence[Dist | str],
        nprocs: int,
        pgrid: Sequence[int] | None = None,
    ) -> None:
        if element_size <= 0:
            raise StripingError("element size must be positive")
        if nprocs < 1:
            raise StripingError("array striping needs at least one processor")
        self.array_shape = tuple(array_shape)
        self.element_size = element_size
        self.pattern = parse_pattern(pattern)
        if len(self.pattern) != len(self.array_shape):
            raise StripingError("pattern rank != array rank")
        if any(p is Dist.CYCLIC for p in self.pattern):
            raise StripingError(
                "array-level files support BLOCK/* patterns (per the paper); "
                "CYCLIC chunks are not single bricks"
            )
        self.nprocs = nprocs
        self.pgrid = (
            tuple(pgrid) if pgrid is not None else grid_shape(self.pattern, nprocs)
        )
        self.chunks: list[Region] = decompose(
            self.array_shape, self.pattern, nprocs, self.pgrid
        )
        # HPF BLOCK rule: ceil(n/g)-cell slots; a '*' dimension is one slot
        self.grid = self.pgrid
        self._block = tuple(
            ceil_div(n, g) for n, g in zip(self.array_shape, self.pgrid)
        )
        self._strides = [
            _row_major_strides(chunk.shape, element_size) for chunk in self.chunks
        ]

    @property
    def brick_count(self) -> int:
        return self.nprocs

    def brick_sizes(self) -> list[int]:
        # Empty chunks (more processors than block slots) still get a
        # 1-byte placeholder so every brick id resolves to a location.
        return [
            max(chunk.volume, 1) * self.element_size for chunk in self.chunks
        ]

    def pattern_string(self) -> str:
        return pattern_str(self.pattern)

    def chunk_of(self, rank: int) -> Region:
        if not 0 <= rank < self.nprocs:
            raise StripingError(f"rank {rank} outside [0, {self.nprocs})")
        return self.chunks[rank]

    def _brick_strides(self, brick_id: int) -> list[int]:
        return self._strides[brick_id]
