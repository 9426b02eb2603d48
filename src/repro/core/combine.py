"""Request combination and scheduling (§4.2).

Without combination, a processor issues one request per brick run —
the paper's "general approach", which floods servers with small
requests *and* convoys all processors onto the same device (brick 0, 8,
16, 24 of Fig. 3 live on server 0, so every processor starts there).

With combination, all of a processor's runs that live on one server
are folded into one request carrying a subfile extent list, and the
per-processor request sequence is *staggered*: processor ``p`` starts
with server ``(p mod S)`` so the processors fan out across devices —
exactly the schedule the paper walks through (processor 0 starts at
subfile-0, processor 1 at subfile-1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..errors import DPFSError
from ..util import Extent, coalesce_extents
from .brick import BrickMap, BrickSlice

__all__ = ["SlicePlacement", "ServerRequest", "plan_requests"]


@dataclass(slots=True)
class SlicePlacement:
    """A brick run resolved to its physical position on a server
    (treated as immutable; slotted for the same reason as the slice)."""

    slice: BrickSlice
    server: int
    subfile_offset: int   # byte offset of the run's first row in the subfile

    @property
    def extents(self) -> list[Extent]:
        """Subfile extents of the run: one when its rows abut in the
        brick, else one per row."""
        s = self.slice
        if s.contiguous:
            return [(self.subfile_offset, s.nbytes)]
        return [
            (self.subfile_offset + i * s.stride, s.length)
            for i in range(s.count)
        ]


@dataclass
class ServerRequest:
    """One wire request to one server.

    ``placements`` keeps the payload mapping (buffer offsets) so the
    client can gather/scatter user data; ``extents`` is the physical
    subfile extent list the server works through.

    ``name`` overrides the subfile the request targets (replica copies
    live in a separate subfile); ``None`` means the file's primary
    subfile.  ``copy`` tags which copy (0 = primary) the request serves
    so write fan-out can account per-copy outcomes.
    """

    server: int
    placements: list[SlicePlacement] = field(default_factory=list)
    name: str | None = None
    copy: int = 0

    @property
    def extents(self) -> list[Extent]:
        out: list[Extent] = []
        for p in self.placements:
            s = p.slice
            if s.count == 1:
                out.append((p.subfile_offset, s.length))
            else:
                out.extend(p.extents)
        return out

    @property
    def coalesced_extents(self) -> list[Extent]:
        """Physically merged extents (what the disk actually sees)."""
        return coalesce_extents(self.extents)

    @property
    def payload_bytes(self) -> int:
        return sum(p.slice.nbytes for p in self.placements)

    @property
    def brick_ids(self) -> list[int]:
        return [p.slice.brick_id for p in self.placements]


def _place(slices: Sequence[BrickSlice], brick_map: BrickMap) -> list[SlicePlacement]:
    placed: list[SlicePlacement] = []
    for s in slices:
        loc = brick_map.location(s.brick_id)
        if s.end > loc.size:
            raise DPFSError(
                f"slice {s} exceeds brick size {loc.size} of brick {s.brick_id}"
            )
        placed.append(
            SlicePlacement(s, loc.server, loc.local_offset + s.offset)
        )
    return placed


def plan_requests(
    slices: Sequence[BrickSlice],
    brick_map: BrickMap,
    *,
    combine: bool,
    rank: int = 0,
    stagger: bool = True,
) -> list[ServerRequest]:
    """Turn brick runs into an *ordered* wire-request plan.

    With ``combine=False`` (general approach): one request per run, in
    payload order.  With ``combine=True``: one request per touched
    server; request order is staggered by ``rank`` when ``stagger``.
    """
    placed = _place(slices, brick_map)
    if not combine:
        return [ServerRequest(p.server, [p]) for p in placed]

    by_server: dict[int, ServerRequest] = {}
    for p in placed:
        req = by_server.get(p.server)
        if req is None:
            req = ServerRequest(p.server)
            by_server[p.server] = req
        req.placements.append(p)

    servers = sorted(by_server)
    if stagger and servers:
        n = brick_map.n_servers
        # Rotate so this rank starts at server (rank mod S), or the next
        # touched server after it.
        start = rank % n
        servers = sorted(servers, key=lambda s: (s - start) % n)
    return [by_server[s] for s in servers]
