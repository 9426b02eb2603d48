"""Directory-backed storage backend.

Each DPFS server is a directory on the local machine; subfiles are
regular files inside it.  This mirrors the paper's deployment — the
DPFS server "is built on top of the local file system of each storage
resource ... and can take advantage of I/O optimizations such as
caching and prefetching of the local file system" — collapsed onto one
host for reproducibility.

Subfile names (DPFS paths like ``/home/xhshen/dpfs.test``) are escaped
into flat file names.  :class:`SubfileDir` is the one store for a
directory of subfiles; the TCP server keeps one over its root.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from collections.abc import Sequence

from ..errors import FileSystemError
from ..util import Extent
from .base import ServerInfo, StorageBackend, check_extents

__all__ = [
    "LocalBackend",
    "SubfileDir",
    "escape_subfile_name",
    "unescape_subfile_name",
]


def escape_subfile_name(name: str) -> str:
    """Escape a DPFS path into a safe flat file name.

    ``%`` escapes itself so the mapping is injective:
    ``/a/b`` → ``%2Fa%2Fb``-style but readable: we use ``__`` for ``/``
    and ``%`` escapes for the two metacharacters.
    """
    out = []
    for ch in name:
        if ch == "%":
            out.append("%25")
        elif ch == "/":
            out.append("%2F")
        elif ch == "\x00":
            raise FileSystemError("NUL byte in subfile name")
        else:
            out.append(ch)
    return "".join(out) or "%empty"


def unescape_subfile_name(name: str) -> str:
    """Inverse of :func:`escape_subfile_name`."""
    if name == "%empty":
        return ""
    out = []
    i = 0
    while i < len(name):
        if name.startswith("%2F", i):
            out.append("/")
            i += 3
        elif name.startswith("%25", i):
            out.append("%")
            i += 3
        else:
            out.append(name[i])
            i += 1
    return "".join(out)


class SubfileDir:
    """One server's subfiles: escaped flat files directly under ``root``.

    The one subfile store: :class:`LocalBackend` keeps one per server
    directory, :class:`~repro.net.server.DPFSServer` one over its root.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        return self.root / escape_subfile_name(name)

    def _existing(self, name: str) -> Path:
        path = self._path(name)
        if not path.exists():
            raise FileSystemError(f"no subfile {name!r}")
        return path

    # -- lifecycle -----------------------------------------------------------
    def create(self, name: str) -> None:
        self._path(name).touch()

    def delete(self, name: str) -> None:
        self._path(name).unlink(missing_ok=True)

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def rename(self, old: str, new: str) -> None:
        self._existing(old).replace(self._path(new))

    def list(self) -> list[str]:
        return sorted(
            unescape_subfile_name(p.name) for p in self.root.iterdir() if p.is_file()
        )

    def size(self, name: str) -> int:
        return self._existing(name).stat().st_size

    def wipe(self) -> None:
        """Delete every subfile (format helper)."""
        shutil.rmtree(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- I/O -----------------------------------------------------------------
    def read(self, name: str, extents: Sequence[Extent]) -> bytes:
        check_extents(extents)
        out = bytearray()
        with open(self._existing(name), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for off, ln in extents:
                if off < size:
                    fh.seek(off)
                    chunk = fh.read(min(ln, size - off))
                else:
                    chunk = b""
                if len(chunk) < ln:                   # sparse tail → zeros
                    chunk += b"\x00" * (ln - len(chunk))
                out += chunk
        return bytes(out)

    def write(self, name: str, extents: Sequence[Extent], data: bytes) -> None:
        check_extents(extents, data)
        pos = 0
        with open(self._existing(name), "r+b") as fh:
            for off, ln in extents:
                fh.seek(off)
                fh.write(data[pos : pos + ln])
                pos += ln


class LocalBackend(StorageBackend):
    """Servers are subdirectories ``server_0 .. server_{n-1}`` of a root."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        n_servers: int,
        *,
        capacity: int = 1 << 30,
        performance: Sequence[float] | None = None,
    ) -> None:
        if n_servers < 1:
            raise FileSystemError("need at least one server")
        perf = list(performance) if performance is not None else [1.0] * n_servers
        if len(perf) != n_servers:
            raise FileSystemError("performance list length mismatch")
        self.root = Path(root)
        self._stores = [SubfileDir(self.root / f"server_{i}") for i in range(n_servers)]
        self._servers = [
            ServerInfo(
                name=f"local:server_{i}",
                capacity=capacity,
                performance=perf[i],
            )
            for i in range(n_servers)
        ]

    @property
    def servers(self) -> list[ServerInfo]:
        return list(self._servers)

    def _store(self, server: int) -> SubfileDir:
        self._check_server(server)
        return self._stores[server]

    # -- lifecycle -----------------------------------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        self._store(server).create(name)

    def delete_subfile(self, server: int, name: str) -> None:
        self._store(server).delete(name)

    def subfile_exists(self, server: int, name: str) -> bool:
        return self._store(server).exists(name)

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._store(server).rename(old, new)

    def list_subfiles(self, server: int) -> list[str]:
        return self._store(server).list()

    def subfile_size(self, server: int, name: str) -> int:
        return self._store(server).size(name)

    # -- I/O -----------------------------------------------------------------
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent]
    ) -> bytes:
        return self._store(server).read(name, extents)

    def write_extents(
        self, server: int, name: str, extents: Sequence[Extent], data: bytes
    ) -> None:
        self._store(server).write(name, extents, data)

    # -- extras ----------------------------------------------------------------
    def wipe(self) -> None:
        """Delete every subfile on every server (format helper)."""
        for store in self._stores:
            store.wipe()
