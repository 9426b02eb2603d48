"""Storage-server process for the ``strips-tcp`` workload.

    python3 perfbench/servers.py ROOT COUNT

Starts COUNT ``DPFSServer``s on loopback in this one process, each over
its own directory under ROOT.  Prints their ports as one JSON list and
serves until standard input closes; then it stops every server and
exits.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net.server import DPFSServer  # noqa: E402


def main() -> None:
    root, count = Path(sys.argv[1]), int(sys.argv[2])
    servers = [DPFSServer(root / f"s{i}", name=f"s{i}").start() for i in range(count)]
    try:
        print(json.dumps([s.address[1] for s in servers]), flush=True)
        sys.stdin.read()
    finally:
        # each stop waits for a poll of its accept loop (0.5 s); stop
        # them together so tearing a mount down does not take seconds
        stoppers = [threading.Thread(target=s.stop) for s in servers]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join()


if __name__ == "__main__":
    main()
