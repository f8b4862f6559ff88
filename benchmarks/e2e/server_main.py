"""Server subprocess of the ``tcp://`` and ``cluster://`` measurements.

A ``PooledEngine`` behind a ``ServeServer`` on an ephemeral localhost
port. It owns no assets: the client registers the checkpoint (by path)
and uploads the graph over the wire, as a remote user would. It
announces ``serving on HOST:PORT`` and serves until its stdin closes,
so it can never outlive the benchmark process that started it.
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--max-batch", type=int, required=True)
    parser.add_argument("--max-wait-s", type=float, required=True)
    args = parser.parse_args()

    from repro.runtime import PooledEngine
    from repro.serve import ServeConfig, ServeServer

    config = ServeConfig(
        n_workers=args.workers, max_batch_size=args.max_batch, max_wait_s=args.max_wait_s
    )
    with PooledEngine(config) as engine, ServeServer(engine.service) as server:
        print(f"serving on {server.endpoint}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
