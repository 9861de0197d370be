"""Reference server CLI: ``faultsrv --listen addr:port --fault name``."""

from __future__ import annotations

import argparse
import sys
import time

from ..protection import DEFAULT_PROVIDER_SEED
from .faults import FAULT_BEHAVIOURS, FaultSpec
from .server import ServerConfig, default_body, serve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="faultsrv", description=__doc__)
    parser.add_argument("--listen", default="127.0.0.1:4433", help="addr:port to bind")
    parser.add_argument(
        "--fault",
        default="none",
        choices=sorted(FAULT_BEHAVIOURS),
        help="misbehaviour to inject (default: none, fully conformant)",
    )
    parser.add_argument("--body-size", type=int, default=160, dest="body_size")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_PROVIDER_SEED, help="scripted-handshake seed"
    )
    parser.add_argument("--list-faults", action="store_true", help="describe faults and exit")
    args = parser.parse_args(argv)

    if args.list_faults:
        for name in sorted(FAULT_BEHAVIOURS):
            print(f"{name:24s} {FAULT_BEHAVIOURS[name]}")
        return 0

    host, _, port = args.listen.rpartition(":")
    config = ServerConfig(
        host=host or "127.0.0.1",
        port=int(port),
        seed=args.seed,
        resources={"/index.html": default_body(max(args.body_size, 160))},
        fault=FaultSpec(name=args.fault),
    )
    server = serve(config)
    print(f"faultsrv listening on {server.host}:{server.port} fault={args.fault} seed={args.seed}")
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
