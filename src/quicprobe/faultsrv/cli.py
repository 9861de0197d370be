"""Reference server CLI: ``faultsrv --listen addr:port --fault name``."""

from __future__ import annotations

import argparse
import collections
import sys

from ..conn import drive
from ..protection import DEFAULT_PROVIDER_SEED
from .faults import FAULT_BEHAVIOURS, FaultSpec
from .server import FaultServer, ServerConfig, default_body


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
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        parser.error(f"--listen port {port!r} is not a number in 0-65535")
    config = ServerConfig(
        host=host or "127.0.0.1",
        port=int(port),
        seed=args.seed,
        resources={"/index.html": default_body(max(args.body_size, 160))},
        fault=FaultSpec(name=args.fault),
    )
    server = FaultServer(config).start()
    server.sent_log = collections.deque(maxlen=0)  # nothing here reads it: keep none
    print(f"faultsrv listening on {config.host}:{server.port} fault={args.fault} seed={args.seed}")
    try:
        drive([server.task()])  # on this thread, until Ctrl-C
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    for error in server.errors:
        print(f"faultsrv: {error}", file=sys.stderr)
    return 1 if server.errors else 0


if __name__ == "__main__":
    sys.exit(main())
