"""A bare UDP echo server for calibrating the load generator.

    python echo_server.py READY_FILE

Binds 127.0.0.1 on an ephemeral port, writes the port to READY_FILE,
and returns every datagram to its sender until SIGTERM. It imports
nothing from the program under test, so whatever the generator measures
against it is the generator's own cost.
"""

import os
import signal
import socket
import sys


def main(ready_file: str) -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        sock.bind(("127.0.0.1", 0))
        with open(ready_file + ".tmp", "w") as handle:
            handle.write(str(sock.getsockname()[1]))
        os.replace(ready_file + ".tmp", ready_file)
        while True:
            payload, address = sock.recvfrom(4096)
            sock.sendto(payload, address)


if __name__ == "__main__":
    main(sys.argv[1])
