"""The process under test: ``MemcachedServer(port=0)``, constructor
defaults and nothing else, so a change of serving defaults registers in
the benchmark. Prints the bound port, serves until SIGTERM."""

import asyncio
import signal

from repro.net.server import MemcachedServer


async def main() -> None:
    server = MemcachedServer(port=0)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(server.port, flush=True)
    await stop.wait()
    await server.shutdown()


if __name__ == "__main__":
    asyncio.run(main())
