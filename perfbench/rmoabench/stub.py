"""Loopback chat and embeddings endpoint for the http-fanout workload.

One single-threaded asyncio process serves every connection, with Nagle
off and keep-alive on, so a slow reply delays no other request. Replies,
extractor verdicts and delays come from a hash of the request, and the
per-call delay is lognormal with a 20 ms median and sigma 0.5.

Run as ``python3 -m rmoabench.stub --seed N`` from the benchmark directory.
The first line on stdout is the port; the process exits when its stdin
closes. ``GET /_bench/stats`` reports the connections that carried an API
request and the API requests served since ``POST /_bench/reset``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import socket
import sys

from .fixtures import Fixture, token_count

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


class Stub:
    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self.vectors = fixture.vector_json()
        self.connections = 0
        self.requests = 0

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        counted = False
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                method, path, _ = request_line.decode("latin-1").split(" ", 2)
                length, close = 0, False
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    name = name.strip().lower()
                    if name == "content-length":
                        length = int(value)
                    elif name == "connection":
                        close = value.strip().lower() == "close"
                body = await reader.readexactly(length) if length else b""
                if path.startswith("/v1/"):
                    if not counted:
                        self.connections += 1
                        counted = True
                    self.requests += 1
                    status, payload = await self.api(path, body)
                else:
                    status, payload = self.control(method, path)
                head = (
                    f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + payload)
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def api(self, path: str, body: bytes) -> tuple[int, bytes]:
        try:
            request = json.loads(body)
        except ValueError:
            return 400, b'{"error": "invalid JSON"}'
        if path == "/v1/chat/completions":
            prompt = "\n".join(m["content"] for m in request["messages"])
            text = self.fixture.reply(prompt)
            payload = json.dumps(
                {
                    "object": "chat.completion",
                    "model": request["model"],
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": text},
                            "finish_reason": "stop",
                        }
                    ],
                    "usage": {
                        "prompt_tokens": token_count(prompt),
                        "completion_tokens": token_count(text),
                    },
                }
            )
        elif path == "/v1/embeddings":
            texts = request["input"]
            rows = ",".join(
                f'{{"object": "embedding", "index": {i}, '
                f'"embedding": {self.vectors[self.fixture.vector_index(text)]}}}'
                for i, text in enumerate(texts)
            )
            tokens = sum(token_count(text) for text in texts)
            payload = (
                f'{{"object": "list", "model": {json.dumps(request["model"])}, '
                f'"data": [{rows}], "usage": {{"prompt_tokens": {tokens}}}}}'
            )
        else:
            return 404, b'{"error": "unknown path"}'
        await asyncio.sleep(self.fixture.delay_s(body))
        return 200, payload.encode()

    def control(self, method: str, path: str) -> tuple[int, bytes]:
        if path == "/_bench/reset" and method == "POST":
            self.connections = 0
            self.requests = 0
        elif path != "/_bench/stats":
            return 404, b'{"error": "unknown path"}'
        stats = {"connections": self.connections, "requests": self.requests}
        return 200, json.dumps(stats).encode()


async def serve(seed: int) -> None:
    stub = Stub(Fixture(seed))
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0, backlog=256)
    print(server.sockets[0].getsockname()[1], flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    await stdin.read()
    server.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    asyncio.run(serve(parser.parse_args().seed))


if __name__ == "__main__":
    main()
