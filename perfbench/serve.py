"""The ``serve-zipf`` workload: ``repro-pmevo serve`` under a Zipf key stream.

The server runs as a subprocess over the ZEN ground-truth mapping.  One
keep-alive client sends a closed loop of ``POST /v1/predict`` batches of
size-5 sequences drawn Zipf-distributed from a key universe eight times the
LRU capacity, so cache hits and batched misses both stay substantial.

The client and the server are pinned to different CPUs, and the client
polls its non-blocking socket instead of sleeping in the kernel: a closed
loop on a virtual machine otherwise pays a wake-up of an idle virtual CPU on
every response, whose cost depends on the host's load and swung the
request rate by 30% between identical runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from common import SETUP_REPEATS, Checks, child_env, latency_metrics
from tracing import Tracer, median

from repro.machine import zen_machine
from repro.serving.protocol import parse_predict_request
from repro.throughput.batched import FixedMappingEvaluator
from repro.throughput.bottleneck import bottleneck_throughput_reference

_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0
_REPLY_TIMEOUT = 30.0


def _cpus() -> tuple[int, int]:
    """(client CPU, server CPU): two different CPUs where there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


@contextlib.contextmanager
def pinned(cpu: int):
    """Pin this process to one CPU for the block."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class HTTPError(Exception):
    """A response that is not a well-formed HTTP/1.1 answer."""


class Connection:
    """One keep-alive HTTP/1.1 connection that busy-polls for replies."""

    def __init__(self, address):
        self.address = address
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=_REPLY_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._sock, self._buffer = sock, b""
        return self._sock

    def exchange(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request and return (status, body) of its response."""
        sock = self._socket()
        pending = memoryview(
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        deadline = time.perf_counter() + _REPLY_TIMEOUT
        while pending:
            try:
                pending = pending[sock.send(pending):]
            except BlockingIOError:
                self._check(deadline)
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                status, length = self._head(self._buffer[:end])
                if len(self._buffer) >= end + 4 + length:
                    reply = self._buffer[end + 4 : end + 4 + length]
                    self._buffer = self._buffer[end + 4 + length :]
                    return status, reply
            try:
                chunk = sock.recv(1 << 16)
            except BlockingIOError:
                self._check(deadline)
                continue
            if not chunk:
                raise ConnectionError("the server closed the connection")
            self._buffer += chunk

    @staticmethod
    def _check(deadline: float) -> None:
        if time.perf_counter() > deadline:
            raise TimeoutError("no reply from the server")

    @staticmethod
    def _head(head: bytes) -> tuple[int, int]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HTTPError(f"bad status line {lines[0]!r}")
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                return int(parts[1]), int(value)
        raise HTTPError("response without Content-Length")

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class Server:
    """One ``repro-pmevo serve`` subprocess; stderr is captured to a file."""

    def __init__(self, root: Path, work: Path, mapping: Path, tag: int, cpu: int):
        self.stderr_path = work / f"serve-{tag}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--mapping", f"zen={mapping}",
                "--bind", "127.0.0.1:0",
                "--cache-size", str(inputs.CACHE_SIZE),
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=child_env(root),
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})
        deadline = start + _START_TIMEOUT
        line = ""
        while not line.startswith("serving on"):
            line = self.proc.stdout.readline()
            if not line or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; stderr in {self.stderr_path}")
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))
        # The server prints its address before it installs its SIGTERM
        # handler; one answered request proves the handler is in place.
        probe = Connection(self.address)
        try:
            status, _ = probe.exchange("GET", "/healthz")
        finally:
            probe.close()
        if status != 200:
            self.stop()
            raise RuntimeError(f"server answered /healthz with {status}")
        self.start_seconds = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), read before it stops."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> tuple[int, str]:
        """SIGTERM, wait for exit; returns (exit code, captured stderr)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        return self.proc.returncode, self.stderr_path.read_text(errors="replace")


class Client:
    """The closed-loop client; checks every predict response."""

    def __init__(self, address, keys, fragments):
        self.conn = Connection(address)
        self.keys = keys
        self.fragments = fragments
        self.tracer: Tracer | None = None
        self.values: dict[int, float] = {}
        self.mismatches = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.miss_batches: list[list[int]] = []

    def get(self, path: str) -> dict:
        status, body = self.conn.exchange("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def predict(self, batch: np.ndarray) -> None:
        body = '{"sequences": [' + ",".join(self.fragments[k] for k in batch) + "]}"
        if self.tracer is not None:
            payload = json.loads(body)
            start = time.perf_counter()
            parse_predict_request(payload)
            self.tracer.sample("protocol.parse_ms", 1000.0 * (time.perf_counter() - start))
        start = time.perf_counter()
        try:
            status, raw = self.conn.exchange("POST", "/v1/predict", body.encode())
        except (OSError, HTTPError, ValueError):
            self.failed += 1
            self.conn.close()  # reconnects on the next request
            return
        elapsed = time.perf_counter() - start
        try:
            document = json.loads(raw)
            values = document["throughputs"]
            cached = document["cached"]
            well_formed = (
                status == 200
                and len(values) == len(batch)
                and len(cached) == len(batch)
                and all(isinstance(v, float) for v in values)
            )
        except (ValueError, KeyError, TypeError):
            well_formed = False
        if not well_formed:
            self.failed += 1
            return
        self.latencies.append(elapsed)
        misses = []
        for key, value, hit in zip(batch.tolist(), values, cached):
            if self.values.setdefault(key, value) != value:
                self.mismatches += 1
            if not hit and key not in misses:
                misses.append(key)
        if misses:
            self.miss_batches.append(misses)

    def run(self, stream: inputs.ZipfStream, seconds: float | None, requests: int | None):
        """Closed loop until ``seconds`` pass or ``requests`` were sent."""
        sent = 0
        start = time.perf_counter()
        while True:
            self.predict(stream.batch())
            sent += 1
            elapsed = time.perf_counter() - start
            if (seconds is not None and elapsed >= seconds) or sent == requests:
                return sent, elapsed


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return float(after - before)


def serve_zipf(root: Path, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    work = root / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    truth = zen_machine().ground_truth_mapping()
    mapping_path = work / "zen-truth.json"
    mapping_path.write_text(truth.to_json())
    universe_seed, stream_seed = inputs.seeds("serve-zipf", seed, 2)
    keys = inputs.key_universe(list(truth.instructions), universe_seed)
    fragments = [json.dumps(dict(key.counts)) for key in keys]
    client_cpu, server_cpu = _cpus()
    checks = Checks()

    # Set-up: start the server SETUP_REPEATS times (keeping the last one),
    # then warm its cache up.
    starts = []
    for tag in range(SETUP_REPEATS):
        server = Server(root, work, mapping_path, tag, server_cpu)
        starts.append(server.start_seconds)
        if tag < SETUP_REPEATS - 1:
            code, stderr = server.stop()
            checks.expect(code == 0 and not stderr, f"idle server exit {code}: {stderr}")
    stream = inputs.ZipfStream(stream_seed)
    client = Client(server.address, keys, fragments)
    try:
        with pinned(client_cpu):
            _, warmup_seconds = client.run(stream, None, inputs.WARMUP_REQUESTS)
            before = client.get("/v1/stats")
            checks.expect(client.failed == 0, f"{client.failed} warm-up requests failed")

            client.tracer = tracer
            client.failed = 0
            client.latencies = []
            client.miss_batches = []
            sent, elapsed = client.run(stream, seconds, None)
            after = client.get("/v1/stats")
        peak_rss_mb = server.peak_rss_mb()
    finally:
        # Close the keep-alive connection first: SIGTERM while it idles
        # makes the server log a cancelled-task traceback (README).
        client.conn.close()
        code, stderr = server.stop()
    if stderr:
        print(stderr, file=sys.stderr)
    checks.expect(code == 0, f"server exited with {code}")

    metrics = {"setup_s": median(starts) + warmup_seconds}
    metrics.update(latency_metrics(client.latencies, elapsed))
    metrics["peak_rss_mb"] = peak_rss_mb

    # Oracle: every returned value of a sampled key equals Equation 1
    # evaluated literally on the served mapping.  Masses are integers, so
    # the kernel and the reference agree to the bit.
    ports = truth.ports.num_ports
    sampled = [k for k in client.values if k % inputs.ORACLE_STRIDE == 0]
    wrong = [
        k for k in sampled
        if client.values[k] != bottleneck_throughput_reference(truth.uop_masses(keys[k]), ports)
    ]
    checks.expect(not wrong, f"serve-zipf: {len(wrong)} of {len(sampled)} sampled values wrong")
    checks.expect(
        client.mismatches == 0,
        f"serve-zipf: {client.mismatches} repeated sequences got different values",
    )
    checks.expect(
        after["requests"]["errors"] == 0, "serve-zipf: the server answered with errors"
    )

    hits = _delta(after, before, "cache", "hits")
    info = {
        "hit_ratio": hits / (hits + _delta(after, before, "cache", "misses")),
        "oracle_keys": len(sampled),
        "stderr_lines": len(stderr.splitlines()),
    }
    if tracer is not None:
        metrics.update(_serving_layers(tracer, client, truth, before, after))
    return {"attempted": sent, "failed": client.failed, "metrics": metrics,
            "checks": checks, "info": info}


def _serving_layers(tracer, client, truth, before, after) -> dict[str, float]:
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    requests = _delta(after, before, "requests", "predict")
    # Replay the observed miss batches, at their observed widths, through
    # the fixed-mapping kernel the server evaluates them with.
    evaluator = FixedMappingEvaluator(truth)
    workspace = evaluator.workspace(256)
    replay = client.miss_batches[:2000]
    start = time.perf_counter()
    for batch in replay:
        evaluator.throughputs([client.keys[k] for k in batch], workspace)
    replay_seconds = time.perf_counter() - start
    return {
        "protocol.parse_ms": median(tracer.samples["protocol.parse_ms"]),
        "cache.hit_ratio": hits / (hits + misses),
        "cache.lookups": hits + misses,
        "cache.misses_per_req": misses / requests,
        "eval.us_per_seq": 1e6 * replay_seconds / sum(len(b) for b in replay),
        "serve.batch_mean": _delta(after, before, "batches", "entries")
        / _delta(after, before, "batches", "count"),
        "serve.server_p50_ms": float(after["latency"]["p50_ms"]),
    }
