"""The serving workloads: ``repro serve`` processes and a closed-loop load.

The server (or the cluster router, whose shard workers it spawns itself)
runs in its own process, started exactly as ``python -m repro serve``
starts it; traced runs start it through ``serve_traced.py``, which wraps
the layers first.  The load comes from this process: one client thread
and one connection per caller, each sending its next request only after
the previous reply arrived.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from environment import child_env
from inputs import Inputs, probe_batch, toggle_edge

CLIENTS = 2
#: Every 10th request of a mixed-workload caller is an update.
UPDATE_EVERY = 10
ROUND = 10
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0

SERVE_ARGS = {
    "serve_read": [],
    "serve_mixed": [],  # plus --data-dir, one fresh directory per launch
    "cluster_edgecut": [
        "--shards", "2", "--replicas", "1",
        "--backend", "process", "--strategy", "edge-cut",
    ],
}
_BANNER = re.compile(r" on ([0-9.]+):(\d+) -- Ctrl-C to stop")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: those are counted)."""


@dataclass
class Server:
    """One launched ``repro serve`` process."""

    process: subprocess.Popen
    address: tuple
    setup_s: float
    data_dir: Path | None
    spans_path: Path | None
    worker_pids: list = field(default_factory=list)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes.

        The sum of each process's own peak (``VmHWM``): an upper bound on
        the peak of their sum.
        """
        total_kb = 0
        for pid in [self.process.pid, *self.worker_pids]:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful shutdown (SIGINT), as an operator's Ctrl-C."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchError("server did not stop within its timeout") from None
        finally:
            self.process.stdout.close()
            _await_exit(self.worker_pids)
        if code != 0:
            raise BenchError(f"server exited with code {code}")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _await_exit(pids: list) -> None:
    """Wait for the router's shard workers to end; kill any left over."""
    deadline = time.monotonic() + STOP_TIMEOUT
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            raise BenchError("shard workers outlived the router")
        time.sleep(0.02)


def launch(root: Path, inputs: Inputs, work_dir: Path, traced: bool, tag: str) -> Server:
    """Start a server; ``setup_s`` runs from process start to a ``ping``.

    The set-up includes the watcher on each closure body for
    ``serve_mixed`` and the shard workers' spawn for the cluster.
    """
    from repro.server import Client

    workload = inputs.workload
    args = ["serve", str(inputs.edge_list), "--port", "0", *SERVE_ARGS[workload]]
    data_dir = None
    if workload == "serve_mixed":
        data_dir = work_dir / f"data-{tag}"
        args += ["--data-dir", str(data_dir)]
    spans_path = None
    if traced:
        spans_path = work_dir / f"spans-{tag}.json"
        command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                   str(spans_path), *args]
    else:
        command = [sys.executable, "-m", "repro", *args]
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(root, tmp)
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        cwd=str(root), text=True,
    )
    try:
        address = _await_banner(process)
        with Client(*address) as client:
            if workload == "serve_mixed":
                for body in inputs.bodies:
                    client.watch(body)
            client.ping()
            setup_s = time.perf_counter() - started
            worker_pids = []
            if workload == "cluster_edgecut":
                shards = client.stats()["cluster"]["per_shard"]
                worker_pids = [shard["worker"]["pid"] for shard in shards]
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    return Server(process, address, setup_s, data_dir, spans_path, worker_pids)


def _await_banner(process: subprocess.Popen) -> tuple:
    deadline = time.monotonic() + START_TIMEOUT
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("server did not announce its address in time")
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if not ready:
            continue
        line = process.stdout.readline()
        if not line:
            raise BenchError(f"server exited during start-up (code {process.wait()})")
        match = _BANNER.search(line)
        if match:
            return match.group(1), int(match.group(2))


@dataclass
class ClientLog:
    """What one caller saw."""

    query_latencies: list = field(default_factory=list)
    #: Update latencies by kind: inserts and deletes cost differently
    #: (deletes rebuild every watcher), so each gets its own median.
    insert_latencies: list = field(default_factory=list)
    delete_latencies: list = field(default_factory=list)
    after_update_latencies: list = field(default_factory=list)
    round_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Toggles acked so far; the caller's edge is live when this is odd.
    updates_acked: int = 0
    last_end: float = 0.0
    errors: list = field(default_factory=list)

    def record_update(self, kind: str, seconds: float) -> None:
        (self.insert_latencies if kind == "add" else self.delete_latencies).append(seconds)
        self.updates_acked += 1


def _query(client, query: str, packed: bool, pairs: bool):
    results, _response = client.query_call(
        [query], pairs=pairs, enc="packed" if packed else None
    )
    return results[0]


def client_loop(address, inputs: Inputs, index: int, window: dict, log: ClientLog,
                references: dict | None, mixed: bool, packed: bool, recorder,
                barrier: threading.Barrier) -> None:
    """One closed-loop caller, from the barrier until the window's deadline.

    ``references`` maps query -> expected pairs; when given, every answer
    is checked (read-only workloads).  Mixed callers ask for counts only
    and check that every operation succeeded.
    """
    from repro.errors import ReproError
    from repro.server import Client

    queries = inputs.queries
    offset = index * len(queries) // CLIENTS
    with Client(*address) as client:
        barrier.wait()
        deadline = window["deadline"]
        request = sent = 0
        after_update = False
        round_started = time.perf_counter()
        while time.perf_counter() < deadline:
            log.attempted += 1
            token = recorder.begin("op") if recorder is not None else None
            started = time.perf_counter()
            try:
                if mixed and request % UPDATE_EVERY == UPDATE_EVERY - 1:
                    kind, edge = toggle_edge(inputs, index, log.updates_acked)
                    client.update(**{kind: [edge]})
                    log.record_update(kind, time.perf_counter() - started)
                    after_update = True
                else:
                    # Queries rotate on their own count: with 9 queries
                    # between two updates and 20 queries, the first query
                    # after an update walks through every query.  Rotated
                    # on the request count it would be one of two, and
                    # the seed's shuffle would pick which.
                    query = queries[(offset + sent) % len(queries)]
                    sent += 1
                    result = _query(client, query, packed, pairs=not mixed)
                    elapsed = time.perf_counter() - started
                    log.query_latencies.append(elapsed)
                    if after_update:
                        log.after_update_latencies.append(elapsed)
                        after_update = False
                    if references is not None and result.pairs != references[query]:
                        log.wrong += 1
            except (ReproError, OSError) as error:
                log.failed += 1
                log.errors.append(repr(error))
            finally:
                if token is not None:
                    recorder.end(token)
            log.last_end = time.perf_counter()
            request += 1
            if request % ROUND == 0:
                log.round_times.append(log.last_end - round_started)
                round_started = log.last_end


def run_clients(server: Server, inputs: Inputs, seconds: float, logs: list, references,
                mixed: bool, packed: bool, recorder=None) -> tuple[float, float]:
    """Drive one closed-loop caller per log for ``seconds``; returns the window."""
    barrier = threading.Barrier(len(logs) + 1, timeout=START_TIMEOUT)
    window: dict = {}
    errors: list = []

    def body(index: int) -> None:
        try:
            client_loop(server.address, inputs, index, window, logs[index],
                        references, mixed, packed, recorder, barrier)
        except BaseException as error:  # re-raised below, after join
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=body, args=(index,)) for index in range(len(logs))]
    for thread in threads:
        thread.start()
    # The callers block in the barrier until the deadline is set.
    window["start"] = time.perf_counter()
    window["deadline"] = window["start"] + seconds
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return window["start"], max(log.last_end for log in logs)


def update_probe(server: Server, inputs: Inputs, first: int, count: int,
                 references: dict, packed: bool, log: ClientLog) -> None:
    """Steps ``first`` .. ``first + count`` of a read workload's update probe.

    One caller: each step runs a query (warming its closure), adds or
    removes the probe batch (:func:`inputs.probe_batch`), then times the
    same query again -- the first query after an acked update.  Steps
    cycle through every query; the batch changes no answer, so each is
    checked.  The slice ends after a remove and re-runs every query once
    (:func:`warm`), so the next slice of the read window starts warm.
    """
    from repro.errors import ReproError
    from repro.server import Client

    queries = inputs.probe_queries
    batch = probe_batch(inputs)
    with Client(*server.address) as client:
        for index in range(first, first + count):
            query = queries[index % len(queries)]
            kind = "add" if index % 2 == 0 else "remove"
            log.attempted += 3
            try:
                _query(client, query, packed, pairs=True)
                started = time.perf_counter()
                client.update(**{kind: batch})
                log.record_update(kind, time.perf_counter() - started)
                started = time.perf_counter()
                result = _query(client, query, packed, pairs=True)
                log.after_update_latencies.append(time.perf_counter() - started)
            except (ReproError, OSError) as error:
                log.failed += 1
                log.errors.append(repr(error))
                continue
            log.wrong += result.pairs != references[query]
    warm(server, inputs, references, packed, log)


def warm(server: Server, inputs: Inputs, references: dict, packed: bool,
         log: ClientLog) -> None:
    """Run and check every query once, so each closure body is cached."""
    from repro.errors import ReproError
    from repro.server import Client

    with Client(*server.address) as client:
        for query in dict.fromkeys(inputs.queries):
            log.attempted += 1
            try:
                result = _query(client, query, packed, pairs=True)
            except (ReproError, OSError) as error:
                log.failed += 1
                log.errors.append(repr(error))
                continue
            log.wrong += result.pairs != references[query]
