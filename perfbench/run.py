"""The repository's benchmark: four seeded workloads, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Two kinds of user wait on this system: analysts who run a multiple-RPQ
set through :class:`repro.GraphDB`, and clients of ``repro serve``
(single node or sharded) who query and update.  Every workload is a
closed loop -- each caller waits for its reply before sending again:

``rpq_sets_cold``
    One analyst (library, separate process) running 10-query sets from
    ``generate_workload`` on the yago2s stand-in (1/2000 scale), each set
    on a fresh session.  The paper's own measurement: caches are always
    cold, so parsing, planning, ``rpq`` traversal, RTC construction,
    batch-unit joins and result materialisation do the work.
``serve_read``
    Two clients of a warm ``repro serve`` over an R-MAT graph (2^8
    vertices, 512 edges, 3 labels), 20 queries over 4 closure bodies,
    pairs returned packed.  Every RTC lookup hits, so time goes to the
    Post join, encoding/decoding and scheduler waits.
``serve_mixed``
    The same graph and queries, counts only, on a durable server (data
    directory, fsync per acked update) with a watcher per closure body;
    every 10th request of each client toggles one edge.  Updates drop
    the cached RTCs and rebuild watchers: ``db.update``, the cache,
    ``core.incremental``, the WAL and RTC rebuilds do the work.
``cluster_edgecut``
    The mixed request stream against a 2-shard process-backend cluster
    over an edge-cut partition of a single-WCC R-MAT graph (2^6
    vertices, 192 edges): nearly every query runs the router's boundary
    join over shard RPCs.

Each workload's graph and queries are drawn once; ``--seed`` orders the
queries inside each set (see ``inputs.py``).  ``--trace 0`` prints the
end-to-end metrics, and every workload reports all of them.  ``set_p50_s`` on a
server is one caller's round of 10 requests.  The first query after an
update, on the two read-only workloads, comes from a probe run in slices
between the slices of the timed window: one caller runs a query, adds or
removes a batch of 1000 edges with a label no query reads, and times the
same query again, ``PROBE_UPDATES`` times in all.

The query tail (p95; on ``rpq_sets_cold`` one query in ten builds its
set's RTC, which puts p90 on the edge between two kinds of query) and
the update acknowledgement latencies (10%-trimmed means of inserts and
of deletes, and their pooled p90) are printed and kept in the result
file as observations, not metrics: on the 2-core VM they moved by 25-80%
between runs of the same code, with the host's CPU steal (an fsync'd
insert on ``serve_mixed`` took 3.4 ms at 6% steal and 12 ms at 17%), so
no bound the benchmark may set would hold them.  ``failed_op_ratio`` --
failed, refused or wrong operations over those attempted -- is printed,
and is the ``failed``/``attempted`` pair of the result line.

``--trace 1`` runs half the window untraced and half with the layer
wrappers of ``tracing.py`` installed, and prints per-layer self times
per operation, coverage (attributed over wall) and the tracing overhead
(traced over untraced ``qps``).  Shard workers run no wrappers: their
cache counts come from the ``stats`` verb and the router's join counters
from the ``metrics`` verb; the RTC sizes inside workers are not exposed
by either, so ``core.rtc.*`` reads 0 on ``cluster_edgecut``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(inputs' digests, environment, sample counts) is written under
``.perfbench-out/`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rpq_sets_cold", "serve_read", "serve_mixed", "cluster_edgecut")
#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5
#: The timed window runs in this many slices, with a slice of the update
#: probe after each one (read-only workloads), so that probe samples
#: spread over the run; ``qps`` counts queries over the slices' summed
#: length.  (The median of the slices' rates moved with the mix of sets
#: each slice held: one-second slices of ``rpq_sets_cold`` ran 39 to 118
#: queries per second.)
CHUNKS = 5
#: Probe steps per run; each slice takes an even share, so every slice
#: of the window sees the input graph.
PROBE_UPDATES = 80
CHILD_TIMEOUT = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "qps": "1/s",
    "set_p50_s": "s",
    "query_after_update_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Printed and kept in the result file, but not end-to-end metrics: on
#: the 2-core VM they spread too far between runs to hold a 25% bound.
OBSERVATION_UNITS = {
    "query_p95_ms": "ms",
    "insert_mean_ms": "ms",
    "delete_mean_ms": "ms",
    "update_p90_ms": "ms",
}

#: Per-layer self time (ms per operation) -> the span name it sums.
LAYER_TIMES = {
    "regex.parse_ms": "regex.parse",
    "core.plan_ms": "core.plan",
    "rpq.eval_ms": "rpq.eval",
    "core.engine_ms": "core.engine",
    "core.cache.lookup_ms": "core.cache",
    "core.rtc.build_ms": "core.rtc.build",
    "core.batch_unit.pre_join_ms": "core.batch_unit.pre_join",
    "core.batch_unit.post_ms": "core.batch_unit.post",
    "db.execute_ms": "db.execute",
    "db.materialise_ms": "db.materialise",
    "db.update_ms": "db.update",
    "core.incremental.maintain_ms": "core.incremental",
    "storage.wal_ms": "storage.wal",
    "server.protocol.encode_ms": "server.protocol.encode",
    "server.protocol.decode_ms": "server.protocol.decode",
    "server.scheduler.wait_ms": "server.scheduler.wait",
    "server.scheduler.drain_ms": "server.scheduler.drain",
    "cluster.boundary_join_ms": "cluster.boundary_join",
    "cluster.shard_rpc_ms": "cluster.shard_rpc",
    "cluster.update_fanout_ms": "cluster.update_fanout",
}
LAYER_UNITS = {
    **{name: "ms" for name in LAYER_TIMES},
    "core.rtc.builds": "1/op",
    "core.rtc.rg_pairs": "count",
    "core.rtc.sccs": "count",
    "core.rtc.pairs": "count",
    "core.cache.rtc_hit_ratio": "ratio",
    "core.cache.invalidations": "1/op",
    "core.batch_unit.post_yield": "ratio",
    "core.incremental.rebuilds": "1/op",
    "storage.wal_bytes_per_update": "B",
    "server.protocol.bytes_per_response": "B",
    "server.scheduler.mean_batch_size": "count",
    "cluster.join_rounds": "1/op",
    "cluster.join_cache_hit_ratio": "ratio",
    "ops": "count",
    "unattributed_ms": "ms",
    "coverage": "ratio",
    "trace_overhead": "ratio",
}


@dataclass
class Measurement:
    """One pass over a workload: what the callers saw, plus counters."""

    setup_times: list = field(default_factory=list)
    query_latencies: list = field(default_factory=list)
    insert_latencies: list = field(default_factory=list)
    delete_latencies: list = field(default_factory=list)
    after_update_latencies: list = field(default_factory=list)
    set_times: list = field(default_factory=list)
    #: The timed window's slices, ``(start, end)``, and queries per slice.
    windows: list = field(default_factory=list)
    chunk_queries: list = field(default_factory=list)
    #: Operations timed inside the window (queries + updates) and the
    #: sum of their latencies: the base of per-operation layer numbers.
    window_ops: int = 0
    window_queries: int = 0
    window_updates: int = 0
    window_wall: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    sut_spans: list = field(default_factory=list)
    client_spans: list = field(default_factory=list)
    #: Traced serving runs: ``(stats, metrics text)`` before and after
    #: each slice of the window.
    counters: list = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Queries per second over the window, the probe's gaps left out."""
        return sum(self.chunk_queries) / sum(end - start for start, end in self.windows)


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- rpq_sets_cold -------------------------------------------------------------


def run_library(inputs, references: dict, seconds: float, traced: bool,
                setup_repeats: int, probe_updates: int, work_dir: Path, tag: str) -> Measurement:
    from environment import child_env
    from inputs import probe_batch

    job_path = work_dir / f"job-{tag}.json"
    result_path = work_dir / f"result-{tag}.json"
    job_path.write_text(json.dumps({
        "edge_list": str(inputs.edge_list),
        "sets": inputs.sets,
        "probe_queries": inputs.probe_queries,
        "seconds": seconds,
        "traced": traced,
        "setup_repeats": setup_repeats,
        "probe_updates": probe_updates,
        "chunks": CHUNKS,
        "probe_batch": probe_batch(inputs),
    }), encoding="utf-8")
    env = child_env(ROOT, work_dir)
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("library_child.py")),
         str(job_path), str(result_path)],
        cwd=str(ROOT), env=env, check=True, timeout=CHILD_TIMEOUT,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    expected = {query: (len(pairs), hash(pairs)) for query, pairs in references.items()}
    wrong = sum(
        1 for query, count, digest in result["answers"] + result["probe_answers"]
        if expected[query] != (count, digest)
    )
    measurement = Measurement(
        setup_times=result["setup_times"],
        query_latencies=result["query_latencies"],
        insert_latencies=result["insert_latencies"],
        delete_latencies=result["delete_latencies"],
        after_update_latencies=result["after_update_latencies"],
        set_times=result["set_times"],
        windows=[tuple(window) for window in result["windows"]],
        chunk_queries=result["chunk_queries"],
        window_ops=len(result["query_latencies"]),
        window_queries=len(result["query_latencies"]),
        window_wall=sum(result["query_latencies"]),
        peak_rss_mb=result["peak_rss_mb"],
        attempted=len(result["answers"]) + 3 * probe_updates,
        failed=wrong,
    )
    if wrong:
        measurement.errors.append(f"{wrong} answers differ from the no-sharing engine's")
    if result["spans"]:
        from tracing import load_spans

        measurement.sut_spans = load_spans(result["spans"])
    return measurement


# -- serving workloads -----------------------------------------------------------


def _final_edges(inputs, callers: list) -> set:
    """The input edges plus each ``(client index, log)``'s live toggle."""
    from inputs import toggle_edge

    edges = set(inputs.base_edges)
    for index, log in callers:
        if log.updates_acked % 2:
            edges.add(toggle_edge(inputs, index, log.updates_acked - 1)[1])
    return edges


def _server_counters(server) -> tuple:
    from repro.server import Client

    with Client(*server.address) as client:
        return client.stats(), client.metrics()


def run_serving(inputs, references: dict, seconds: float, traced: bool, setup_repeats: int,
                probe_updates: int, work_dir: Path, tag: str, client_recorder) -> Measurement:
    from inputs import reference_answers
    from serving import CLIENTS, ClientLog, launch, run_clients, update_probe, warm

    mixed = inputs.workload in ("serve_mixed", "cluster_edgecut")
    packed = inputs.workload == "serve_read"
    recorder = client_recorder if traced else None
    measurement = Measurement()
    for repeat in range(setup_repeats - 1):
        server = launch(ROOT, inputs, work_dir, traced=False, tag=f"{tag}-setup{repeat}")
        measurement.setup_times.append(server.setup_s)
        server.stop()
    server = launch(ROOT, inputs, work_dir, traced=traced, tag=tag)
    measurement.setup_times.append(server.setup_s)
    logs = [ClientLog() for _ in range(CLIENTS)]
    probe_log = ClientLog()
    steps = probe_updates // CHUNKS
    try:
        if not mixed:
            warm(server, inputs, references, packed, probe_log)
        for chunk in range(CHUNKS):
            before = _server_counters(server) if traced else None
            done = sum(len(log.query_latencies) for log in logs)
            measurement.windows.append(run_clients(
                server, inputs, seconds / CHUNKS, logs, None if mixed else references,
                mixed, packed, recorder,
            ))
            measurement.chunk_queries.append(
                sum(len(log.query_latencies) for log in logs) - done
            )
            if traced:
                measurement.counters.append((before, _server_counters(server)))
            if steps:
                update_probe(server, inputs, chunk * steps, steps, references, packed, probe_log)
        for log in logs:
            measurement.query_latencies += log.query_latencies
            measurement.insert_latencies += log.insert_latencies
            measurement.delete_latencies += log.delete_latencies
            measurement.after_update_latencies += log.after_update_latencies
            measurement.set_times += log.round_times
        window_updates = measurement.insert_latencies + measurement.delete_latencies
        measurement.window_queries = len(measurement.query_latencies)
        measurement.window_updates = len(window_updates)
        measurement.window_ops = measurement.window_queries + measurement.window_updates
        measurement.window_wall = sum(measurement.query_latencies) + sum(window_updates)
        measurement.insert_latencies += probe_log.insert_latencies
        measurement.delete_latencies += probe_log.delete_latencies
        measurement.after_update_latencies += probe_log.after_update_latencies
        for log in [*logs, probe_log]:
            measurement.attempted += log.attempted
            measurement.failed += log.failed + log.wrong
            measurement.errors += log.errors[:5]
            if log.wrong:
                measurement.errors.append(f"{log.wrong} answers differ from the reference")
        # The final check: every query against a fresh session over the
        # edge set the acked updates left.
        final_edges = _final_edges(inputs, list(enumerate(logs)))
        if final_edges == inputs.base_edges:
            final_references = references
        else:
            final_references = reference_answers(sorted(final_edges), inputs.queries)
        measurement.attempted += len(final_references)
        mismatched = _check_answers(server, final_references)
        measurement.failed += mismatched
        if mismatched:
            measurement.errors.append(f"{mismatched} answers differ after the window")
        measurement.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    if server.data_dir is not None:
        measurement.attempted += 1
        if not _recovers(server.data_dir, final_edges):
            measurement.failed += 1
            measurement.errors.append("reopening the data directory lost acked updates")
    if traced:
        from tracing import load_spans

        measurement.sut_spans = load_spans(str(server.spans_path))
        measurement.client_spans = list(client_recorder.spans)
    return measurement


def _check_answers(server, references: dict) -> int:
    from repro.errors import ReproError
    from repro.server import Client

    mismatched = 0
    with Client(*server.address) as client:
        for query, expected in references.items():
            try:
                answer = client.query(query).pairs
            except ReproError:
                answer = None
            mismatched += answer != expected
    return mismatched


def _recovers(data_dir: Path, edges: set) -> bool:
    from repro.db import GraphDB

    db = GraphDB.open(None, storage=data_dir)
    try:
        return set(db.graph.edges()) == edges
    finally:
        db.close()


# -- metrics -----------------------------------------------------------------------


def trimmed_mean(values: list, cut: float = 0.1) -> float:
    """The mean of the middle ``1 - 2 * cut`` of the samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    drop = int(len(ordered) * cut)
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def end_to_end(measurement: Measurement) -> dict:
    values = {
        "setup_s": statistics.median(measurement.setup_times),
        "query_p50_ms": percentile(measurement.query_latencies, 50) * 1e3,
        "qps": measurement.qps,
        "set_p50_s": statistics.median(measurement.set_times),
        "query_after_update_p50_ms": percentile(measurement.after_update_latencies, 50) * 1e3,
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def observations(measurement: Measurement) -> dict:
    """The query tail and update latencies: reported, not gated."""
    values = {
        "query_p95_ms": percentile(measurement.query_latencies, 95) * 1e3,
        "insert_mean_ms": trimmed_mean(measurement.insert_latencies) * 1e3,
        "delete_mean_ms": trimmed_mean(measurement.delete_latencies) * 1e3,
        "update_p90_ms": percentile(
            measurement.insert_latencies + measurement.delete_latencies, 90
        ) * 1e3,
    }
    return {name: (value, OBSERVATION_UNITS[name]) for name, value in values.items()}


def _stat_delta(counters: list, path: tuple) -> float:
    """Sum over the window's slices of a ``stats`` field's growth."""

    def read(document) -> float:
        for key in path:
            document = document.get(key) if isinstance(document, dict) else None
        return float(document or 0.0)

    return sum(read(after[0]) - read(before[0]) for before, after in counters)


def _counter_delta(counters: list, name: str) -> float:
    """Sum over the window's slices of a ``metrics`` counter's growth."""
    from repro.obs.metrics import parse_prometheus

    def read(text: str) -> float:
        return sum(parse_prometheus(text).get(name, {}).values())

    return sum(read(after[1]) - read(before[1]) for before, after in counters)


def _worker_cache_delta(counters: list) -> tuple[int, int]:
    """Shard workers' RTC cache (hits, misses) grown over the window."""

    def read(document) -> tuple[int, int]:
        hits = misses = 0
        for shard in document["cluster"]["per_shard"]:
            for replica in shard["replicas"]:
                hits += replica["cache_hits"]
                misses += replica["cache_misses"]
        return hits, misses

    hits = misses = 0
    for before, after in counters:
        (hits_0, misses_0), (hits_1, misses_1) = read(before[0]), read(after[0])
        hits += hits_1 - hits_0
        misses += misses_1 - misses_0
    return hits, misses


def per_layer(workload: str, traced: Measurement, plain: Measurement) -> dict:
    """Per-layer self time and counts per operation of the traced window."""
    from tracing import self_times

    sut_spans = traced.sut_spans
    if workload == "cluster_edgecut":
        # The router's shard RPCs encode and decode inside their own
        # intervals: its protocol spans are part of cluster.shard_rpc.
        sut_spans = [span for span in sut_spans if not span[1].startswith("server.protocol.")]
    sut_seconds, sut_attrs = self_times(sut_spans, traced.windows)
    client_seconds, _ = self_times(traced.client_spans, traced.windows)
    seconds = dict(sut_seconds)
    for name, value in client_seconds.items():
        seconds[name] = seconds.get(name, 0.0) + value
    seconds.pop("op", None)
    ops = traced.window_ops

    def attr(name: str, key: str) -> float:
        return sut_attrs.get(name, {}).get(key, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {name: seconds.get(span, 0.0) * 1e3 / ops for name, span in LAYER_TIMES.items()}
    builds = attr("core.rtc.build", "calls")
    values.update({
        "core.rtc.builds": builds / ops,
        "core.rtc.rg_pairs": ratio(attr("core.rtc.build", "rg_pairs"), builds),
        "core.rtc.sccs": ratio(attr("core.rtc.build", "sccs"), builds),
        "core.rtc.pairs": ratio(attr("core.rtc.build", "pairs"), builds),
        "core.cache.rtc_hit_ratio": ratio(attr("core.cache", "hit"), attr("core.cache", "calls")),
        "core.cache.invalidations": attr("core.cache.clear", "dropped") / ops,
        "core.batch_unit.post_yield": ratio(
            attr("core.batch_unit.post", "results"), attr("core.batch_unit.post", "joined")
        ),
        "core.incremental.rebuilds": attr("core.incremental", "rebuilds") / ops,
        "storage.wal_bytes_per_update": ratio(attr("storage.wal", "bytes"), traced.window_updates),
        "server.protocol.bytes_per_response": ratio(
            attr("server.protocol.encode", "bytes"), attr("server.protocol.encode", "messages")
        ),
        "server.scheduler.mean_batch_size": ratio(
            _stat_delta(traced.counters, ("scheduler", "completed")),
            _stat_delta(traced.counters, ("scheduler", "batches")),
        ),
        "cluster.join_rounds": 0.0,
        "cluster.join_cache_hit_ratio": 0.0,
    })
    if workload == "cluster_edgecut":
        # Shard workers run no wrappers: their cache counts come from the
        # public stats verb, the join counters from the metrics verb.
        hits, misses = _worker_cache_delta(traced.counters)
        values["core.rtc.builds"] = misses / ops
        values["core.cache.rtc_hit_ratio"] = ratio(hits, hits + misses)
        values["cluster.join_rounds"] = (
            _counter_delta(traced.counters, "repro_join_rounds_total") / traced.window_queries
        )
        values["cluster.join_cache_hit_ratio"] = (
            _counter_delta(traced.counters, "repro_join_cache_hits_total")
            / traced.window_queries
        )
    attributed = sum(seconds.values())
    values["ops"] = float(ops)
    values["unattributed_ms"] = (traced.window_wall - attributed) * 1e3 / ops
    values["coverage"] = attributed / traced.window_wall
    values["trace_overhead"] = traced.qps / plain.qps
    return {name: (values[name], LAYER_UNITS[name]) for name in LAYER_UNITS}


# -- command line --------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs and one set-up, to check the plumbing quickly",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for results and working files (default: .perfbench-out/)",
    )
    return parser.parse_args(argv)


def measure(args, inputs, references: dict, work_dir: Path) -> tuple[dict, dict, list]:
    """Run the workload once (trace 0) or untraced + traced (trace 1).

    Returns the metrics, the observations and the measurements.
    """
    setup_repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    probe_updates = 0
    if args.workload in ("rpq_sets_cold", "serve_read"):
        probe_updates = 2 * CHUNKS if args.smoke else PROBE_UPDATES

    def once(seconds: float, traced: bool, tag: str, recorder=None) -> Measurement:
        if args.workload == "rpq_sets_cold":
            return run_library(inputs, references, seconds, traced, setup_repeats,
                               probe_updates, work_dir, tag)
        return run_serving(inputs, references, seconds, traced, setup_repeats,
                           probe_updates, work_dir, tag, recorder)

    if not args.trace:
        measurement = once(args.seconds, False, "run")
        return end_to_end(measurement), observations(measurement), [measurement]
    from tracing import Recorder, install

    plain = once(args.seconds / 2, False, "plain")
    recorder = Recorder()
    install(recorder, client_only=True)
    traced = once(args.seconds / 2, True, "traced", recorder)
    return per_layer(args.workload, traced, plain), observations(plain), [plain, traced]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from environment import EnvironmentProbe
    from inputs import make_inputs, reference_answers

    out_dir = (args.out or ROOT / ".perfbench-out").resolve()
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    probe = EnvironmentProbe(ROOT)
    started = time.perf_counter()
    try:
        inputs = make_inputs(args.workload, args.seed, work_dir, smoke=args.smoke)
        references = reference_answers(inputs.graph, inputs.queries)
        metrics, observed, measurements = measure(args, inputs, references, work_dir)
        digests = inputs.digests()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    errors = [error for m in measurements for error in m.errors]
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": digests,
        "environment": probe.finish(),
        "elapsed_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted,
        "errors": errors,
        "samples": {
            "queries": sum(len(m.query_latencies) for m in measurements),
            "inserts": sum(len(m.insert_latencies) for m in measurements),
            "deletes": sum(len(m.delete_latencies) for m in measurements),
            "after_update_queries": sum(len(m.after_update_latencies) for m in measurements),
            "sets": sum(len(m.set_times) for m in measurements),
            "setups": sum(len(m.setup_times) for m in measurements),
        },
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "observations": {
            name: {"value": value, "unit": unit} for name, (value, unit) in observed.items()
        },
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {json.dumps(digests)}")
    print(f"environment: {json.dumps(document['environment'])}")
    print(f"samples: {json.dumps(document['samples'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for name, (value, unit) in observed.items():
        print(f"  {name:36s} {value:14.4f} {unit} (observed, not a metric)")
    print(f"  {'failed_op_ratio':36s} {failed / attempted:14.4f} ratio ({failed}/{attempted})")
    print(f"verification: {'passed' if failed == 0 else 'FAILED: ' + '; '.join(errors[:5])}")
    print(f"result: {result_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": document["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
