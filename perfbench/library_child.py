"""The process under test for ``rpq_sets_cold``: an analyst's script.

Run as ``python library_child.py JOB.json RESULT.json``.  The job names
the edge-list file, the query sets, the window length and whether to
record spans; the child imports ``repro`` like any user script and
drives :class:`repro.GraphDB`:

1. set-up: ``GraphDB.open(<edge-list path>)``, ``setup_repeats`` times;
2. the timed window, in ``chunks`` slices: 10-query sets in a closed
   loop, each on a fresh session, each query ``execute``d and its pairs
   iterated;
3. after each slice, a slice of the update probe: on one session, run a
   query, add or remove the probe batch with ``GraphDB.update``, and time
   the same query again (``probe_updates`` steps in all).

It reports latencies and, per query, a digest (count and ``hash`` of the
frozen pair set; vertices are ints, so the hash is the same in every
process) for the parent to check against the reference answers.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    recorder = None
    if job["traced"]:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    from repro import GraphDB

    setup_times = []
    db = None
    for _ in range(job["setup_repeats"]):
        db = None  # drop the previous session before timing the next open
        started = time.perf_counter()
        db = GraphDB.open(job["edge_list"])
        setup_times.append(time.perf_counter() - started)
    graph = db.graph

    sets, probe_queries = job["sets"], job["probe_queries"]
    batch = [tuple(edge) for edge in job["probe_batch"]]
    chunks = job["chunks"]
    steps_per_chunk = job["probe_updates"] // chunks
    query_latencies, set_times, answers, windows, chunk_queries = [], [], [], [], []
    update_latencies = {"add": [], "remove": []}
    after_update_latencies, probe_answers = [], []
    set_index = probe_index = 0
    for _chunk in range(chunks):
        # A slice of the timed window: 10-query sets, each on a fresh session.
        window_start = time.perf_counter()
        deadline = window_start + job["seconds"] / chunks
        done = len(query_latencies)
        while time.perf_counter() < deadline:
            queries = sets[set_index % len(sets)]
            set_started = time.perf_counter()
            session = GraphDB.open(graph)
            for query in queries:
                started = time.perf_counter()
                token = recorder.begin("op") if recorder is not None else None
                result = session.execute(query)
                for _pair in result:
                    pass
                if token is not None:
                    recorder.end(token)
                query_latencies.append(time.perf_counter() - started)
                answers.append((query, len(result.pairs), hash(result.pairs)))
            set_times.append(time.perf_counter() - set_started)
            session.close()
            set_index += 1
        windows.append((window_start, time.perf_counter()))
        chunk_queries.append(len(query_latencies) - done)

        # A slice of the update probe, on its own session: run a query
        # (warming its closure), add or remove the probe batch, time the
        # same query again.  The batch changes no answer.
        session = GraphDB.open(graph)
        for _step in range(steps_per_chunk):
            query = probe_queries[probe_index % len(probe_queries)]
            session.execute(query)
            kind = "add" if probe_index % 2 == 0 else "remove"
            started = time.perf_counter()
            session.update(**{kind: batch})
            update_latencies[kind].append(time.perf_counter() - started)
            started = time.perf_counter()
            result = session.execute(query)
            for _pair in result:
                pass
            after_update_latencies.append(time.perf_counter() - started)
            probe_answers.append((query, len(result.pairs), hash(result.pairs)))
            probe_index += 1
        session.close()

    spans_path = None
    if recorder is not None:
        spans_path = result_path + ".spans.json"
        recorder.dump(spans_path)
    document = {
        "setup_times": setup_times,
        "query_latencies": query_latencies,
        "set_times": set_times,
        "insert_latencies": update_latencies["add"],
        "delete_latencies": update_latencies["remove"],
        "after_update_latencies": after_update_latencies,
        "answers": answers,
        "probe_answers": probe_answers,
        "windows": windows,
        "chunk_queries": chunk_queries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans_path,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
