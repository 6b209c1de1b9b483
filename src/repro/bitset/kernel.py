"""Bit-parallel evaluation primitives over interned adjacency rows.

The kernels here mirror the set-based evaluators of :mod:`repro.rpq`
one-to-one -- same semantics, same pruning -- but carry their frontiers
as Python big-int bitmaps and advance them with OR-sweeps of the
graph's label-indexed adjacency rows
(:meth:`~repro.graph.multigraph.LabeledMultigraph.bit_rows`).  One
traversal step per automaton state ORs whole target rows instead of
inserting ``(vertex, state)`` tuples one at a time, so the per-edge
cost collapses to a fraction of a word operation.

The public evaluators (:func:`repro.rpq.eval_rpq`,
:func:`repro.rpq.eval_label_sequence`,
:func:`repro.core.batch_unit.eval_batch_unit`) call these kernels
whenever no :class:`~repro.rpq.counters.OpCounters` is attached.  The
set evaluators remain for counted runs and as the oracle: the
``tests/bitset`` identity suite calls both kernels by name and asserts
identical answers on randomized graphs, the benchmark workloads, and
mid-run updates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bitset.pairbitmap import PairBitmap
from repro.graph.transitive_closure import iter_bits

__all__ = [
    "alphabet_reachable_mask",
    "eval_label_sequence_bits",
    "eval_rpq_bits",
    "expand_rtc_bits",
    "iter_bits",
    "sweep",
]


def sweep(rows: dict[int, int], mask: int) -> int:
    """OR together the adjacency rows of every vertex id set in ``mask``.

    The elementary bit-parallel traversal step: one label's frontier
    advances in a single pass over its set bits, each contributing a
    whole target row.
    """
    reached = 0
    get = rows.get
    while mask:
        low = mask & -mask
        row = get(low.bit_length() - 1)
        if row:
            reached |= row
        mask ^= low
    return reached


def _bfs_mask(graph, delta, accepts, start_states, start_id: int) -> int:
    """Product BFS from one start id; returns the accepted-vertex bitmap.

    The frontier is one bitmap per automaton state; each level ORs the
    adjacency rows of the frontier's vertices, per transition label,
    into the successor states' bitmaps.  ``visited`` masks give the
    same duplicate-avoidance as the set evaluator's per-start visited
    set (paper Example 2).
    """
    bit = 1 << start_id
    frontier = {state: bit for state in start_states}
    visited = dict(frontier)
    result = 0
    bit_rows = graph.bit_rows
    while frontier:
        next_frontier: dict[int, int] = {}
        for state, mask in frontier.items():
            row = delta.get(state)
            if not row:
                continue
            for label, next_states in row.items():
                reached = sweep(bit_rows(label), mask)
                if not reached:
                    continue
                for next_state in next_states:
                    fresh = reached & ~visited.get(next_state, 0)
                    if not fresh:
                        continue
                    visited[next_state] = visited.get(next_state, 0) | fresh
                    next_frontier[next_state] = (
                        next_frontier.get(next_state, 0) | fresh
                    )
                    if next_state in accepts:
                        result |= fresh
        frontier = next_frontier
    return result


def _candidate_start_ids(graph, first_labels) -> set[int]:
    """Ids of vertices with an out-edge that can begin a match."""
    starts: set[int] = set()
    for label in first_labels:
        starts.update(graph.bit_rows(label))
    return starts


def eval_rpq_bits(
    graph,
    nfa,
    starts: Iterable | None = None,
) -> set[tuple[object, object]]:
    """Bit-parallel :func:`repro.rpq.evaluate.eval_rpq_sets` (same contract).

    ``nfa`` is a compiled :class:`~repro.regex.nfa.LabelNFA`; the
    nullable language contributes reflexive pairs exactly as the set
    kernel does.
    """
    interner = graph.interner
    if starts is None:
        start_ids = _candidate_start_ids(graph, nfa.first_labels)
        reflexive: Iterable = graph.vertices() if nfa.nullable else ()
    else:
        kept = [vertex for vertex in starts if graph.has_vertex(vertex)]
        start_ids = {interner.id_of(vertex) for vertex in kept}
        start_ids.discard(None)
        reflexive = kept if nfa.nullable else ()

    results: set[tuple[object, object]] = set()
    for vertex in reflexive:
        results.add((vertex, vertex))

    delta = nfa.delta
    accepts = nfa.accepts
    vertex_of = interner.vertex_of
    for start_id in start_ids:
        mask = _bfs_mask(graph, delta, accepts, nfa.start, start_id)
        if not mask:
            continue
        start = vertex_of(start_id)
        for target_id in iter_bits(mask):
            results.add((start, vertex_of(target_id)))
    return results


def _extend_right_bits(graph, bitmap: PairBitmap, label: str) -> PairBitmap:
    """``{(s, t') | (s, t) in bitmap, t -label-> t'}`` as row sweeps."""
    rows = graph.bit_rows(label)
    result = PairBitmap(interner=bitmap.interner)
    for source_id, mask in bitmap.rows.items():
        reached = sweep(rows, mask)
        if reached:
            result.rows[source_id] = reached
    return result


def _extend_left_bits(graph, bitmap: PairBitmap, label: str) -> PairBitmap:
    """``{(s', t) | (s, t) in bitmap, s' -label-> s}`` via reverse rows."""
    rev_rows = graph.rev_bit_rows(label)
    result = PairBitmap(interner=bitmap.interner)
    rows = result.rows
    for middle_id, target_mask in bitmap.rows.items():
        sources = rev_rows.get(middle_id)
        if not sources:
            continue
        while sources:
            low = sources & -sources
            source_id = low.bit_length() - 1
            rows[source_id] = rows.get(source_id, 0) | target_mask
            sources ^= low
    return result


def label_rows_bitmap(graph, label: str) -> PairBitmap:
    """The one-label edge relation as a :class:`PairBitmap` (copied rows)."""
    return PairBitmap(dict(graph.bit_rows(label)), interner=graph.interner)


def eval_label_sequence_bits(
    graph,
    labels: Sequence[str],
    order: str = "rare-first",
) -> set[tuple[object, object]]:
    """Bit-parallel :func:`repro.rpq.label_join.eval_label_sequence_sets`.

    Same join-order strategies (``left-right`` folds, ``rare-first``
    anchors at the rarest label and grows toward the cheaper side); the
    per-step relation is a :class:`PairBitmap` and each extension is a
    row AND/OR sweep instead of a tuple join.
    """
    if not labels:
        return {(vertex, vertex) for vertex in graph.vertices()}
    if order == "left-right":
        bitmap = label_rows_bitmap(graph, labels[0])
        for label in labels[1:]:
            if not bitmap:
                return set()
            bitmap = _extend_right_bits(graph, bitmap, label)
        return bitmap.to_pairs(graph.interner)
    if order != "rare-first":
        raise ValueError(f"unknown join order {order!r}")

    anchor = min(range(len(labels)), key=lambda i: graph.label_count(labels[i]))
    bitmap = label_rows_bitmap(graph, labels[anchor])
    left = anchor - 1
    right = anchor + 1
    while bitmap and (left >= 0 or right < len(labels)):
        extend_left = False
        if right >= len(labels):
            extend_left = True
        elif left >= 0:
            extend_left = graph.label_count(labels[left]) <= graph.label_count(
                labels[right]
            )
        if extend_left:
            bitmap = _extend_left_bits(graph, bitmap, labels[left])
            left -= 1
        else:
            bitmap = _extend_right_bits(graph, bitmap, labels[right])
            right += 1
    if left >= 0 or right < len(labels):
        return set()
    return bitmap.to_pairs(graph.interner)


def alphabet_reachable_mask(
    graph,
    labels: Iterable[str],
    sources: Iterable,
    reverse: bool = False,
) -> int:
    """Vertices reachable from ``sources`` via edges labeled in ``labels``.

    A label-order-blind BFS over the union of the given labels' rows --
    an *over*-approximation of any RPQ over that alphabet, which makes
    it a sound pruning filter: a vertex outside the mask cannot end any
    matching path.  ``reverse=True`` sweeps the reverse adjacency rows
    instead, answering "which vertices can reach ``sources``" -- the
    membership prefilter of the cluster's cut-relevant ``reaches`` fast
    path.  Source bits are included in the returned mask.
    """
    rows_of = graph.rev_bit_rows if reverse else graph.bit_rows
    label_rows = [rows_of(label) for label in labels]
    label_rows = [rows for rows in label_rows if rows]
    seen = graph.interner.mask_of(sources)
    frontier = seen
    while frontier:
        reached = 0
        for rows in label_rows:
            reached |= sweep(rows, frontier)
        frontier = reached & ~seen
        seen |= frontier
    return seen


def expand_rtc_bits(rtc, interner=None) -> PairBitmap:
    """Theorem 1 as bitmaps: ``R+_G`` from an RTC, one row per member.

    Every closed SCC pair contributes its member Cartesian product by
    ORing the target SCC's member bitmap into each source member's row
    -- the product is never enumerated pair by pair.  Builds a private
    interner over ``V_R`` unless one is supplied.
    """
    members = rtc.condensation.members
    if interner is None:
        from repro.bitset.interner import VertexInterner

        interner = VertexInterner()
    member_masks: dict[int, int] = {}
    for scc_id in sorted(members):
        mask = 0
        for vertex in members[scc_id]:
            mask |= 1 << interner.intern(vertex)
        member_masks[scc_id] = mask
    result = PairBitmap(interner=interner)
    rows = result.rows
    for source_id, targets in rtc.closure.items():
        target_mask = 0
        for target_id in targets:
            target_mask |= member_masks[target_id]
        if not target_mask:
            continue
        source_mask = member_masks[source_id]
        while source_mask:
            low = source_mask & -source_mask
            member = low.bit_length() - 1
            rows[member] = rows.get(member, 0) | target_mask
            source_mask ^= low
    return result
