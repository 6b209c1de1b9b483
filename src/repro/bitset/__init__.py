"""``repro.bitset`` -- the bit-parallel evaluation kernel.

Every hot path of the reproduction -- DFA-product BFS, label joins, RTC
expansion, router-side pair unions -- historically manipulated Python
``set[tuple[vertex, vertex]]``, paying per-pair hashing and tuple
allocation.  This package moves those kernels onto word-parallel Python
big-int bitmaps (stdlib-only: ``|``, ``&``, shifts,
``int.bit_count()``), extending the pattern
:func:`repro.graph.transitive_closure.dag_closure_bitsets` already
proved for the condensation DP to the whole evaluation stack:

* :class:`VertexInterner` -- dense int ids for arbitrary hashable
  vertices, stable across updates (ids are never reused) and persisted
  through :mod:`repro.storage` snapshots so warm restarts keep the
  interning;
* :class:`PairBitmap` -- a ``src_id -> dst bitmap`` pair relation with
  O(words) union/intersection and ``int.bit_count()`` cardinality;
* :mod:`repro.bitset.kernel` -- frontier BFS over the automaton product
  as OR-sweeps of the graph's label-indexed adjacency rows
  (:meth:`repro.graph.multigraph.LabeledMultigraph.bit_rows`), bitmap
  label joins, and the Theorem-1 closure expansion.

One rule picks the kernel: every evaluator runs these bitmaps unless
:class:`~repro.rpq.counters.OpCounters` are attached.  The set-based
evaluators (:func:`repro.rpq.evaluate.eval_rpq_sets`,
:func:`repro.rpq.label_join.eval_label_sequence_sets`) remain for
those counted runs -- the paper's operation-count ablations -- and as
the *oracle* that gates the bitmap kernel's answers in the
``tests/bitset`` identity suite and the before/after benchmark rows.
"""

from repro.bitset.interner import VertexInterner
from repro.bitset.pairbitmap import PairBitmap
from repro.bitset.kernel import (
    alphabet_reachable_mask,
    eval_label_sequence_bits,
    eval_rpq_bits,
    expand_rtc_bits,
    iter_bits,
)

__all__ = [
    "VertexInterner",
    "PairBitmap",
    "alphabet_reachable_mask",
    "eval_label_sequence_bits",
    "eval_rpq_bits",
    "expand_rtc_bits",
    "iter_bits",
]
