"""Compiled-style hot path for route-tree computation and grading.

This package is how the program computes and grades Gao-Rexford
trees: the AS graph is compiled once into CSR adjacency arrays with
dense node ids (:mod:`~repro.core.hotpath.csr`), routing trees for many
destinations are computed in one numpy frontier sweep
(:mod:`~repro.core.hotpath.kernel`), results are wrapped with the
routing-tree query surface the rest of the pipeline reads
(:mod:`~repro.core.hotpath.info`), and whole decision batches are
graded with gathers and a bincount (:mod:`~repro.core.hotpath.grade`).

:class:`~repro.core.gao_rexford.GaoRexfordEngine` caches the trees in
front of the kernel.  Equivalence with the readable reference
construction and the fixpoint oracle (:mod:`repro.check.oracles`) is
enforced by :mod:`repro.check`'s differentials and the golden gates;
see DESIGN.md §10.
"""

from repro.core.hotpath.csr import CSRTopology, compile_topology
from repro.core.hotpath.grade import (
    DecisionArena,
    arena_for,
    classify_arena,
    label_arena,
)
from repro.core.hotpath.info import ArrayRoutingInfo
from repro.core.hotpath.kernel import compute_tree_batch

__all__ = [
    "ArrayRoutingInfo",
    "CSRTopology",
    "DecisionArena",
    "arena_for",
    "classify_arena",
    "compile_topology",
    "compute_tree_batch",
    "label_arena",
]
