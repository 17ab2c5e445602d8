"""AS-level topology: objects, relationships, graphs and datasets.

This subpackage holds everything the paper's analysis consumes about the
AS-level Internet: the graph of inferred business relationships (CAIDA
serial-format I/O plus the multi-snapshot aggregation of Section 3.3),
the complex-relationship dataset of Giotsas et al. used by the
``Complex`` refinement, AS-type classification behind Table 1, and the
undersea-cable AS registry behind Table 4.
"""

from repro.topology.asys import AS, ASType
from repro.topology.relationships import Relationship
from repro.topology.graph import ASGraph
from repro.topology.serial import load_relationships, dump_relationships
from repro.topology.aggregate import aggregate_snapshots
from repro.topology.classify_as import classify_as_type
from repro.topology.complex_rel import ComplexRelationships, HybridEntry, PartialTransitEntry
from repro.topology.cables import CableRegistry, Cable
from repro.topology.completeness import CompletenessReport, completeness

__all__ = [
    "AS",
    "ASType",
    "Relationship",
    "ASGraph",
    "load_relationships",
    "dump_relationships",
    "aggregate_snapshots",
    "classify_as_type",
    "ComplexRelationships",
    "HybridEntry",
    "PartialTransitEntry",
    "CableRegistry",
    "Cable",
    "CompletenessReport",
    "completeness",
]
