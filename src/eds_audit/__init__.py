"""Efficient-dominating-set decision procedure, exact oracle, and audit harness."""

from .eds import EdsCertificate, verify_eds
from .errors import CapacityError, ParseError
from .generators import (
    GenSpec, gen_circulant, gen_complete, gen_cycle, gen_hypercube,
    gen_petersen, gen_random_regular, parse_genspec, parse_genspecs,
)
from .graph import Graph, VertexSet, encode_graph6, is_connected, is_regular, parse_graph6
from .oracle import OracleReport, solve_exact
from .reduction import (
    Decision, TraceEvent, decide_eds, probe, probe_each,
    reduce_to_fixpoint, work_budget,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "Decision", "EdsCertificate", "GenSpec", "Graph",
    "OracleReport", "ParseError", "TraceEvent", "VertexSet",
    "decide_eds", "encode_graph6", "gen_circulant", "gen_complete",
    "gen_cycle", "gen_hypercube", "gen_petersen", "gen_random_regular",
    "is_connected", "is_regular", "parse_genspec", "parse_genspecs",
    "parse_graph6", "probe", "probe_each", "reduce_to_fixpoint", "solve_exact",
    "verify_eds", "work_budget",
]
