"""Congruence calculus and radical theory for finite graphs and spaces."""

from .structures import (
    A3,
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B_SET,
    D2,
    FiniteGraph,
    FiniteSpace,
    I2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    T,
    T0,
    T_SPACE,
    complete_graph,
    completion,
    cycle_graph,
    edgeless_graph,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    homeo_spaces,
    induced,
    iso_graphs,
    path_graph,
    space,
    subspace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
