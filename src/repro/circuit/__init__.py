"""Gate-level circuit substrate: logic values, cells, netlists, generators."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "logic": ("Logic", "resolve_unknown"),
    "cells": ("Cell", "CellLibrary", "default_library"),
    "netlist": ("Gate", "Net", "Netlist"),
    "verilog": ("to_verilog", "write_verilog"),
    "evaluate": ("check_equivalence", "evaluate", "random_vectors"),
})
