"""Property tests pinning ``TimingGraph.add_edges`` to a per-edge loop.

``add_edges`` is the graph's one edge-validation path (``add_edge`` and
``from_edges`` go through it).  On any batch it must leave the same
fanout and fanin lists as adding the triples one at a time with the
pre-bulk ``add_edge`` (kept below as ``reference_add_edge``), raise the
same error text at the first bad triple, add nothing when it raises,
and invalidate a computed criticality index.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.timing import criticality as crit
from repro.timing.graph import TimingEdge, TimingGraph

PERIOD = 1000
PERCENT = 25.0


def reference_add_edge(ffs: set[str], out: dict, into: dict,
                       src: str, dst: str, delay_ps: int) -> None:
    """The per-edge ``add_edge`` as it was before bulk insertion."""
    for ff in (src, dst):
        if ff not in ffs:
            raise ConfigurationError(f"unknown flip-flop {ff!r}")
    if delay_ps > PERIOD:
        raise ConfigurationError(
            f"path {src}->{dst} delay {delay_ps} ps violates the "
            f"sign-off period {PERIOD} ps; the static design "
            f"must meet timing"
        )
    edge = TimingEdge(src, dst, delay_ps)
    out[src].append(edge)
    into[dst].append(edge)


@st.composite
def graphs_and_batches(draw):
    """A small graph with some edges, plus a batch that may be bad.

    Names are drawn from a pool one larger than the graph's FFs, and
    delays range past the period and below zero, so batches hit every
    validation error, alone and after good triples.
    """
    num_ffs = draw(st.integers(min_value=1, max_value=8))
    names = [f"f{i}" for i in range(num_ffs)]
    graph = TimingGraph("g", PERIOD)
    for name in names:
        graph.add_ff(name)
    good = st.tuples(st.sampled_from(names), st.sampled_from(names),
                     st.integers(min_value=0, max_value=PERIOD))
    for src, dst, delay in draw(st.lists(good, max_size=10)):
        graph.add_edge(src, dst, delay)
    pool = st.sampled_from([*names, "ghost"])
    delays = st.one_of(st.integers(min_value=0, max_value=PERIOD),
                       st.sampled_from((-5, -1, PERIOD + 1, 2 * PERIOD)))
    batch = draw(st.lists(st.one_of(good, st.tuples(pool, pool, delays)),
                          max_size=25))
    return graph, batch


def triples(edges) -> list[tuple[str, str, int]]:
    return [(e.src, e.dst, e.delay_ps) for e in edges]


def state(graph: TimingGraph) -> tuple:
    """Every order ``add_edges`` must preserve, as plain data."""
    return (triples(graph.edges()),
            {ff: triples(graph.out_edges(ff)) for ff in graph.ffs},
            {ff: triples(graph.in_edges(ff)) for ff in graph.ffs})


def reference_state(graph: TimingGraph, batch) -> tuple[tuple, str | None]:
    """The graph's state after the per-edge loop, and its error text."""
    ffs = set(graph.ffs)
    out = {ff: graph.out_edges(ff) for ff in graph.ffs}
    into = {ff: graph.in_edges(ff) for ff in graph.ffs}
    error = None
    for src, dst, delay in batch:
        try:
            reference_add_edge(ffs, out, into, src, dst, delay)
        except ConfigurationError as exc:
            error = str(exc)
            break
    edges = [edge for ff in graph.ffs for edge in out[ff]]
    return (triples(edges),
            {ff: triples(out[ff]) for ff in graph.ffs},
            {ff: triples(into[ff]) for ff in graph.ffs}), error


@settings(max_examples=200, deadline=None)
@given(graphs_and_batches())
def test_bulk_matches_per_edge_loop(case):
    graph, batch = case
    expected, error = reference_state(graph, batch)
    before = state(graph)
    if error is None:
        assert triples(graph.add_edges(batch)) == list(batch)
        assert state(graph) == expected
    else:
        try:
            graph.add_edges(batch)
        except ConfigurationError as exc:
            assert str(exc) == error
        else:
            raise AssertionError("bulk add accepted a bad batch")
        assert state(graph) == before


@settings(max_examples=100, deadline=None)
@given(graphs_and_batches())
def test_bulk_invalidates_a_computed_index(case):
    graph, batch = case
    graph.critical_edges(PERCENT)  # compile and memoize the index
    try:
        graph.add_edges(batch)
    except ConfigurationError:
        pass
    # Served from the index either way: after a successful batch it
    # must see the new edges, after a rejected one the old ones.
    assert graph.critical_edges(PERCENT) == \
        crit.naive_critical_edges(graph, PERCENT)
    assert graph.critical_endpoints(PERCENT) == \
        crit.naive_critical_endpoints(graph, PERCENT)


@settings(max_examples=100, deadline=None)
@given(graphs_and_batches())
def test_single_edge_and_from_edges_share_the_bulk_path(case):
    graph, batch = case
    expected, error = reference_state(graph, batch)
    for src, dst, delay in batch:
        try:
            graph.add_edge(src, dst, delay)
        except ConfigurationError as exc:
            assert str(exc) == error
            break
    assert state(graph) == expected
    valid = triples(graph.edges())
    rebuilt = TimingGraph.from_edges("g", PERIOD, valid)
    # ``edges()`` groups by source, in the order FFs first appear.
    assert triples(rebuilt.edges()) == \
        sorted(valid, key=lambda t: rebuilt.ffs.index(t[0]))
