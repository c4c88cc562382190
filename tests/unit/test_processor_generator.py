"""Unit tests for the synthetic processor generator."""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.experiments import (
    _shared_processor,
    fig1_experiment,
    fig8_experiment,
)
from repro.errors import ConfigurationError
from repro.exec import worker
from repro.exec.runner import SweepRunner
from repro.processor.generator import (
    _cone_quantile,
    calibrate_base,
    generate_processor,
    generate_processor_detailed,
    measured_endpoint_fractions,
)
from repro.processor.perfpoints import (
    HIGH_PERFORMANCE,
    LOW_PERFORMANCE,
    MEDIUM_PERFORMANCE,
    PERFORMANCE_POINTS,
    PerformancePoint,
)


class TestPerfPointValidation:
    def test_fractions_must_be_monotone(self):
        with pytest.raises(ConfigurationError):
            PerformancePoint(name="bad", period_ps=1000,
                             endpoint_fractions=(0.5, 0.4, 0.6, 0.7))

    def test_fractions_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            PerformancePoint(name="bad", period_ps=1000,
                             endpoint_fractions=(0.1, 0.2, 0.3, 1.2))

    def test_rejects_bad_gap_range(self):
        with pytest.raises(ConfigurationError):
            PerformancePoint(name="bad", period_ps=1000,
                             endpoint_fractions=(0.1, 0.2, 0.3, 0.4),
                             gap_range=(0.5, 0.2))

    def test_points_are_ordered_by_speed(self):
        assert LOW_PERFORMANCE.period_ps > MEDIUM_PERFORMANCE.period_ps
        assert MEDIUM_PERFORMANCE.period_ps > HIGH_PERFORMANCE.period_ps


class TestGeneration:
    def test_structure(self):
        graph = generate_processor(MEDIUM_PERFORMANCE, num_stages=4,
                                   ffs_per_stage=50, fanin=4, seed=1)
        assert graph.num_ffs == 200
        assert graph.num_edges == 200 * 4

    def test_deterministic(self):
        a = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                               ffs_per_stage=30, seed=7)
        b = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                               ffs_per_stage=30, seed=7)
        assert sorted((e.src, e.dst, e.delay_ps) for e in a.edges()) == \
            sorted((e.src, e.dst, e.delay_ps) for e in b.edges())

    def test_seed_changes_graph(self):
        a = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                               ffs_per_stage=30, seed=7)
        b = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                               ffs_per_stage=30, seed=8)
        assert sorted((e.src, e.dst, e.delay_ps) for e in a.edges()) != \
            sorted((e.src, e.dst, e.delay_ps) for e in b.edges())

    def test_all_delays_meet_signoff(self, medium_graph):
        assert all(e.delay_ps <= medium_graph.period_ps
                   for e in medium_graph.edges())

    def test_circular_stage_structure(self):
        graph = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                                   ffs_per_stage=20, seed=3)
        for edge in graph.edges():
            src_stage = graph.stage_of(edge.src)
            dst_stage = graph.stage_of(edge.dst)
            assert dst_stage == (src_stage + 1) % 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_processor(MEDIUM_PERFORMANCE, num_stages=1)
        with pytest.raises(ConfigurationError):
            generate_processor(MEDIUM_PERFORMANCE, ffs_per_stage=3,
                               fanin=6)


class TestCalibration:
    @pytest.mark.parametrize("point", PERFORMANCE_POINTS,
                             ids=lambda p: p.name)
    def test_endpoint_fractions_match_targets(self, point):
        graph = generate_processor(point)
        measured = measured_endpoint_fractions(graph)
        for percent, target in zip((10.0, 20.0, 30.0, 40.0),
                                   point.endpoint_fractions):
            assert measured[percent] == pytest.approx(target, abs=0.03)

    def test_medium_matches_paper_quote(self, medium_graph):
        """Paper Sec. 3: ~50% of FFs terminate top-20% paths and ~70% of
        those start none (only single-stage susceptible)."""
        endpoints = medium_graph.critical_endpoints(20.0)
        through = medium_graph.critical_through_ffs(20.0)
        end_fraction = len(endpoints) / medium_graph.num_ffs
        single_stage_only = 1.0 - len(through) / len(endpoints)
        assert end_fraction == pytest.approx(0.50, abs=0.05)
        assert single_stage_only == pytest.approx(0.70, abs=0.10)

    def test_through_ffs_are_minority_of_endpoints(self):
        for point in PERFORMANCE_POINTS:
            graph = generate_processor(point)
            endpoints = graph.critical_endpoints(20.0)
            through = graph.critical_through_ffs(20.0)
            assert len(through) < 0.5 * len(endpoints)

    def test_calibrate_base_adjusts_anchor(self):
        recal = calibrate_base(MEDIUM_PERFORMANCE,
                               target_end_fraction=0.30,
                               percent_threshold=20.0)
        assert recal.endpoint_fractions[1] == pytest.approx(0.30)
        graph = generate_processor(recal)
        measured = measured_endpoint_fractions(graph)
        assert measured[20.0] == pytest.approx(0.30, abs=0.03)

    def test_calibrate_keeps_monotonicity(self):
        recal = calibrate_base(MEDIUM_PERFORMANCE,
                               target_end_fraction=0.05,
                               percent_threshold=20.0)
        fractions = recal.endpoint_fractions
        assert list(fractions) == sorted(fractions)

    def test_calibrate_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_base(MEDIUM_PERFORMANCE, target_end_fraction=1.5)
        with pytest.raises(ConfigurationError):
            calibrate_base(MEDIUM_PERFORMANCE, target_end_fraction=0.3,
                           percent_threshold=15.0)


class TestDetailedOutput:
    def test_latents_exposed(self):
        detailed = generate_processor_detailed(
            MEDIUM_PERFORMANCE, num_stages=3, ffs_per_stage=20, seed=5)
        assert set(detailed.cone_delay_frac) == set(detailed.graph.ffs)
        assert all(0 < v <= 1 for v in detailed.cone_delay_frac.values())
        assert all(0 <= v <= 1 for v in detailed.start_latent.values())

    def test_worst_in_edge_matches_cone(self):
        detailed = generate_processor_detailed(
            MEDIUM_PERFORMANCE, num_stages=3, ffs_per_stage=20, seed=5)
        graph = detailed.graph
        point = MEDIUM_PERFORMANCE
        for ff in graph.ffs:
            expected = int(round(
                detailed.cone_delay_frac[ff] * point.period_ps))
            assert graph.max_in_delay(ff) == min(expected, point.period_ps)


#: SHA-256 of each point's seed-2010 graph (FFs with stages, then edges
#: in ``edges()`` order): a changed draw or edge order changes it.
PINNED_DIGESTS = {
    "low": "c1ac709e73e16d7695f042cf051814827c1d35d90ccea00d657ff7d14eba568f",
    "medium":
        "44abdf480dccf8512ad7f375f097bd022e0d059d036cea7fc48f9c444f729592",
    "high": "a5de6ae67e765eb1ea07b946b66af759e847cfa99156dbe8384d935636e1854a",
}


def graph_digest(graph) -> str:
    """Draw-for-draw fingerprint of a generated graph."""
    payload = json.dumps({
        "ffs": [[ff, graph.stage_of(ff)] for ff in graph.ffs],
        "edges": [[e.src, e.dst, e.delay_ps] for e in graph.edges()],
    }, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestPinnedDraws:
    @pytest.mark.parametrize("point", PERFORMANCE_POINTS,
                             ids=lambda p: p.name)
    def test_graph_matches_pinned_digest(self, point):
        graph = generate_processor(point, seed=2010)
        assert graph_digest(graph) == PINNED_DIGESTS[point.name]

    @pytest.mark.parametrize("point", [
        *PERFORMANCE_POINTS,
        # Repeated anchors: zero-width segments return their upper knot.
        dataclasses.replace(MEDIUM_PERFORMANCE,
                            endpoint_fractions=(0.3, 0.3, 0.5, 0.5)),
    ], ids=lambda p: f"{p.name}-{p.endpoint_fractions}")
    def test_quantile_matches_linear_scan(self, point):
        knots = [(0.0, point.wall_frac),
                 *zip(point.endpoint_fractions, (0.9, 0.8, 0.7, 0.6)),
                 (1.0, point.floor_frac)]

        def linear(rank):
            for (p0, d0), (p1, d1) in zip(knots, knots[1:]):
                if rank <= p1:
                    if p1 == p0:
                        return d1
                    return d0 + (d1 - d0) * ((rank - p0) / (p1 - p0))
            return knots[-1][1]

        quantile = _cone_quantile(point)
        ranks = [rank for rank, _ in knots]
        ranks += [i / 997 for i in range(998)]
        ranks += [r + d for r in ranks[:6] for d in (-1e-12, 1e-12)
                  if 0.0 <= r + d <= 1.0]
        for rank in ranks:
            assert quantile(rank) == linear(rank), rank

    def test_fig1_and_fig8_share_the_pinned_graphs(self, monkeypatch):
        # A fresh warm cache, so earlier tests' entries cannot count.
        warm = worker.WarmCache(capacity=64)
        monkeypatch.setattr(worker, "WARM", warm)
        runner = SweepRunner(workers=1, cache=None)
        fig1_experiment(seed=2010, runner=runner)
        fig8_experiment(seed=2010, runner=runner)
        assert warm.counters()["processor"] == [3, 3]
        # Another seed is another graph.
        fig1_experiment(points=(MEDIUM_PERFORMANCE,), seed=7, runner=runner)
        assert warm.counters()["processor"] == [3, 4]
        for point in PERFORMANCE_POINTS:
            # Neither figure's readers changed the shared graph.
            shared = _shared_processor(point, 2010)
            assert graph_digest(shared) == PINNED_DIGESTS[point.name]
        fresh = generate_processor(MEDIUM_PERFORMANCE, seed=2010)
        again = generate_processor(MEDIUM_PERFORMANCE, seed=2010)
        assert fresh is not again
        assert fresh is not _shared_processor(MEDIUM_PERFORMANCE, 2010)
        assert graph_digest(fresh) == graph_digest(again)
