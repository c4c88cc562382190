"""Unit tests for fault injection."""

import pytest

from repro.circuit.logic import Logic
from repro.errors import ConfigurationError
from repro.sequential.timber_latch import TimberLatch
from repro.sim.clocks import ClockGenerator
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector

PERIOD = 1000


class TestSeu:
    def test_pulse_shape(self, sim):
        sim.set_initial("a", 0)
        injector = FaultInjector(sim)
        injector.inject_seu("a", at_ps=100, width_ps=50)
        sim.run(99)
        assert sim.value("a") is Logic.ZERO
        sim.run(120)
        assert sim.value("a") is Logic.ONE
        sim.run(200)
        assert sim.value("a") is Logic.ZERO

    def test_flips_whatever_value_is_present(self, sim):
        sim.set_initial("a", 1)
        FaultInjector(sim).inject_seu("a", at_ps=10, width_ps=20)
        sim.run(15)
        assert sim.value("a") is Logic.ZERO

    def test_logged(self, sim):
        injector = FaultInjector(sim)
        injector.inject_seu("a", at_ps=10, width_ps=20)
        assert injector.log[0].kind == "seu"
        assert injector.log[0].signal == "a"

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            FaultInjector(sim).inject_seu("a", at_ps=10, width_ps=0)

    def test_seu_in_ed_window_flagged_by_timber_latch(self):
        """An SEU landing between the master and slave closings makes
        them disagree on the falling edge — detected exactly like a late
        transition (the soft-error detection synergy)."""
        sim = Simulator()
        ClockGenerator(sim, "clk", PERIOD)
        sim.set_initial("d", 0)
        latch = TimberLatch(sim, name="l", d="d", clk="clk", q="q",
                            err="err", tb_ps=100, checking_ps=300)
        # Strike after the master closed (+100) and keep the flip until
        # after the slave closed (+300): master=0, slave=1 -> flag.
        FaultInjector(sim).inject_seu("d", at_ps=PERIOD + 200,
                                      width_ps=200)
        sim.run(2 * PERIOD)
        assert latch.flagged_count == 1

    def test_seu_inside_tb_not_flagged(self):
        sim = Simulator()
        ClockGenerator(sim, "clk", PERIOD)
        sim.set_initial("d", 0)
        latch = TimberLatch(sim, name="l", d="d", clk="clk", q="q",
                            err="err", tb_ps=100, checking_ps=300)
        # Strike and recover entirely inside the TB interval: both
        # latches sample the settled value.
        FaultInjector(sim).inject_seu("d", at_ps=PERIOD + 20,
                                      width_ps=40)
        sim.run(2 * PERIOD)
        assert latch.flagged_count == 0


class TestDelayFault:
    def test_shadow_signal_delayed_after_onset(self, sim):
        sim.set_initial("a", 0)
        injector = FaultInjector(sim)
        injector.inject_delay_fault("a", from_ps=100, extra_delay_ps=70)
        shadow = injector.delayed_name("a")
        changes = []
        sim.on_change(shadow, lambda s, n, v, t: changes.append((t, v)))
        sim.drive("a", 1, 50)    # before onset: passes straight through
        sim.drive("a", 0, 200)   # after onset: delayed by 70 ps
        sim.run(400)
        assert (50, Logic.ONE) in changes
        assert (270, Logic.ZERO) in changes

    def test_original_signal_untouched(self, sim):
        sim.set_initial("a", 0)
        FaultInjector(sim).inject_delay_fault("a", from_ps=0,
                                              extra_delay_ps=70)
        sim.drive("a", 1, 100)
        sim.run(101)
        assert sim.value("a") is Logic.ONE

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            FaultInjector(sim).inject_delay_fault("a", from_ps=0,
                                                  extra_delay_ps=0)


class TestStuckAt:
    def test_clamps_from_onset(self, sim):
        sim.set_initial("a", 1)
        FaultInjector(sim).inject_stuck_at("a", at_ps=100, value=0)
        sim.run(150)
        assert sim.value("a") is Logic.ZERO

    def test_overrides_later_drives(self, sim):
        sim.set_initial("a", 0)
        FaultInjector(sim).inject_stuck_at("a", at_ps=100, value=0)
        sim.drive("a", 1, 200)
        sim.run(250)
        assert sim.value("a") is Logic.ZERO


class TestPastTimeValidation:
    """Injecting behind the simulator clock is a configuration error,
    not a silently dropped (or time-travelling) event."""

    def test_seu_in_the_past_rejected(self, sim):
        sim.set_initial("a", 0)
        sim.drive("a", 1, 100)
        sim.run(500)
        with pytest.raises(ConfigurationError):
            FaultInjector(sim).inject_seu("a", at_ps=400, width_ps=50)

    def test_delay_fault_in_the_past_rejected(self, sim):
        sim.set_initial("a", 0)
        sim.drive("a", 1, 100)
        sim.run(500)
        with pytest.raises(ConfigurationError):
            FaultInjector(sim).inject_delay_fault("a", from_ps=100,
                                                  extra_delay_ps=70)

    def test_stuck_at_in_the_past_rejected(self, sim):
        sim.set_initial("a", 0)
        sim.drive("a", 1, 100)
        sim.run(500)
        with pytest.raises(ConfigurationError):
            FaultInjector(sim).inject_stuck_at("a", at_ps=499, value=0)

    def test_at_current_time_still_allowed(self, sim):
        sim.set_initial("a", 0)
        sim.run(500)
        FaultInjector(sim).inject_seu("a", at_ps=500, width_ps=50)
        sim.run(520)
        assert sim.value("a") is Logic.ONE


class TestSeuRestoreYields:
    """An SEU pulse must not clobber a functional drive that lands
    mid-pulse: the restore event detects the re-drive and yields."""

    def test_mid_pulse_redrive_wins(self, sim):
        sim.set_initial("a", 0)
        injector = FaultInjector(sim)
        injector.inject_seu("a", at_ps=100, width_ps=200)
        sim.drive("a", 1, 200)  # functional drive inside the pulse
        sim.run(150)
        assert sim.value("a") is Logic.ONE  # flipped by the strike
        sim.run(400)
        # Without yielding, the restore at 300 would rewrite 'a' back
        # to the pre-strike value and lose the functional drive.
        assert sim.value("a") is Logic.ONE

    def test_restore_still_applies_without_redrive(self, sim):
        sim.set_initial("a", 0)
        FaultInjector(sim).inject_seu("a", at_ps=100, width_ps=200)
        sim.run(400)
        assert sim.value("a") is Logic.ZERO

    def test_yield_logged(self, sim, caplog):
        import logging

        sim.set_initial("a", 0)
        FaultInjector(sim).inject_seu("a", at_ps=100, width_ps=200)
        sim.drive("a", 1, 200)
        with caplog.at_level(logging.INFO, logger="repro.sim.faults"):
            sim.run(400)
        assert any("yields" in record.message
                   for record in caplog.records)


class TestFaultColumnsSequence:
    """A campaign fault block behaves as the list of its specs."""

    @pytest.fixture
    def block(self):
        from repro.campaign import CampaignConfig

        return CampaignConfig(num_faults=40, num_cycles=400).fault_columns()

    def test_slice_is_a_block_of_the_same_specs(self, block):
        from repro.campaign import FaultColumns

        specs = list(block)
        for part, expected in ((block[3:9], specs[3:9]),
                               (block[-5:], specs[-5:]),
                               (block[::7], specs[::7]),
                               (block[9:3], [])):
            assert isinstance(part, FaultColumns)
            assert part.sites == block.sites
            assert part == expected
            assert list(part) == expected

    def test_negative_and_out_of_range_indices(self, block):
        specs = list(block)
        assert block[-1] == specs[-1]
        assert block[-len(specs)] == specs[0]
        with pytest.raises(IndexError):
            block[len(specs)]
        with pytest.raises(TypeError):
            block["0"]

    def test_from_columns_round_trips_and_refuses_non_int64(self, block):
        from repro.campaign import FaultColumns

        columns = block.columns()
        assert FaultColumns.from_columns(columns) == block
        assert FaultColumns.from_columns(
            {name: [] for name in FaultColumns.fields}) == []
        for bound in (-2 ** 63, 2 ** 63 - 1):
            fitting = dict(columns, cycle=[bound] * len(block))
            assert FaultColumns.from_columns(fitting).cycle.tolist() == [
                bound] * len(block)
        # Every other value has no int64 column form: the store then
        # decodes the record list instead.
        for field, value in (("cycle", True), ("cycle", 1.0),
                             ("cycle", 2 ** 63), ("cycle", -2 ** 63 - 1),
                             ("kind", "no-such-kind"), ("kind", 1),
                             ("site", "no-such-site")):
            bad = dict(columns, **{field: [value] + columns[field][1:]})
            assert FaultColumns.from_columns(bad, block.sites) is None, (
                field, value)
