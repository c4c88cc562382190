"""Applying TIMBER to a design (paper Sec. 6's case-study machinery).

A :class:`TimberDesign` binds together a flip-flop-level timing graph, a
checking-period configuration, and a TIMBER element style, and answers
the case-study questions: which flip-flops are replaced, what the relay
network costs, what power/area overhead the deployment carries, and how
much dynamic-variability margin it recovers.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.core.checking_period import CheckingPeriod
from repro.core.relay import RelayCost, relay_cost
from repro.errors import ConfigurationError
from repro.power.models import DesignCostModel
from repro.power.overhead import DeploymentOverhead, deployment_overhead
from repro.timing.graph import TimingGraph


class TimberStyle(enum.Enum):
    """Which TIMBER sequential element protects the endpoints."""

    FLIP_FLOP = "ff"
    LATCH = "latch"


@dataclasses.dataclass
class TimberDesign:
    """A TIMBER deployment on a concrete design.

    Attributes:
        graph: Register-to-register timing graph of the base design.
        style: TIMBER element used at protected endpoints.
        percent_checking: Checking period as % of the clock period; also
            the criticality threshold selecting which endpoints to
            protect (paper Sec. 6).
        with_tb_interval: True for the 1 TB + 2 ED configuration
            (deferred flagging, margin c/3); False for 2 ED intervals
            (immediate flagging, margin c/2).
        cost_model: Area/power model for overhead accounting.
    """

    graph: TimingGraph
    style: TimberStyle
    percent_checking: float
    with_tb_interval: bool = True
    cost_model: DesignCostModel = dataclasses.field(
        default_factory=DesignCostModel)

    def __post_init__(self) -> None:
        if not 0 < self.percent_checking <= 50:
            raise ConfigurationError(
                "checking period must be in (0, 50]% of the clock period"
            )

    # -- configuration ----------------------------------------------------
    @property
    def checking_period(self) -> CheckingPeriod:
        if self.with_tb_interval:
            return CheckingPeriod.with_tb(self.graph.period_ps,
                                          self.percent_checking)
        return CheckingPeriod.without_tb(self.graph.period_ps,
                                         self.percent_checking)

    @property
    def recovered_margin_percent(self) -> float:
        """Recovered timing margin as % of the clock period."""
        return self.checking_period.recovered_margin_percent

    @property
    def recovered_margin_ps(self) -> int:
        return self.checking_period.recovered_margin_ps

    # -- deployment ------------------------------------------------------
    @property
    def _criticality_view(self):
        """The memoized criticality view at the checking threshold."""
        return self.graph.criticality().view(self.percent_checking)

    @property
    def protected_ffs(self) -> set[str]:
        """Flip-flops replaced by TIMBER elements."""
        return set(self._criticality_view.endpoints)

    @property
    def through_ffs(self) -> set[str]:
        """Protected FFs susceptible to multi-stage errors."""
        return set(self._criticality_view.through)

    def relay(self) -> RelayCost | None:
        """Relay network cost (None for the latch style)."""
        if self.style is TimberStyle.LATCH:
            return None
        return relay_cost(self.graph, self.percent_checking)

    def relay_meets_timing(self) -> bool:
        """Whether the relay settles within its half-cycle budget.

        Latch-style designs trivially pass (no relay)."""
        cost = self.relay()
        return cost is None or cost.meets_budget(self.graph.period_ps)

    def overhead(self, *, include_hold_buffers: bool = False,
                 ) -> DeploymentOverhead:
        return deployment_overhead(
            self.graph,
            percent_checking=self.percent_checking,
            style=self.style.value,
            cost_model=self.cost_model,
            include_hold_buffers=include_hold_buffers,
        )

    # -- summary ------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Key figures for reporting (benchmarks use this)."""
        over = self.overhead()
        cost = over.relay  # priced once, by the overhead report
        return {
            "checking_percent": self.percent_checking,
            "margin_percent": self.recovered_margin_percent,
            "ffs_total": float(self.graph.num_ffs),
            "ffs_replaced": float(over.num_replaced),
            "power_overhead_percent": over.power_overhead_percent,
            "area_overhead_percent": over.area_overhead_percent,
            "relay_area_overhead_percent": over.relay_area_overhead_percent,
            "relay_slack_percent": (
                cost.timing_slack_percent(self.graph.period_ps)
                if cost is not None else 100.0
            ),
        }
