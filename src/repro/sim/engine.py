"""Event-driven simulator core.

The :class:`Simulator` owns a namespace of signals (each holding a
three-valued :class:`~repro.circuit.logic.Logic` level), an event queue,
and change listeners.  Netlists attach their gates as listeners with
*inertial delay* semantics: a pulse narrower than a gate's propagation
delay is filtered, matching how the paper's circuits behave (and why the
TIMBER latch "propagates glitches" only when they are wide enough).

Sequential elements (:mod:`repro.sequential`) and structural TIMBER
circuits (:mod:`repro.core.structural`) attach themselves through the same
listener/action interface.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import obs
from repro.circuit.logic import Logic
from repro.circuit.netlist import Gate, Netlist
from repro.errors import SimulationError
from repro.sim.events import Action, Event, EventQueue

#: Listener signature: (simulator, signal, new_value, time_ps).
Listener = typing.Callable[["Simulator", str, Logic, int], None]

# Observability series, bound once: metric cost in run() is one guarded
# call per run() invocation, never per event.
_OBS_EVENTS = obs.REGISTRY.family("repro_sim_events_total").labels()
_OBS_TOGGLES = obs.REGISTRY.family("repro_sim_toggles_total").labels()
_OBS_QUEUE_DEPTH = obs.REGISTRY.family("repro_sim_queue_depth").labels()


@dataclasses.dataclass
class _PendingDrive:
    """Book-keeping for a gate's in-flight output transition."""

    handle: int
    value: Logic


class Simulator:
    """A deterministic event-driven logic simulator."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = EventQueue()
        self._signals: dict[str, Logic] = {}
        self._listeners: dict[str, list[Listener]] = {}
        self._toggle_counts: dict[str, int] = {}
        self._toggle_energy: dict[str, float] = {}
        self._last_change_ps: dict[str, int] = {}
        self._last_drive_ps: dict[str, int] = {}
        self._dynamic_energy = 0.0
        self._events_processed = 0
        self._toggles_applied = 0

    # -- signal state ------------------------------------------------------
    def value(self, signal: str) -> Logic:
        """Current value of ``signal`` (X if never driven)."""
        return self._signals.get(signal, Logic.X)

    def set_initial(self, signal: str, value: Logic | int) -> None:
        """Set a signal's value before (or between) runs, no listeners."""
        self._signals[signal] = Logic.from_value(value)

    def signals(self) -> dict[str, Logic]:
        return dict(self._signals)

    def last_change_ps(self, signal: str) -> int | None:
        """Time of ``signal``'s most recent value change, or ``None``.

        Only changes applied through the event loop count;
        :meth:`set_initial` does not register (it models the reset
        state, not a transition).  Fault machinery uses this to tell
        whether a functional driver re-drove a signal during an injected
        pulse."""
        return self._last_change_ps.get(signal)

    def last_drive_ps(self, signal: str) -> int | None:
        """Time of the most recent *applied* drive of ``signal``.

        Unlike :meth:`last_change_ps` this registers even when the
        driven value equals the current one — a driver re-asserting a
        level is real circuit activity (an SEU restore must yield to
        it even though no transition was visible)."""
        return self._last_drive_ps.get(signal)

    # -- scheduling ----------------------------------------------------------
    def drive(self, signal: str, value: Logic | int, time_ps: int,
              label: str = "") -> int:
        """Schedule ``signal`` to take ``value`` at ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot drive {signal!r} at {time_ps} ps; now={self.now}"
            )
        event = Event(time_ps, signal=signal, value=Logic.from_value(value),
                      label=label)
        return self._queue.push(event)

    def at(self, time_ps: int, action: Action, label: str = "") -> int:
        """Schedule a callback at ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule action {label!r} at {time_ps}; "
                f"now={self.now}"
            )
        return self._queue.push(Event(time_ps, action=action, label=label))

    def after(self, delay_ps: int, action: Action, label: str = "") -> int:
        """Schedule a callback ``delay_ps`` after the current time."""
        return self.at(self.now + delay_ps, action, label)

    def cancel(self, handle: int) -> None:
        self._queue.cancel(handle)

    # -- listeners ----------------------------------------------------------
    def on_change(self, signal: str, listener: Listener) -> None:
        """Invoke ``listener`` whenever ``signal`` changes value."""
        self._listeners.setdefault(signal, []).append(listener)

    # -- netlist attachment ---------------------------------------------------
    def add_netlist(self, netlist: Netlist, prefix: str = "") -> None:
        """Attach every gate of ``netlist`` with inertial-delay semantics.

        Signal names are ``prefix + net_name``.  Gate outputs contribute
        to per-signal toggle counts weighted by the cell's toggle energy,
        which the power model consumes.
        """
        pending: dict[str, _PendingDrive] = {}

        def make_gate_listener(gate: Gate) -> Listener:
            output = prefix + gate.output
            input_names = [prefix + net for net in gate.inputs]
            energy = gate.cell.toggle_energy

            def evaluate(sim: "Simulator", _signal: str, _value: Logic,
                         time_ps: int) -> None:
                new_value = gate.cell.output(
                    [sim.value(name) for name in input_names]
                )
                slot = pending.get(gate.name)
                if slot is not None:
                    if slot.value is new_value:
                        return
                    # Inertial delay: the input changed again before the
                    # previous transition made it out; supersede it.
                    sim.cancel(slot.handle)
                    del pending[gate.name]
                if new_value is sim.value(output):
                    return
                fire_at = time_ps + gate.delay_ps

                def commit(sim_inner: "Simulator") -> None:
                    pending.pop(gate.name, None)
                    sim_inner._apply_signal(output, new_value, energy)

                handle = sim.at(fire_at, commit, label=f"gate:{gate.name}")
                pending[gate.name] = _PendingDrive(handle, new_value)

            return evaluate

        for gate in netlist:
            listener = make_gate_listener(gate)
            for net in set(gate.inputs):
                self.on_change(prefix + net, listener)
            # Prime the gate so constant inputs propagate at t=now.
            self.at(self.now, _prime(listener), label=f"prime:{gate.name}")

    # -- energy accounting ------------------------------------------------
    def toggle_count(self, signal: str) -> int:
        return self._toggle_counts.get(signal, 0)

    def dynamic_energy(self) -> float:
        """Total dynamic energy from recorded toggles (abstract units).

        Maintained as a running total in :meth:`_apply_signal`, so power
        models may poll it per cycle without re-summing the per-signal
        ledger each time.
        """
        return self._dynamic_energy

    # -- execution ----------------------------------------------------------
    def run(self, until_ps: int, *, max_events: int = 5_000_000) -> None:
        """Process events up to and including ``until_ps``.

        ``max_events`` caps the events processed by *this* call, so long
        simulations split across several ``run()`` invocations never trip
        the runaway guard cumulatively.
        """
        if until_ps < self.now:
            raise SimulationError(
                f"cannot run to {until_ps} ps; now={self.now}"
            )
        toggles_before = self._toggles_applied
        processed_this_run = 0
        span = obs.trace_span("sim.run", until_ps=until_ps)
        with span:
            while self._queue:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > until_ps:
                    break
                if processed_this_run >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events in one run(); "
                        f"runaway simulation?"
                    )
                event = self._queue.pop()
                self.now = event.time_ps
                self._dispatch(event)
                self._events_processed += 1
                processed_this_run += 1
            span.set(events=processed_this_run)
        self.now = until_ps
        _OBS_EVENTS.inc(processed_this_run)
        _OBS_TOGGLES.inc(self._toggles_applied - toggles_before)
        _OBS_QUEUE_DEPTH.set(len(self._queue))

    def _dispatch(self, event: Event) -> None:
        if event.action is not None:
            event.action(self)
            return
        assert event.signal is not None and event.value is not None
        self._apply_signal(event.signal, event.value, 0.0)

    def _apply_signal(self, signal: str, value: Logic,
                      toggle_energy: float) -> None:
        self._last_drive_ps[signal] = self.now
        old = self._signals.get(signal, Logic.X)
        if old is value:
            return
        self._signals[signal] = value
        self._last_change_ps[signal] = self.now
        if old is not Logic.X:
            # The initial X -> known settle (gate priming, first drive) is
            # not a real transition: counting it would charge toggle
            # energy for reaching the reset state and inflate
            # dynamic_energy() and every downstream power number.
            self._toggle_counts[signal] = (
                self._toggle_counts.get(signal, 0) + 1
            )
            self._toggles_applied += 1
            if toggle_energy:
                self._toggle_energy[signal] = (
                    self._toggle_energy.get(signal, 0.0) + toggle_energy
                )
                self._dynamic_energy += toggle_energy
        for listener in self._listeners.get(signal, ()):  # snapshot not
            # needed: listeners are registered up-front in this library.
            listener(self, signal, value, self.now)

    @property
    def events_processed(self) -> int:
        return self._events_processed


def _prime(listener: Listener) -> Action:
    """Wrap a gate listener as a zero-argument priming action."""

    def action(sim: Simulator) -> None:
        listener(sim, "", Logic.X, sim.now)

    return action
