"""Event-driven digital timing simulation."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "events": ("Event", "EventQueue"),
    "engine": ("Simulator",),
    "clocks": ("ClockGenerator", "DelayedClock"),
    "waveform": ("Waveform", "WaveformRecorder"),
    "faults": ("FaultInjector", "InjectedFault"),
    "vcd": ("dump_vcd", "write_vcd"),
})
