"""In-memory span recorder for the traced benchmark run.

Spans are recorded only in the traced worker process, by wrapping the
public functions of each ``remnet`` layer as the calling module sees them
(for example ``fit_map`` as ``remnet.selection`` looks it up), and
``Tracer.uninstall`` puts the originals back. Nothing in ``remnet`` itself
is changed. Spans stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    trace_id: int  # the command-sequence iteration the span belongs to
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attr, original)

    def call(self, name: str, fn, *args, attrs_of=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; attrs_of(result) adds attributes."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.trace_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            span.attrs.update(attrs_of(result))
        return result

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> None:
        """Replace module.attr by a spanned version of itself."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            return self.call(name, original, *args, attrs_of=attrs_of, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, spanned)

    def uninstall(self) -> None:
        """Put back every function wrap() replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at the call sites remnet uses."""
    import remnet.analysis
    import remnet.cli
    import remnet.selection
    import remnet.simulation

    design_attrs = lambda d: {"nbytes": int(d.full_tensor.nbytes)}  # noqa: E731
    fit_attrs = lambda f: {"n_iter": int(f.n_iter)}  # noqa: E731
    select_attrs = lambda t: {"rounds": len(t.steps) - 1}  # noqa: E731
    traj_attrs = lambda t: {"events": t.m}  # noqa: E731

    tracer.wrap(remnet.cli, "load_networks", "data.load_networks")
    tracer.wrap(remnet.cli, "summarize", "data.summarize")
    for module in (remnet.cli, remnet.analysis):
        tracer.wrap(module, "EventDesign", "inference.EventDesign", design_attrs)
    for module in (remnet.cli, remnet.selection):
        tracer.wrap(module, "fit_map", "inference.fit_map", fit_attrs)
    tracer.wrap(remnet.cli, "hill_climb_select", "selection.hill_climb_select",
                select_attrs)
    tracer.wrap(remnet.cli, "run_knockout_experiment",
                "simulation.run_knockout_experiment")
    tracer.wrap(remnet.simulation, "simulate_trajectory",
                "simulation.simulate_trajectory", traj_attrs)
    tracer.wrap(remnet.cli, "adequacy", "analysis.adequacy")
    tracer.wrap(remnet.cli, "concentration_report", "analysis.concentration_report")
