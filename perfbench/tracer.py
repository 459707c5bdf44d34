"""Trace chunkfair's layer functions from outside the program.

The tracer replaces every module attribute in the ``chunkfair`` package
that is bound to a traced function, not only the defining module's:
``harness`` and ``multicell`` import ``realize_channel``, ``substream``,
``run_sa``, ``chunk_rates``, ``generate_taps`` and ``frequency_response``
by name, and ``assign`` imports ``deviation``, so patching the defining
module alone would leave those call sites untraced.

Each wrapper records its call durations (busy time), the part of that
time spent in traced callees (so self time = busy - callees), the
exceptions that pass through it, and counts read from return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "channel": ("realize_channel", "substream", "generate_taps", "frequency_response"),
    "assign": ("chunk_rates", "proposed_sa", "shen_sa", "static_sa", "exhaustive_sa_oracle"),
    "power": ("proposed_pa", "uniform_pa", "exact_pa_oracle", "user_rates"),
    "multicell": ("build_scenario", "multicell_sa"),
    "metrics": ("deviation", "min_weighted_rate", "mean_ci"),
    "harness": ("run_experiment", "summarize", "emit_csv", "emit_summary_csv"),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


def _oracle_counts(counts, result):
    counts["assign.exhaustive_sa_oracle.candidates"] += int(result.candidates)


def _proposed_pa_counts(counts, result):
    counts["power.proposed_pa.repaired_users"] += int(result.repaired.sum())
    counts["power.proposed_pa.pruned_subcarriers"] += int(result.pruned.sum())
    counts["power.proposed_pa.singular_fallbacks"] += int(bool(result.singular_fallback))


_OBSERVERS = {
    "assign.exhaustive_sa_oracle": _oracle_counts,
    "power.proposed_pa": _proposed_pa_counts,
}

COUNTS = (
    "assign.exhaustive_sa_oracle.candidates",
    "power.proposed_pa.repaired_users",
    "power.proposed_pa.pruned_subcarriers",
    "power.proposed_pa.singular_fallbacks",
)


class Tracer:
    """Per-function call records for one process; create, ``install``, run, ``report``."""

    def __init__(self):
        self.durations = {name: [] for name in TRACED}
        self.callee_s = dict.fromkeys(TRACED, 0.0)
        self.raised = dict.fromkeys(TRACED, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = []  # traced time of callees, one entry per active traced call

    def install(self) -> dict[str, int]:
        """Wrap every binding of every traced function; returns bindings per function."""
        modules = [m for n, m in sys.modules.items() if n == "chunkfair" or n.startswith("chunkfair.")]
        bindings = {}
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"chunkfair.{module_name}"), func_name)
            wrapper = self._wrap(name, original)
            bindings[name] = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bindings[name] += 1
        return bindings

    def _wrap(self, name, fn):
        durations = self.durations[name]
        observe = _OBSERVERS.get(name)
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                elapsed = clock() - start
                durations.append(elapsed)
                self.callee_s[name] += open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def report(self) -> dict:
        return {
            "durations": self.durations,
            "callee_s": self.callee_s,
            "raised": self.raised,
            "counts": self.counts,
        }
