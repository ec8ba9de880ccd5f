"""Opt-in phase profiling for the refinement hot path.

``python -m repro bench --profile`` (and nothing else) activates this:
the three refinement routes bracket their coarse phases —

* ``decode`` — opening the inverted lists as flat columns,
* ``merge``  — the batch kernels (merged partition view, partition
  presence, SLCA completions) and the stack route's pure-Python
  merged-LCP sort,
* ``admit``  — candidate admission: Partition's and stack-refine's
  per-partition / per-posting loops (DP beams, admission sweeps, skip
  bounds), and SLE's step 1 outside its presence merges — the
  ``sle_round`` kernel calls, the DP runs they call back for, the
  ``C_potential`` stop between rounds and the ``sle_direct`` finish,
* ``score``  — the final Formula 2-9 ranking pass,

and the profile accumulates *exclusive* seconds per phase (a nested
span pauses its parent), so the shares always add up to the measured
wall time.  When no profile is active every marker is a single ``is
None`` check on a module global — the hot path pays nothing, which is
why the markers can stay in the routes permanently instead of needing
a cProfile session to reconstruct where the time went.
"""

from __future__ import annotations

import time

#: The live :class:`PhaseProfile`, or None when profiling is off.
_profile = None


class PhaseProfile:
    """Exclusive per-phase seconds accumulated between start/stop."""

    __slots__ = ("totals", "_stack")

    def __init__(self):
        self.totals = {}
        self._stack = []

    def _enter(self, name):
        now = time.perf_counter()
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.totals[parent[0]] = (
                self.totals.get(parent[0], 0.0) + now - parent[1]
            )
        stack.append([name, now])

    def _exit(self):
        now = time.perf_counter()
        name, began = self._stack.pop()
        self.totals[name] = self.totals.get(name, 0.0) + now - began
        if self._stack:
            self._stack[-1][1] = now


class _Span:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        profile = _profile
        if profile is not None:
            profile._enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        profile = _profile
        if profile is not None and profile._stack:
            profile._exit()
        return False


def phase(name):
    """Context manager attributing its exclusive span to ``name``."""
    return _Span(name)


def start():
    """Begin collecting; returns the live :class:`PhaseProfile`."""
    global _profile
    _profile = PhaseProfile()
    return _profile


def stop():
    """Stop collecting; returns the finished profile (None if off)."""
    global _profile
    profile = _profile
    _profile = None
    return profile


def enabled():
    """True while a profile is collecting."""
    return _profile is not None
