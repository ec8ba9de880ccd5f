"""One benchmark run: set-up, warm-up, the wire window, the checks.

:func:`run_end_to_end` is the tracing-off run that yields the
end-to-end metrics; :func:`run_traced` repeats a shorter wire window
(for the ``/stats`` deltas, the per-request counters and the wire p50
the shares are taken against) and then hands over to :mod:`layers` for
the probes, the in-process traced replay and the micro-measurements.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import tempfile
import time

from repro import XRefine
from repro.index import load_frozen_index
from repro.serve.wire import encode_response

import inputs
import layers
import paths
from daemonproc import Daemon
from loadgen import (Reloader, RunFailed, closed_loop, open_loop,
                     percentile)
from registry import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS

#: Set-ups per end-to-end run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: The churn workload starts a reload this often (a reload takes about
#: 2.3 s, most of it the daemon's own pre-warm pauses: ~1 s idle between).
RELOAD_PERIOD_SECONDS = 3.0
#: The window is cut into segments of this length (a window shorter than
#: two of them is one segment).  ``p50_ms`` and ``p95_ms`` are the
#: *lowest* per-segment percentile and closed-loop ``throughput_rps`` the
#: *highest* per-segment rate: a busy host only ever slows a segment
#: down, so the best second of the window is the one that saw the
#: program and not a noisy neighbour (the reasoning of ``timeit``'s
#: minimum).  What the program does in every second still shows; what it
#: does once in a while shows in the pooled ``detail`` numbers only.
SEGMENT_SECONDS = 1.0
#: Share of ``--seconds`` the traced run spends on its wire window; the
#: rest goes to probes, replays and micro-measurements.
TRACED_WIRE_SHARE = 0.4


class Wire:
    """Everything one wire run observed; the metric functions read it."""

    def __init__(self, seconds):
        self.seconds = seconds    # length of the window
        self.setups = []          # seconds per set-up repetition
        self.snapshots = []
        self.boot_s = 0.0
        self.warmup_s = 0.0
        self.sequence = None
        self.raws = None
        self.digests = None
        self.lane = None          # what the request connection observed
        self.elapsed = 0.0
        self.stats_before = None
        self.stats_after = None
        self.rss_peak_kb = 0
        self.reload_durations = []
        self.reload_errors = []
        self.checked = 0
        self.mismatched = 0
        self.daemon_exit = None
        self.cpus = None          # where the daemon and this runner ran

    # -- derived -------------------------------------------------------
    @property
    def latencies(self):
        return sorted(self.lane.latencies)

    @property
    def sent(self):
        return self.lane.sent

    @property
    def ok(self):
        return len(self.lane.latencies)

    @property
    def errors(self):
        return self.lane.errors

    @property
    def failed(self):
        return (len(self.errors) + self.mismatched
                + len(self.reload_errors))

    @property
    def attempted(self):
        return (self.sent + len(self.reload_durations)
                + len(self.reload_errors))


def _boot(spec, workdir, quick):
    """One set-up: snapshots built from nothing, daemon answering."""
    snapshots = [
        inputs.build_snapshot(corpus, workdir, quick)
        for corpus in (spec.corpus, spec.corpus_b) if corpus
    ]
    daemon = Daemon(snapshots[0].path, spec.daemon_args, workdir)
    seconds = daemon.boot_s + sum(
        s.gen_s + s.build_s + s.freeze_s for s in snapshots
    )
    return snapshots, daemon, seconds


def _require_clean(report):
    if not report["clean"]:
        raise RunFailed(f"daemon did not stop cleanly: {report}")


def _warm_up(daemon, wire):
    began = time.perf_counter()
    with daemon.connect() as connection:
        for position in wire.sequence.warmup:
            status, body = connection.roundtrip(wire.raws[position])
            if status != 200:
                raise RunFailed(f"warm-up got {status}: {body[:200]!r}")
    wire.warmup_s = time.perf_counter() - began


def _same_answer(got, want):
    """Equality of two decoded JSON answers, floats to 1e-9 relative.

    The ranking scores sum floats in the iteration order of a ``set`` of
    strings (``core.ranking.similarity._guideline2_domain``), which
    follows the process's hash seed: the daemon and this process agree
    on every score only to the last ulp.
    """
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same_answer(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same_answer, got, want)))
    return got == want


def _verify(spec, wire):
    """Compare kept responses with a cache-disabled in-process engine.

    The reference runs over the snapshot of the generation the response
    names (even = A, odd = B on churn_reload); ``stats`` and
    ``generation`` are not part of the answer.
    """
    engines = {}
    expected = {}
    order = wire.sequence.window
    try:
        for position, answer in wire.lane.kept:
            side = answer["generation"] % len(wire.snapshots)
            query_id = order[position]
            key = (side, query_id)
            if key not in expected:
                if side not in engines:
                    engines[side] = XRefine(
                        load_frozen_index(wire.snapshots[side].path),
                        cache_size=0,
                    )
                response = engines[side].search(
                    wire.sequence.queries[query_id], k=spec.k,
                    algorithm="auto",
                )
                payload = json.loads(json.dumps(encode_response(response)))
                del payload["stats"]
                expected[key] = payload
            got = {
                name: value for name, value in answer.items()
                if name not in ("stats", "generation")
            }
            wire.checked += 1
            if not _same_answer(got, expected[key]):
                wire.mismatched += 1
    finally:
        for engine in engines.values():
            engine.index.frozen_snapshot.close()


def run_wire(spec, seed, seconds, setup_repeats, quick, while_alive=None,
             before_cleanup=None):
    """Set up, warm up, run the window, reap the daemon, check answers.

    ``while_alive(daemon)`` runs after the window against the still-live
    daemon; ``before_cleanup(wire)`` after the daemon is reaped, while
    the snapshot files still exist.
    """
    wire = Wire(seconds)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}_", dir=paths.TMP)
    daemon = None
    try:
        for repetition in range(setup_repeats):
            if daemon is not None:
                _require_clean(daemon.stop())
            wire.snapshots, daemon, took = _boot(spec, workdir, quick)
            wire.setups.append(took)
        wire.boot_s = daemon.boot_s
        wire.cpus = {"daemon": daemon.cpus(),
                     "runner": sorted(os.sched_getaffinity(0))}
        index = wire.snapshots[0].index
        wire.sequence = inputs.build_sequence(
            spec, index, seed, seconds, quick)
        wire.digests = inputs.digests_of(
            spec, wire.snapshots, wire.sequence, seed, seconds
        )
        if not quick:
            inputs.check_digests(spec, wire.digests, inputs.load_expected())
        wire.raws = [
            inputs.request_bytes(query, spec.k)
            for query in wire.sequence.queries
        ]
        _warm_up(daemon, wire)
        with daemon.connect() as admin:
            wire.stats_before = admin.get_json("/stats")[1]
            reloader = None
            if spec.corpus_b:
                reloader = Reloader(
                    daemon.port,
                    [wire.snapshots[1].path, wire.snapshots[0].path],
                    RELOAD_PERIOD_SECONDS,
                )
                reloader.start()
            # The load generator holds a whole index in memory; a cycle
            # collection over it mid-window would stall the client.
            gc.collect()
            gc.disable()
            try:
                if spec.open_rps:
                    wire.lane, wire.elapsed = open_loop(
                        daemon.port, wire.raws, wire.sequence.window,
                        wire.sequence.due, seconds,
                    )
                else:
                    wire.lane, wire.elapsed = closed_loop(
                        daemon.port, wire.raws, wire.sequence.window,
                        seconds,
                    )
            finally:
                gc.enable()
                if reloader is not None:
                    reloader.finish()
                    wire.reload_durations = reloader.durations
                    wire.reload_errors = reloader.errors
            wire.stats_after = admin.get_json("/stats")[1]
        if while_alive is not None:
            while_alive(daemon)
        wire.rss_peak_kb = daemon.rss_peak_kb()
        wire.daemon_exit = daemon.stop()
        _require_clean(wire.daemon_exit)
        _verify(spec, wire)
        if before_cleanup is not None:
            before_cleanup(wire)
        return wire
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def segment_values(wire):
    """Per non-empty segment of the window: p50 and p95 of the latency
    in ms, and 200-responses per second from the segment's first request
    to the next segment's first, keyed by what they feed."""
    count = max(1, int(wire.seconds / SEGMENT_SECONDS))
    width = wire.seconds / count
    segments = [[] for _ in range(count)]
    began = [None] * count
    for offset, latency in zip(wire.lane.offsets, wire.lane.latencies):
        index = min(count - 1, int(offset / width))
        if began[index] is None:
            began[index] = offset
        segments[index].append(latency)
    kept = [i for i in range(count) if segments[i]]
    until = [began[i] for i in kept[1:]] + [wire.elapsed]
    ordered = [sorted(segments[i]) for i in kept]
    return {
        "p50_ms": [percentile(o, 0.50) * 1e3 for o in ordered],
        "p95_ms": [percentile(o, 0.95) * 1e3 for o in ordered],
        "rate_rps": [len(segments[i]) / (end - began[i])
                     for i, end in zip(kept, until)],
    }


def end_to_end_metrics(spec, wire):
    if not wire.ok:
        raise RunFailed(f"no request succeeded: {wire.errors[:3]}")
    if spec.open_rps:
        # An open loop is offered a fixed rate, and the stalls it exists
        # to show (a reload's flip) fall in a few seconds of the window:
        # the whole of it is taken, backlog included.
        latencies = wire.latencies
        p50 = percentile(latencies, 0.50) * 1e3
        p95 = percentile(latencies, 0.95) * 1e3
        throughput = wire.ok / wire.elapsed
    else:
        segments = segment_values(wire)
        p50 = min(segments["p50_ms"])
        p95 = min(segments["p95_ms"])
        throughput = max(segments["rate_rps"])
    return {
        "p50_ms": p50,
        "p95_ms": p95,
        "throughput_rps": throughput,
        "rss_peak_mb": wire.rss_peak_kb / 1024.0,
        "setup_s": statistics.median(wire.setups) + wire.warmup_s,
    }


def _result(wire, values, names, extra):
    """The driver's result object plus what the human report shows."""
    return {
        "correct": wire.failed == 0,
        "attempted": wire.attempted,
        "failed": wire.failed,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name in names
        },
        "samples": extra.pop("samples"),
        "detail": extra,
    }


def run_end_to_end(spec, seed, seconds, quick=False):
    wire = run_wire(
        spec, seed, seconds, 1 if quick else SETUP_REPEATS, quick
    )
    return _result(wire, end_to_end_metrics(spec, wire), END_TO_END_NAMES, {
        "samples": {
            "p50_ms": wire.ok, "p95_ms": wire.ok, "throughput_rps": wire.ok,
            "rss_peak_mb": 1, "setup_s": len(wire.setups),
        },
        "errors": wire.errors[:5] + wire.reload_errors[:5],
        "setups_s": wire.setups,
        "warmup_s": wire.warmup_s,
        "segments": segment_values(wire),
        "pooled": {  # the whole window, slow seconds and all
            "p50_ms": percentile(wire.latencies, 0.50) * 1e3,
            "p95_ms": percentile(wire.latencies, 0.95) * 1e3,
            "throughput_rps": wire.ok / wire.elapsed,
        },
        "p99_ms": percentile(wire.latencies, 0.99) * 1e3,
        "failed_share": wire.failed / wire.attempted,
        "checked": wire.checked,
        "mismatched": wire.mismatched,
        "reloads": len(wire.reload_durations),
        "reload_p50_s": (statistics.median(wire.reload_durations)
                         if wire.reload_durations else 0.0),
        "digests": wire.digests,
        "daemon_exit": wire.daemon_exit["how"],
        "cpus": wire.cpus,
    })


def run_traced(spec, seed, seconds, quick=False):
    probes = {}
    layered = []

    def while_alive(daemon):
        probes.update(layers.probe_daemon(daemon, quick))

    def before_cleanup(wire):
        layered.extend(layers.measure(
            spec, wire, probes,
            end_to_end_metrics(spec, wire)["p50_ms"] / 1e3,
            seconds * (1.0 - TRACED_WIRE_SHARE),
        ))

    wire = run_wire(
        spec, seed, seconds * TRACED_WIRE_SHARE, 1, quick, while_alive,
        before_cleanup,
    )
    values, samples, waterfall, spans = layered
    trace_path = layers.write_trace(spec.name, spans)
    return _result(wire, values, PER_LAYER_NAMES, {
        "samples": samples,
        "errors": wire.errors[:5] + wire.reload_errors[:5],
        "waterfall": waterfall,
        "wire": end_to_end_metrics(spec, wire),
        "trace_file": trace_path,
        "digests": wire.digests,
        "cpus": wire.cpus,
    })
