"""Names of the benchmark, read from the root ``BENCHMARK.json``.

That file is the one table of workloads and metrics (name, unit, which
way is better, bound); ``README.md`` beside this file says what each
name means.  Later issues cite these names; do not rename them.
"""

from __future__ import annotations

import json

import paths

with open(paths.BENCHMARK_JSON, encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

#: Defaults of the runner; the pinned request-sequence digests key on them.
DEFAULT_SEED = 23
DEFAULT_SECONDS = CONTRACT["run_seconds"]

#: What a client of the daemon sees: ``{name, unit, better, bound}``.
END_TO_END = CONTRACT["end_to_end"]
#: One layer each, printed by the traced run: ``{name, unit, better}``.
PER_LAYER = CONTRACT["per_layer"]

#: ISSUE 11's four workloads, in its order; ``run.py`` runs them all.
WORKLOAD_NAMES = ("cold_small", "cold_large", "replay_mixed", "churn_reload")
#: The ones in BENCHMARK.json, which the driver runs and gates; the
#: others are diagnostics, run and printed the same way (README, "Noise
#: procedure", says why each left the gate).
GATED_WORKLOAD_NAMES = tuple(w["name"] for w in CONTRACT["workloads"])
END_TO_END_NAMES = tuple(m["name"] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m["name"] for m in PER_LAYER)
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
