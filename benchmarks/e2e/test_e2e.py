"""Self-test of the end-to-end benchmark (outside tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks the names (BENCHMARK.json against ISSUE 11), runs the
whole benchmark once in ``--quick`` form and the driver's form on one
workload, proves the inputs do not depend on ``PYTHONHASHSEED``, and
makes sure nothing — daemon, temp dir — outlives a run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import paths
import registry
import run

RUN = [sys.executable, os.path.join(paths.HERE, "run.py")]

#: The names ISSUE 11 fixes; later issues cite them.
ISSUE_WORKLOADS = ("cold_small", "cold_large", "replay_mixed", "churn_reload")
ISSUE_METRICS = """
setup_s p50_ms p95_ms throughput_rps failed_share rss_peak_mb reload_p50_s
serve.floor_us serve.handoff_us serve.parse_us serve.decode_us
serve.encode_us serve.render_us serve.response_bytes
serve.admission_rejected serve.singleflight_coalesced serve.residual_us
serve.boot_s serve.reload_load_s serve.reload_prepare_s serve.reload_flip_s
perf.result_hit_rate perf.subresult_hit_rate perf.evictions
perf.admission_rejects perf.result_get_us perf.result_put_us
perf.hit_path_us lexicon.mine_us lexicon.rules_per_query plan.plan_us
plan.cached_plan_us plan.cache_hit_rate plan.route_share.sle
plan.route_share.partition plan.route_share.stack plan.fallbacks
core.search_us core.search_p95_us core.sle_us core.partition_us
core.stack_us core.glue_us core.postings_scanned core.partitions_visited
core.partitions_skipped core.skip_ratio core.dp_invocations
core.slca_invocations kernels.compiled kernels.partition_table_ns
kernels.partition_view_ns kernels.merged_lcp_ns kernels.batch_slca_ns
kernels.scoring_ns index.build_s index.freeze_s index.open_s
index.first_touch_us index.snapshot_bytes index.nodes loadgen.sent
loadgen.ok loadgen.failed loadgen.checked loadgen.mismatched
loadgen.late_p95_ms loadgen.client_self_us loadgen.p99_ms
trace.attributed_share trace.overhead_share
""".split()


def _daemons_alive():
    """Command lines of ``repro serve`` processes started from here."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if " serve " in command and paths.TMP in command:
            alive.append(command)
    return alive


def _leftover_run_dirs():
    if not os.path.isdir(paths.TMP):
        return []
    return [
        name for name in os.listdir(paths.TMP)
        if name.split("_")[0] in ("cold", "replay", "churn")
    ]


def _run(*arguments, cwd=paths.ROOT, env=None, timeout=300):
    return subprocess.run(
        RUN + list(arguments), cwd=cwd, env=env, timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def test_names_are_unique_well_formed_and_carry_units():
    metrics = registry.END_TO_END + registry.PER_LAYER
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert registry.WORKLOAD_NAMES == ISSUE_WORKLOADS
    assert set(registry.GATED_WORKLOAD_NAMES) <= set(ISSUE_WORKLOADS)
    for name in ISSUE_METRICS:
        assert names.count(name) == 1, name


def test_benchmark_json_keeps_to_its_contract():
    contract = registry.CONTRACT
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in contract["workloads"])
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(contract["per_layer"]) <= 128


def test_readme_explains_every_name():
    with open(os.path.join(paths.HERE, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for name in registry.WORKLOAD_NAMES + tuple(registry.UNITS):
        assert f"`{name}`" in readme, name


# ----------------------------------------------------------------------
# Noise arithmetic
# ----------------------------------------------------------------------
def test_spread_and_bounds_arithmetic():
    median, q1, q3, spread = run.spread_row([10.0, 11.0, 12.0, 13.0, 14.0])
    assert median == 12.0 and q1 < median < q3
    assert spread == pytest.approx((q3 - q1) / 12.0)
    steady = {name: 100.0 for name in registry.END_TO_END_NAMES}
    noisy = [dict(steady, p95_ms=value) for value in (60, 100, 100, 140, 180)]
    bounds = run.suggest_bounds({"cold_large": [steady] * 3,
                                 "churn_reload": noisy})
    assert set(bounds.values()) == {run.BOUND_FLOOR}  # diagnostic: ignored
    bounds = run.suggest_bounds({"cold_large": noisy})
    assert bounds["p95_ms"] == run.BOUND_CEILING


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
_DIGEST_PROBE = """
import json, sys
sys.path.insert(0, {here!r})
import paths
paths.prepare()
import inputs
from repro import build_document_index
tree = inputs.make_tree("small")
index = build_document_index(tree)
found = {{"corpus": inputs.corpus_sha(tree)}}
for name in ("cold_small", "replay_mixed", "churn_reload"):
    sequence = inputs.build_sequence(
        inputs.SPECS[name], index, {seed}, {seconds})
    found[name] = inputs.sequence_sha(sequence)
found["pool"] = inputs.json_sha(inputs.build_pool(index))
print(json.dumps(found))
"""


def test_inputs_do_not_depend_on_the_hash_seed_and_match_the_pins():
    found = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE.format(
                here=paths.HERE, seed=registry.DEFAULT_SEED,
                seconds=registry.DEFAULT_SECONDS)],
            env=env, check=True, stdout=subprocess.PIPE, text=True,
            timeout=120,
        )
        found.append(json.loads(done.stdout.splitlines()[-1]))
    assert found[0] == found[1]
    with open(paths.EXPECTED_DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert found[0]["corpus"] == pinned["corpus"]["small"]
    assert found[0]["pool"] == pinned["pool"]["small"]
    for name in ("cold_small", "replay_mixed", "churn_reload"):
        assert found[0][name] == pinned["sequence"][name]["sha"]


def test_a_drifted_input_fails_loudly():
    paths.prepare()
    import inputs

    spec = inputs.SPECS["cold_small"]
    found = {
        "corpus": {"small": "0" * 64}, "pool": {},
        "sequence": {"seed": 1, "seconds": 1, "sha": "x"},
    }
    with pytest.raises(inputs.InputDrift):
        inputs.check_digests(spec, found, inputs.load_expected())


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def test_quick_pass_is_correct_complete_and_leaves_nothing_behind(tmp_path):
    report_path = str(tmp_path / "report.json")
    done = _run("--quick", "--output", report_path)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)["workloads"]
    assert tuple(report) == registry.WORKLOAD_NAMES
    for workload, both in report.items():
        plain, traced = both["end_to_end"], both["traced"]
        assert plain["correct"] and traced["correct"], workload
        for result in (plain, traced):  # every spawn, not only the first
            cpus = result["detail"]["cpus"]
            assert cpus["daemon"] == cpus["runner"] and len(cpus["daemon"]) == 1
        assert plain["detail"]["failed_share"] == 0
        assert plain["detail"]["checked"] > 0
        assert tuple(plain["metrics"]) == registry.END_TO_END_NAMES
        assert all(m["value"] > 0 for m in plain["metrics"].values())
        layered = traced["metrics"]
        assert tuple(layered) == registry.PER_LAYER_NAMES
        assert layered["failed_share"]["value"] == 0
        assert layered["loadgen.checked"]["value"] > 0
        assert layered["loadgen.mismatched"]["value"] == 0
        assert f"waterfall {workload}" in done.stdout
        assert os.path.exists(traced["detail"]["trace_file"])
    assert report["churn_reload"]["end_to_end"]["detail"]["reloads"] >= 1
    assert report["cold_small"]["traced"]["metrics"][
        "perf.result_lookups"]["value"] == 0
    assert not _daemons_alive()
    assert not _leftover_run_dirs()


@pytest.mark.parametrize("trace, names", [
    ("0", registry.END_TO_END_NAMES), ("1", registry.PER_LAYER_NAMES),
])
def test_driver_form_prints_one_result_object_last(trace, names):
    done = _run("--workload", "cold_small", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert tuple(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == registry.UNITS[name]
    assert not _daemons_alive()
    assert not _leftover_run_dirs()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    # The copy leaves this file out: pytest's tmp dirs can sit under
    # out/ (TMPDIR points there) and must not hold a second test_e2e.
    shutil.copytree(
        paths.HERE, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(
            "out", "__pycache__", ".pytest_cache", "test_*.py"),
    )
    shutil.copy(paths.BENCHMARK_JSON, bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
