"""Fast-path selection: env-var override and loud degradation."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
import repro.kernels.backend as backend_module


_NAME_SCRIPT = "from repro.kernels import backend_name; print(backend_name())"

#: Serves a tiny frozen corpus in-process and prints what /healthz says.
_HEALTHZ_SCRIPT = """
import sys
from repro.datasets import generate_dblp
from repro.index.builder import build_document_index
from repro.index.frozen import freeze_index
from repro.serve import BackgroundServer

freeze_index(build_document_index(generate_dblp(num_authors=5, seed=3)),
             sys.argv[1])
with BackgroundServer(sys.argv[1]) as daemon, daemon.client() as client:
    print(client.healthz()["kernels"])
"""


def _run_fresh(extra_env, script=_NAME_SCRIPT, *argv):
    """Run ``script`` in a fresh interpreter; the completed process."""
    env = os.environ.copy()
    env.pop(backend_module.NO_COMPILED_ENV, None)
    env.update(extra_env)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=180,
    )


def _probe_backend(extra_env):
    """backend_name() reported by a fresh interpreter."""
    return _run_fresh(extra_env).stdout.strip()


def test_env_var_forces_pure_python():
    assert (
        _probe_backend({backend_module.NO_COMPILED_ENV: "1"})
        == "pure-python"
    )


def test_env_var_zero_means_unset():
    # "0" and "" both mean "let import-time selection decide" — they
    # must match a probe with the variable absent entirely (which may
    # be either backend, depending on the host).
    expected = _probe_backend({})
    assert _probe_backend({backend_module.NO_COMPILED_ENV: "0"}) == expected
    assert _probe_backend({backend_module.NO_COMPILED_ENV: ""}) == expected


def test_opt_out_and_healthy_start_log_nothing():
    # The e2e runner fails a daemon whose stderr is non-empty.
    assert _run_fresh({backend_module.NO_COMPILED_ENV: "1"}).stderr == ""
    healthy = _run_fresh({})
    if healthy.stdout.strip() == "compiled-cc":
        assert healthy.stderr == ""


def test_failed_build_warns_and_healthz_says_pure_python(tmp_path):
    # A compiler that exits non-zero must fall back, not raise — and
    # say so.  A fresh TMPDIR keeps the cached .so from being found.
    result = _run_fresh(
        {"CC": "false", "TMPDIR": str(tmp_path)},
        _HEALTHZ_SCRIPT, str(tmp_path / "tiny.frz"),
    )
    assert result.stdout.strip() == "pure-python"
    assert result.stderr.count("compiled scan kernels unavailable") == 1
    assert "CalledProcessError" in result.stderr


#: dlopen hands back a library without ``repro_slca_hits`` — what a
#: build of an older ``_C_SOURCE`` found under the current cache key
#: would look like — then serves as in ``_HEALTHZ_SCRIPT``.
_STALE_LIBRARY_SCRIPT = """
import cffi

real_dlopen = cffi.FFI.dlopen


class Stale:
    def __init__(self, library):
        self._library = library

    def __getattr__(self, name):
        if name == "repro_slca_hits":
            raise AttributeError(f"function/symbol '{name}' not found")
        return getattr(self._library, name)


cffi.FFI.dlopen = lambda ffi, *args: Stale(real_dlopen(ffi, *args))
""" + _HEALTHZ_SCRIPT


def test_library_missing_an_entry_point_is_a_failed_build(tmp_path):
    # Loud at import, like a failed build — not an AttributeError on
    # the query thread at the first SLCA call.
    if _probe_backend({}) != "compiled-cc":
        pytest.skip("compiled backend unavailable on this host")
    result = _run_fresh({}, _STALE_LIBRARY_SCRIPT, str(tmp_path / "tiny.frz"))
    assert result.stdout.strip() == "pure-python"
    assert result.stderr.count("compiled scan kernels unavailable") == 1
    assert "repro_slca_hits" in result.stderr


def test_backend_name_matches_module_state(monkeypatch):
    monkeypatch.setattr(backend_module, "compiled", None)
    assert backend_module.backend_name() == "pure-python"
