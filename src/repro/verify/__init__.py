"""Differential correctness harness (``python -m repro verify-diff``).

The SLCA implementations (stack, scan and the engine's columnar
kernel), the three refinement routes, the compiled kernels and their
pure-Python twins, the frozen and delta-chain views and the cache
layers must all return byte-identical answers.  This subsystem keeps
them honest:

* :mod:`~repro.verify.generate` — seeded random documents (deeply
  nested, duplicate-tag, ancestor-chain-heavy) and queries biased
  toward empty/near-empty result sets;
* :mod:`~repro.verify.oracle` — one table of rows, each a divergence
  kind: the code it guards, its reference (brute force, a per-node
  recomputation, a cold or pure-Python twin, or a metamorphic
  prediction from the paper) and the comparison;
* :mod:`~repro.verify.shrink` — delta-debugging reducer that shrinks
  any divergence to a minimal XML + query fixture;
* :mod:`~repro.verify.runner` — the seed-sweep driver behind the CLI
  entry and the fixed-seed CI smoke job.

Every divergence the harness finds is committed as a shrunken fixture
under ``tests/verify/fixtures/`` and fixed in the same change — see
the "Correctness" section of the README.
"""

from .generate import DocumentGenerator, QueryGenerator
from .oracle import (
    TABLE,
    Divergence,
    DocumentOracle,
    replay_cold_diff,
    response_fingerprint,
    select,
)
from .runner import VerifyReport, verify_diff
from .shrink import shrink_divergence, write_fixture

__all__ = [
    "DocumentGenerator",
    "QueryGenerator",
    "TABLE",
    "Divergence",
    "DocumentOracle",
    "replay_cold_diff",
    "response_fingerprint",
    "select",
    "shrink_divergence",
    "write_fixture",
    "VerifyReport",
    "verify_diff",
]
