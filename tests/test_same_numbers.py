"""Same-numbers gate: the eigenvalues of the two coarsest levels of every
acceptance configuration, and of the clamped square at nu = 0.499999, against
the values recorded in ``same_numbers.json``.

Every row is gated at RTOL relative.  The nu = 0.499999 row is gated at
NEAR_INCOMPRESSIBLE_RTOL: there its eigenvalues move by 2.4-4.3e-10 relative
between ARPACK start seeds, with residuals at the rounding floor.

Re-record the file (this moves the reference, so say why in CHANGES.md):

    PYTHONPATH=src python tests/test_same_numbers.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from elastica import ExperimentConfig, run_experiment

from test_acceptance import _CONFIGS

RECORD = Path(__file__).with_name("same_numbers.json")
RTOL = 1e-10
NEAR_INCOMPRESSIBLE_RTOL = 6e-10

CASES = {key: replace(cfg, levels=cfg.levels[:2]) for key, cfg in _CONFIGS.items()}
CASES["square-wg1-nu0.499999"] = ExperimentConfig(nu=0.499999, levels=(16, 32))


def _gammas(cfg):
    table = run_experiment(cfg)
    assert not table.failures, table.failures
    return table.gammas


@pytest.mark.parametrize("key", CASES)
def test_eigenvalues_match_the_record(key):
    cfg = CASES[key]
    want = np.array([json.loads(RECORD.read_text())[key][str(n)] for n in cfg.levels]).T
    rel = np.abs(_gammas(cfg) - want) / np.abs(want)
    rtol = NEAR_INCOMPRESSIBLE_RTOL if cfg.nu == 0.499999 else RTOL
    assert rel.max() <= rtol, f"{key}: eigenvalues off by {rel.max():.2e} relative"


def record() -> None:
    out = {}
    for key, cfg in CASES.items():
        out[key] = {str(n): col.tolist() for n, col in zip(cfg.levels, _gammas(cfg).T)}
    RECORD.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    record()
