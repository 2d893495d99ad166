"""The benchmark's tiny passes reproduce its recorded verdict digests.

perfbench/workloads.py turns each pass's reports, Clifford and Kawanaka
checks and tables into verdict payloads.  A library change that breaks what
PassResult.verdicts() reads (a renamed report field, say), or that changes a
payload, fails here.  The test only reads perfbench/.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the pass seeds the references were recorded at
REFERENCE_SEEDS = (0, 1000)


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

        yield workloads
    sys.modules.pop("workloads", None)
    sys.modules.pop("tracer", None)


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
@pytest.mark.parametrize("workload", ["suite-small", "suite-large", "tables"])
def test_tiny_pass_verdicts_equal_the_reference(workloads, workload, seed):
    path = PERFBENCH / "reference" / workloads.reference_name(workload, tiny=True)
    reference = json.loads(path.read_text())
    assert tuple(reference["pass_seeds"]) == REFERENCE_SEEDS
    result = workloads.run_pass(workload, seed, tiny=True)
    assert result.error is None
    verdicts = result.verdicts()
    assert {key: digest for key, (digest, _) in verdicts.items()} == reference["units"]
    assert all(ok for _, ok in verdicts.values())
