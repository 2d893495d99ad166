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

from grouplie.verify import default_catalog, run_suite

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


def test_clifford_and_kawanaka_entries_are_the_verify_json_entries(workloads):
    # the benchmark writes its own copy of each entry; it must stay the
    # dict that verify --format json writes
    result = run_suite([g for g in default_catalog() if g.order <= 24])
    assert (len(result.clifford), len(result.kawanaka)) == (327, 24)
    for c in result.clifford:
        assert workloads._clifford_json(c) == c.to_json_dict()
    for kw in result.kawanaka:
        assert workloads._kawanaka_json(kw) == kw.to_json_dict()
