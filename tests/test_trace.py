"""The benchmark's traced pipeline (clibench/trace.py) rebuilds the CLI's
check path from the package's public functions and record fields, and wraps
some of them by name. A renamed function or field fails here, not only in
the benchmark run."""

import pytest

from clibench.harness import write_inputs
from clibench.trace import Pipeline, Tracer
from clibench.workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pipeline_matches_the_reference(workload, tmp_path):
    checks = WORKLOADS[workload](1)
    write_inputs(checks, tmp_path)
    tracer = Tracer()
    try:
        pipeline = Pipeline(tracer, tmp_path)
        verdicts = {check.cid: pipeline.run(check) for check in checks}
    finally:
        tracer.restore()
    assert verdicts == {check.cid: check.expected for check in checks}
