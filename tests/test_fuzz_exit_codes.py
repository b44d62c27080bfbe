"""Exit-code contract under instance fuzzing: random instance documents drawn
from the instance table (tests/documents.py), with S and H of every object
kind on every group family and optional params, run in-process through
`cli.main` on partition, pipeline, cover, diffset and density. Every run
must end in exit 0, 2, 3 or 4; no exception may escape. A document with one
field the table rejects exits 2, unless the rest of it already fails a
constructor's range check (exit 3).
"""

import contextlib
import io
import json

import pytest
from documents import documents, malformed_documents
from hypothesis import HealthCheck, given, settings, strategies as st

from density_lab import InstanceParseError, PreconditionError, parse_instance
from density_lab.cli import main

RUNS = st.sampled_from([
    ["partition", "--object", "S", "--H", "H"],
    ["pipeline", "--object", "S"],
    ["pipeline", "--object", "S", "--H", "H"],
    ["cover", "--object", "S"],
    ["diffset", "--object", "S"],
    ["density", "--object", "S", "--notion", "kahane"],
])
SLOW = [HealthCheck.too_slow, HealthCheck.data_too_large]


def run_main(tmp_path_factory, document, run) -> int:
    path = tmp_path_factory.getbasetemp() / "fuzz_instance.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([run[0], "--instance", str(path), *run[1:]])


@pytest.mark.filterwarnings("ignore:difference set of an empty set")
@settings(max_examples=150, deadline=None, suppress_health_check=SLOW)
@given(documents(), RUNS)
def test_random_instances_keep_the_exit_code_contract(tmp_path_factory, document, run):
    assert run_main(tmp_path_factory, document, run) in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None, suppress_health_check=SLOW)
@given(malformed_documents(), RUNS)
def test_malformed_instances_exit_2(tmp_path_factory, case, run):
    bad, base = case
    try:
        parse_instance(json.dumps(base))
        base_error = None
    except (InstanceParseError, PreconditionError) as exc:
        base_error = exc
    code = run_main(tmp_path_factory, bad, run)
    assert code == 2 or (code == 3 and isinstance(base_error, PreconditionError))
