"""The CLI's bytes against tests/cli_golden.json: for every run listed in
tests/record_cli_golden.py, the exit code and the SHA-256 of stdout,
stderr and the written file must equal the recorded ones. Re-record only
for a change meant to alter the output, and say so where it is recorded."""

import json

import pytest
from record_cli_golden import GOLDEN, groups, record

RECORDED = json.loads(GOLDEN.read_text())
GROUPS = groups()


def test_every_group_is_recorded():
    assert sorted(RECORDED) == sorted(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_matches_recording(group):
    assert record(GROUPS[group]) == RECORDED[group]
