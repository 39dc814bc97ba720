"""Every recorded CLI request gives the recorded exit code, stdout and
stderr, byte for byte.  make_cli_digests.py writes the record."""

import json

from make_cli_digests import DIGESTS, digest, requests


def test_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert len(recorded) > 512
    changed = [want["argv"] for want in recorded if digest(want["argv"]) != want]
    assert not changed, f"{len(changed)} requests changed, first {changed[:5]}"


def test_the_record_holds_exactly_the_listed_requests():
    # a request added to make_cli_digests.py without regenerating, or a
    # hand-edited record, shows up here
    recorded = json.loads(DIGESTS.read_text())
    assert [r["argv"] for r in recorded] == requests()


def test_tower_and_verify_outputs_do_not_depend_on_request_order():
    # slices and their forms are cached by value across towers: with
    # every cache of the package empty (conftest.py empties them before
    # each test), the tower and verify requests sent last to first give
    # the recorded digests too
    recorded = [r for r in json.loads(DIGESTS.read_text()) if r["argv"][0] in ("tower", "verify")]
    assert len(recorded) > 400
    changed = [want["argv"] for want in reversed(recorded) if digest(want["argv"]) != want]
    assert not changed, f"{len(changed)} requests changed, first {changed[:5]}"
