"""Golden command matrix: every case in cases.txt reproduces its recorded digests.

A failure means a report, an error message or a side file changed bytes.
If the change is intended, run `python tests/golden/regen.py` and list each
case it prints, with the reason, in CHANGES.md.
"""

import builtins

import pytest

import regen

CASES = regen.read_cases()
DIGESTS = regen.load_digests()


def _param(case):
    raised = DIGESTS.get(case, {}).get("raises")
    if raised is None:
        return case
    return pytest.param(case, marks=pytest.mark.xfail(
        strict=True, raises=getattr(builtins, raised, Exception),
        reason=f"recorded as raising {raised}"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return regen.make_workdir(tmp_path_factory.mktemp("golden"))


def test_digests_cover_every_case():
    assert list(DIGESTS) == CASES, "cases.txt and digests.json differ; run regen.py"


@pytest.mark.parametrize("case", [_param(c) for c in CASES])
def test_case_matches_digest(workdir, case):
    assert regen.run_case(case, workdir) == DIGESTS[case]
