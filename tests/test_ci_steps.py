"""Every script under tests/ci/ is run by a step of the CI workflow, and
every tests/ci/ path a step names exists. Read from the files, without
running either."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def named_ci_paths(workflow: str) -> set[str]:
    """The tests/ci/ paths named in the workflow text, relative to the
    repository root."""
    return set(re.findall(r"tests/ci/[\w./-]+", workflow))


def ci_scripts() -> set[str]:
    return {path.relative_to(ROOT).as_posix() for path in ROOT.glob("tests/ci/*.py")}


def test_detects_named_paths():
    workflow = "run: python tests/ci/a.py\nrun: timeout 9 python tests/ci/b_c.py --x 1\nrun: tests/x.py\n"
    assert named_ci_paths(workflow) == {"tests/ci/a.py", "tests/ci/b_c.py"}


def test_every_ci_script_is_run_by_the_workflow():
    assert ci_scripts() - named_ci_paths(WORKFLOW.read_text()) == set()


def test_every_ci_path_the_workflow_names_exists():
    missing = {path for path in named_ci_paths(WORKFLOW.read_text()) if not (ROOT / path).is_file()}
    assert missing == set()
