"""The CI workflow names only files that exist.

``.github/workflows/ci.yml`` runs scripts, tests and benchmarks by
path, so a rename that misses the workflow would fail only on the CI
runner, after the push.  The workflow is read as text: the check
needs no YAML parser.  No job writes a path under the source trees,
so every such path the workflow names must be in the checkout.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A path under one of the source trees, as the workflow writes it.
#: A glob (``exhibit_*.txt``) names no single file and is skipped.
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:tools|benchmarks|tests|src)/[\w./-]*\w)(?![\w/*-])")


def test_every_named_path_exists():
    text = WORKFLOW.read_text(encoding="utf-8")
    named = sorted(set(REPO_PATH.findall(text)))
    # The pattern must find the workflow's scripts at all.
    assert "tests/golden/regenerate.py" in named
    assert "tools/check_schema.py" in named
    assert [path for path in named if not (ROOT / path).exists()] == []


def test_dependency_file_exists():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "requirements-ci.txt" in text
    assert (ROOT / "requirements-ci.txt").is_file()
