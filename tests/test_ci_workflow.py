"""The CI workflow names only files that exist.

``.github/workflows/ci.yml`` runs scripts, tests and benchmarks by
path, so a rename that misses the workflow would fail only on the CI
runner, after the push.  The workflow is read as text: the check
needs no YAML parser.

A path the jobs write, listed verbatim in ``.gitignore``, is the one
kind of named path that may be absent from a checkout.  The
``benchmarks`` job writes ``benchmarks/results/BENCH_engine.json``,
checks it and then archives it, and the repo tracks no build
artefacts, so a fresh checkout has no such file.  The ``.gitignore``
line is the repo's own statement that the file is generated and never
committed.  Only an exact line counts, so a misspelled output path
still fails, as does any misspelled script.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
GITIGNORE = ROOT / ".gitignore"

#: A path under one of the source trees, as the workflow writes it.
#: A glob (``exhibit_*.txt``) names no single file and is skipped.
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:tools|benchmarks|tests|src)/[\w./-]*\w)(?![\w/*-])")


def test_every_named_path_exists():
    text = WORKFLOW.read_text(encoding="utf-8")
    named = sorted(set(REPO_PATH.findall(text)))
    ignored = set(GITIGNORE.read_text(encoding="utf-8").splitlines())
    # The pattern must find the workflow's scripts at all.
    assert "tests/golden/regenerate.py" in named
    assert "tools/check_schema.py" in named
    assert [path for path in named
            if not (ROOT / path).exists() and path not in ignored] == []


def test_dependency_file_exists():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "requirements-ci.txt" in text
    assert (ROOT / "requirements-ci.txt").is_file()
