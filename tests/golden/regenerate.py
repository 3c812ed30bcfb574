#!/usr/bin/env python
"""Regenerate (or verify) the golden fixtures in this directory.

Run from the repository root::

    python tests/golden/regenerate.py            # rewrite tests/golden/
    python tests/golden/regenerate.py --check    # verify, change nothing
    python tests/golden/regenerate.py --out DIR  # write elsewhere

``--check`` rebuilds every fixture in memory and exits non-zero if any
differs from the committed file — the CI drift gate runs this so a
simulator change can never silently invalidate the fixtures.  A
drifted run fixture also writes its rebuild's flight-recorder ring
(the last spans and records of the run) to ``$REPRO_FLIGHT_DIR`` and
prints the path; the text fixtures run untraced and have none.  Only
commit regenerated fixtures when a change is *meant* to alter
behaviour; the accompanying diff is the review artifact — an
unexplained diff in a golden file is a regression, not an update.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from tests import harness  # noqa: E402


def _all_fixture_files():
    """Every fixture as (label, filename, fresh text) triples."""
    for name, build in harness.GOLDEN_RUNS.items():
        yield name, f"{name}.json", harness.canonical_json(build())
    for group, build in harness.GOLDEN_FILES.items():
        for filename, text in sorted(build().items()):
            yield group, filename, text


def regenerate(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for _, filename, text in _all_fixture_files():
        path = out_dir / filename
        changed = (not path.exists()
                   or path.read_text(encoding="utf-8") != text)
        path.write_text(text, encoding="utf-8")
        print(f"{'updated' if changed else 'unchanged'}  {path}")
    return 0


def _dump_flight(label: str) -> None:
    """Write a drifted fixture's flight-recorder ring, if it has one."""
    entries = harness.GOLDEN_FLIGHT.get(label)
    if entries is None:
        print(f"           untraced ({label}): no flight dump")
        return
    path = harness.write_flight_dump(label, entries)
    print(f"           flight recorder ({len(entries)} entries) "
          f"dumped to {path}")


def check() -> int:
    """Rebuild in memory and diff against the committed fixtures."""
    drifted = []
    for label, filename, fresh in _all_fixture_files():
        path = harness.GOLDEN_DIR / filename
        if not path.exists():
            print(f"MISSING    {path}")
            drifted.append(label)
        elif path.read_text(encoding="utf-8") != fresh:
            print(f"DRIFTED    {path}")
            drifted.append(label)
            _dump_flight(label)
        else:
            print(f"unchanged  {path}")
    if drifted:
        drifted = sorted(set(drifted))
        print(f"\n{len(drifted)} golden fixture(s) out of date: "
              f"{', '.join(drifted)}\n"
              "If the behaviour change is intentional, run "
              "`python tests/golden/regenerate.py` and commit the "
              "diff; otherwise this is a regression.",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or verify the golden fixtures")
    parser.add_argument("--check", action="store_true",
                        help="verify committed fixtures instead of "
                             "rewriting them; exit 1 on drift")
    parser.add_argument("--out", type=Path, default=None,
                        metavar="DIR",
                        help="write fixtures to DIR instead of "
                             "tests/golden/")
    args = parser.parse_args(argv)
    if args.check:
        if args.out is not None:
            parser.error("--check and --out are mutually exclusive")
        return check()
    return regenerate(args.out or harness.GOLDEN_DIR)


if __name__ == "__main__":
    sys.exit(main())
