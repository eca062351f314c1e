"""Layout rules that every module of the package keeps."""

from pathlib import Path

import robustfl

MAX_COLUMNS = 120


def test_no_source_line_exceeds_120_columns():
    modules = sorted(Path(robustfl.__file__).parent.glob("*.py"))
    assert modules
    long_lines = [f"{path.name}:{number} ({len(line)} columns)"
                  for path in modules
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > MAX_COLUMNS]
    assert long_lines == []
