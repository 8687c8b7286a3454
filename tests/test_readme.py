"""The README's library tour runs as written, its config example resolves and
its module table names every algorithm, so neither the documented API, the
documented config format nor the documented algorithm list can rot."""

import json
import re
from pathlib import Path

from dynhop.estimators import ALGORITHMS
from dynhop.harness.config import resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_config_format_example_resolves():
    section = README.read_text().split("### Config format", 1)[1]
    raw = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    resolved = resolve_config(raw)
    assert [a.name for a in resolved.algorithms] == ["dynamic-multihop", "glms"]


def test_estimators_row_names_every_algorithm_in_order():
    row = re.search(r"^\| `dynhop\.estimators` \|(.*)$", README.read_text(), re.M).group(1)
    named = re.findall(r"`([a-z-]+)`", row.split(";", 1)[0])
    assert tuple(named) == tuple(ALGORITHMS)
