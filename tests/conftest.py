"""Put the bench's reference modules on the import path, and print the
acceptance scoreboard after every run, one line per criterion,
regardless of output capture."""

import re
import sys
from pathlib import Path

# The bench's reference modules import each other by top-level name.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for key, status in (("failed", "FAIL"), ("error", "FAIL"),
                        ("passed", "PASS")):
        for report in terminalreporter.stats.get(key, ()):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            if results.get(number, ("", "PASS"))[1] == "FAIL":
                continue
            results[number] = (match.group(2).replace("_", "-"), status)
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(results):
            name, status = results[number]
            terminalreporter.write_line(
                f"ACCEPTANCE {number} {name}: {status}")
