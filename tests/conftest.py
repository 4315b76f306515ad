import importlib
from pathlib import Path

import acceptance_report

# Hypothesis mines literal constants from every loaded module outside
# site-packages, so what a derandomized property draws depends on which
# modules are loaded.  Loading every test module up front makes a single
# file, a -k selection and the full suite draw the same examples.
for _path in sorted(Path(__file__).parent.glob("*.py")):
    if _path.stem != "conftest":
        importlib.import_module(_path.stem)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
