"""The tests build their loopback HTTP servers in one place, ``conftest.loopback``.

A copy elsewhere would bring back its own start, stop and reply plumbing, and
with it the default 0.5 s poll interval of the serving loop, which every
shutdown waits on.
"""

import inspect
import socketserver
from pathlib import Path

from conftest import LoopbackServer

TESTS = Path(__file__).resolve().parent
# Read off the objects, so that this file does not spell the names it looks
# for: the serving loop (the one server method that takes a poll interval)
# and the threaded server class the harness builds on.
SERVE = next(
    name for name, attr in vars(socketserver.BaseServer).items()
    if callable(attr) and "poll_interval" in inspect.signature(attr).parameters
)
HARNESS_NAMES = (SERVE, LoopbackServer.__base__.__name__)


def test_only_conftest_builds_a_loopback_server():
    offenders = [
        f"{path.relative_to(TESTS)}: {name}"
        for path in sorted(TESTS.rglob("*.py"))
        if path.name != "conftest.py"
        for name in HARNESS_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_conftest_serves_once_at_a_short_poll_interval():
    lines = [line for line in (TESTS / "conftest.py").read_text(encoding="utf-8").splitlines() if SERVE in line]
    assert len(lines) == 1
    assert '"poll_interval": 0.05' in lines[0]
