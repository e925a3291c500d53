"""Fake engine drivers that record commands instead of running them."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from forge.engine import EngineCommand, EngineResult


@dataclass
class RecordingDriver:
    """Records commands and replays scripted results; default is success.

    ``scripted`` maps an argv prefix (a tuple such as ``("build",)``) to the
    result returned for matching commands; the longest matching prefix wins.
    ``attach`` records like ``execute`` and returns the scripted exit code.
    """

    commands: list[EngineCommand] = field(default_factory=list)
    scripted: dict[EngineCommand, EngineResult] = field(default_factory=dict)
    default: EngineResult = EngineResult(0, "", "")

    def execute(self, command: EngineCommand) -> EngineResult:
        self.commands.append(command)
        for length in range(len(command), 0, -1):
            if command[:length] in self.scripted:
                return self.scripted[command[:length]]
        return self.default

    def attach(self, command: EngineCommand) -> int:
        return self.execute(command).exit_code


@dataclass
class ConcurrencyDriver(RecordingDriver):
    """A RecordingDriver that also records the most commands in flight at once.

    The first command waits up to ``wait_s`` for a second one to start, so
    two workers always overlap and a single worker never does.
    """

    wait_s: float = 0.5
    peak: int = 0
    _started: int = 0
    _active: int = 0
    _changed: threading.Condition = field(default_factory=threading.Condition)

    def execute(self, command: EngineCommand) -> EngineResult:
        with self._changed:
            first = self._started == 0
            self._started += 1
            self._active += 1
            self.peak = max(self.peak, self._active)
            self._changed.notify_all()
            if first:
                self._changed.wait_for(lambda: self.peak > 1, timeout=self.wait_s)
        try:
            return super().execute(command)
        finally:
            with self._changed:
                self._active -= 1
