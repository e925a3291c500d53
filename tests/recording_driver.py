"""A fake engine driver that records commands instead of running them."""

from __future__ import annotations

from dataclasses import dataclass, field

from forge.engine import EngineCommand, EngineResult


@dataclass
class RecordingDriver:
    """Records commands and replays scripted results; default is success.

    ``scripted`` maps an argv prefix (a tuple such as ``("build",)``) to the
    result returned for matching commands; the longest matching prefix wins.
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
