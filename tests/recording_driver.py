"""A fake engine driver that records commands instead of running them."""

from __future__ import annotations

from dataclasses import dataclass, field

from forge.engine import EngineCommand, EngineResult


@dataclass
class RecordingDriver:
    """Records commands and replays scripted results; default is success.

    ``scripted`` maps an argv prefix (as a tuple) or a verb to the result
    returned for matching commands; the most specific match wins.
    """

    commands: list[EngineCommand] = field(default_factory=list)
    scripted: dict[object, EngineResult] = field(default_factory=dict)
    default: EngineResult = EngineResult(0, "", "")

    def execute(self, command: EngineCommand) -> EngineResult:
        self.commands.append(command)
        for length in range(len(command.argv), 0, -1):
            key = tuple(command.argv[:length])
            if key in self.scripted:
                return self.scripted[key]
        return self.scripted.get(command.verb, self.default)
