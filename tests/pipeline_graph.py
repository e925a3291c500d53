"""Job dependency graphs read back from generated CI YAML."""

from __future__ import annotations

import yaml


def job_graph(document_text: str) -> dict[str, list[str]]:
    """Job name to dependency list, extracted from generated YAML.

    Works for both platforms: GitHub jobs live under ``jobs``; GitLab jobs
    are top-level mappings with a ``stage`` key. Edges come from ``needs``.
    """

    doc = yaml.safe_load(document_text)
    assert isinstance(doc, dict), "pipeline document is not a mapping"
    if "jobs" in doc and isinstance(doc["jobs"], dict):
        items = doc["jobs"].items()
    else:
        items = [
            (name, body)
            for name, body in doc.items()
            if isinstance(body, dict) and "stage" in body and "script" in body
        ]
    return {str(name): [str(n) for n in body.get("needs") or []] for name, body in items}
