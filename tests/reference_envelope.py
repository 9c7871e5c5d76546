"""The CLI envelope as the standard library writes it: an independent
reference for ``macwiretap.cli._emit``, which writes the same text in one
pass.  ``_round12`` rounds every float of a result to 12 significant
digits and turns tuples into lists, as the envelope's ``result`` is
rounded before ``json.dumps`` would write it.
"""

from __future__ import annotations

import json
from typing import Any

from macwiretap import __version__


def _round12(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def envelope_text(command: str, inputs_echo: Any, result: Any) -> str:
    """What ``_emit`` prints: the envelope through ``json.dumps``, result
    rounded, keys sorted, indent 2, NaN and infinity refused."""
    envelope = {
        "command": command,
        "version": __version__,
        "inputs_echo": inputs_echo,
        "result": _round12(result),
    }
    return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
