"""The one text format of every data file and the manifest.

CSV numbers carry 17 significant digits, so every float64 round-trips
exactly; JSON has sorted keys and two-space indent.  Both end in a newline.
"""

from __future__ import annotations

import json


def csv_text(header, rows) -> str:
    """Comma-separated `header` names, then one line per row of numbers."""
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
