"""The one text format of every data file and the manifest.

CSV comes a line at a time, with 17 significant digits so that every float64
round-trips exactly; JSON has sorted keys and two-space indent.  Both end in a newline.
"""

from __future__ import annotations

import json


def csv_text(header, rows):
    """Comma-separated `header` names, then one line per row of numbers, yielded as read."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(format(v, ".17g") for v in row) + "\n"


def json_text(payload) -> str:
    """`payload` as JSON; FloatingPointError when it holds a nan or an infinity,
    which JSON has no number for."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # the only ValueError of a payload without cycles
        raise FloatingPointError(f"a JSON number is not finite ({exc})") from None
