"""The one writer of lcl's files: UTF-8, LF line endings, floats at 17
significant digits, nothing that varies between reruns."""
from __future__ import annotations

import json


def write_csv(path, header: str, rows) -> None:
    """A header line, then one line per row: a float as .17g, anything else by str."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_json(path, obj, *, sort_keys: bool = False) -> None:
    """obj at indent 2, with a trailing LF; a NaN or infinite float raises
    ValueError, since JSON has no token for it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")
