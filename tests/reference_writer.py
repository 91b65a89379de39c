"""Test-only reference writer: csv.writer for CSV, json.dump(indent=2) for JSON.

This is the writer the CLI used before its rows were formatted by one
%-template per block; it joins the blocks into one table first.  Tests
require the CLI's bytes to equal its bytes.
Its one known difference is the sign of -inf, which it writes to JSON as
"inf".
"""

import contextlib
import csv
import json
import math
import sys
from enum import Enum
from operator import attrgetter


def _format(values: list, text: bool) -> list:
    """One column as CSV text (text=True) or JSON values.

    The column's first value picks the rule for all of them: enums by name,
    floats to 12 significant digits in CSV and infinities as "inf".
    """
    first = values[0] if values else None
    if isinstance(first, Enum):
        # _name_ is a plain attribute; .name and hashing a member are
        # Python-level calls per row
        return list(map(attrgetter("_name_"), values))
    if isinstance(first, float):
        if text:
            return list(map("{:.12g}".format, values))
        return ["inf" if math.isinf(v) else v for v in values]
    return list(map(str, values)) if text else values


def _expand(blocks) -> dict:
    """The blocks as one table: each shared value repeated to its block's
    length (that of the block's lists, 0 without one), blocks in order."""
    columns = {key: [] for key in blocks[0]}
    for block in blocks:
        n = next((len(v) for v in block.values() if isinstance(v, list)), 0)
        for key, value in block.items():
            columns[key] += value if isinstance(value, list) else [value] * n
    return columns


def emit(args, metadata: dict, *blocks: dict) -> None:
    """Write metadata and blocks of named columns in the chosen format."""
    text = args.format == "csv"
    columns = _expand(blocks)
    metadata = {key: _format([value], text)[0] for key, value in metadata.items()}
    cells = [_format(values, text) for values in columns.values()]
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out == "-" else
              open(args.out, "w", encoding="utf-8", newline="")) as stream:
            if text:
                for key, value in metadata.items():
                    stream.write(f"# {key} = {value}\n")
                writer = csv.writer(stream, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(zip(*cells))
            else:
                doc = {"metadata": metadata,
                       "rows": [dict(zip(columns, row)) for row in zip(*cells)]}
                json.dump(doc, stream, indent=2, allow_nan=False)
                stream.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write output {args.out!r}: {exc}") from exc
