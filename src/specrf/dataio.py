"""Results persistence: deterministic CSVs and the run manifest."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "DataError",
    "save_results",
    "load_results",
    "file_sha256",
    "write_manifest",
]


class DataError(ValueError):
    pass


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def save_results(rows: Sequence[dict], path) -> None:
    """Deterministic CSV of dict rows, the first row's keys as the header:
    RFC-4180 quoting, '.' decimals, LF endings, floats at 17 significant
    digits so values reparse bit-identically."""
    path = Path(path)
    if not rows:
        raise DataError("save_results needs at least one row")
    header = list(rows[0])
    if any(row.keys() != rows[0].keys() for row in rows):
        raise DataError("rows must all have the first row's keys")
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row[k]) for k in header])
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def load_results(path) -> tuple[list[str], np.ndarray]:
    """Reload a results CSV written by save_results.

    Numeric cells round-trip exactly; non-numeric cells (e.g. a filter-name
    column) come back as NaN."""
    path = Path(path)

    def cell(c: str) -> float:
        try:
            return float(c)
        except ValueError:
            return math.nan

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = [[cell(c) for c in row] for row in reader if row]
    return header, np.asarray(body, dtype=float)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, config: dict, outputs: Sequence, extra: dict,
                   environment: dict) -> None:
    """JSON manifest from which a run can be replayed: config echo, its
    seed, content hashes of every output file, the `environment` that
    produced them (versions, BLAS threads, jobs, cores) and the entries of
    `extra`."""
    manifest = {
        "config": config,
        "seed": config["seed"],
        "outputs": {Path(p).name: file_sha256(p) for p in outputs},
        "environment": environment,
        **extra,
    }
    with Path(path).open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
