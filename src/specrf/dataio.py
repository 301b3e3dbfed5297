"""CSV ingestion, preprocessing, splits, and results persistence."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "StandardizeParams",
    "load_csv",
    "standardize",
    "apply_standardize",
    "split",
    "save_results",
    "load_results",
    "write_manifest",
    "make_susy_fixture",
]


class DataError(ValueError):
    pass


class ParseError(DataError):
    pass


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray           # (n, d_in)
    outputs: np.ndarray          # (n, d_v)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def __post_init__(self):
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise DataError("inputs and outputs are misaligned")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.outputs))):
            raise DataError("dataset contains NaN or Inf")


def load_csv(
    path,
    label_column: int = 0,
    feature_columns: Sequence[int] | None = None,
    row_limit: int | None = None,
) -> Dataset:
    """Parse a numeric CSV into a Dataset.

    A first row in which no cell is a finite number is a header and is
    skipped.  `feature_columns` defaults to the first 14 columns after the
    label.  A file that is not a numeric table raises ParseError: a malformed
    cell (named by its row and column), rows of different lengths, or no data
    rows.  Column indices the table does not have, and row_limit = 0, raise
    DataError.
    """
    path = Path(path)
    if row_limit is not None and row_limit < 1:
        raise DataError(f"row_limit must be >= 1, got {row_limit}")
    if not path.exists():
        raise IOError(f"no such file: {path}")
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader):
            if not raw:
                continue
            parsed = []
            for cell in raw:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(math.nan)
            finite = [math.isfinite(value) for value in parsed]
            if i == 0 and not any(finite):
                continue
            if not all(finite):
                j = finite.index(False)
                raise ParseError(f"malformed cell at row {i}, column {j}: {raw[j]!r}")
            if rows and len(parsed) != len(rows[0]):
                raise ParseError(f"row {i} has {len(parsed)} cells, earlier rows "
                                 f"{len(rows[0])}")
            rows.append(parsed)
            if row_limit is not None and len(rows) >= row_limit:
                break
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    table = np.asarray(rows, dtype=float)
    n_cols = table.shape[1]
    if not 0 <= label_column < n_cols:
        raise DataError(f"label column {label_column} out of range for {n_cols} columns")
    if feature_columns is None:
        candidates = [c for c in range(n_cols) if c != label_column]
        feature_columns = candidates[:14]
    feature_columns = list(feature_columns)
    bad = [c for c in feature_columns if not 0 <= c < n_cols or c == label_column]
    if bad:
        raise DataError(f"invalid feature columns: {bad}")
    return Dataset(inputs=table[:, feature_columns], outputs=table[:, [label_column]])


@dataclass(frozen=True)
class StandardizeParams:
    mean: np.ndarray
    scale: np.ndarray            # 1.0 where the column had zero variance


def standardize(ds: Dataset) -> tuple[Dataset, StandardizeParams]:
    """Center and scale features to mean 0, variance 1 (population convention).

    Zero-variance columns are centered and left unscaled.
    """
    if ds.n < 2:
        raise DataError("standardize needs at least 2 rows")
    var = ds.inputs.var(axis=0)
    params = StandardizeParams(mean=ds.inputs.mean(axis=0),
                               scale=np.sqrt(np.where(var == 0.0, 1.0, var)))
    return apply_standardize(ds, params), params


def apply_standardize(ds: Dataset, params: StandardizeParams) -> Dataset:
    """Apply previously fitted parameters (e.g. train statistics to a test split)."""
    inputs = (ds.inputs - params.mean) / params.scale
    return Dataset(inputs=inputs, outputs=ds.outputs.copy())


def split(ds: Dataset, n_train: int, n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint seeded shuffle split."""
    if n_train < 0 or n_test < 0 or n_train + n_test > ds.n:
        raise DataError(
            f"cannot split {ds.n} rows into {n_train} train + {n_test} test"
        )
    perm = np.random.default_rng(seed).permutation(ds.n)
    tr, te = perm[:n_train], perm[n_train:n_train + n_test]
    return Dataset(ds.inputs[tr], ds.outputs[tr]), Dataset(ds.inputs[te], ds.outputs[te])


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


def make_susy_fixture(path, n: int = 200, seed: int = 0, n_features: int = 18) -> None:
    """Emit a synthetic SUSY-like numeric CSV: binary label followed by
    standardized-looking feature columns (for CI; no network download)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    logits = x[:, :4].sum(axis=1) / 2.0
    labels = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    header = ["label"] + [f"f{i}" for i in range(1, n_features + 1)]
    save_results([dict(zip(header, row)) for row in np.column_stack([labels, x]).tolist()],
                 path)
