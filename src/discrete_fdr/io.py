"""Count-table ingestion and filtering for real analyses.

The binomial family expects a delimited file with header ``id,c1,c2``; the
FET family expects ``id,c1,n1,c2,n2`` where each row is a 2x2 table with row
totals n1, n2.  Safety-monitoring tables that only record per-unit case and
event counts can be expanded against study-wide totals instead of carrying
explicit complement rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, ParseError, SchemaError
from .exact_tests import (
    MarginalVector,
    PoissonPair,
    Sidedness,
    binomial_null_distribution,
    binomial_pvalue,
    fet_null_distribution,
    fet_pvalue,
)

BINOMIAL_COLUMNS = ("id", "c1", "c2")
FET_COLUMNS = ("id", "c1", "n1", "c2", "n2")
FET_TOTALS_COLUMNS = ("id", "c1", "n1")
MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64
# Column pairs whose sum is a test's total or a row filter's total; it must
# fit int64 too.
SUMMED_COLUMNS = (("c1", "c2"), ("n1", "n2"))


@dataclass(frozen=True, eq=False)
class StudyInput:
    """Parsed per-hypothesis counts for one test family.

    For the binomial family only ``c1``/``c2`` are set; for the FET family
    ``n1``/``n2`` carry the row totals as well.
    """

    family: str  # "binomial" or "fet"
    ids: tuple[str, ...]
    c1: np.ndarray
    c2: np.ndarray
    n1: np.ndarray | None = None
    n2: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("binomial", "fet"):
            raise InvalidConfigError(f"unknown family {self.family!r}")
        if self.family == "fet" and (self.n1 is None or self.n2 is None):
            raise InvalidConfigError("fet study needs row totals n1 and n2")

    @property
    def m(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FilterRule:
    """Keep rows whose total exceeds ``min_total`` and whose per-cell counts
    do not exceed ``max_per_cell``."""

    min_total: int = 0
    max_per_cell: float = math.inf

    def __post_init__(self):
        if self.min_total < 0:
            raise InvalidConfigError(
                f"min_total must be nonnegative, got {self.min_total}"
            )
        if not self.max_per_cell >= 0:
            raise InvalidConfigError(
                f"max_per_cell must be nonnegative, got {self.max_per_cell}"
            )


def _parse_count(row: dict, column: str, line: int) -> int:
    raw = (row.get(column) or "").strip()
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(line, f"column {column!r}: not an integer: {raw!r}") from None
    if value < 0:
        raise ParseError(line, f"column {column!r}: negative count {value}")
    if value > MAX_COUNT:
        raise ParseError(line, f"column {column!r}: count {value} exceeds {MAX_COUNT}")
    return value


def parse_counts_csv(
    path, family: str, study_totals: tuple[int, int] | None = None
) -> StudyInput:
    """Read a delimited count table.

    ``study_totals = (cases_total, events_total)`` switches the FET schema to
    ``id,c1,n1`` rows whose complement row is derived from the study-wide
    totals: c2 = cases_total - c1 and n2 = events_total - n1.
    """
    if family not in ("binomial", "fet"):
        raise SchemaError(f"unknown test family {family!r}")
    if study_totals is not None and family != "fet":
        raise SchemaError("study totals only apply to the fet family")
    expected = BINOMIAL_COLUMNS if family == "binomial" else (
        FET_TOTALS_COLUMNS if study_totals is not None else FET_COLUMNS
    )
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, expected header {expected}")
        header = [h.strip() for h in reader.fieldnames]
        missing = [c for c in expected if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}, found {header}")

        ids: list[str] = []
        columns: dict[str, list[int]] = {c: [] for c in expected if c != "id"}
        seen: set[str] = set()
        for line, row in enumerate(reader, start=2):
            row = {(k or "").strip(): v for k, v in row.items()}
            row_id = (row.get("id") or "").strip()
            if not row_id:
                raise ParseError(line, "empty id")
            if row_id in seen:
                raise SchemaError(f"{path}: duplicate id {row_id!r} at line {line}")
            seen.add(row_id)
            ids.append(row_id)
            counts = {column: _parse_count(row, column, line) for column in columns}
            for a, b in SUMMED_COLUMNS:
                if b in counts and counts[a] + counts[b] > MAX_COUNT:
                    raise ParseError(
                        line,
                        f"columns {a!r} + {b!r}: total {counts[a] + counts[b]} "
                        f"exceeds {MAX_COUNT}",
                    )
            for column, value in counts.items():
                columns[column].append(value)

    if not ids:
        raise SchemaError(f"{path}: no data rows")

    c1 = np.array(columns["c1"], dtype=np.int64)
    if family == "binomial":
        return StudyInput(
            family=family, ids=tuple(ids), c1=c1,
            c2=np.array(columns["c2"], dtype=np.int64),
        )
    n1 = np.array(columns["n1"], dtype=np.int64)
    if study_totals is not None:
        cases_total, events_total = study_totals
        if np.any(c1 > cases_total) or np.any(n1 > events_total):
            raise SchemaError(
                f"{path}: per-row counts exceed the study totals {study_totals}"
            )
        c2 = cases_total - c1
        n2 = events_total - n1
    else:
        c2 = np.array(columns["c2"], dtype=np.int64)
        n2 = np.array(columns["n2"], dtype=np.int64)
    for label, count, total in (("c1", c1, n1), ("c2", c2, n2)):
        bad = np.flatnonzero(count > total)
        if bad.size:
            raise ParseError(
                int(bad[0]) + 2, f"column {label!r}: count exceeds its row total"
            )
    return StudyInput(
        family=family, ids=tuple(ids), c1=c1, c2=np.asarray(c2),
        n1=n1, n2=np.asarray(n2),
    )


def apply_filter(study: StudyInput, rule: FilterRule) -> StudyInput:
    """Drop rows failing the total/per-cell count rule."""
    keep = (
        (study.c1 + study.c2 > rule.min_total)
        & (study.c1 <= rule.max_per_cell)
        & (study.c2 <= rule.max_per_cell)
    )
    idx = np.flatnonzero(keep)
    return StudyInput(
        family=study.family,
        ids=tuple(study.ids[i] for i in idx),
        c1=study.c1[idx],
        c2=study.c2[idx],
        n1=None if study.n1 is None else study.n1[idx],
        n2=None if study.n2 is None else study.n2[idx],
    )


def score_input(c1, c2, sided: Sidedness, n1=None, n2=None):
    """P-values, null supports and conditioning statistics of count arrays.

    Without row totals each pair (c1, c2) gets the binomial test given its
    total, which is its conditioning statistic (a float); a pair with total
    0 has no data and scores p = 1 with support {1}.  With row totals
    ``n1``, ``n2`` each row is a 2x2 table tested with Fisher's exact test
    given its margins ``MarginalVector(n1, n2, c1 + c2)``.
    """
    c1, c2 = np.asarray(c1).tolist(), np.asarray(c2).tolist()
    pvalues = np.empty(len(c1))
    supports: list[np.ndarray] = []
    if n1 is None:
        stats: list = []
        unit_support = np.array([1.0])
        for i, (a, b) in enumerate(zip(c1, c2)):
            total = a + b
            stats.append(float(total))
            if total == 0:
                pvalues[i] = 1.0
                supports.append(unit_support)
            else:
                pvalues[i] = binomial_pvalue(PoissonPair(a, b), sided)
                supports.append(binomial_null_distribution(total, sided).support)
    else:
        n1, n2 = np.asarray(n1).tolist(), np.asarray(n2).tolist()
        stats = [MarginalVector(a, b, c + d) for a, b, c, d in zip(n1, n2, c1, c2)]
        for i, (a, margins) in enumerate(zip(c1, stats)):
            pvalues[i] = fet_pvalue(a, margins, sided)
            supports.append(fet_null_distribution(margins, sided).support)
    return pvalues, supports, stats
