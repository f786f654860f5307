"""Count-table ingestion and filtering for real analyses.

The binomial family expects a delimited file with header ``id,c1,c2``; the
FET family expects ``id,c1,n1,c2,n2`` where each row is a 2x2 table with row
totals n1, n2.  Safety-monitoring tables that only record per-unit case and
event counts can be expanded against study-wide totals instead of carrying
explicit complement rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    InvalidConfigError,
    ParseError,
    SchemaError,
    check_array,
    check_count,
    check_scalar,
)
from .exact_tests import (
    MarginalVector,
    PoissonPair,
    Sidedness,
    binomial_null_distribution,
    binomial_pvalue,
    fet_null_distribution,
    fet_pvalue,
)
from .proportion import _PI0_CONFIGS, NullSupports, Pi0Config

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
    ``n1``/``n2`` carry the row totals as well.  Each column is stored as an
    int64 array, whatever sequence of counts it was given as.
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
        for name in ("c1", "c2", "n1", "n2"):
            column = getattr(self, name)
            if column is None and name in ("n1", "n2"):
                continue
            size = check_array(name, column, "be nonnegative integers").size
            if size != len(self.ids):
                raise InvalidConfigError(f"{name} has {size} counts for {len(self.ids)} ids")
            with np.errstate(invalid="ignore"):  # 2**63 casts to a negative
                counts = np.asarray(column).astype(np.int64, copy=False)
            if (counts < 0).any():
                raise InvalidConfigError(f"{name} must be counts of at most {MAX_COUNT}")
            object.__setattr__(self, name, counts)

    @property
    def m(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FilterRule:
    """Keep rows whose total exceeds ``min_total`` and whose per-cell counts
    do not exceed ``max_per_cell``; a bound left unset (None) keeps every row."""

    min_total: int | None = None
    max_per_cell: float | None = None

    def __post_init__(self):
        for name in ("min_total", "max_per_cell"):
            if getattr(self, name) is not None:
                check_scalar(name, getattr(self, name), "be nonnegative")


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
    """Read a delimited count table; each error names the row's file line.

    ``study_totals = (cases_total, events_total)`` switches the FET schema to
    ``id,c1,n1`` rows whose complement row is derived from the study-wide
    totals: c2 = cases_total - c1 and n2 = events_total - n1.
    """
    if family not in ("binomial", "fet"):
        raise SchemaError(f"unknown test family {family!r}")
    if study_totals is not None and family != "fet":
        raise SchemaError("study totals only apply to the fet family")
    for total in study_totals or ():
        check_count("study_totals", total)
    stored = BINOMIAL_COLUMNS if family == "binomial" else FET_COLUMNS
    expected = FET_TOTALS_COLUMNS if study_totals is not None else stored
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, expected header {expected}")
        reader.fieldnames = header = [h.strip() for h in reader.fieldnames]
        missing = [c for c in expected if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}, found {header}")

        ids: dict[str, None] = {}  # insertion-ordered, for the duplicate check
        columns: dict[str, list[int]] = {c: [] for c in stored[1:]}
        for row in reader:
            line = reader.line_num  # the row's last file line, blank lines included
            row_id = (row.get("id") or "").strip()
            if not row_id:
                raise ParseError(line, "empty id")
            if row_id in ids:
                raise SchemaError(f"{path}: duplicate id {row_id!r} at line {line}")
            counts = {c: _parse_count(row, c, line) for c in expected[1:]}
            if study_totals is not None:
                cases_total, events_total = study_totals
                if counts["c1"] > cases_total or counts["n1"] > events_total:
                    raise SchemaError(
                        f"{path}: line {line}: counts exceed the study totals "
                        f"{study_totals}"
                    )
                counts["c2"] = cases_total - counts["c1"]
                counts["n2"] = events_total - counts["n1"]
            for a, b in SUMMED_COLUMNS:
                if b in counts and counts[a] + counts[b] > MAX_COUNT:
                    raise ParseError(
                        line,
                        f"columns {a!r} + {b!r}: total {counts[a] + counts[b]} "
                        f"exceeds {MAX_COUNT}",
                    )
            for count, total in (("c1", "n1"), ("c2", "n2")):
                if total in counts and counts[count] > counts[total]:
                    raise ParseError(
                        line, f"column {count!r}: count exceeds its row total"
                    )
            ids[row_id] = None
            for column, values in columns.items():
                values.append(counts[column])

    if not ids:
        raise SchemaError(f"{path}: no data rows")
    return StudyInput(
        family, tuple(ids),
        **{c: np.array(values, dtype=np.int64) for c, values in columns.items()},
    )


def apply_filter(study: StudyInput, rule: FilterRule) -> StudyInput:
    """Drop rows failing the total/per-cell count rule."""
    keep = np.ones(study.m, dtype=bool)
    if rule.min_total is not None:
        keep &= study.c1 + study.c2 > rule.min_total
    if rule.max_per_cell is not None:
        keep &= (study.c1 <= rule.max_per_cell) & (study.c2 <= rule.max_per_cell)
    idx = np.flatnonzero(keep)
    return StudyInput(
        family=study.family,
        ids=tuple(study.ids[i] for i in idx),
        c1=study.c1[idx],
        c2=study.c2[idx],
        n1=None if study.n1 is None else study.n1[idx],
        n2=None if study.n2 is None else study.n2[idx],
    )


def _count_list(name: str, column) -> list:
    """The argument ``name``, a 1-d sequence of numbers, as a list; the exact
    tests check that each is a count."""
    check_array(name, column)  # 1-d, of values that convert to floats
    column = np.asarray(column)
    if column.dtype.kind not in "biuf" and not all(
            isinstance(x, Real) for x in column.tolist()):
        raise InvalidConfigError(f"{name} must hold numbers, got {column.dtype} entries")
    return column.tolist()


def score_input(c1, c2, sided: Sidedness, n1=None, n2=None,
                pi0: Pi0Config | None = None):
    """P-values, null supports and conditioning statistics of count arrays.

    Without row totals each pair (c1, c2) gets the binomial test given its
    total, which is its conditioning statistic (a float); a pair with total
    0 has no data and scores p = 1 with support {1}.  With row totals
    ``n1``, ``n2`` each row is a 2x2 table tested with Fisher's exact test
    given its margins ``MarginalVector(n1, n2, c1 + c2)``.  Statistics whose
    supports are equal form one null class: the totals 0 and 1 two-sided
    (both {1}), not one-sided ({1} and {0.5, 1}).

    The supports come as a ``NullSupports`` on the guiding values of ``pi0``,
    by default the test's own grid, ``BINOMIAL_PI0_CONFIG`` or
    ``FET_PI0_CONFIG``: each support becomes its class's lambda row as its
    table is built and is then dropped, so k classes hold 8·k·|tau| bytes.
    """
    if (n1 is None) != (n2 is None):
        raise InvalidConfigError("row totals need both n1 and n2")
    columns = {"c1": c1, "c2": c2, **({} if n1 is None else {"n1": n1, "n2": n2})}
    counts = [_count_list(name, column) for name, column in columns.items()]
    if len({len(a) for a in counts}) > 1:
        raise InvalidConfigError(
            f"count arrays differ in length: {[len(a) for a in counts]}"
        )
    c1, c2 = counts[:2]
    fet = n1 is not None
    if pi0 is None:
        pi0 = _PI0_CONFIGS["fet" if fet else "binomial"]
    stats = ([MarginalVector(a, b, c + d) for a, b, c, d in zip(*counts[2:], c1, c2)]
             if fet else [a + b for a, b in zip(c1, c2)])
    number: dict = {}  # each statistic's class, in order of first occurrence
    ids = np.array([number.setdefault(stat, len(number)) for stat in stats], dtype=np.intp)
    pvalues = np.ones(len(c1))
    null = fet_null_distribution if fet else binomial_null_distribution

    def support_of(hypotheses):  # the support of a statistic, once its p-values are set
        stat = stats[hypotheses[0]]
        if stat == 0:  # a total of 0 has no data: p = 1 with support {1}
            return np.array([1.0])
        support = null(stat, sided).support  # checked as its table was built
        pvalues[hypotheses] = [fet_pvalue(c1[i], stat, sided) if fet
                               else binomial_pvalue(PoissonPair(c1[i], c2[i]), sided)
                               for i in hypotheses.tolist()]
        return support

    return (pvalues, NullSupports(ids, pi0, support_of),
            stats if fet else list(map(float, stats)))
