"""The CLI's exit-code contract holds for every count table and flag set.

Hypothesis draws small tables in the three schemas (``id,c1,c2``,
``id,c1,n1,c2,n2`` and ``id,c1,n1`` with ``--study-totals``), with malformed
cells, int64 edges, blank lines, broken headers and random flags.  Each case
runs ``cli.main`` in one child process whose address space is capped with
``RLIMIT_AS``, so a case that asks for too much memory fails there, not in
the test process.  Every case must exit 0, 2, 3, 4 or 5 without a traceback,
and an exit 0 must write one report row per analyzed hypothesis with 0/1
rejection columns.
"""

import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discrete_fdr

EXIT_CODES = {0, 2, 3, 4, 5}
ADDRESS_SPACE = 1 << 30  # bytes; the child imports numpy and scipy in ~0.3 GB

# Reads one JSON argv per line and answers with [exit code, stderr]; an
# exception that escapes cli.main is printed to the captured stderr.
CHILD = r"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from discrete_fdr import cli
for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


class Child:
    """One interpreter that runs ``cli.main`` on argv lists sent to it."""

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        package_root = str(Path(discrete_fdr.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (package_root, env.get("PYTHONPATH"))))
        self.process = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(ADDRESS_SPACE)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        assert line, f"the child died on {argv}"
        return json.loads(line)

    def close(self):
        self.process.stdin.close()
        self.process.wait(timeout=30)


@pytest.fixture(scope="module")
def child():
    runner = Child()
    yield runner
    runner.close()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-codes")


def run_case(child, workdir, lines, flags):
    """Write ``lines`` as the table, run ``analyze`` on it and check the
    contract; returns the exit code."""
    table, prefix = workdir / "table.csv", workdir / "out"
    report, summary = Path(f"{prefix}.report.csv"), Path(f"{prefix}.summary.json")
    report.unlink(missing_ok=True)
    summary.unlink(missing_ok=True)
    table.write_text("".join(line + "\n" for line in lines))
    argv = ["analyze", "--input", str(table), "--output", str(prefix), *flags]
    code, stderr = child.run(argv)
    assert code in EXIT_CODES, (argv, lines, code, stderr)
    assert "Traceback" not in stderr, (argv, lines, stderr)
    if code == 0:
        m = json.loads(summary.read_text())["m_analyzed"]
        with open(report, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == m
        rejected = [k for k in rows[0] if k.startswith("rejected_")]
        assert rejected
        assert all(row[k] in ("0", "1") for row in rows for k in rejected)
    return code


INT64_EDGES = [2**31, 2**53 - 1, 2**53, 2**62, 2**63 - 1, 2**63, 2**64]
MALFORMED = ["", " ", "x", "-1", "1.5", "1e3", "0x10", "nan", "+3", " 7 ",
             "\u0661\u0662", "9" * 30, str(-(2**63))]
COLUMNS = {
    "binomial": ("id", "c1", "c2"),
    "fet": ("id", "c1", "n1", "c2", "n2"),
    "totals": ("id", "c1", "n1"),
}
FLAG_CHOICES = {
    "--grouping": ["quantile", "metric"],
    "--sided": ["two", "one"],
    "--procedure": ["all", "wfdr", "bh"],
    "--alpha": ["0.05", "0.3", "1", "0", "1.5", "-0.1", "nan"],
    "--lambda-max": ["0.3", "0.5", "0.05", "1.2", "0", "nan"],
    "--step": ["0.01", "0.1", "0.002", "0", "1e-9", "2", "inf"],
    "--min-total": ["0", "3", "-1"],
    "--max-per-cell": ["100", "5", "-1"],
    "--seed": ["1", "-1"],
}
GROUPS = ["1", "2", "3", "9", "0", "-1", "x"]


def count(rnd):
    """A count below 10^7, small three times in four."""
    return rnd.randint(0, 20) if rnd.random() < 0.75 else rnd.randint(0, 10**7)


def cell(rnd, value, odds):
    """``value`` as text, or a malformed cell or int64 edge at ``odds``."""
    if rnd.random() < odds:
        return rnd.choice([*MALFORMED, *map(str, INT64_EDGES)])
    return str(value)


def row(rnd, schema, row_id, odds):
    """A row's cells, each malformed at ``odds``, and the counts they were
    drawn from."""
    c1, d1 = count(rnd), count(rnd)
    values = {"id": row_id, "c1": c1}
    if schema == "binomial":
        values["c2"] = d1
    else:  # each count at most its row total
        values["n1"] = c1 + d1
        c2 = count(rnd)
        values.update(c2=c2, n2=c2 + count(rnd))
    return {k: v if k == "id" else cell(rnd, v, odds) for k, v in values.items()}, values


@st.composite
def cases(draw):
    """A table's lines and the flags of its ``analyze`` run.  Hypothesis draws
    the seed of a ``Random`` that makes every choice at fixed odds, since its
    own draws lean towards the extremes: that way about a third of the cases
    are valid runs."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    schema = rnd.choice(sorted(COLUMNS))
    columns = list(COLUMNS[schema])
    ids = [f"r{i}" for i in range(rnd.randint(1, 7))]
    if rnd.random() < 0.1:  # an empty, blank or repeated id
        ids[rnd.randrange(len(ids))] = rnd.choice(["", " ", ids[0]])
    odds = 0.15 if rnd.random() < 0.3 else 0.0  # malformed cells in some tables
    rows = [row(rnd, schema, row_id, odds) for row_id in ids]
    if rnd.random() < 0.1:  # a broken header, or none
        broken = rnd.choice(["drop", "extra", "reverse", "none"])
        if broken == "drop":
            columns.remove(rnd.choice(columns))
        elif broken == "extra":
            columns.append("note")
        elif broken == "reverse":
            columns.reverse()
        else:
            columns = []
    lines = [",".join(columns)] if columns else []
    lines += [",".join(cells.get(c, "z") for c in columns) for cells, _ in rows]
    for _ in range(rnd.choice([0, 0, 1, 2])):  # blank lines, rarely before the header
        lines.insert(rnd.randint(0 if rnd.random() < 0.1 else 1, len(lines)), "")

    test = "binomial" if schema == "binomial" else "fet"
    if rnd.random() < 0.05:
        test = "fet" if test == "binomial" else "binomial"
    groups = rnd.choice(GROUPS[:3]) if rnd.random() < 0.85 else rnd.choice(GROUPS)
    flags = ["--test", test, "--groups", groups]
    for name, choices in FLAG_CHOICES.items():
        if rnd.random() < 0.3:  # the option's first, valid, values most often
            value = choices[0] if rnd.random() < 0.5 else rnd.choice(choices)
            flags += [name, value]
    if schema == "totals" and rnd.random() < 0.9:
        # totals that leave each derived count c2 at most its row total n2
        cases_total = max(v["c1"] for _, v in rows) + count(rnd)
        events_total = max(v["n1"] + cases_total - v["c1"] for _, v in rows) + count(rnd)
        totals = f"{cases_total},{events_total}"
        if rnd.random() < 0.15:
            totals = rnd.choice(["-5,10", "x", "10", "1,2,3", f"{2**63},5",
                                 f"{cases_total},{2**62}"])
        flags.append(f"--study-totals={totals}")
    if rnd.random() < 0.03:
        flags.append(rnd.choice(["--bogus", "--groups"]))
    return lines, flags


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=cases())
def test_every_table_and_flag_set_keeps_the_exit_code_contract(child, workdir, case):
    run_case(child, workdir, *case)


@pytest.mark.parametrize("lines, flags", [
    (["id,c1,c2", "a,500000000000,500000000000", "b,7,6"], ["--test", "binomial"]),
    (["id,c1,c2", "a,999999999999,3"], ["--test", "binomial"]),
    (["id,c1,c2", f"a,{2**61},{2**61}"], ["--test", "binomial"]),
    (["id,c1,c2", f"a,{2**62},5"], ["--test", "binomial", "--sided", "one"]),
    (["id,c1,n1,c2,n2", f"a,{5 * 10**11},{10**12},{5 * 10**11},{10**12}"],
     ["--test", "fet"]),
    (["id,c1,n1,c2,n2", f"a,3,{2**62},5,40"], ["--test", "fet"]),
    (["id,c1,n1", "a,3,40"], ["--test", "fet", f"--study-totals=20,{2**62}"]),
], ids=["binomial-1e12", "binomial-near-1e12", "binomial-2^62", "binomial-2^62-one",
        "fet-1e12", "fet-2^62", "fet-study-totals-2^62"])
def test_totals_near_1e12_and_2_62_exit_5(child, workdir, lines, flags):
    assert run_case(child, workdir, lines, [*flags, "--groups", "1"]) == 5
