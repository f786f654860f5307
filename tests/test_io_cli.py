"""Tests for count-table ingestion, filtering, and the command-line surface."""

import csv
import json
import re

import numpy as np
import pytest

from discrete_fdr import (
    BINOMIAL_PI0_CONFIG,
    FilterRule,
    InvalidConfigError,
    ParseError,
    SchemaError,
    Sidedness,
    StudyInput,
    WfdrConfig,
    apply_filter,
    parse_counts_csv,
    weight_study,
    wfdr_reject,
)
from discrete_fdr import cli, grouping, simulate
from discrete_fdr.cli import EXIT_COMPUTE, EXIT_PARSE, EXIT_SCHEMA, main
from discrete_fdr.io import score_input


def write(path, text):
    path.write_text(text)
    return str(path)


class TestParseCountsCsv:
    def test_binomial_row(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\ng1,3,9\n")
        study = parse_counts_csv(path, "binomial")
        assert study.ids == ("g1",)
        assert study.c1.tolist() == [3] and study.c2.tolist() == [9]
        assert study.n1 is None and study.n2 is None

    def test_fet_row_margins(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,n1,c2,n2\nd1,19,19,35071,75146\n")
        study = parse_counts_csv(path, "fet")
        assert study.n1.tolist() == [19] and study.n2.tolist() == [75146]
        assert (study.c1 + study.c2).tolist() == [35090]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "c.csv", "")
        with pytest.raises(SchemaError):
            parse_counts_csv(path, "binomial")

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\n")
        with pytest.raises(SchemaError):
            parse_counts_csv(path, "binomial")

    def test_missing_columns(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1\ng1,3\n")
        with pytest.raises(SchemaError):
            parse_counts_csv(path, "binomial")

    def test_non_integer_reports_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\ng1,3,9\ng2,x,1\n")
        with pytest.raises(ParseError) as exc_info:
            parse_counts_csv(path, "binomial")
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "family,text,error,match",
        [
            ("binomial", "id,c1,c2\ng1,3,9\n\ng2,x,1\n", ParseError, "'c1'"),
            ("fet", "id,c1,n1,c2,n2\ng1,1,5,2,9\n\nd1,5,4,1,10\n", ParseError,
             "'c1': count exceeds"),
            ("fet", "id,c1,n1,c2,n2\ng1,1,5,2,9\n\nd1,1,4,11,10\n", ParseError,
             "'c2': count exceeds"),
            ("binomial", "id,c1,c2\ng1,3,9\n\ng1,1,1\n", SchemaError,
             "duplicate id 'g1'"),
        ],
        ids=["not-integer", "c1-above-n1", "c2-above-n2", "duplicate-id"],
    )
    def test_error_names_file_line_after_blank_line(
        self, tmp_path, family, text, error, match
    ):
        # the bad row is on file line 4; a row count would say line 3
        path = write(tmp_path / "c.csv", text)
        with pytest.raises(error, match=match) as exc_info:
            parse_counts_csv(path, family)
        assert "line 4" in str(exc_info.value)

    def test_study_totals_violation_names_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,n1\nd1,2,127\n\nd2,3000,64\n")
        with pytest.raises(SchemaError, match="line 4: counts exceed the study totals"):
            parse_counts_csv(path, "fet", study_totals=(2051, 686911))

    def test_negative_count(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\ng1,-3,9\n")
        with pytest.raises(ParseError):
            parse_counts_csv(path, "binomial")

    def test_duplicate_ids(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\ng1,3,9\ng1,1,1\n")
        with pytest.raises(SchemaError):
            parse_counts_csv(path, "binomial")

    def test_count_exceeding_row_total(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,n1,c2,n2\nd1,5,4,1,10\n")
        with pytest.raises(ParseError):
            parse_counts_csv(path, "fet")

    def test_study_totals_expansion(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,n1\nd1,2,127\n")
        study = parse_counts_csv(path, "fet", study_totals=(2051, 686911))
        assert study.n1.tolist() == [127] and study.n2.tolist() == [686911 - 127]
        assert study.c2.tolist() == [2049]
        assert (study.c1 + study.c2).tolist() == [2051]

    def test_count_above_int64(self, tmp_path):
        # 2**63, one above the largest int64
        path = write(
            tmp_path / "c.csv", "id,c1,c2\ng1,3,9\ng2,1,9223372036854775808\n"
        )
        with pytest.raises(ParseError, match="'c2'") as exc_info:
            parse_counts_csv(path, "binomial")
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "family,text,columns",
        [
            ("binomial", "id,c1,c2\nb,3,9\na,4611686018427387904,4611686018427387904\n",
             "'c1' + 'c2'"),
            ("fet", "id,c1,n1,c2,n2\nb,1,5,2,9\n"
             "a,1,4611686018427387904,1,4611686018427387904\n", "'n1' + 'n2'"),
        ],
        ids=["binomial", "fet"],
    )
    def test_total_above_int64(self, tmp_path, family, text, columns):
        # each count fits int64 (2**62), their sum 2**63 does not
        path = write(tmp_path / "c.csv", text)
        with pytest.raises(ParseError, match=re.escape(columns)) as exc_info:
            parse_counts_csv(path, family)
        assert exc_info.value.line == 3

    def test_total_at_int64_max_accepted(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,c1,c2\na,1,9223372036854775806\n")
        study = parse_counts_csv(path, "binomial")
        assert (study.c1 + study.c2).tolist() == [2**63 - 1]


class TestApplyFilter:
    def test_negative_min_total_rejected(self):
        with pytest.raises(InvalidConfigError, match="min_total"):
            FilterRule(min_total=-1)

    @pytest.mark.parametrize("cap", [-1, -0.5, float("nan")])
    def test_negative_max_per_cell_rejected(self, cap):
        with pytest.raises(InvalidConfigError, match="max_per_cell"):
            FilterRule(max_per_cell=cap)

    def test_boundary_total_dropped(self):
        study = StudyInput("binomial", ("a",), np.array([3]), np.array([2]))
        assert apply_filter(study, FilterRule(5, 25)).m == 0

    def test_cell_cap_dropped(self):
        study = StudyInput("binomial", ("a",), np.array([26]), np.array([1]))
        assert apply_filter(study, FilterRule(5, 25)).m == 0

    def test_identity_rule(self):
        # c is a zero-total row: an unset bound keeps it
        study = StudyInput(
            "binomial", ("a", "b", "c"), np.array([3, 26, 0]), np.array([2, 1, 0])
        )
        assert apply_filter(study, FilterRule()).m == 3

    def test_keeps_interior_rows(self):
        study = StudyInput(
            "fet",
            ("a", "b", "c"),
            np.array([3, 10, 30]),
            np.array([2, 10, 1]),
            n1=np.array([50, 50, 50]),
            n2=np.array([50, 50, 50]),
        )
        # a: total 5 fails "> 5"; c: cell 30 exceeds the cap
        kept = apply_filter(study, FilterRule(5, 25))
        assert kept.ids == ("b",)
        assert kept.n1.tolist() == [50]

    def test_columns_given_as_lists(self):
        # list columns are stored as int64 arrays, so the row total is a sum,
        # not a concatenation of the lists
        study = StudyInput("binomial", ("a", "b"), [1, 2], [3, 4])
        assert study.c1.dtype == study.c2.dtype == np.int64
        kept = apply_filter(study, FilterRule(min_total=4))
        assert kept.ids == ("b",)
        assert kept.c1.tolist() == [2] and kept.c2.tolist() == [4]

    @pytest.mark.parametrize(
        "column",
        [[2**63], np.array([2.0**63]), np.array([2**63], dtype=np.uint64)],
        ids=["int", "float", "uint64"],
    )
    def test_counts_beyond_int64_rejected(self, column):
        with pytest.raises(InvalidConfigError, match="c1 must be counts of at most"):
            StudyInput("binomial", ("a",), column, [1])


class TestCountArrayLengths:
    @pytest.mark.parametrize("column", ["c1", "c2", "n1", "n2"])
    def test_study_input_column_length(self, column):
        columns = {name: np.array([1, 2]) for name in ("c1", "c2", "n1", "n2")}
        columns[column] = np.array([1])
        with pytest.raises(InvalidConfigError, match=f"{column} has 1 counts"):
            StudyInput("fet", ("a", "b"), **columns)

    @pytest.mark.parametrize(
        "arrays",
        [([1, 2, 3], [4, 5]), ([1, 2], [4, 5], [9, 9], [9]), ([1, 2], [4, 5], [9, 9])],
        ids=["binomial", "fet", "fet-without-n2"],
    )
    def test_score_input_lengths(self, arrays):
        c1, c2, *totals = arrays
        with pytest.raises(InvalidConfigError):
            score_input(c1, c2, Sidedness.TWO_SIDED, *totals)


class TestScoreInputArguments:
    """Each count argument that is not a 1-d sequence of numbers is refused
    with a typed error naming it; negative and fractional counts keep the
    errors of the checks that meet them."""

    @pytest.mark.parametrize("args, named", [
        ((5, 7), "c1"),
        (([[1, 2]], [[3, 4]]), "c1"),
        (([1, 2], [[3, 4]]), "c2"),
        (([1, 2], ["a", 3]), "c2"),
        (([1, 2], ["3", 3]), "c2"),
        ((None, [1, 2]), "c1"),
        (([1, None], [1, 2]), "c1"),
        (([[1], [2, 3]], [1, 2]), "c1"),
        (([1], [2], [[3]], [4]), "n1"),
        (([1], [2], [3], "4"), "n2"),
    ], ids=["scalars", "2-d", "2-d-c2", "string", "numeric-string", "none",
            "none-entry", "ragged", "2-d-n1", "string-n2"])
    def test_refused_naming_the_argument(self, args, named):
        with pytest.raises(InvalidConfigError, match=f"^{named} must "):
            score_input(*args[:2], Sidedness.TWO_SIDED, *args[2:])

    @pytest.mark.parametrize("c1, message", [
        ([-1], "c1 must be an integer >= 0, got -1"),
        ([1.5], "total must be an integer, got 3.5"),
    ], ids=["negative", "fraction"])
    def test_count_errors_unchanged(self, c1, message):
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            score_input(c1, [2], Sidedness.TWO_SIDED)

    def test_pi0_must_be_a_config(self):
        with pytest.raises(InvalidConfigError, match="pi0 must be a Pi0Config"):
            score_input([1], [2], Sidedness.TWO_SIDED, pi0=0.2)


def run_cli(args):
    return main([str(a) for a in args])


class TestAnalyzeCommand:
    def make_input(self, tmp_path):
        return write(
            tmp_path / "counts.csv",
            "id,c1,c2\n"
            + "".join(f"g{i},{c1},{c2}\n" for i, (c1, c2) in enumerate(
                [(0, 14), (1, 12), (3, 9), (7, 6), (2, 2), (0, 0), (5, 19), (8, 9),
                 (1, 16), (2, 11), (9, 9), (0, 11)]
            )),
        )

    def test_all_procedures_both_columns(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path,
             "--output", out, "--groups", "2", "--procedure", "all"]
        ) == 0
        header = (tmp_path / "out.report.csv").read_text().splitlines()[0]
        assert "rejected_wfdr" in header and "rejected_bh" in header
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert "wfdr" in summary and "bh" in summary

    @pytest.mark.parametrize("procedure,blocks", [
        ("wfdr", {"wfdr": ["k_tilde_star", "n_rejected", "tau_alpha"]}),
        ("bh", {"bh": ["k_star", "n_rejected", "threshold"]}),
        ("all", {"wfdr": ["k_tilde_star", "n_rejected", "tau_alpha"],
                 "bh": ["k_star", "n_rejected", "threshold"]}),
    ])
    def test_procedure_columns_and_blocks(self, tmp_path, procedure, blocks):
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2", "--alpha", "0.2",
             "--procedure", procedure]
        ) == 0
        with open(tmp_path / "out.report.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        assert header == ["id", "p_value", "group", "weight", "weighted_p"] + [
            f"rejected_{name}" for name in blocks
        ]
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert {name: sorted(summary[name]) for name in ("wfdr", "bh")
                if name in summary} == blocks
        for column, name in enumerate(blocks, start=5):
            flags = [row[column] for row in rows]
            assert set(flags) <= {"0", "1"}
            assert flags.count("1") == summary[name]["n_rejected"] > 0
        if "wfdr" in summary:
            assert summary["wfdr"]["k_tilde_star"] == summary["wfdr"]["n_rejected"]
        if "bh" in summary:
            assert summary["bh"]["k_star"] == summary["bh"]["n_rejected"]

    def test_flags_echo(self, tmp_path):
        path = self.make_input(tmp_path)
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output",
             tmp_path / "out", "--groups", "2", "--seed", "9", "--min-total", "1",
             "--step", "0.001"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        # every option as parsed, the guiding grid as resolved (the binomial
        # default lambda_max with the given step), None for unset options
        assert summary["flags"] == {
            "test": "binomial", "sided": "two", "alpha": 0.05, "groups": 2,
            "grouping": "quantile", "lambda_max": 0.2, "step": 0.001, "seed": 9,
            "input": path, "procedure": "all", "study_totals": None,
            "min_total": 1, "max_per_cell": None,
        }

    def test_alpha_zero_rejects_nothing(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2", "--alpha", "0"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["wfdr"]["n_rejected"] == 0
        assert summary["bh"]["n_rejected"] == 0

    def test_one_group_overall_equals_global(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "1"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["pi0_star"] == pytest.approx(summary["pi0_g"], abs=1e-12)

    def test_report_rows_are_post_filter(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2", "--min-total", "5", "--max-per-cell", "25"]
        ) == 0
        lines = (tmp_path / "out.report.csv").read_text().splitlines()
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert len(lines) - 1 == summary["m_analyzed"]
        assert summary["filtered_out"] == summary["m_input"] - summary["m_analyzed"]
        assert "g5" not in {line.split(",")[0] for line in lines[1:]}  # total 0 row

    def test_max_per_cell_alone_keeps_zero_total_rows(self, tmp_path):
        # g5 is (0, 0): scored p = 1, not dropped by a cap on the cells
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2", "--max-per-cell", "100"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["m_analyzed"] == summary["m_input"] == 12

    def test_schema_error_exit_code(self, tmp_path):
        path = write(tmp_path / "bad.csv", "id,c1\nx,1\n")
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2"]
        ) == EXIT_SCHEMA

    def test_parse_error_exit_code(self, tmp_path, capsys):
        # the bad row is on file line 3, after a blank line
        path = write(tmp_path / "bad.csv", "id,c1,c2\n\nx,1,zz\n")
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2"]
        ) == EXIT_PARSE
        assert "line 3:" in capsys.readouterr().err

    def test_compute_error_exit_code(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        # l_star * g_star > m is impossible to satisfy -> compute error
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "0"]
        ) == EXIT_COMPUTE

    def test_negative_min_total_exit_code(self, tmp_path):
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2", "--min-total", "-1"]
        ) == EXIT_COMPUTE

    def test_negative_max_per_cell_exit_code(self, tmp_path, capsys):
        # a setting error (exit 5), not a table that filters down to nothing
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2", "--max-per-cell", "-1"]
        ) == EXIT_COMPUTE
        assert "max_per_cell must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out.report.csv").exists()

    def test_count_above_int64_exit_code(self, tmp_path):
        path = write(tmp_path / "big.csv", "id,c1,c2\nx,1,99999999999999999999\n")
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path,
             "--output", tmp_path / "out", "--groups", "2"]
        ) == EXIT_PARSE

    @pytest.mark.parametrize("extra", [[], ["--min-total", "1"]])
    def test_total_above_int64_exit_code(self, tmp_path, extra):
        # the int64 sum of row a's counts wraps negative, so --min-total
        # would drop the row silently
        path = write(tmp_path / "big.csv", "id,c1,c2\na,4611686018427387904,"
                     "4611686018427387904\nb,3,9\n")
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path,
             "--output", tmp_path / "out", "--groups", "1", *extra]
        ) == EXIT_PARSE

    def test_study_totals_above_int64_exit_code(self, tmp_path):
        path = write(tmp_path / "drugs.csv", "id,c1,n1\nd1,2,127\n")
        assert run_cli(
            ["analyze", "--test", "fet", "--input", path, "--output", tmp_path / "out",
             "--groups", "1", "--study-totals", "99999999999999999999,686911"]
        ) == EXIT_SCHEMA

    @pytest.mark.parametrize("grouping", ["quantile", "metric"])
    def test_more_groups_than_rows_exit_code(self, tmp_path, capsys, grouping):
        # the extra bins would be empty, leaving one-row groups of weight 0 or inf
        path = write(tmp_path / "four.csv", "id,c1,c2\na,3,12\nb,7,6\nc,0,9\nd,5,5\n")
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output",
             tmp_path / "out", "--groups", "9", "--grouping", grouping]
        ) == EXIT_COMPUTE
        assert "l_star = 9 exceeds m = 4" in capsys.readouterr().err
        assert not (tmp_path / "out.report.csv").exists()

    def test_negative_study_totals_exit_code(self, tmp_path, capsys):
        # an invalid setting, not a count table row that exceeds it
        path = write(tmp_path / "drugs.csv", "id,c1,n1\nd1,2,127\nd2,0,64\n")
        assert run_cli(
            ["analyze", "--test", "fet", "--input", path, "--output", tmp_path / "out",
             "--groups", "1", "--study-totals=-5,10"]
        ) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "--study-totals must be nonnegative" in err and "line" not in err

    def test_memory_error_exit_code(self, tmp_path, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(cli, "score_input", out_of_memory)
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2"]
        ) == EXIT_COMPUTE

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "1.5"], "alpha must be in [0, 1], got 1.5"),
        (["--alpha", "nan"], "alpha must be in [0, 1], got nan"),
        (["--groups", "0"], "l_star must be an integer >= 1, got 0"),
    ])
    def test_invalid_setting_refused_before_scoring(self, tmp_path, monkeypatch, capsys,
                                                    flags, message):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "score_input", no_scoring)
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2", *flags]
        ) == EXIT_COMPUTE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.report.csv").exists()

    def test_metric_grouping_flag(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2", "--grouping", "metric"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["flags"]["grouping"] == "metric"
        assert len(summary["groups"]["sizes"]) >= 1

    def test_fet_with_study_totals(self, tmp_path):
        path = write(
            tmp_path / "drugs.csv",
            "id,c1,n1\nd1,2,127\nd2,0,64\nd3,30,2000\nd4,1,50\nd5,5,33\n",
        )
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "fet", "--input", path, "--output", out,
             "--groups", "2", "--study-totals", "2051,686911"]
        ) == 0
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["m_analyzed"] == 5


class TestStrongSignals:
    """Rows whose observed outcome has a null probability that underflows
    double precision score, and both procedures reject them."""

    def analyze(self, tmp_path, table, *flags):
        path = write(tmp_path / "strong.csv", table)
        assert run_cli(
            ["analyze", "--input", path, "--output", tmp_path / "out", "--groups", "1",
             "--procedure", "all", *flags]
        ) == 0
        with open(tmp_path / "out.report.csv", newline="") as handle:
            return {row["id"]: row for row in csv.DictReader(handle)}

    @staticmethod
    def assert_rejected(rows, ids):
        for i in ids:
            assert float(rows[i]["p_value"]) > 0.0
            assert rows[i]["rejected_wfdr"] == rows[i]["rejected_bh"] == "1"

    def test_binomial_table(self, tmp_path):
        rows = self.analyze(
            tmp_path, "id,c1,c2\na,0,1100\nb,10,1200\nc,30,1500\nd,40,45\ne,12,30\n",
            "--test", "binomial",
        )
        self.assert_rejected(rows, "abc")

    def test_fet_table(self, tmp_path):
        rows = self.analyze(
            tmp_path, "id,c1,n1\nd1,2000,50000\nd2,120,10000\nd3,90,9000\n",
            "--test", "fet", "--study-totals", "20000,2000000",
        )
        self.assert_rejected(rows, ["d1"])

    def test_weighted_pvalue_rounding_to_zero_rejected(self, tmp_path):
        # p-values of 5e-324 under a weight below 1/2
        rows = self.analyze(
            tmp_path,
            "id,c1,n1\nd1,2000,50000\nd2,120,10000\nd3,90,9000\nd4,1800,40000\n"
            "d5,2400,60000\n",
            "--test", "fet", "--study-totals", "20000,2000000",
        )
        for i in ("d1", "d4", "d5"):
            assert float(rows[i]["weighted_p"]) == 0.0
        self.assert_rejected(rows, ["d1", "d4", "d5"])


class TestWindowLimit:
    @pytest.mark.parametrize("test, rows", [
        ("binomial", "id,c1,c2\na,3,12\nb,7,6\nc,0,9\n"),
        ("fet", "id,c1,n1,c2,n2\na,3,40,5,60\nb,7,50,2,45\nc,0,30,4,70\n"),
    ])
    def test_metric_distance_matrix_limit_exits_compute(self, tmp_path, capsys,
                                                         monkeypatch, test, rows):
        # metric grouping has no quantile fallback for a study too large for
        # its distance matrix: the run fails, naming the bytes needed
        monkeypatch.setattr(grouping, "MAX_DISTANCE_BYTES", 8 * 2 * 2)
        path = write(tmp_path / "rows.csv", rows)
        assert run_cli(
            ["analyze", "--test", test, "--input", path, "--grouping", "metric",
             "--groups", "1", "--output", tmp_path / "out"]
        ) == EXIT_COMPUTE
        assert "m = 3 hypotheses needs a 3 x 3 distance matrix of 72 bytes" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out.report.csv").exists()

    @pytest.mark.parametrize("total", [10**12, 2**62], ids=["1e12", "2^62"])
    def test_huge_total_exits_compute(self, tmp_path, capsys, total):
        path = write(tmp_path / "huge.csv", f"id,c1,c2\na,3,{total - 3}\nb,7,6\n")
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--groups", "1",
             "--output", tmp_path / "out"]
        ) == EXIT_COMPUTE
        err = capsys.readouterr().err
        # a total float64 holds exactly is refused for its window, one at or
        # above 2^53 for the total itself
        refusal = (f"error: the null distribution of the binomial total {total}"
                   r" needs \d+ outcomes" if total < 2**53 else
                   f"error: an exact test refuses the binomial total {total}:"
                   r" every total and margin must lie below 2\^53")
        assert re.search(refusal, err)

    def test_study_total_above_2_53_exits_compute(self, tmp_path, capsys):
        # the second row's n2 = 9007199254742000 - 10000 lies above 2^53 too,
        # but the first row's table is refused first
        path = write(tmp_path / "safety.csv", "id,c1,n1\nd1,2,127\nd2,120,10000\n")
        assert run_cli(
            ["analyze", "--test", "fet", "--input", path, "--groups", "1",
             "--study-totals", "20000,9007199254742000", "--output", tmp_path / "out"]
        ) == EXIT_COMPUTE
        assert ("error: an exact test refuses the margins (n1, n2, m_obs) ="
                " (127, 9007199254741873, 20000)") in capsys.readouterr().err
        assert not (tmp_path / "out.report.csv").exists()


class TestAnalyzeMatchesLibrary:
    """The report and summary equal the library's procedure on the same data."""

    @pytest.mark.parametrize("grouping", ["quantile", "metric"])
    def test_report_equals_wfdr_reject(self, tmp_path, grouping):
        rng = np.random.default_rng(61)
        mu = 7.0 * (1.0 + rng.pareto(7.0, 80))
        c1 = rng.poisson(mu)
        c2 = rng.poisson(mu * np.where(np.arange(80) < 50, 1.0, 4.0))
        rows = "".join(f"g{i},{a},{b}\n" for i, (a, b) in enumerate(zip(c1, c2)))
        path = write(tmp_path / "counts.csv", "id,c1,c2\n" + rows)
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output",
             tmp_path / "out", "--groups", "3", "--grouping", grouping,
             "--alpha", "0.1"]
        ) == 0
        with open(tmp_path / "out.report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        summary = json.loads((tmp_path / "out.summary.json").read_text())

        study = parse_counts_csv(path, "binomial")
        pvalues, supports, stats = score_input(
            study.c1, study.c2, Sidedness.TWO_SIDED
        )
        cfg = WfdrConfig(l_star=3, grouping=grouping, pi0=BINOMIAL_PI0_CONFIG)
        report = wfdr_reject(pvalues, supports, stats, 0.1, cfg)
        weighted = weight_study(pvalues, supports, stats, cfg)
        group_of = weighted.partition.group_of()
        rejected = np.zeros(study.m, dtype=int)
        rejected[report.rejected] = 1
        assert report.n_rejected > 0 and len(weighted.partition.groups) > 1
        assert [r["id"] for r in rows] == list(study.ids)
        assert [float(r["weighted_p"]) for r in rows] == (
            pvalues * weighted.weights[group_of]
        ).tolist()
        assert [int(r["group"]) for r in rows] == group_of.tolist()
        assert [int(r["rejected_wfdr"]) for r in rows] == rejected.tolist()
        assert summary["wfdr"]["tau_alpha"] == report.threshold
        assert summary["wfdr"]["k_tilde_star"] == report.n_rejected
        assert summary["pi0_star"] == weighted.pi0_overall


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--family", "binomial", "--m", "120", "--pi0", "0.5",
                "--reps", "2", "--seed", "7"]
        assert run_cli(args + ["--output", tmp_path / "a"]) == 0
        assert run_cli(args + ["--output", tmp_path / "b"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_pure_null_power_zero(self, tmp_path):
        assert run_cli(
            ["simulate", "--family", "binomial", "--m", "100", "--pi0", "1.0",
             "--reps", "2", "--seed", "3", "--output", tmp_path / "s"]
        ) == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        power = [r.split(",") for r in rows]
        values = [float(r[6]) for r in power if r[5] == "power"]
        assert values and all(v == 0.0 for v in values)

    def test_multiple_grids(self, tmp_path):
        assert run_cli(
            ["simulate", "--family", "poisson", "--m", "80", "--pi0", "0.5",
             "--pi0", "0.8", "--alpha", "0.05", "--alpha", "0.1",
             "--l-star", "2", "--l-star", "3",
             "--reps", "2", "--seed", "5", "--output", tmp_path / "s"]
        ) == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert len(payload["cells"]) == 2 * 2 * 2 * 2  # pi0 x alpha x l* x procedure
        assert payload["flags"]["pi0"] == [0.5, 0.8]

    def test_flags_echo(self, tmp_path):
        assert run_cli(
            ["simulate", "--family", "binomial", "--m", "30", "--reps", "1",
             "--alpha", "0.1", "--seed", "5", "--output", tmp_path / "s"]
        ) == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        # the grids as resolved: unset ones take their one-value defaults
        assert payload["flags"] == {
            "family": "binomial", "m": 30, "pi0": [0.5], "alpha": [0.1],
            "l_star": [3], "reps": 1, "seed": 5,
        }

    def test_json_cell_keys(self, tmp_path):
        assert run_cli(
            ["simulate", "--family", "poisson", "--m", "80", "--reps", "2",
             "--seed", "5", "--output", tmp_path / "s"]
        ) == 0
        cells = {
            cell["procedure"]: cell
            for cell in json.loads((tmp_path / "s.json").read_text())["cells"]
        }
        keys = {"pi0", "alpha", "l_star", "procedure", "fdr", "power", "fdp_std",
                "tdp_std", "mean_rejections", "pi0_star_mean", "pi0_g_mean"}
        assert set(cells) == {"wfdr", "bh"}
        assert set(cells["wfdr"]) == set(cells["bh"]) == keys
        assert cells["bh"]["pi0_star_mean"] is None
        assert cells["bh"]["pi0_g_mean"] is None

    @pytest.mark.parametrize("grid", [
        ["--alpha", "0.05", "--alpha", "0.05"],
        ["--l-star", "3", "--l-star", "3"],
        ["--pi0", "0.5", "--pi0", "0.5"],
        ["--alpha", "1.5"],
        ["--l-star", "0"],
        ["--seed", "-1"],
    ])
    def test_invalid_grid_exit_code(self, tmp_path, monkeypatch, capsys, grid):
        # rejected before any replication runs: α, l* and the seed by the
        # scenario config, a repeated π0 by the command, which runs one study
        # per π0
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulate, "_replication_records", no_replication)
        assert run_cli(
            ["simulate", "--family", "poisson", "--m", "20", "--reps", "3",
             "--seed", "5", "--output", tmp_path / "s", *grid]
        ) == EXIT_COMPUTE
        assert grid[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_malformed_worker_count_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DISCRETE_FDR_WORKERS", "abc")
        assert run_cli(
            ["simulate", "--family", "poisson", "--m", "20", "--reps", "1",
             "--seed", "5", "--output", tmp_path / "s"]
        ) == EXIT_COMPUTE
        assert "DISCRETE_FDR_WORKERS='abc'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()
