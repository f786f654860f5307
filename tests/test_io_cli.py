"""Tests for count-table ingestion, filtering, and the command-line surface."""

import csv
import json

import numpy as np
import pytest

from discrete_fdr import (
    BINOMIAL_PI0_CONFIG,
    FilterRule,
    ParseError,
    SchemaError,
    Sidedness,
    StudyInput,
    WfdrConfig,
    apply_filter,
    parse_counts_csv,
    wfdr_reject,
    write_counts_csv,
)
from discrete_fdr import cli
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

    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "id,c1,n1,c2,n2\nd1,19,19,35071,75146\nd2,0,5,100,2000\n",
        )
        study = parse_counts_csv(path, "fet")
        out = tmp_path / "out.csv"
        write_counts_csv(study, out)
        again = parse_counts_csv(out, "fet")
        assert again == study


class TestApplyFilter:
    def test_boundary_total_dropped(self):
        study = StudyInput("binomial", ("a",), np.array([3]), np.array([2]))
        assert apply_filter(study, FilterRule(5, 25)).m == 0

    def test_cell_cap_dropped(self):
        study = StudyInput("binomial", ("a",), np.array([26]), np.array([1]))
        assert apply_filter(study, FilterRule(5, 25)).m == 0

    def test_identity_rule(self):
        study = StudyInput(
            "binomial", ("a", "b"), np.array([3, 26]), np.array([2, 1])
        )
        assert apply_filter(study, FilterRule()).m == 2

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

    def test_schema_error_exit_code(self, tmp_path):
        path = write(tmp_path / "bad.csv", "id,c1\nx,1\n")
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2"]
        ) == EXIT_SCHEMA

    def test_parse_error_exit_code(self, tmp_path):
        path = write(tmp_path / "bad.csv", "id,c1,c2\nx,1,zz\n")
        out = tmp_path / "out"
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "2"]
        ) == EXIT_PARSE

    def test_compute_error_exit_code(self, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "out"
        # l_star * g_star > m is impossible to satisfy -> compute error
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path, "--output", out,
             "--groups", "0"]
        ) == EXIT_COMPUTE

    def test_count_above_int64_exit_code(self, tmp_path):
        path = write(tmp_path / "big.csv", "id,c1,c2\nx,1,99999999999999999999\n")
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", path,
             "--output", tmp_path / "out", "--groups", "2"]
        ) == EXIT_PARSE

    def test_study_totals_above_int64_exit_code(self, tmp_path):
        path = write(tmp_path / "drugs.csv", "id,c1,n1\nd1,2,127\n")
        assert run_cli(
            ["analyze", "--test", "fet", "--input", path, "--output", tmp_path / "out",
             "--groups", "1", "--study-totals", "99999999999999999999,686911"]
        ) == EXIT_SCHEMA

    def test_memory_error_exit_code(self, tmp_path, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(cli, "score_input", out_of_memory)
        assert run_cli(
            ["analyze", "--test", "binomial", "--input", self.make_input(tmp_path),
             "--output", tmp_path / "out", "--groups", "2"]
        ) == EXIT_COMPUTE

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
        group_of = report.partition.group_of()
        rejected = np.zeros(study.m, dtype=int)
        rejected[report.rejected] = 1
        assert report.n_rejected > 0 and len(report.partition.groups) > 1
        assert [r["id"] for r in rows] == list(study.ids)
        assert [float(r["weighted_p"]) for r in rows] == (
            pvalues * report.weights[group_of]
        ).tolist()
        assert [int(r["group"]) for r in rows] == group_of.tolist()
        assert [int(r["rejected_wfdr"]) for r in rows] == rejected.tolist()
        assert summary["wfdr"]["tau_alpha"] == report.threshold
        assert summary["pi0_star"] == report.pi0_overall


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
