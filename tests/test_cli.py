"""End-to-end tests for the command-line interface and file schemas."""

import csv
import io

import pytest

from epistemic_ledger import artifacts, cli, doctrine, metrics
from epistemic_ledger.artifacts import (
    InputError,
    certificate_to_text,
    csv_text,
    read_certificate,
    read_pipelines_csv,
)
from epistemic_ledger.cli import main
from epistemic_ledger.metrics import PipelineKind, PipelineSpec
from epistemic_ledger.validation import BoundMethod, certify

from test_golden import _ledger_argv
from test_validation import loss_records

PIPELINES_CSV = """id,kind,expected_cost,eps_ret,eps_gen,eps_ver
legacy_actual,retrieval_only,5.90,0.00,0.00,0.00
modern_actual,full,2.06,0.00,0.00,0.00
"""

PROPOSITIONS_CSV = """id,description,weight,threshold,pipelines
bid_independence,Bids set independently,1.0,0.7,legacy_actual;modern_actual
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def records_csv(tmp_path, n=1000, components=("retrieval", "generation", "verification")):
    rows = ["component,loss"]
    for component in components:
        rows += [f"{component},0"] * n
    return write(tmp_path, "records.csv", "\n".join(rows) + "\n")


class TestScore:
    def test_table_rows_match(self, tmp_path, capsys):
        path = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        assert main(["score", path, "--theta", "0.7"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[1].endswith("0.6289")
        assert lines[2].endswith("0.8292")
        assert lines[-1] == "0.8292,modern_actual,0.7000,true"

    def test_theta_echoes_into_predicate_column(self, tmp_path, capsys):
        path = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        assert main(["score", path, "--theta", "0.9"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n")[-1].endswith("0.9000,false")

    def test_empty_pipeline_list_fails(self, tmp_path, capsys):
        path = write(tmp_path, "empty.csv", "id,kind,expected_cost,eps_ret,eps_gen,eps_ver\n")
        assert main(["score", path]) == 1
        assert "no pipelines" in capsys.readouterr().err

    def test_malformed_file_names_line(self, tmp_path, capsys):
        bad = PIPELINES_CSV + "broken,full,not_a_number,0,0,0\n"
        path = write(tmp_path, "bad.csv", bad)
        assert main(["score", path]) == 1
        err = capsys.readouterr().err
        assert f"{path}:4" in err

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        out_path = tmp_path / "table.csv"
        assert main(["score", path, "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("id,kind")

    def test_policy_file_with_flag_override(self, tmp_path, capsys):
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        policy = write(tmp_path, "policy.txt", "tau_star = 5.0\ntheta_c = 0.9\n")
        assert main(["score", pipelines, "--policy", policy, "--theta", "0.6"]) == 0
        out = capsys.readouterr().out
        # tau* 5 shrinks the efficiency factor; the --theta flag wins over
        # the file's theta_c.
        assert out.strip().split("\n")[-1] == "0.7082,modern_actual,0.6000,true"

    def test_cells_are_quoted_for_csv_readers(self, tmp_path, capsys):
        path = write(tmp_path, "pipelines.csv", PIPELINES_CSV.replace("modern_actual", '"a,b"'))
        assert main(["score", path]) == 0
        scores, summary = capsys.readouterr().out.split("\n\n")
        table = list(csv.reader(io.StringIO(scores)))
        assert [len(row) for row in table] == [8, 8, 8]
        assert table[2][:2] == ["a,b", "full"]
        assert list(csv.reader(io.StringIO(summary)))[1] == ["0.8292", "a,b", "0.7000", "true"]

    def test_csv_text_quotes_as_rfc_4180(self):
        cells = ('say "hi"', "two\nlines", "cr\r", "plain", 0.5, True)
        text = csv_text("a,b,c,d,e,f", [cells])
        assert text.splitlines()[1].startswith('"say ""hi""","two')
        assert list(csv.reader(io.StringIO(text))) == [
            ["a", "b", "c", "d", "e", "f"],
            ['say "hi"', "two\nlines", "cr\r", "plain", "0.5000", "true"],
        ]

    def test_unknown_policy_key_names_line(self, tmp_path, capsys):
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        policy = write(tmp_path, "policy.txt", "tau_star = 5.0\nmystery = 1\n")
        assert main(["score", pipelines, "--policy", policy]) == 1
        assert f"{policy}:2" in capsys.readouterr().err


class TestCertify:
    def test_zero_error_hoeffding(self, tmp_path, capsys):
        records = records_csv(tmp_path)
        out_path = tmp_path / "cert.cert"
        code = main(
            [
                "certify",
                records,
                "--pipeline-id",
                "modern_actual",
                "--cost",
                "2.06",
                "--method",
                "hoeffding",
                "--timestamp",
                "2026-01-01T00:00:00+00:00",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        cert = read_certificate(out_path)
        assert cert.total_upper == pytest.approx(0.1116712, abs=1e-6)
        summary = capsys.readouterr().out
        assert "s_lb = 0.7366" in summary
        assert "plug_in(theta=0.7000) = true" in summary

    def test_wilson_tighter_than_hoeffding_here(self, tmp_path):
        records = records_csv(tmp_path)
        a, b = tmp_path / "w.cert", tmp_path / "h.cert"
        base = ["certify", records, "--pipeline-id", "p", "--cost", "2.06",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        assert main(base + ["--method", "wilson", "--out", str(a)]) == 0
        assert main(base + ["--method", "hoeffding", "--out", str(b)]) == 0
        assert read_certificate(a).total_upper < read_certificate(b).total_upper

    def test_missing_component_refused(self, tmp_path, capsys):
        records = records_csv(tmp_path, components=("retrieval",))
        code = main(["certify", records, "--pipeline-id", "p", "--cost", "1.0"])
        assert code == 3
        assert "generation" in capsys.readouterr().err

    def test_delta_out_of_range_is_usage_error(self, tmp_path):
        records = records_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["certify", records, "--pipeline-id", "p", "--cost", "1", "--delta", "1.5"])
        assert exc.value.code == 2

    def test_certificate_round_trip(self, tmp_path):
        binary, graded = [0.0, 1.0, 0.0, 0.0], [0.0, 0.25, 0.5, 1.0, 0.125]
        cases = [
            (method, kind, binary)
            for method in (BoundMethod.WILSON, BoundMethod.HOEFFDING)
            for kind in (PipelineKind.FULL, PipelineKind.RETRIEVAL_ONLY)
        ] + [(BoundMethod.HOEFFDING, PipelineKind.FULL, graded)]
        for i, (method, kind, losses) in enumerate(cases):
            pipeline = PipelineSpec(id="pi", kind=kind, expected_cost=2.06)
            sets = {
                slot: loss_records(losses)
                for slot in ("retrieval", "generation", "verification")
            }
            cert = certify(
                pipeline, sets, measured_cost=2.06, delta=0.05,
                method=method, timestamp="2026-01-01T00:00:00+00:00",
            )
            path = tmp_path / f"roundtrip{i}.cert"
            path.write_text(certificate_to_text(cert))
            assert read_certificate(path) == cert, (method, kind, losses)
            assert certificate_to_text(read_certificate(path)) == path.read_text()


class TestClassify:
    def _inputs(self, tmp_path, executions=None):
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
        argv = ["classify", "--propositions", props, "--pipelines", pipelines]
        if executions is not None:
            argv += ["--executions", write(tmp_path, "exec.csv", executions)]
        return argv

    def test_constructive_without_executions(self, tmp_path, capsys):
        assert main(self._inputs(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "primary = constructive_knowledge" in out
        assert "point = 1.0000" in out
        assert "lower_bound = 0.0000" in out

    def test_actual_with_certified_execution(self, tmp_path, capsys):
        records = records_csv(tmp_path)
        cert_path = tmp_path / "m.cert"
        main(
            ["certify", records, "--pipeline-id", "modern_actual", "--cost", "2.06",
             "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(cert_path)]
        )
        capsys.readouterr()
        executions = (
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            f"bid_independence,modern_actual,true,established,none,{cert_path},2026-01-02T00:00:00+00:00\n"
        )
        assert main(self._inputs(tmp_path, executions)) == 0
        out = capsys.readouterr().out
        assert "primary = actual_knowledge" in out
        assert "lower_bound = 1.0000" in out

    def test_shared_certificate_is_read_once(self, tmp_path, capsys, monkeypatch):
        records = records_csv(tmp_path)
        cert_path = tmp_path / "m.cert"
        main(
            ["certify", records, "--pipeline-id", "modern_actual", "--cost", "2.06",
             "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(cert_path)]
        )
        capsys.readouterr()
        reads = []
        read = artifacts.read_certificate
        monkeypatch.setattr(artifacts, "read_certificate", lambda path: reads.append(path) or read(path))
        lookups = []
        exists = artifacts.Path.exists
        monkeypatch.setattr(artifacts.Path, "exists", lambda path: lookups.append(path) or exists(path))
        row = f"bid_independence,modern_actual,true,established,none,{cert_path},\n"
        executions = (
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            + row
            + row
        )
        assert main(self._inputs(tmp_path, executions)) == 0
        assert "primary = actual_knowledge" in capsys.readouterr().out
        assert len(reads) == 1
        assert lookups.count(cert_path) == 1  # the path is joined and looked up once per cell

    def test_each_proposition_is_scored_once_for_the_report_and_once_by_classify(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = _ledger_argv(tmp_path, capsys)["classify"]
        calls = []
        for module in (cli, doctrine, metrics):  # every name org_score is called by
            score = module.org_score
            monkeypatch.setattr(
                module, "org_score", lambda *args, score=score: calls.append(args) or score(*args)
            )
        assert main(argv) == 0
        # The golden docket has five propositions with pipelines and one without.
        assert len(calls) == 10

    def test_missing_certificate_names_its_row(self, tmp_path, capsys):
        executions = (
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            "bid_independence,modern_actual,true,established,none,,\n"
            "bid_independence,modern_actual,true,established,none,absent.cert,\n"
        )
        argv = self._inputs(tmp_path, executions)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{argv[-1]}:3: certificate file not found: absent.cert" in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_unknown_proposition_in_executions(self, tmp_path, capsys):
        executions = (
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            "mystery,modern_actual,true,established,none,,\n"
        )
        assert main(self._inputs(tmp_path, executions)) == 1
        assert "unknown proposition" in capsys.readouterr().err

    def test_zero_weight_docket_lists_certificates(self, tmp_path, capsys):
        # No capacity is computed for a docket of zero total weight, but its
        # certificates are still listed with the findings that cite them.
        records = records_csv(tmp_path)
        cert_path = tmp_path / "m.cert"
        main(
            ["certify", records, "--pipeline-id", "modern_actual", "--cost", "2.06",
             "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(cert_path)]
        )
        capsys.readouterr()
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        props = write(
            tmp_path,
            "props.csv",
            "id,description,weight,threshold,pipelines\n"
            "bid_independence,Bids set independently,0.0,0.7,legacy_actual;modern_actual\n",
        )
        executions = write(
            tmp_path,
            "exec.csv",
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            f"bid_independence,modern_actual,true,established,none,{cert_path},\n",
        )
        argv = ["classify", "--propositions", props, "--pipelines", pipelines]
        assert main(argv + ["--executions", executions]) == 0
        out = capsys.readouterr().out
        assert "point = none" in out
        assert "primary = actual_knowledge" in out
        assert "certificates = modern_actual:s_lb=0.8225" in out

    def test_executions_without_propositions_rejected(self, tmp_path, capsys):
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        props = write(tmp_path, "props.csv", "id,description,weight,threshold,pipelines\n")
        executions = write(
            tmp_path,
            "exec.csv",
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            "mystery,modern_actual,false,,none,,\n",
        )
        argv = ["classify", "--propositions", props, "--pipelines", pipelines]
        assert main(argv + ["--executions", executions]) == 1
        assert f"{executions}:2: execution references unknown proposition 'mystery'" in (
            capsys.readouterr().err
        )

    def test_empty_propositions_empty_report(self, tmp_path, capsys):
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        props = write(
            tmp_path, "props.csv", "id,description,weight,threshold,pipelines\n"
        )
        code = main(["classify", "--propositions", props, "--pipelines", pipelines])
        assert code == 0
        out = capsys.readouterr().out
        assert "[capacity]" in out
        assert "point = none" in out

    def test_report_reproducible(self, tmp_path, capsys):
        argv = self._inputs(tmp_path) + ["--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_legacy_only_inputs_fall_to_negligence(self, tmp_path, capsys):
        # With only the weak pipeline available nothing reaches the
        # threshold, the capacity index is 0, and negligence is primary.
        pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
        props = write(
            tmp_path,
            "props.csv",
            "id,description,weight,threshold,pipelines\n"
            "bid_independence,Bids set independently,1.0,0.7,legacy_actual\n",
        )
        assert main(["classify", "--propositions", props, "--pipelines", pipelines]) == 0
        out = capsys.readouterr().out
        assert "primary = negligence" in out
        assert "point = 0.0000" in out


class TestSimulate:
    def test_eight_rows(self, capsys):
        assert main(["simulate", "--scenario", "appendix_a"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9  # header + 2 companies x 4 tasks
        assert lines[0].startswith("company,task")

    def test_identical_bytes_for_fixed_seed(self, capsys):
        assert main(["simulate", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_summary_appends_capacity(self, capsys):
        assert main(["simulate", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "legacy,0.0000,0.7000" in out
        assert "modern,1.0000,0.7000" in out

    def test_export_corpus(self, tmp_path, capsys):
        target = tmp_path / "corpus.tsv"
        assert main(["simulate", "--export-corpus", str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 62

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EPISTEMIC_LEDGER_SEED", "123")
        assert main(["simulate"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("EPISTEMIC_LEDGER_SEED")
        assert main(["simulate", "--seed", "123"]) == 0
        assert capsys.readouterr().out == with_env

    def test_bad_scenario_diagnostic(self, tmp_path, capsys):
        path = write(tmp_path, "broken.scenario", "seed = 1\n???\n")
        assert main(["simulate", "--scenario", path]) == 1
        assert f"{path}:2" in capsys.readouterr().err


class TestSweep:
    def test_sensitivity_flags_crossover(self, capsys):
        assert main(["sweep", "sensitivity", "--eps-grid", "0:0.5:0.01"]) == 0
        out = capsys.readouterr().out
        crossed = [line for line in out.strip().split("\n") if line.endswith(",true")]
        assert len(crossed) == 1
        assert crossed[0].startswith("0.1600,")

    def test_scalability_columns(self, capsys):
        assert main(["sweep", "scalability", "--sizes", "60,500,1000"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "corpus_size,legacy_cost,modern_cost"
        assert len(lines) == 4

    def test_scalability_size_below_ground_truth(self, capsys):
        assert main(["sweep", "scalability", "--sizes", "5,60"]) == 1
        assert "corpus size 5 is below the 8 ground-truth documents required" in (
            capsys.readouterr().err
        )

    def test_montecarlo_summary(self, capsys):
        assert main(["sweep", "montecarlo", "--runs", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("company,task,doctrine,runs,min")
        assert len(lines) == 9

    @pytest.mark.parametrize("grid, last", [("0:0.5:0.3", "0.3000"), ("0:1:0.6", "0.6000")])
    def test_grid_ends_at_stop(self, grid, last, capsys):
        assert main(["sweep", "sensitivity", "--eps-grid", grid]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0000", last]

    def test_bad_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "sensitivity", "--eps-grid", "0:2:0.1"])
        assert exc.value.code == 2


class TestPipelinesCsv:
    def test_joint_error_column(self, tmp_path):
        text = (
            "id,kind,expected_cost,eps_ret,eps_gen,eps_ver,joint_error\n"
            "joint,full,1.0,0.5,0.5,0.5,0.123\n"
        )
        (pipeline,) = read_pipelines_csv(write(tmp_path, "joint.csv", text))
        assert pipeline.total_error() == 0.123

    def test_missing_column_rejected(self, tmp_path):
        text = "id,kind,expected_cost\nx,full,1.0\n"
        with pytest.raises(InputError, match="missing column"):
            read_pipelines_csv(write(tmp_path, "cols.csv", text))

    def test_unknown_kind_names_line(self, tmp_path):
        text = PIPELINES_CSV + "weird,quantum,1,0,0,0\n"
        with pytest.raises(InputError, match=":4"):
            read_pipelines_csv(write(tmp_path, "kind.csv", text))
