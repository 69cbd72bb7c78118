"""End-to-end tests for the command-line interface and file schemas."""

import csv
import hashlib
import io
import math
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic_ledger import artifacts, cli, doctrine, metrics
from epistemic_ledger.artifacts import (
    InputError,
    certificate_to_text,
    csv_text,
    read_certificate,
    read_eval_records_csv,
    read_executions_csv,
    read_pipelines_csv,
    read_propositions_csv,
)
from epistemic_ledger.cli import main
from epistemic_ledger.metrics import COMPONENTS, PipelineKind, PipelineSpec
from epistemic_ledger.validation import BoundMethod, LossRecord, certify, check_timestamp

from test_golden import GOLDEN, LEDGER_PROPOSITIONS, _ledger_argv
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


def pin(out):
    """The golden-pin digest of a command's stdout."""
    return hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]


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

    @pytest.mark.parametrize("delta", [2.0**-54, 1e-17, 1e-300, 5e-324], ids=repr)
    def test_wilson_takes_a_delta_below_the_rounding_of_one_minus_delta(self, tmp_path, delta):
        # 1 - delta rounds to 1 for each of these, but the range rule accepts them.
        records = write(
            tmp_path, "records.csv", "component,loss\nretrieval,0\nretrieval,1\ngeneration,0\nverification,0\n"
        )
        out = tmp_path / "w.cert"
        argv = ["certify", records, "--pipeline-id", "p", "--cost", "1", "--method", "wilson",
                "--delta", repr(delta), "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(out)]
        assert main(argv) == 0
        cert = read_certificate(out)
        assert cert.delta == delta
        assert 0.98 < cert.bounds[1].upper < 1.0
        assert certificate_to_text(cert) == out.read_text()

    def test_hoeffding_takes_a_delta_whose_inverse_overflows(self, tmp_path, capsys):
        # 1 / 1e-310 is inf; each bound is sqrt(-ln(1e-310) / 2000), not the clamp at 1.
        out = tmp_path / "h.cert"
        argv = ["certify", records_csv(tmp_path), "--pipeline-id", "p", "--cost", "1", "--method", "hoeffding",
                "--delta", "1e-310", "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("s_lb = 0.0593\n")
        cert = read_certificate(out)
        assert cert.delta == 1e-310
        assert [b.upper for b in cert.bounds] == [pytest.approx(0.5974, abs=1e-4)] * 3
        assert "ret_upper = 0.597411658250889\n" in out.read_text()
        assert certificate_to_text(cert) == out.read_text()

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


def _reference_sets(text):
    """Each component's losses in file order, parsed one dict per row."""
    sets = {}
    for row in csv.DictReader(io.StringIO(text)):
        sets.setdefault(row["component"].strip(), []).append(float(row["loss"]))
    return sets


def _certificate_or_error(sets, method):
    pipeline = PipelineSpec(id="pi", kind=PipelineKind.FULL, expected_cost=2.06)
    try:
        cert = certify(pipeline, sets, measured_cost=2.06, delta=0.05, method=method,
                       timestamp="2026-01-01T00:00:00+00:00")
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return certificate_to_text(cert)


_LOSS_TEXT = st.one_of(
    st.sampled_from(["0", "1", "0.0", "1.0", " 1", "0 "]),  # 0/1 losses, repeated
    st.sampled_from(["0.25", "0.5", "0.125"]),  # graded losses, repeated
    st.floats(min_value=0.0, max_value=1.0).map(repr),  # graded losses, mostly distinct
)
_CELL = st.text(alphabet="ab ,\"\n", max_size=4)


class TestEvalRecords:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from(COMPONENTS), _LOSS_TEXT, _CELL, _CELL), max_size=40),
        extra=st.sampled_from([(), ("predicted", "actual"), ("actual",)]),
        order=st.randoms(use_true_random=False),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_losses_match_a_dict_reader_parse(self, tmp_path_factory, rows, extra, order, newline):
        rows = rows + [(c, "0", "", "") for c in COMPONENTS]  # every component certify needs
        columns = ["component", "loss", *extra]
        order.shuffle(columns)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=newline)
        writer.writerow(columns)
        for component, loss, predicted, actual in rows:
            cells = {"component": component, "loss": loss, "predicted": predicted, "actual": actual}
            writer.writerow([cells[c] for c in columns])
        text = buffer.getvalue()
        path = tmp_path_factory.mktemp("records") / "records.csv"
        path.write_bytes(text.encode("utf-8"))

        read = read_eval_records_csv(path)
        reference = _reference_sets(text)
        assert {c: [r.loss for r in records] for c, records in read.items()} == reference
        as_records = {c: [LossRecord("", "", x) for x in xs] for c, xs in reference.items()}
        for method in BoundMethod:
            assert _certificate_or_error(read, method) == _certificate_or_error(as_records, method)


_MODERN_CERT = certify(
    PipelineSpec(id="modern_actual", kind=PipelineKind.FULL, expected_cost=2.06),
    {c: loss_records([0.0, 1.0, 0.0, 0.0]) for c in COMPONENTS},
    measured_cost=2.06, delta=0.05, method=BoundMethod.WILSON, timestamp="2026-01-01T00:00:00+00:00",
)


def _reference_executions(text, path, known, pipelines):
    """Each executions row parsed one dict at a time, or the first bad row's ``path:line: message``."""
    records = []
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        where = f"{path}:{reader.line_num}: "  # every generated row is one line
        prop_id = row["proposition_id"].strip()
        if prop_id not in known:
            return where + f"execution references unknown proposition {prop_id!r}"
        executed = row["executed"].strip().lower()
        if executed not in ("true", "false"):
            return where + f"column 'executed' must be true or false, got {row['executed']!r}"
        outcome = row["outcome"].strip()
        if outcome and outcome not in [v.value for v in doctrine.Verdict]:
            return where + f"unknown outcome {outcome!r}"
        evidence = row["avoidance_evidence"].strip() or "none"
        if evidence not in [v.value for v in doctrine.AvoidanceEvidence]:
            return where + f"unknown avoidance evidence {evidence!r}"
        pipeline_id = row["pipeline_id"].strip()
        if pipeline_id not in pipelines:
            return where + f"execution references unknown pipeline {pipeline_id!r}"
        cert = row["certificate"].strip()
        if cert and pipeline_id != _MODERN_CERT.pipeline_id:
            return where + f"certificate {cert} is for pipeline 'modern_actual', not {pipeline_id!r}"
        timestamp = (row.get("timestamp") or "").strip()
        try:
            if timestamp:
                check_timestamp(timestamp)
            records.append(
                doctrine.ExecutionRecord(
                    pipeline_id=pipeline_id,
                    proposition_id=prop_id,
                    executed=executed == "true",
                    certificate=_MODERN_CERT if cert else None,
                    outcome=doctrine.Verdict(outcome) if outcome else None,
                    avoidance_evidence=doctrine.AvoidanceEvidence(evidence),
                    timestamp=timestamp,
                )
            )
        except ValueError as exc:
            return where + str(exc)
    return records


def _execution_row(prop, pipeline, executed, outcome, evidence, cert, timestamp):
    return dict(
        proposition_id=prop, pipeline_id=pipeline, executed=executed, outcome=outcome,
        avoidance_evidence=evidence, certificate=cert, timestamp=timestamp,
    )


# Repeated and padded cells that read cleanly; an unexecuted row has no
# outcome, and only modern_actual's rows name its certificate.
_GOOD_EXECUTION_ROW = st.builds(
    lambda prop, pipeline, executed, outcome, evidence, cert, timestamp: _execution_row(
        prop, pipeline, executed, outcome if executed.strip().lower() == "true" else "", evidence,
        cert if "modern" in pipeline else "", timestamp,
    ),
    st.sampled_from(["bid_independence", " bid_independence ", "other"]),
    st.sampled_from(["modern_actual", " modern_actual", "legacy_actual "]),
    st.sampled_from(["true", "false", " TRUE ", "False"]),
    st.sampled_from(["", "established", " refuted ", "inconclusive"]),
    st.sampled_from(["", "none", " none ", "suppressed_query", " disabled_index"]),
    st.sampled_from(["", "m.cert", " m.cert "]),
    st.sampled_from(["", "2026-01-01T00:00:00+00:00", " 2026-01-02 "]),
)
# Mostly good cells with one bad value each, so that every check can be the one that fails.
_ANY_EXECUTION_ROW = st.builds(
    _execution_row,
    st.sampled_from(["bid_independence"] * 3 + ["ghost"]),
    st.sampled_from(["modern_actual", "legacy_actual", "legacy_actual", "ghost"]),
    st.sampled_from(["true", "false", "false", "yes"]),
    st.sampled_from(["", "established", "established", "Refuted"]),
    st.sampled_from(["", "none", "none", "shredded"]),
    st.sampled_from(["", "m.cert"]),
    st.sampled_from(["", "", "", "yesterday"]),
)


class TestExecutions:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(_GOOD_EXECUTION_ROW, max_size=30),
        odd=st.lists(st.tuples(st.integers(min_value=0), _ANY_EXECUTION_ROW), max_size=2),
        timestamp=st.booleans(),
        order=st.randoms(use_true_random=False),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_records_match_a_dict_reader_parse(self, tmp_path_factory, rows, odd, timestamp, order, newline):
        rows = list(rows)
        for position, row in odd:
            rows.insert(position % (len(rows) + 1), row)
        columns = [
            "proposition_id", "pipeline_id", "executed", "outcome", "avoidance_evidence", "certificate",
        ] + ["timestamp"] * timestamp
        order.shuffle(columns)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=newline)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        text = buffer.getvalue()
        directory = tmp_path_factory.mktemp("executions")
        (directory / "m.cert").write_text(certificate_to_text(_MODERN_CERT))
        path = directory / "executions.csv"
        path.write_bytes(text.encode("utf-8"))
        known = {"bid_independence", "other"}
        pipelines = {p.id: p for p in read_pipelines_csv(write(directory, "pipelines.csv", PIPELINES_CSV))}

        try:
            read = read_executions_csv(path, known, pipelines)
        except InputError as exc:
            read = str(exc)
        assert read == _reference_executions(text, path, known, pipelines)


def _finite(text, key):
    """``text`` as a finite float, as the CSV readers read a number cell."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be a finite number, got {text!r}")
    return value


def _unique(kind, id_, first_line, line):
    """``id_``, which must be one line and not in ``first_line``, recorded there at ``line``."""
    if len(id_.splitlines()) > 1:
        raise ValueError(f"{kind} id {id_!r} holds a line break")
    if id_ in first_line:
        raise ValueError(f"duplicate {kind} id {id_!r} (first at line {first_line[id_]})")
    first_line[id_] = line
    return id_


def _dict_reader_parse(text, path, parse):
    """Each row parsed one dict at a time by ``parse(row, line)``, ``line`` being where the
    row starts; or, for the first row whose ``parse`` raises a ValueError, ``path:line: message``."""
    parsed = []
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames  # reads the header row
    start = reader.line_num + 1
    for row in reader:
        try:
            parsed.append(parse(row, start))
        except ValueError as exc:
            return f"{path}:{start}: {exc}"
        start = reader.line_num + 1
    return parsed


def _reference_pipelines(text, path):
    first_line = {}

    def parse(row, line):
        pipeline_id = _unique("pipeline", row["id"].strip(), first_line, line)
        kind = row["kind"].strip()
        if kind not in [k.value for k in PipelineKind]:
            raise ValueError(f"unknown pipeline kind {kind!r}")
        if re.search(r"[\s;:=]", pipeline_id):
            raise ValueError(f"pipeline id {pipeline_id!r} holds whitespace, ';', ':' or '='")
        cost = _finite(row["expected_cost"], "expected_cost")
        errors = metrics.ComponentErrors(*(_finite(row[key], key) for key in ("eps_ret", "eps_gen", "eps_ver")))
        joint = (row.get("joint_error") or "").strip()
        joint_error = _finite(joint, "joint_error") if joint else None
        return PipelineSpec(pipeline_id, PipelineKind(kind), cost, errors, joint_error)

    return _dict_reader_parse(text, path, parse)


def _reference_docket(text, path, pipelines):
    first_line = {}
    total = 0.0

    def parse(row, line):
        nonlocal total
        prop_id = _unique("proposition", row["id"].strip(), first_line, line)
        description = row["description"].strip()
        if len(description.splitlines()) > 1:
            raise ValueError(f"description {description!r} holds a line break")
        weight = _finite(row["weight"], "weight")
        prop = metrics.Proposition(prop_id, description, weight, _finite(row["threshold"], "threshold"))
        total += weight
        if not math.isfinite(total):
            raise ValueError(f"salience weight total must be >= 0, got {total}")
        listed = [p.strip() for p in row["pipelines"].split(";") if p.strip()]
        unknown = [p for p in listed if p not in pipelines]
        if unknown:
            raise ValueError(f"proposition {prop_id!r} references unknown pipeline(s): {', '.join(unknown)}")
        return prop, tuple(pipelines[p] for p in listed)

    parsed = _dict_reader_parse(text, path, parse)
    if isinstance(parsed, str):
        return parsed
    return metrics.Docket(tuple(p for p, _ in parsed), {p.id: specs for p, specs in parsed})


def _csv_file(directory, name, columns, rows, order, newline):
    """``rows`` (dicts) written under ``columns`` in a shuffled order; the file's path and text."""
    columns = list(columns)
    order.shuffle(columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    path = directory / name
    path.write_bytes(buffer.getvalue().encode("utf-8"))
    return path, buffer.getvalue()


def _with_odd_rows(good, odd, id_format):
    """The ``good`` rows, each given a unique padded id, with the ``odd`` rows inserted."""
    rows = [{**row, "id": id_format.format(i=i, pad=" " * (i % 2))} for i, row in enumerate(good)]
    for position, row in odd:
        rows.insert(position % (len(rows) + 1), row)
    return rows


def _pipeline_row(kind, cost, eps_ret, eps_gen, eps_ver, joint, id_="p"):
    return dict(id=id_, kind=kind, expected_cost=cost, eps_ret=eps_ret, eps_gen=eps_gen, eps_ver=eps_ver,
                joint_error=joint)


# Padded cells that read cleanly; a retrieval_only pipeline has no generation error.
_GOOD_PIPELINE_ROW = st.builds(
    lambda kind, cost, eps_ret, eps_gen, eps_ver, joint: _pipeline_row(
        kind, cost, eps_ret, "0" if "retrieval_only" in kind else eps_gen, eps_ver, joint
    ),
    st.sampled_from(["full", " retrieval_only", "retrieval_generation ", "full"]),
    st.sampled_from(["1.0", " 0", "2.06 ", "1e3"]),
    st.sampled_from(["0", "0.25", " 0.0"]),
    st.sampled_from(["0.1", "0", " 0.2"]),
    st.sampled_from(["0", "0.5 "]),
    st.sampled_from(["", "0.123", " 1"]),
)
# Mostly good cells, and often two bad ones in a row, so every check can be the one that fails first.
_ANY_PIPELINE_ROW = st.builds(
    _pipeline_row,
    st.sampled_from(["full", "full", "retrieval_only", "quantum", " Full"]),
    st.sampled_from(["1.0", "1.0", "-1", "x", "inf"]),
    st.sampled_from(["0", "0", "1.5", "nan"]),
    st.sampled_from(["0", "0", "0.5", "y"]),
    st.sampled_from(["0", "0", "-0.5", ""]),
    st.sampled_from(["", "", "0.1", "2", "z"]),
    st.sampled_from(["q", "p0", "a b", "a:b", "x\ny"]),
)


def _proposition_row(description, weight, threshold, listed, id_="q"):
    return dict(id=id_, description=description, weight=weight, threshold=threshold, pipelines=listed)


_GOOD_PROPOSITION_ROW = st.builds(  # an id is given by the test
    _proposition_row,
    st.sampled_from(["d", " a, b ", ""]),
    st.sampled_from(["1.0", " 0.5", "0", "2"]),
    st.sampled_from(["0.7", "0.5 ", "0.99"]),
    st.sampled_from(["legacy_actual", " modern_actual ;legacy_actual", "", ";"]),
)
_ANY_PROPOSITION_ROW = st.builds(
    _proposition_row,
    st.sampled_from(["d", "d", "two\nlines"]),
    st.sampled_from(["1", "1", "x", "-1", "1e308"]),
    st.sampled_from(["0.7", "0.7", "y", "1.5"]),
    st.sampled_from(["legacy_actual", "legacy_actual", "ghost", "modern_actual;ghost"]),
    st.sampled_from(["q", "q", "q0", "x\ny"]),
)


class TestPropositions:
    @settings(max_examples=200, deadline=None)
    @given(
        good=st.lists(_GOOD_PROPOSITION_ROW, max_size=20),
        odd=st.lists(st.tuples(st.integers(min_value=0), _ANY_PROPOSITION_ROW), max_size=3),
        order=st.randoms(use_true_random=False),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_docket_matches_a_dict_reader_parse(self, tmp_path_factory, good, odd, order, newline):
        columns = ["id", "description", "weight", "threshold", "pipelines"]
        rows = _with_odd_rows(good, odd, "q{i}{pad}")
        path, text = _csv_file(tmp_path_factory.mktemp("propositions"), "props.csv", columns, rows, order, newline)
        pipelines = {p.id: p for p in read_pipelines_csv(write(path.parent, "pipelines.csv", PIPELINES_CSV))}
        try:
            read = read_propositions_csv(path, pipelines)
        except InputError as exc:
            read = str(exc)
        assert read == _reference_docket(text, path, pipelines)


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

    def test_row_may_stop_before_its_timestamp_cell(self, tmp_path, capsys):
        records = records_csv(tmp_path)
        main(
            ["certify", records, "--pipeline-id", "modern_actual", "--cost", "2.06",
             "--timestamp", "2026-01-01T00:00:00+00:00", "--out", str(tmp_path / "m.cert")]
        )
        capsys.readouterr()
        reports = []
        for row in ("bid_independence,modern_actual,true,established,none,m.cert,\n",
                    "bid_independence,modern_actual,true,established,none,m.cert\n"):
            executions = (
                "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
                + row
            )
            assert main(self._inputs(tmp_path, executions)) == 0
            out = capsys.readouterr().out
            reports.append([line for line in out.splitlines() if not line.startswith("inputs_hash")])
        assert "primary = actual_knowledge" in reports[0]
        assert reports[1] == reports[0]

    def test_each_pipeline_is_scored_once(self, tmp_path, capsys, monkeypatch):
        argv = _ledger_argv(tmp_path, capsys)["classify"]
        calls = {"pipeline_score": [], "org_score": []}
        # cli calls pipeline_score through metrics; org_score is patched wherever it is bound.
        for module, name in (
            (metrics, "pipeline_score"), (cli, "org_score"), (doctrine, "org_score"), (metrics, "org_score"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real, name=name: calls[name].append(args) or real(*args)
            )
        assert main(argv) == 0
        # One call per row of the golden pipelines file, and every org score is the max of these.
        scored = [pipeline.id for pipeline, _ in calls["pipeline_score"]]
        assert scored == ["legacy_actual", "modern_actual", "cheap_check", "weak_full"]
        assert calls["org_score"] == []

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

    def test_unreadable_certificate_names_its_row(self, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        executions = (
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
            "bid_independence,modern_actual,true,established,none,adir,\n"
        )
        argv = self._inputs(tmp_path, executions)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[-1]}:2: cannot read certificate adir: Is a directory\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_proposition_rows_give_the_same_blocks(self, seed, tmp_path, capsys):
        argv = _ledger_argv(tmp_path, capsys)["classify"]
        assert main(argv) == 0
        before = capsys.readouterr().out.split("\n\n")
        header, *rows = LEDGER_PROPOSITIONS.splitlines(keepends=True)
        shuffled = random.Random(seed).sample(rows, len(rows))
        assert shuffled != rows
        (tmp_path / "props.csv").write_text(header + "".join(shuffled), encoding="utf-8")
        assert main(argv) == 0
        after = capsys.readouterr().out.split("\n\n")
        # The header's inputs_hash hashes the file's bytes, so only it may move;
        # the [capacity] block, printed at 4 decimals, is the last block.
        assert set(after[1:]) == set(before[1:]) and after[-1] == before[-1]
        assert after[-1].startswith("[capacity]\npoint = 0.")

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

    def test_summary_of_tasks_weighted_0_has_no_capacity(self, tmp_path, capsys):
        # As classify's [capacity] point reads none for a docket whose weights are all 0.
        appendix_a = resources.files("epistemic_ledger.simlab").joinpath("data", "appendix_a.scenario")
        path = write(tmp_path, "zero.scenario", appendix_a.read_text().replace("weight = 1.0", "weight = 0"))
        assert main(["simulate", "--scenario", path, "--summary"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("\ncompany,capacity,theta\nlegacy,none,0.7000\nmodern,none,0.7000\n")
        assert captured.err == ""

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

    def test_directory_named_as_the_packaged_scenario_is_not_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        (tmp_path / "appendix_a").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--summary"]) == 0
        assert pin(capsys.readouterr().out) == GOLDEN["simulate", "--summary"]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sensitivity", "--eps-grid", "0:1"], "expected START:STOP:STEP, e.g. 0:0.5:0.01"),
            (["scalability", "--sizes", "100,60"], "sizes must be non-empty and ascending"),
        ],
    )
    def test_malformed_grid_or_sizes_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"{argv[1]}: {message}\n")

    def test_sensitivity_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "sensitivity", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_sensitivity_ignores_the_seed_variable(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "abc")
        assert main(["sweep", "sensitivity"]) == 0
        assert pin(capsys.readouterr().out) == GOLDEN["sweep", "sensitivity"]


class TestParserReuse:
    """Every main() call in a process parses with one parser, so no call may leave state behind."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_classify_seed_is_not_carried_over(self, tmp_path, capsys):
        argv = _ledger_argv(tmp_path, capsys)["classify"]
        assert argv[-2:] == ["--seed", "3"]
        assert main(argv) == 0
        assert "\nseed = 3\n" in capsys.readouterr().out
        assert main(argv[:-2]) == 0
        assert "\nseed = none\n" in capsys.readouterr().out

    def test_montecarlo_runs_are_not_carried_over(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        assert main(["sweep", "montecarlo", "--runs", "2"]) == 0
        capsys.readouterr()
        assert main(["sweep", "montecarlo"]) == 0
        assert pin(capsys.readouterr().out) == GOLDEN["sweep", "montecarlo"]

    def test_usage_error_leaves_nothing_behind(self, capsys, monkeypatch):
        # --runs parses before --jitter fails, so a leak would change the next run count.
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "montecarlo", "--runs", "2", "--jitter", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["sweep", "montecarlo"]) == 0
        assert pin(capsys.readouterr().out) == GOLDEN["sweep", "montecarlo"]

    def test_same_call_twice_same_bytes(self, capsys):
        for _ in range(2):
            assert main(["sweep", "sensitivity"]) == 0
            assert pin(capsys.readouterr().out) == GOLDEN["sweep", "sensitivity"]


class TestEntryPoints:
    def test_module_prints_version(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "epistemic_ledger", "--version"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "epistemic-ledger 0.1.0\n"

    @pytest.mark.parametrize(
        "command",
        ["", "score", "certify", "classify", "simulate", "sweep", "sweep sensitivity",
         "sweep scalability", "sweep montecarlo"],
    )
    def test_help_exits_zero_with_the_same_text_each_call(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*command.split(), "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith(f"usage: epistemic-ledger {command}".rstrip())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "argv, choices",
        [([], "{score,certify,classify,simulate,sweep}"), (["sweep"], "{sensitivity,scalability,montecarlo}")],
        ids=["top-level", "sweep"],
    )
    def test_missing_subcommand_names_its_choices(self, argv, choices, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: the following arguments are required: {choices}\n")
        assert "Traceback" not in err


class TestPipelinesCsv:
    @settings(max_examples=200, deadline=None)
    @given(
        good=st.lists(_GOOD_PIPELINE_ROW, max_size=20),
        odd=st.lists(st.tuples(st.integers(min_value=0), _ANY_PIPELINE_ROW), max_size=3),
        joint=st.booleans(),
        order=st.randoms(use_true_random=False),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_pipelines_match_a_dict_reader_parse(self, tmp_path_factory, good, odd, joint, order, newline):
        columns = ["id", "kind", "expected_cost", "eps_ret", "eps_gen", "eps_ver"] + ["joint_error"] * joint
        rows = _with_odd_rows(good, odd, "{pad}p{i}")
        directory = tmp_path_factory.mktemp("pipelines")
        path, text = _csv_file(directory, "pipelines.csv", columns, rows, order, newline)
        try:
            read = read_pipelines_csv(path)
        except InputError as exc:
            read = str(exc)
        assert read == _reference_pipelines(text, path)

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
