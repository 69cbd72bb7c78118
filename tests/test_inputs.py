"""Malformed input files and flags: every one exits with a file:line diagnostic."""

from dataclasses import replace
from importlib import resources

import pytest

from epistemic_ledger.artifacts import (
    InputError,
    certificate_to_text,
    policy_hash,
    read_certificate,
    read_executions_csv,
    read_pipelines_csv,
)
from epistemic_ledger.cli import ENV_SEED, main
from epistemic_ledger.doctrine import AvoidanceEvidence, Verdict
from epistemic_ledger.metrics import PipelineKind, PipelineSpec, PolicyParams
from epistemic_ledger.simlab import SimScenario, default_scenario, parse_scenario
from epistemic_ledger.validation import (
    BoundMethod,
    ConfidenceBound,
    ValidationCertificate,
    certify,
    confidence_bound,
)

from test_cli import PIPELINES_CSV, PROPOSITIONS_CSV, records_csv, write
from test_golden import POOR_RECORDS
from test_validation import loss_records, make_cert

APPENDIX_A = (
    resources.files("epistemic_ledger.simlab").joinpath("data", "appendix_a.scenario").read_text()
)

NINES = "9" * 400  # an integer beyond float range

MINIMAL_TASK = (
    "[task.t1]\nproposition = p\ntruth = established\nkeywords = k\n"
    "concept_query = q\nground_truth = literal\nliteral_phrases = k\n"
)


def certificate_text() -> str:
    pipeline = PipelineSpec(id="pi", kind=PipelineKind.FULL, expected_cost=2.06)
    sets = {
        slot: loss_records([0.0, 1.0, 0.0, 0.0])
        for slot in ("retrieval", "generation", "verification")
    }
    cert = certify(
        pipeline, sets, measured_cost=2.06, delta=0.05,
        method=BoundMethod.WILSON, timestamp="2026-01-01T00:00:00+00:00",
    )
    return certificate_to_text(cert)


def line_of(text: str, prefix: str) -> int:
    return next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(prefix))


def replace_line(text: str, prefix: str, new: str) -> str:
    return "\n".join(new if line.startswith(prefix) else line for line in text.splitlines()) + "\n"


def score_with_policy(tmp_path, capsys, policy_text: str) -> tuple[int, str, str]:
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    policy = write(tmp_path, "policy.txt", policy_text)
    code = main(["score", pipelines, "--policy", policy])
    return code, policy, capsys.readouterr().err


class TestDuplicateKeys:
    def test_policy_file(self, tmp_path, capsys):
        code, policy, err = score_with_policy(tmp_path, capsys, "theta_c = 0.8\ntheta_c = 0.9\n")
        assert code == 1
        assert f"{policy}:2: duplicate key 'theta_c'" in err

    def test_certificate(self, tmp_path):
        text = certificate_text()
        dup_line = text.count("\n") + 1
        path = write(tmp_path, "dup.cert", text + "delta = 0.05\n")
        with pytest.raises(InputError, match=rf"dup\.cert:{dup_line}: duplicate key 'delta'"):
            read_certificate(path)


def test_section_header_in_policy_file(tmp_path, capsys):
    code, policy, err = score_with_policy(tmp_path, capsys, "tau_star = 5.0\n[policy]\n")
    assert code == 1
    assert f"{policy}:2:" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("theta_c = 0.7\r\ntau_star = x\r\n", 2),
        # str.splitlines() would also break at these, unlike editors.
        ("theta_c = 0.7\x0c\ntau_star = x\n", 2),
        ("theta_c = 0.7\u2028tau_star = 5\n", 1),  # one line: theta_c's value is not a number
    ],
    ids=["crlf", "form-feed", "line-separator"],
)
def test_lines_end_at_newline_only(tmp_path, capsys, text, line):
    code, policy, err = score_with_policy(tmp_path, capsys, text)
    assert code == 1
    assert err.startswith(f"error: {policy}:{line}: ")


def test_unknown_key_in_scenario_policy_section():
    text = APPENDIX_A.replace("theta_neg = 0.7", "theta_neg = 0.7\nmystery = 1")
    with pytest.raises(InputError, match=rf"s\.scenario:{line_of(text, 'mystery')}: unknown"):
        parse_scenario(text, "s.scenario")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
class TestNonFiniteNumbers:
    def test_policy_file(self, tmp_path, capsys, value):
        text = f"theta_c = 0.7\ntau_star = {value}\n"
        code, policy, err = score_with_policy(tmp_path, capsys, text)
        assert code == 1
        assert f"{policy}:2:" in err and "finite" in err

    def test_scenario(self, value):
        text = APPENDIX_A.replace("tau_star = 10.0", f"tau_star = {value}")
        with pytest.raises(InputError, match=rf":{line_of(text, 'tau_star')}: .*finite"):
            parse_scenario(text, "s.scenario")

    def test_certificate(self, tmp_path, value):
        text = replace_line(certificate_text(), "measured_cost", f"measured_cost = {value}")
        path = write(tmp_path, "c.cert", text)
        with pytest.raises(InputError, match=rf":{line_of(text, 'measured_cost')}: .*finite"):
            read_certificate(path)

    def test_csv_cell(self, tmp_path, value):
        path = write(tmp_path, "p.csv", PIPELINES_CSV + f"x,full,{value},0,0,0\n")
        with pytest.raises(InputError, match=r":4: 'expected_cost' must be a finite number"):
            read_pipelines_csv(path)


def test_certificate_sample_size_must_be_integer(tmp_path):
    text = replace_line(certificate_text(), "ret_n", "ret_n = 3.7")
    path = write(tmp_path, "n.cert", text)
    with pytest.raises(InputError, match=rf":{line_of(text, 'ret_n')}: 'ret_n' must be an integer"):
        read_certificate(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("measured_cost", "-1.0"),
        ("delta", "1.5"),
        ("ret_point", "1.5"),
        ("ret_point", "0.3"),  # a wilson point is k/n: 0.3 is no count of 4
        ("ret_delta", "1.5"),
        ("ret_n", "-1"),
    ],
)
def test_certificate_number_out_of_range_names_its_line(tmp_path, key, value):
    text = replace_line(certificate_text(), f"{key} =", f"{key} = {value}")
    with pytest.raises(InputError, match=rf"r\.cert:{line_of(text, f'{key} =')}: "):
        read_certificate(write(tmp_path, "r.cert", text))


def test_unknown_certificate_key_names_its_line(tmp_path):
    text = certificate_text() + "ret_uper = 0.0\n"
    match = rf"u\.cert:{text.count(chr(10))}: unknown certificate key 'ret_uper'"
    with pytest.raises(InputError, match=match):
        read_certificate(write(tmp_path, "u.cert", text))


@pytest.mark.parametrize(
    "edits",
    [
        {"total_upper": "0.9548180756357"},  # within the 1e-9 that was once forgiven
        {"ret_upper": "0.5"},
        # Hand-tightened: total_upper = series_error(0.5, gen_upper, ver_upper) agrees with it.
        {"total_upper": "0.9365721748254872", "ret_upper": "0.5"},
        {"ver_upper": "0.7"},
        {"ret_delta": "0.9"},
        {"gen_synthetic": "true"},
        {"sample_sizes": "1,2,3"},
        {"union_delta": "0"},
    ],
    ids=lambda edits: "+".join(edits),
)
def test_certificate_derived_key_must_match_its_evidence(tmp_path, edits):
    text = certificate_text()
    for key, value in edits.items():
        text = replace_line(text, f"{key} =", f"{key} = {value}")
    key = next(iter(edits))  # the first edited line in the file
    match = rf"d\.cert:{line_of(text, f'{key} =')}: {key} = .* does not match its evidence"
    with pytest.raises(InputError, match=match):
        read_certificate(write(tmp_path, "d.cert", text))


def test_certificate_writer_refuses_what_the_reader_rejects():
    # make_cert's bounds are not what their evidence gives: read back, it would fail.
    with pytest.raises(ValueError, match=r":5: total_upper = 0\.050000000000000044 does not match"):
        certificate_to_text(make_cert(0.05, 2.06))
    # Synthetic bounds at delta 0.1 under a certificate at delta 0.05: only ret_delta and on differ.
    zero = ConfidenceBound(0.0, 0.0, BoundMethod.WILSON, 0.1, 0)
    cert = ValidationCertificate("pi", 2.06, (zero, zero, zero), 0.05, "holdout", "2026-01-01")
    with pytest.raises(ValueError, match=r"ret_delta = 0\.1 does not match its evidence, which gives 0\.05"):
        certificate_to_text(cert)


@pytest.mark.parametrize(
    "field, value", [("fold_strategy", " holdout "), ("timestamp", "2026-01-01 "), ("pipeline_id", " pi")]
)
def test_certificate_writer_refuses_what_reads_back_changed(tmp_path, field, value):
    cert = replace(read_certificate(write(tmp_path, "c.cert", certificate_text())), **{field: value})
    stripped = value.strip()
    with pytest.raises(ValueError, match=rf"certificate {field} '{value}' reads back as '{stripped}'"):
        certificate_to_text(cert)


class TestMissingKeyNamesALine:
    def test_certificate(self, tmp_path):
        lines = certificate_text().splitlines()
        text = "".join(line + "\n" for line in lines if not line.startswith("ret_upper"))
        with pytest.raises(InputError, match=r"miss\.cert:1: missing key 'ret_upper'"):
            read_certificate(write(tmp_path, "miss.cert", text))

    def test_scenario_task_section(self):
        text = "seed = 1\n\n[task.t1]\nproposition = p\n"
        match = r"t\.scenario:3: missing key 'truth' in \[task\.t1\]"
        with pytest.raises(InputError, match=match):
            parse_scenario(text, "t.scenario")


def test_absent_scenario_keys_keep_dataclass_defaults():
    scenario = parse_scenario(MINIMAL_TASK, "minimal.scenario")
    assert scenario == SimScenario(tasks=scenario.tasks)
    (task,) = scenario.tasks
    assert (task.doctrine, task.weight, task.threshold) == ("t1", 1.0, 0.7)


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "{pipelines}", "--tau-star", "inf"],
        ["score", "{pipelines}", "--theta", "nan"],
        ["certify", "{pipelines}", "--pipeline-id", "p", "--cost", "inf"],
        ["sweep", "montecarlo", "--jitter", "nan"],
        ["sweep", "montecarlo", "--runs", "0"],
        ["simulate", "--seed", NINES],
        ["sweep", "montecarlo", "--runs", NINES],
        ["sweep", "sensitivity", "--eps-grid", "0:0.5:inf"],
        ["sweep", "sensitivity", "--eps-grid", "0:0.5:nan"],
        ["sweep", "sensitivity", "--eps-grid", "0:2:0.1"],
        # Grids of more than MAX_GRID_POINTS points: about 1e300, and one whose
        # step count is inf.
        ["sweep", "sensitivity", "--eps-grid", "0:1:1e-300"],
        ["sweep", "sensitivity", "--eps-grid", "0:1:5e-324"],
        ["sweep", "scalability", "--sizes=-5"],
    ],
)
def test_non_finite_or_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    with pytest.raises(SystemExit) as exc:
        main([a.format(pipelines=pipelines) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse's own "invalid <type> value" would mean a type leaked a ValueError.
    assert "invalid" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["sweep", "montecarlo", "--seed", "-3"],
        ["classify", "--propositions", "p.csv", "--pipelines", "q.csv", "--seed", "-5"],
    ],
)
def test_negative_seed_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_negative_env_seed_is_usage_error(monkeypatch, capsys):
    for seed in ("-2", NINES):
        monkeypatch.setenv(ENV_SEED, seed)
        for argv in (["simulate"], ["sweep", "scalability"], ["sweep", "montecarlo"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            # The usage and the error are those of the subcommand that read the seed.
            command = " ".join(argv)
            assert err.startswith(f"usage: epistemic-ledger {command} ")
            assert f"epistemic-ledger {command}: error: {ENV_SEED}: expected an integer in [0, inf), got '{seed}'" in err
            assert "Traceback" not in err


def test_negative_scenario_seed_names_its_line(tmp_path, capsys):
    # A seed beyond float range is refused as a range error, as --seed and the
    # seed variable refuse it, not as a non-integer.
    for seed, message in [("-1", "'seed' must be >= 0, got -1"), (NINES, f"'seed' must be >= 0, got {NINES}")]:
        text = replace_line(APPENDIX_A, "seed =", f"seed = {seed}")
        path = write(tmp_path, "negative.scenario", text)
        assert main(["simulate", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line_of(text, 'seed =')}: {message}" in err
        assert "Traceback" not in err


def test_euphemism_phrase_of_two_tasks_is_rejected_at_the_second(tmp_path, capsys):
    # The synonym table maps a phrase to one task's concept query, so a second
    # task listing it would silently take over the first task's expansion.
    start = APPENDIX_A.index("[task.device_tolerance]")
    task = APPENDIX_A[start:].replace("ground_truth = literal", "ground_truth = euphemism")
    task = task.replace("euphemism_phrases =\n", "euphemism_phrases = market harmony\n")
    text = APPENDIX_A[:start] + task
    path = write(tmp_path, "shared.scenario", text)
    assert main(["simulate", "--scenario", path]) == 1
    captured = capsys.readouterr()
    line = text.count("\n", 0, start + task.index("euphemism_phrases")) + 1
    message = "euphemism phrase 'market harmony' is listed by tasks 'regional_pricing' and 'device_tolerance'"
    assert captured.err == f"error: {path}:{line}: {message}\n"
    assert captured.out == ""

    tasks = parse_scenario(APPENDIX_A).tasks
    with pytest.raises(ValueError, match=r"^euphemism phrase 'culture fit filtering' is listed by tasks "):
        SimScenario(tasks + (replace(tasks[1], id="copy"),))


def test_a_task_built_in_code_needs_an_indexable_concept_query():
    # The parser's rule, at construction: embed finds nothing to search by in stopwords alone.
    task = parse_scenario(APPENDIX_A).tasks[0]
    with pytest.raises(ValueError, match=r"^concept_query has no indexable token: 'the of and'$"):
        replace(task, concept_query="the of and")


def test_a_task_id_twice_in_a_scenario_built_in_code_is_rejected():
    # A Monte Carlo cell, a docket row pair and a phrase owner are each keyed by
    # task id, so a second task under one id would pool its runs with the first's.
    # A scenario file cannot get here: its repeated [task.<id>] section is refused first.
    scenario = default_scenario()
    twin = replace(scenario.tasks[1], euphemism_phrases=("quiet alignment",))
    with pytest.raises(ValueError, match=rf"^duplicate task id {scenario.tasks[1].id!r}$"):
        replace(scenario, tasks=scenario.tasks + (twin,))


def test_a_weight_total_past_float_range_in_a_scenario_built_in_code_is_rejected():
    # Each weight is finite; their total is not, and would leave no capacity index.
    scenario = default_scenario()
    heavy = tuple(replace(task, weight=1e308) for task in scenario.tasks)
    with pytest.raises(ValueError, match=r"^salience weight total must be >= 0, got inf$"):
        replace(scenario, tasks=heavy)


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("pol.txt", "tau_star = 5.0\n# the knowledge threshold\ntheta_c = 1.5\n", "theta_c"),
        ("er.scenario", APPENDIX_A.replace("error_rate = 0.0", "error_rate = 1.5"), "error_rate"),
        ("js.scenario", APPENDIX_A.replace("jitter_sigma = 0.02", "jitter_sigma = -1"), "jitter_sigma"),
        ("size.scenario", APPENDIX_A.replace("size = 62", "size = 5"), "size"),
        # A task's weight and threshold are checked with its other keys, at its header.
        ("th.scenario", APPENDIX_A.replace("threshold = 0.7", "threshold = 1.5", 1), "[task."),
        ("w.scenario", APPENDIX_A.replace("weight = 1.0", "weight = -1", 1), "[task."),
    ],
    ids=["policy-theta_c", "error_rate", "jitter_sigma", "corpus-size", "task-threshold", "task-weight"],
)
def test_range_error_names_its_line(tmp_path, capsys, name, text, key):
    path = write(tmp_path, name, text)
    if name.endswith(".scenario"):
        argv = ["simulate", "--scenario", path]
    else:
        argv = ["score", write(tmp_path, "pipelines.csv", PIPELINES_CSV), "--policy", path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:{line_of(text, key)}: ")
    assert captured.out == ""


def test_scenario_range_error_is_the_message_of_the_key_at_its_line():
    # Both keys break a rule alone; the first in the file is named, with its own message.
    text = "[verification]\nerror_rate = 2\n\n[costs]\njitter_sigma = -1\n" + APPENDIX_A[APPENDIX_A.index("[task."):]
    with pytest.raises(InputError) as exc:
        parse_scenario(text, "s.scenario")
    assert str(exc.value) == "s.scenario:2: verifier_error must lie in [0, 1], got 2.0"


def test_scenario_keys_are_judged_together_before_alone():
    # 32 tasks of 2 ground-truth documents need more than the default 62
    # documents; the file's size, read after its seed, provides them.
    tasks = "".join(MINIMAL_TASK.replace("t1", f"t{i}") for i in range(32))
    scenario = parse_scenario("seed = 1\n[corpus]\nsize = 100\n" + tasks, "s.scenario")
    assert (len(scenario.tasks), scenario.corpus_size) == (32, 100)


# The audit report echoes each of these cells on one line of its own, so a
# line break in one could forge report lines such as a second predicate.
FORGED = '"fine\npredicate = false\n[capacity]\npoint = 0.0000"'


@pytest.mark.parametrize(
    "name, before, row, message",
    [
        (
            "pipelines.csv",
            PIPELINES_CSV,
            '"m\nx",full,2.06,0,0,0\n',
            "pipeline id 'm\\nx' holds a line break",
        ),
        (
            "props.csv",
            PROPOSITIONS_CSV,
            '"q\nx",Other,1.0,0.7,modern_actual\n',
            "proposition id 'q\\nx' holds a line break",
        ),
        (
            "props.csv",
            PROPOSITIONS_CSV,
            f"q,{FORGED},1.0,0.7,modern_actual\n",
            "description 'fine\\npredicate = false",
        ),
        (
            "executions.csv",
            "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n",
            'bid_independence,"x\n[capacity]",true,established,none,,\n',
            "pipeline id 'x\\n[capacity]' holds a line break",
        ),
    ],
    ids=["pipeline-id", "proposition-id", "description", "execution-pipeline-id"],
)
def test_line_break_in_echoed_cell_is_rejected(tmp_path, capsys, name, before, row, message):
    files = {"pipelines.csv": PIPELINES_CSV, "props.csv": PROPOSITIONS_CSV, name: before + row}
    paths = {n: write(tmp_path, n, t) for n, t in files.items()}
    argv = ["classify", "--pipelines", paths["pipelines.csv"], "--propositions", paths["props.csv"]]
    if "executions.csv" in paths:
        argv += ["--executions", paths["executions.csv"]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    # The error names the line the offending row starts on.
    assert f"{paths[name]}:{before.count(chr(10)) + 1}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, text",
    [
        ("short.csv", "id,kind,expected_cost,eps_ret,eps_gen,eps_ver\nm\n"),
        ("quote.csv", 'id,kind,expected_cost,eps_ret,eps_gen,eps_ver\n"m,full,2.06,0,0,0\n'),
    ],
)
def test_malformed_csv_row_exits_1_without_traceback(tmp_path, capsys, name, text):
    path = write(tmp_path, name, text)
    assert main(["score", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:" in err
    assert "Traceback" not in err


def test_header_that_repeats_a_column_in_use_is_rejected(tmp_path, capsys):
    header = "id,kind,expected_cost,eps_ret,eps_gen,eps_ver"
    path = write(tmp_path, "dup.csv", f"{header},expected_cost\nx,full,1.0,0,0,0,9.0\n")
    assert main(["score", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:1: repeated column(s): expected_cost")
    assert captured.out == ""
    # A repeated column that the reader does not use is still ignored.
    path = write(tmp_path, "note.csv", f"{header},note,note\nx,full,1.0,0,0,0,a,b\n")
    assert main(["score", path]) == 0


EXECUTIONS_HEADER = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"


# A file of each kind holding one rejected value: (kind, text, line, message).
REJECTED = [
    ("records", "component,loss\nretrieval,0\nretrieval,1.5\n", 3, "loss must lie in [0, 1], got 1.5"),
    (
        "executions",
        EXECUTIONS_HEADER + "bid_independence,modern_actual,yes,,none,,\n",
        2,
        "column 'executed' must be true or false, got 'yes'",
    ),
    (
        "executions",
        EXECUTIONS_HEADER + "bid_independence,modern_actual,true,,none,,\n"
        + "bid_independence,modern_actual,true,,none,, yesterday \n",
        3,
        "timestamp must be a date or date-time as isoformat() writes it, got 'yesterday'",
    ),
    ("scenario", APPENDIX_A + "[corpus]\n", APPENDIX_A.count("\n") + 1, "duplicate section [corpus]"),
    ("policy", "tau_star = 10.0\n = 1\n", 2, "empty key"),
    *(
        ("scenario", APPENDIX_A + MINIMAL_TASK.replace("[task.t1]", header), APPENDIX_A.count("\n") + 1,
         "a task needs a non-empty id")
        for header in ("[task.]", "[task. ]")
    ),
    (
        "scenario", replace_line(APPENDIX_A, "[task.bid_independence]", "[task. bid_independence]"),
        line_of(APPENDIX_A, "[task.bid_independence]"),
        "task id ' bid_independence' has leading or trailing blanks",
    ),
    *(
        ("scenario", replace_line(APPENDIX_A, "concept_query = bid", f"concept_query = {query}"),
         line_of(APPENDIX_A, "concept_query = bid"), f"concept_query has no indexable token: {query!r}")
        for query in ("", "the of and")
    ),
    (
        "scenario", APPENDIX_A.replace("\nweight = 1.0\n", "\nweight = 1e308\n"),
        line_of(APPENDIX_A, "[task.screening_bias]"),  # the second task: 1e308 + 1e308 is inf
        "salience weight total must be >= 0, got inf",
    ),
    (
        "propositions",
        "id,description,weight,threshold,pipelines\n"
        + "".join(f"p{i},d,1e308,0.5,modern_actual\n" for i in range(3)),
        3,
        "salience weight total must be >= 0, got inf",
    ),
    *(
        ("propositions", f"id,description,weight,threshold,pipelines\np1,d,1,0.5,\n{cell},d,1,0.5,\n", 3,
         "a proposition needs a non-empty id")
        for cell in ("", " ")
    ),
]
REJECTED_IDS = [
    "records-loss-range", "executions-executed", "executions-timestamp", "scenario-duplicate-section",
    "policy-empty-key", "scenario-empty-task-id", "scenario-blank-task-id", "scenario-padded-task-id",
    "scenario-empty-query", "scenario-stopword-query", "scenario-weight-total", "propositions-weight-total",
    "propositions-empty-id", "propositions-blank-id",
]


def rejected_argv(tmp_path, kind: str, text: str) -> tuple[str, list[str]]:
    """Write ``text`` as a ``kind`` file beside good inputs: its path, and the argv of a command reading it."""
    path = write(tmp_path, f"{kind}.txt", text)
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    argv = {
        "records": ["certify", path, "--pipeline-id", "p", "--cost", "1"],
        "executions": [
            "classify", "--pipelines", pipelines,
            "--propositions", write(tmp_path, "props.csv", PROPOSITIONS_CSV), "--executions", path,
        ],
        "scenario": ["simulate", "--scenario", path],
        "policy": ["score", pipelines, "--policy", path],
        "propositions": ["classify", "--pipelines", pipelines, "--propositions", path],
    }[kind]
    return path, argv


@pytest.mark.parametrize("kind, text, line, message", REJECTED, ids=REJECTED_IDS)
def test_rejected_value_exits_1_at_its_line(tmp_path, capsys, kind, text, line, message):
    path, argv = rejected_argv(tmp_path, kind, text)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:{line}: {message}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_bom_header_is_read(tmp_path, capsys):
    path = write(tmp_path, "bom.csv", "\ufeff" + PIPELINES_CSV)
    assert main(["score", path]) == 0
    assert capsys.readouterr().out.strip().endswith("0.8292,modern_actual,0.7000,true")


def test_policy_hash_is_pinned():
    assert policy_hash(PolicyParams()) == "a559a3660b4a"


def test_oversized_csv_field_exits_1_without_traceback(tmp_path, capsys):
    cell = "x" * 140_000
    path = write(tmp_path, "huge.csv", PIPELINES_CSV + f"{cell},full,2.06,0,0,0\n")
    assert main(["score", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:4: malformed CSV: field larger than field limit" in err
    assert "Traceback" not in err


def test_duplicate_pipeline_id_names_second_row(tmp_path, capsys):
    path = write(tmp_path, "dup.csv", PIPELINES_CSV + "modern_actual,full,1.00,0,0,0\n")
    with pytest.raises(InputError, match=r"dup\.csv:4: duplicate pipeline id 'modern_actual' \(first at line 3\)"):
        read_pipelines_csv(path)
    assert main(["score", path]) == 1
    assert f"{path}:4:" in capsys.readouterr().err


def test_duplicate_id_names_the_line_each_row_starts_on(tmp_path, capsys):
    # The first row's description cell (a column the reader ignores) spans lines 2-4.
    path = write(
        tmp_path,
        "dup.csv",
        "id,kind,expected_cost,eps_ret,eps_gen,eps_ver,description\n"
        'm,full,2.06,0,0,0,"first\nsecond\nthird"\n'
        "m,full,1.00,0,0,0,again\n",
    )
    with pytest.raises(InputError, match=r"dup\.csv:5: duplicate pipeline id 'm' \(first at line 2\)"):
        read_pipelines_csv(path)
    assert main(["score", path]) == 1
    assert f"{path}:5: duplicate pipeline id 'm' (first at line 2)" in capsys.readouterr().err


def test_duplicate_proposition_id_names_second_row(tmp_path, capsys):
    # Findings, pipeline sets and executions are keyed by id, so a repeated id
    # would give both rows the second row's pipelines.
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    props = write(
        tmp_path,
        "props.csv",
        "id,description,weight,threshold,pipelines\n"
        "q,First,1.0,0.7,modern_actual\n"
        "q,Second,1.0,0.7,legacy_actual\n",
    )
    argv = ["classify", "--propositions", props, "--pipelines", pipelines]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{props}:3: duplicate proposition id 'q' (first at line 2)" in err
    assert "Traceback" not in err


def test_execution_certificate_must_be_for_its_pipeline(tmp_path, capsys):
    # A certificate bounds its own pipeline only: on a legacy_actual row,
    # modern_actual's bound would make the row actual knowledge.
    cert = tmp_path / "m.cert"
    cert.write_text(certificate_text().replace("pipeline_id = pi", "pipeline_id = modern_actual"))
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    header = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    argv = ["classify", "--propositions", props, "--pipelines", pipelines, "--executions"]
    own = write(tmp_path, "own.csv", header + "bid_independence,modern_actual,true,established,none,m.cert,\n")
    assert main(argv + [own]) == 0
    capsys.readouterr()
    other = write(
        tmp_path,
        "other.csv",
        header
        + "bid_independence,modern_actual,true,established,none,m.cert,\n"
        + "bid_independence,legacy_actual,true,established,none,m.cert,\n",
    )
    assert main(argv + [other]) == 1
    err = capsys.readouterr().err
    assert (
        f"{other}:3: certificate m.cert is for pipeline 'modern_actual', not 'legacy_actual'" in err
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "unvalidated, named",
    [((0, 1, 2), "retrieval, generation, verification"), ((2,), "verification")],
)
def test_execution_certificate_must_validate_each_component_its_pipeline_runs(
    tmp_path, capsys, unvalidated, named
):
    # certify refuses a component without records. A certificate edited to give
    # one the synthetic n = 0 bound would count it as error-free, and turn a
    # reckless execution (s_lb 0.2015) into actual knowledge (s_lb 0.8292).
    records = write(tmp_path, "poor.csv", POOR_RECORDS)
    argv = ["certify", records, "--cost", "2.06", "--timestamp", "2026-01-01T00:00:00+00:00"]
    assert main(argv + ["--pipeline-id", "modern_actual", "--out", str(tmp_path / "m.cert")]) == 0
    legacy = ["--pipeline-id", "legacy_actual", "--kind", "retrieval_only"]
    assert main(argv + legacy + ["--out", str(tmp_path / "r.cert")]) == 0
    capsys.readouterr()
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    header = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    row = "bid_independence,modern_actual,true,established,none,m.cert,\n"
    argv = ["classify", "--propositions", props, "--pipelines", pipelines, "--executions"]
    assert main(argv + [write(tmp_path, "exec.csv", header + row)]) == 0
    out = capsys.readouterr().out
    assert "s_lb=0.2015" in out and "primary = recklessness" in out

    cert = read_certificate(tmp_path / "m.cert")
    zero = confidence_bound(BoundMethod.WILSON, 0.0, 0, cert.delta)
    bounds = tuple(zero if i in unvalidated else b for i, b in enumerate(cert.bounds))
    (tmp_path / "m.cert").write_text(certificate_to_text(replace(cert, bounds=bounds)))
    assert read_certificate(tmp_path / "m.cert").bounds == bounds  # a well-formed certificate
    executions = write(tmp_path, "exec.csv", header + row)
    assert main(argv + [executions]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"{executions}:2: certificate m.cert has no evaluation records (n = 0) for "
        f"component(s) {named}, which pipeline 'modern_actual' runs"
    ) in captured.err
    assert "Traceback" not in captured.err

    # A retrieval_only pipeline runs retrieval alone: its synthetic bounds are its own.
    row = "bid_independence,legacy_actual,true,established,none,r.cert,\n"
    assert main(argv + [write(tmp_path, "exec.csv", header + row)]) == 0


def test_execution_of_a_pipeline_not_in_the_pipelines_file_is_rejected_at_its_row(tmp_path, capsys):
    # Else the report gives a recklessness finding about a pipeline the firm does not have.
    pipelines = write(
        tmp_path,
        "pipelines.csv",
        "id,kind,expected_cost,eps_ret,eps_gen,eps_ver\nlegacy_actual,retrieval_only,5.90,0,0,0\n",
    )
    props = write(
        tmp_path, "props.csv", "id,description,weight,threshold,pipelines\nbid,Bids,1.0,0.7,legacy_actual\n"
    )
    executions = write(
        tmp_path,
        "exec.csv",
        "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
        "bid,legacy_actual,true,established,none,,\n"
        "bid,ghost,true,established,none,,\n",
    )
    argv = ["classify", "--pipelines", pipelines, "--propositions", props, "--executions", executions]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{executions}:3: execution references unknown pipeline 'ghost'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cell, message",
    [
        ('"modern_actual\nx"', "pipeline id 'modern_actual\\nx' holds a line break"),
        ("a;b", "pipeline id 'a;b' holds whitespace, ';', ':' or '='"),
        ("ghost", "execution references unknown pipeline 'ghost'"),
    ],
    ids=["line-break", "semicolon", "unknown"],
)
def test_bad_pipeline_id_after_many_good_rows_is_rejected_at_its_row(tmp_path, capsys, cell, message):
    # The reader checks each distinct pipeline id once; a repeated good id
    # must not let a later bad one through.
    good = "bid_independence,modern_actual,false,,none,,\n" * 30
    bad = f"bid_independence,{cell},false,,none,,\n"
    executions = write(tmp_path, "exec.csv", EXECUTIONS_HEADER + good + bad + good)
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    argv = ["classify", "--pipelines", pipelines, "--propositions", props, "--executions", executions]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {executions}:32: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cells, message",
    [
        ("maybe,,none", "column 'executed' must be true or false, got 'maybe'"),
        ("true,proven,none", "unknown outcome 'proven'"),
        ("false,,shredded", "unknown avoidance evidence 'shredded'"),
        ("false,refuted,none", "an unexecuted record cannot carry an outcome"),
    ],
    ids=["executed", "outcome", "avoidance-evidence", "unexecuted-outcome"],
)
def test_bad_execution_cells_after_many_good_rows_are_rejected_at_their_row(tmp_path, capsys, cells, message):
    # The reader parses each distinct (executed, outcome, avoidance_evidence)
    # triple once; good triples seen before must not let a bad one through.
    good = "".join(
        f"bid_independence,modern_actual,{state},,\n"
        for state in ("false,,none", "true,established,none", "true,refuted,") * 10
    )
    bad = f"bid_independence,modern_actual,{cells},,\n"
    executions = write(tmp_path, "exec.csv", EXECUTIONS_HEADER + good + bad + good)
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV)
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    argv = ["classify", "--pipelines", pipelines, "--propositions", props, "--executions", executions]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {executions}:32: {message}")
    assert captured.out == ""


def test_padded_and_mixed_case_execution_cells_read_as_their_plain_form(tmp_path):
    pipelines = {p.id: p for p in read_pipelines_csv(write(tmp_path, "pipelines.csv", PIPELINES_CSV))}
    known = {"bid_independence"}
    padded = [" TRUE , refuted , none ", "True,refuted,", "true, refuted ,suppressed_query ", " FALSE ,,"]
    plain = ["true,refuted,none", "true,refuted,none", "true,refuted,suppressed_query", "false,,none"]

    def read(name, states):
        rows = "".join(
            f"bid_independence,modern_actual,{state},,2026-01-01T00:00:{i:02d}\n"
            for i, state in enumerate(states * 8)
        )
        return read_executions_csv(write(tmp_path, name, EXECUTIONS_HEADER + rows), known, pipelines)

    records = read("padded.csv", padded)
    assert records == read("plain.csv", plain)
    assert [(r.executed, r.outcome, r.avoidance_evidence) for r in records[:4]] == [
        (True, Verdict.REFUTED, AvoidanceEvidence.NONE),
        (True, Verdict.REFUTED, AvoidanceEvidence.NONE),
        (True, Verdict.REFUTED, AvoidanceEvidence.SUPPRESSED_QUERY),
        (False, None, AvoidanceEvidence.NONE),
    ]


@pytest.mark.parametrize(
    "row, message",
    [
        ("retreival,0", "unknown component 'retreival'"),
        (" bogus ,1", "unknown component 'bogus'"),
        ("retrieval,x", "'loss' must be a finite number, got 'x'"),
        ("generation,nan", "'loss' must be a finite number, got 'nan'"),
        ("verification,1.5", "loss must lie in [0, 1], got 1.5"),
    ],
    ids=["component", "padded-component", "loss-text", "loss-nan", "loss-range"],
)
def test_bad_record_cells_after_many_good_rows_are_rejected_at_their_row(tmp_path, capsys, row, message):
    # The reader checks each distinct (component, loss) pair once, and shares
    # one record per loss text; neither may let a bad row through.
    good = "".join(f"{c},{loss}\n" for c in ("retrieval", "generation", "verification") for loss in "01" * 5)
    path = write(tmp_path, "records.csv", "component,loss\n" + good + row + "\n" + good)
    assert main(["certify", path, "--pipeline-id", "p", "--cost", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:32: {message}")
    assert captured.out == ""


# The audit report joins pipeline ids with ';' and ':' in its frontier and
# certificates fields, and writes rationale details as space-separated
# key=value pairs, so an id holding any of these blurs the report.
BLURRING_IDS = ["a b", "a\tb", "a;b", "a:b", "a=b"]


@pytest.mark.parametrize("pipeline_id", BLURRING_IDS)
@pytest.mark.parametrize("column", ["id", "pipeline_id"])
def test_blurring_pipeline_id_is_rejected_at_its_row(tmp_path, capsys, column, pipeline_id):
    header = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    row = {
        "id": f"{pipeline_id},full,1.0,0,0,0\n",
        "pipeline_id": f"bid_independence,{pipeline_id},true,established,none,,\n",
    }
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV + (row["id"] if column == "id" else ""))
    executions = write(tmp_path, "exec.csv", header + (row["pipeline_id"] if column == "pipeline_id" else ""))
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    argv = ["classify", "--pipelines", pipelines, "--propositions", props, "--executions", executions]
    path, line = (pipelines, 4) if column == "id" else (executions, 2)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{path}:{line}: pipeline id {pipeline_id!r} holds whitespace, ';', ':' or '='" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("column", ["id", "pipeline_id"])
def test_empty_pipeline_id_is_rejected_at_its_row(tmp_path, capsys, column):
    # An empty id would print as nothing between the report's separators.
    header = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    pipelines = write(tmp_path, "pipelines.csv", PIPELINES_CSV + (" ,full,1.0,0,0,0\n" if column == "id" else ""))
    executions = write(
        tmp_path, "exec.csv", header + ("bid_independence,,true,established,none,,\n" if column == "pipeline_id" else "")
    )
    props = write(tmp_path, "props.csv", PROPOSITIONS_CSV)
    argv = ["classify", "--pipelines", pipelines, "--propositions", props, "--executions", executions]
    path, line = (pipelines, 4) if column == "id" else (executions, 2)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:{line}: a pipeline needs a non-empty id\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--pipeline-id", pipeline_id) for pipeline_id in BLURRING_IDS]
    + [
        ("--pipeline-id", ""),
        ("--fold-strategy", "holdout\nmeasured_cost = 0"),
        ("--fold-strategy", " holdout"),
        ("--fold-strategy", "holdout\t"),
        ("--timestamp", "2026-01-01T00:00:00+00:00\r\nx"),
        ("--timestamp", "2026-01-01T00:00:00+00:00\n"),
        ("--timestamp", "yesterday"),
        ("--timestamp", "2026-01-01\n12:00"),  # fromisoformat takes any one-character separator
        ("--timestamp", ""),
        ("--timestamp", "2026-01-01T00:00:00Z"),
        ("--pipeline-id", "p\nq"),
        ("--pipeline-id", " p"),
    ],
)
def test_certify_rejects_text_its_certificate_or_report_cannot_hold(tmp_path, flag, value):
    # A line break or edge whitespace would write a certificate that
    # read_certificate rejects, or reads back with another value.
    out = tmp_path / "x.cert"
    argv = ["certify", records_csv(tmp_path), "--pipeline-id", "p", "--cost", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert not out.exists()


def test_certify_text_flags_round_trip(tmp_path, capsys):
    out = tmp_path / "x.cert"
    argv = [
        "certify", records_csv(tmp_path), "--pipeline-id", "a,b", "--cost", "1", "--out", str(out),
        "--fold-strategy", "kfold k = 5; grouped", "--timestamp", "2026-01-01T00:00:00+00:00",
    ]
    assert main(argv) == 0
    cert = read_certificate(out)
    assert cert.pipeline_id == "a,b"
    assert cert.fold_strategy == "kfold k = 5; grouped"
    assert cert.timestamp == "2026-01-01T00:00:00+00:00"


def test_certificate_with_a_timestamp_certify_now_refuses_still_loads(tmp_path):
    text = replace_line(certificate_text(), "timestamp", "timestamp = 2026-01-01T00:00:00Z")
    assert read_certificate(write(tmp_path, "z.cert", text)).timestamp == "2026-01-01T00:00:00Z"


class TestUnknownScenarioNames:
    def test_key_in_verification_section(self):
        text = APPENDIX_A.replace("top_k = 5", "top_kk = 3")
        match = rf"s\.scenario:{line_of(text, 'top_kk')}: unknown key 'top_kk' in \[verification\]"
        with pytest.raises(InputError, match=match):
            parse_scenario(text, "s.scenario")

    @pytest.mark.parametrize("anchor", ["seed = 42", "size = 62", "jitter_sigma = 0.02", "modern_time_scale = 0.9801762964"])
    def test_key_in_every_other_section(self, anchor):
        text = APPENDIX_A.replace(anchor, f"{anchor}\nmystery = 1")
        with pytest.raises(InputError, match=rf"s\.scenario:{line_of(text, 'mystery')}: unknown key 'mystery'"):
            parse_scenario(text, "s.scenario")

    def test_task_id_is_not_a_key(self):
        with pytest.raises(InputError, match=r"t\.scenario:2: unknown key 'id' in \[task\.t1\]"):
            parse_scenario(MINIMAL_TASK.replace("\n", "\nid = t2\n", 1), "t.scenario")

    def test_section_name(self):
        text = APPENDIX_A.replace("[costs]", "[cost]")
        with pytest.raises(InputError, match=rf"s\.scenario:{line_of(text, '[cost]')}: unknown section \[cost\]"):
            parse_scenario(text, "s.scenario")

    def test_appendix_a_still_parses(self):
        scenario = parse_scenario(APPENDIX_A, "appendix_a.scenario")
        assert (scenario.retrieval_k, scenario.corpus_size, len(scenario.tasks)) == (5, 62, 4)


def _run_on_edited(tmp_path, capsys, kind, edit):
    """Write one good file of each kind, pass the ``kind`` file's bytes through ``edit``, and
    run a command that reads it: that file's path, the exit code and the captured output."""
    header = "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    texts = {
        "pipelines": PIPELINES_CSV,
        "propositions": PROPOSITIONS_CSV,
        "executions": header + "bid_independence,modern_actual,true,established,none,m.cert,\n",
        "records": "component,loss\nretrieval,0\ngeneration,0\nverification,0\n",
        "certificate": certificate_text().replace("pipeline_id = pi", "pipeline_id = modern_actual"),
        "policy": "tau_star = 10.0\ntheta_c = 0.7\n",
        "scenario": APPENDIX_A,
    }
    names = {"certificate": "m.cert", "policy": "policy.txt", "scenario": "s.scenario"}
    paths = {k: tmp_path / names.get(k, f"{k}.csv") for k in texts}
    for k, text in texts.items():
        paths[k].write_text(text, encoding="utf-8")
    paths[kind].write_bytes(edit(paths[kind].read_bytes()))
    argv = {
        "records": ["certify", str(paths["records"]), "--pipeline-id", "p", "--cost", "1"],
        "scenario": ["simulate", "--scenario", str(paths["scenario"])],
    }.get(kind, [
        "classify", "--pipelines", str(paths["pipelines"]), "--propositions", str(paths["propositions"]),
        "--executions", str(paths["executions"]), "--policy", str(paths["policy"]),
    ])
    code = main(argv)
    return paths[kind], code, capsys.readouterr()


@pytest.mark.parametrize(
    "kind", ["pipelines", "propositions", "executions", "records", "certificate", "policy", "scenario"]
)
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys, kind):
    def edit(data):
        # A byte 0xff, which no UTF-8 text holds, ends the third line.
        lines = data.split(b"\n")
        lines[2] += b"\xff"
        return b"\n".join(lines)

    path, code, captured = _run_on_edited(tmp_path, capsys, kind, edit)
    assert code == 1
    assert f"error: {path}:3: byte 0xff is not UTF-8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind, text",
    [("pipelines", "modern_actual,full"), ("certificate", "fold_strategy = holdout"), ("scenario", "seed = 42")],
    ids=["csv-cell", "certificate-value", "scenario-value"],
)
def test_a_nul_byte_names_its_line(tmp_path, capsys, kind, text):
    # csv accepts a NUL from Python 3.11 on, so without this rule the cell would reach the output.
    nul = text[:4] + "\0" + text[4:]
    path, code, captured = _run_on_edited(
        tmp_path, capsys, kind, lambda data: data.replace(text.encode(), nul.encode(), 1)
    )
    line = line_of(path.read_text(encoding="utf-8"), nul)
    assert code == 1
    assert captured.err == f"error: {path}:{line}: byte 0x00 (NUL) is not allowed\n"
    assert captured.out == ""
