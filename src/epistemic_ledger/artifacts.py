"""File schemas and report rendering for the command-line front end.

Pipelines, propositions, executions, and evaluation records travel as CSV;
certificates and policies as flat key=value text (certificates at full
precision, so they round-trip); audit reports as sectioned key=value text
with every number at fixed 4-decimal precision so reports are diff-able and
byte-reproducible. Certificates, policies and scenario files share one
``key = value`` grammar, read by ``parse_sections``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NoReturn, Sequence

from .doctrine import (
    AvoidanceEvidence,
    DoctrineFinding,
    ExecutionRecord,
    Verdict,
)
from .metrics import (
    COMPONENTS,
    ComponentErrors,
    Docket,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    best_pipeline,
    epistemic_frontier,
    knowledge_predicate,
    pipeline_score,
)
from .validation import (
    BoundMethod,
    LossRecord,
    ValidationCertificate,
    check_delta,
    check_sample_size,
    confidence_bound,
    lower_bound_score,
)


class InputError(ValueError):
    """A malformed input file, pointing at the offending line."""

    def __init__(self, message: str, path: str, line: int):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class _at:
    """Re-raise a plain ValueError from the block as an InputError at path:line.

    A class, not a generator: it wraps each pipelines row and costs a quarter as much."""

    def __init__(self, path: str | Path, line: int):
        self.path, self.line = str(path), line

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError) and not issubclass(kind, InputError):
            raise InputError(str(exc), self.path, self.line) from exc


def read_input(path: str | Path) -> str:
    """A file's text, less a leading BOM; a byte that is not UTF-8 is rejected at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"byte 0x{data[exc.start]:02x} is not UTF-8", str(path), line) from None


def _number(value: str, key: str, path: str | Path, line: int, cast: type = float):
    """Read a finite number of type ``cast`` (float, or int read strictly) from text."""
    try:
        number = cast(value)
        if math.isfinite(number):
            return number
    except (ValueError, OverflowError):
        pass
    kind = "an integer" if cast is int else "a finite number"
    raise InputError(f"{key!r} must be {kind}, got {value!r}", str(path), line)


def _choice(kind: type, value: str, what: str, path: str | Path, line: int):
    try:
        return kind(value)
    except ValueError:
        raise InputError(f"unknown {what} {value!r}", str(path), line) from None


@dataclass
class Section:
    """The ``key = value`` pairs, each with its line, under one ``[name]`` header.

    The top level is named "" and starts at line 1.
    """

    name: str
    path: str
    line: int
    values: dict[str, tuple[str, int]]

    def _fail(self, message: str, line: int) -> NoReturn:
        where = f" in [{self.name}]" if self.name else ""
        raise InputError(f"{message}{where}", self.path, line)

    def raw(self, key: str) -> tuple[str, int]:
        if key not in self.values:
            self._fail(f"missing key {key!r}", self.line)
        return self.values[key]

    def reject_unknown(self, known: Collection[str], what: str = "key") -> None:
        """Raise at the line of the first key that is not in ``known``."""
        for key, (_, line) in self.values.items():
            if key not in known:
                self._fail(f"unknown {what} {key!r}", line)

    def text(self, key: str, default: str | None = None) -> str:
        if default is not None and key not in self.values:
            return default
        return self.raw(key)[0]

    def number(self, key: str, cast: type = float, to: Callable = lambda number: number):
        """``key``'s finite number passed through ``to``, whose ValueError names ``key``'s line."""
        value, line = self.raw(key)
        number = _number(value, key, self.path, line, cast)
        with _at(self.path, line):
            return to(number)


def parse_sections(text: str, path: str, *, flat: bool = False) -> dict[str, Section]:
    """Split ``key = value`` text, skipping blanks and ``#`` comments, into sections.

    Duplicate keys and sections, empty keys, lines without ``=`` and malformed
    headers (any header, when ``flat``) are rejected at their line.
    """
    current = Section("", path, 1, {})
    sections = {"": current}
    # Only "\n" ends a line, as editors count; strip() drops a "\r\n" ending's "\r".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            name = line[1:-1].strip()
            if flat or not line.endswith("]") or not name:
                kind = "unexpected" if flat else "malformed"
                raise InputError(f"{kind} section header {line!r}", path, lineno)
            if name in sections:
                raise InputError(f"duplicate section [{name}]", path, lineno)
            current = sections[name] = Section(name, path, lineno, {})
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise InputError(f"expected 'key = value', got {line!r}", path, lineno)
        if not key:
            raise InputError("empty key", path, lineno)
        if key in current.values:
            raise InputError(f"duplicate key {key!r}", path, lineno)
        current.values[key] = (value.strip(), lineno)
    return sections


_POLICY_KEYS = tuple(f.name for f in fields(PolicyParams))


def policy_params(section: Section, **overrides: float | None) -> PolicyParams:
    """The policy a section sets, with non-None overrides on top.

    Keys and defaults are the fields of PolicyParams; an unknown key or a value
    out of its range is rejected at its line.
    """
    section.reject_unknown(_POLICY_KEYS, "policy key")
    values = {key: section.number(key) for key in section.values}
    for key, value in values.items():
        with _at(section.path, section.values[key][1]):
            PolicyParams(**{key: value})
    values.update((key, value) for key, value in overrides.items() if value is not None)
    with _at(section.path, section.line):
        return PolicyParams(**values)


def fmt(x: float) -> str:
    return f"{x:.4f}"


def _cell(value: object) -> str:
    """A float at four decimals, a bool as true/false, anything else through str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt(value) if isinstance(value, float) else str(value)


def _quoted(cell: str) -> str:
    """``cell`` as one RFC 4180 field: quoted, inner quotes doubled, if it holds ``,"\\r\\n``.

    ``csv.writer`` with the tables' ``\\n`` line ending would leave a bare ``\\r`` unquoted.
    """
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_text(header: str, rows: Iterable[Sequence[object]]) -> str:
    """A CSV table: the header line, then one line of quoted ``_cell`` values per row."""
    lines = (",".join(_quoted(_cell(value)) for value in row) + "\n" for row in rows)
    return "".join([header + "\n", *lines])


def _short_hash(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:12]


def policy_hash(policy: PolicyParams) -> str:
    canon = ",".join(f"{name}={getattr(policy, name)!r}" for name in _POLICY_KEYS)
    return _short_hash([canon.encode("utf-8")])


def files_hash(paths: Iterable[str | Path]) -> str:
    return _short_hash(Path(path).read_bytes() for path in paths)


def _one_line(text: str, what: str, path: str | Path, line: int) -> str:
    """``text``, rejected at its line if it holds a line break: the report echoes it as one line."""
    if len(text.splitlines()) > 1:
        raise InputError(f"{what} {text!r} holds a line break", str(path), line)
    return text


# The audit report's frontier, certificates and rationale fields join pipeline
# ids with these, so an id holding one would blur where an id ends.
_BLURS_REPORT = re.compile(r"[\s;:=]")


def check_pipeline_id(text: str) -> str:
    """``text``, or a ValueError if it holds whitespace, ``;``, ``:`` or ``=``."""
    if _BLURS_REPORT.search(text):
        raise ValueError(f"pipeline id {text!r} holds whitespace, ';', ':' or '='")
    return text


def _unique_id(kind: str, id_: str, first_line: dict[str, int], path: str | Path, line: int) -> str:
    """``id_``, its line recorded in ``first_line``; a repeated id is rejected at its line."""
    _one_line(id_, f"{kind} id", path, line)
    if id_ in first_line:
        first = first_line[id_]
        raise InputError(f"duplicate {kind} id {id_!r} (first at line {first})", str(path), line)
    first_line[id_] = line
    return id_


def _rows(
    path: str | Path, expected: Sequence[str], optional: Sequence[str] = ()
) -> Iterable[tuple[int, tuple[str, ...]]]:
    """Each data row's ``expected`` then ``optional`` cells, with the line the row starts on.

    A quoted cell may span lines. An optional cell that the header or the row
    lacks reads "".
    """
    reader = csv.reader(io.StringIO(read_input(path)))
    start = 1  # the line the row being read starts on
    try:
        header = next(reader, None)
        if header is None:
            raise InputError("empty file (missing header)", str(path), 1)
        missing = [c for c in expected if c not in header]
        if missing:
            raise InputError(f"missing column(s): {', '.join(missing)}", str(path), 1)
        repeated = [c for c in (*expected, *optional) if header.count(c) > 1]
        if repeated:
            raise InputError(f"repeated column(s): {', '.join(repeated)}", str(path), 1)
        width = 1 + max(header.index(c) for c in expected)
        # A row narrower than the columns read is padded with blanks, so a cell
        # past its end reads "". A column the header lacks reads the pad's last
        # blank at -1, so then every row is padded.
        columns = [header.index(c) if c in header else -1 for c in (*expected, *optional)]
        blank = [""] * (1 + max(columns))
        pad_below = math.inf if -1 in columns else len(blank)
        cells_of = operator.itemgetter(*columns)
        start = reader.line_num + 1
        for cells in reader:
            if len(cells) >= width:
                if len(cells) < pad_below:
                    cells += blank
                yield start, cells_of(cells)
            elif cells:  # a short row, or one that an unterminated quote ran on into
                empty = ", ".join(c for c in expected if header.index(c) >= len(cells))
                raise InputError(f"row has no value for column(s): {empty}", str(path), start)
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise InputError(f"malformed CSV: {exc}", str(path), start) from None


def read_pipelines_csv(path: str | Path) -> list[PipelineSpec]:
    """Columns: id, kind, expected_cost, eps_ret, eps_gen, eps_ver[, joint_error]."""
    pipelines = []
    first_line: dict[str, int] = {}
    rows = _rows(
        path, ("id", "kind", "expected_cost", "eps_ret", "eps_gen", "eps_ver"), ("joint_error",)
    )
    for line, (id_, kind_raw, cost, eps_ret, eps_gen, eps_ver, joint_raw) in rows:
        pipeline_id = _unique_id("pipeline", id_.strip(), first_line, path, line)
        kind = _choice(PipelineKind, kind_raw.strip(), "pipeline kind", path, line)
        joint_raw = joint_raw.strip()
        with _at(path, line):
            pipelines.append(
                PipelineSpec(
                    id=check_pipeline_id(pipeline_id),
                    kind=kind,
                    expected_cost=_number(cost, "expected_cost", path, line),
                    errors=ComponentErrors(
                        retrieval=_number(eps_ret, "eps_ret", path, line),
                        generation=_number(eps_gen, "eps_gen", path, line),
                        verification=_number(eps_ver, "eps_ver", path, line),
                    ),
                    joint_error=_number(joint_raw, "joint_error", path, line) if joint_raw else None
                )
            )
    return pipelines


def read_eval_records_csv(path: str | Path) -> dict[str, list[LossRecord]]:
    """Columns: component, loss[, predicted, actual]; ``predicted`` and ``actual`` are ignored.

    Rows with the same loss text share one record, so a 0/1 file builds two.
    Each distinct (component, loss) cell pair is checked once; a bad one
    fails at the first row that holds it.
    """
    sets: dict[str, list[LossRecord]] = {}
    records: dict[str, LossRecord] = {}  # by loss text
    parsed: dict[tuple[str, str], tuple[list[LossRecord], LossRecord]] = {}  # by cell pair
    for line, cells in _rows(path, ("component", "loss")):
        entry = parsed.get(cells)
        if entry is None:
            component, loss = cells
            component = component.strip()
            if component not in COMPONENTS:
                raise InputError(f"unknown component {component!r}", str(path), line)
            record = records.get(loss)
            if record is None:
                with _at(path, line):
                    record = records[loss] = LossRecord("", "", _number(loss, "loss", path, line))
            entry = parsed[cells] = (sets.setdefault(component, []), record)
        entry[0].append(entry[1])
    return sets


def read_propositions_csv(path: str | Path, pipelines: Mapping[str, PipelineSpec]) -> Docket:
    """Columns: id, description, weight, threshold, pipelines (semicolon ids)."""
    propositions = []
    sets: dict[str, tuple[PipelineSpec, ...]] = {}
    first_line: dict[str, int] = {}
    rows = _rows(path, ("id", "description", "weight", "threshold", "pipelines"))
    for line, (id_, description, weight, threshold, listed_raw) in rows:
        prop_id = _unique_id("proposition", id_.strip(), first_line, path, line)
        description = _one_line(description.strip(), "description", path, line)
        weight = _number(weight, "weight", path, line)
        threshold = _number(threshold, "threshold", path, line)
        try:
            propositions.append(Proposition(prop_id, description, weight, threshold))
        except ValueError as exc:
            raise InputError(str(exc), str(path), line) from exc
        listed = [p.strip() for p in listed_raw.split(";") if p.strip()]
        unknown = [p for p in listed if p not in pipelines]
        if unknown:
            raise InputError(
                f"proposition {prop_id!r} references unknown pipeline(s): "
                f"{', '.join(unknown)}",
                str(path),
                line,
            )
        sets[prop_id] = tuple(pipelines[p] for p in listed)
    return Docket(propositions=tuple(propositions), pipeline_sets=sets)


def read_executions_csv(
    path: str | Path, known_propositions: Collection[str], pipelines: Mapping[str, PipelineSpec]
) -> list[ExecutionRecord]:
    """Columns: proposition_id, pipeline_id, executed, outcome, avoidance_evidence,
    certificate[, timestamp].

    A certificate must be for the row's pipeline and validate every component
    that pipeline's kind runs.
    """
    records = []
    certificates: dict[str, ValidationCertificate] = {}  # by cell, so each file is read once
    checked: set[str] = set()  # the pipeline ids that passed their checks
    # Each distinct (executed, outcome, avoidance_evidence) cell triple is parsed
    # once: files repeat a few dozen triples, and a bad one fails at its first row.
    states: dict[tuple[str, str, str], tuple[bool, Verdict | None, AvoidanceEvidence]] = {}
    base = Path(path).parent
    rows = _rows(
        path,
        ("proposition_id", "pipeline_id", "executed", "outcome", "avoidance_evidence", "certificate"),
        ("timestamp",),
    )
    for line, (prop_id, pipeline_id, executed, outcome, evidence, cert_raw, timestamp) in rows:
        prop_id = prop_id.strip()
        if prop_id not in known_propositions:
            raise InputError(
                f"execution references unknown proposition {prop_id!r}", str(path), line
            )
        state = states.get((executed, outcome, evidence))
        if state is None:
            state = states[executed, outcome, evidence] = _execution_state(
                executed, outcome, evidence, path, line
            )
        pipeline_id = pipeline_id.strip()
        if pipeline_id not in checked:
            _one_line(pipeline_id, "pipeline id", path, line)
            with _at(path, line):
                check_pipeline_id(pipeline_id)
            if pipeline_id not in pipelines:
                raise InputError(
                    f"execution references unknown pipeline {pipeline_id!r}", str(path), line
                )
            checked.add(pipeline_id)
        cert_raw = cert_raw.strip()
        certificate = None
        if cert_raw:
            first_read = cert_raw not in certificates
            if first_read:
                cert_path = base / cert_raw  # an absolute cert_raw replaces base
                if not cert_path.exists():
                    raise InputError(f"certificate file not found: {cert_raw}", str(path), line)
                try:
                    certificates[cert_raw] = read_certificate(cert_path)
                except OSError as exc:
                    message = f"cannot read certificate {cert_raw}: {exc.strerror}"
                    raise InputError(message, str(path), line) from None
            certificate = certificates[cert_raw]
            if certificate.pipeline_id != pipeline_id:
                raise InputError(
                    f"certificate {cert_raw} is for pipeline {certificate.pipeline_id!r}, "
                    f"not {pipeline_id!r}",
                    str(path),
                    line,
                )
            if first_read:  # later rows naming this cell are for the same pipeline
                # certify gives the synthetic n = 0 bound only to a component the
                # kind lacks; on one it runs, it would count as error-free.
                runs = pipelines[pipeline_id].kind.components
                unvalidated = [
                    c for c, b in zip(COMPONENTS, certificate.bounds) if b.synthetic and c in runs
                ]
                if unvalidated:
                    raise InputError(
                        f"certificate {cert_raw} has no evaluation records (n = 0) for "
                        f"component(s) {', '.join(unvalidated)}, which pipeline "
                        f"{pipeline_id!r} runs",
                        str(path),
                        line,
                    )
        ran, verdict, flag = state
        try:
            records.append(
                ExecutionRecord(pipeline_id, prop_id, ran, certificate, verdict, flag, timestamp.strip())
            )
        except ValueError as exc:
            raise InputError(str(exc), str(path), line) from exc
    return records


def _execution_state(
    executed: str, outcome: str, evidence: str, path: str | Path, line: int
) -> tuple[bool, Verdict | None, AvoidanceEvidence]:
    """An executions row's ``executed``, ``outcome`` and ``avoidance_evidence`` cells, parsed."""
    executed_raw = executed.strip().lower()
    if executed_raw not in ("true", "false"):
        raise InputError(
            f"column 'executed' must be true or false, got {executed!r}", str(path), line
        )
    outcome_raw = outcome.strip()
    verdict = _choice(Verdict, outcome_raw, "outcome", path, line) if outcome_raw else None
    evidence_raw = evidence.strip() or "none"
    flag = _choice(AvoidanceEvidence, evidence_raw, "avoidance evidence", path, line)
    return executed_raw == "true", verdict, flag


_PREFIXES = ("ret", "gen", "ver")  # the certificate key prefix of each of COMPONENTS
# The keys certificate_to_text writes that read_certificate derives from the rest.
_DERIVED = frozenset(
    ["total_upper", "sample_sizes", "union_delta"]
    + [f"{prefix}_{key}" for prefix in _PREFIXES for key in ("upper", "delta", "synthetic")]
)


def _certificate_items(cert: ValidationCertificate) -> list[tuple[str, object]]:
    """Each key a certificate file holds, in file order, with its value."""
    items: list[tuple[str, object]] = [
        ("pipeline_id", cert.pipeline_id), ("measured_cost", cert.measured_cost),
        ("delta", cert.delta), ("total_upper", cert.total_upper),
    ]
    for prefix, b in zip(_PREFIXES, cert.bounds):
        items += [
            (f"{prefix}_point", b.point_estimate), (f"{prefix}_upper", b.upper),
            (f"{prefix}_method", b.method.value), (f"{prefix}_delta", b.delta),
            (f"{prefix}_n", b.sample_size), (f"{prefix}_synthetic", b.synthetic),
        ]
    return items + [
        ("fold_strategy", cert.fold_strategy),
        ("sample_sizes", ",".join(str(b.sample_size) for b in cert.bounds)),
        ("timestamp", cert.timestamp), ("union_delta", cert.union_delta),
    ]


def _cert_value(value: object) -> str:
    """A certificate value as written: floats at full precision, so they round-trip."""
    return repr(value) if isinstance(value, float) else _cell(value)


def certificate_to_text(cert: ValidationCertificate) -> str:
    """Flat key=value serialization, full precision for exact round-trips.

    The text is read back as ``read_certificate`` reads it. A certificate
    whose derived values are not what its evidence gives, or that does not
    read back equal to itself, raises ValueError naming the first such key
    or field, instead of being written.
    """
    lines = [f"{key} = {_cert_value(value)}" for key, value in _certificate_items(cert)]
    text = "\n".join(["# validation certificate", *lines]) + "\n"
    rebuilt = _rebuild(parse_sections(text, f"certificate for {cert.pipeline_id!r}", flat=True)[""])
    for name in (f.name for f in fields(cert)):
        if getattr(rebuilt, name) != getattr(cert, name):
            raise ValueError(
                f"certificate {name} {getattr(cert, name)!r} reads back as {getattr(rebuilt, name)!r}"
            )
    return text


def read_certificate(path: str | Path) -> ValidationCertificate:
    """The certificate a file's evidence keys give, as ``certify`` builds one (see ``_rebuild``)."""
    return _rebuild(parse_sections(read_input(path), str(path), flat=True)[""])


def _rebuild(cert: Section) -> ValidationCertificate:
    """Rebuild a certificate from its evidence keys, as ``certify`` builds one.

    Each derived key must hold what the evidence gives: a number equal as a
    number, any other value as the text ``certificate_to_text`` writes. A key
    that does not, an unknown key and a number out of range fail at their line.
    """
    path = cert.path
    delta = cert.number("delta", to=check_delta)
    bounds = []
    for prefix in _PREFIXES:
        method_raw, line = cert.raw(f"{prefix}_method")
        method = _choice(BoundMethod, method_raw, "bound method", path, line)
        n = cert.number(f"{prefix}_n", int, to=check_sample_size)
        point_key = f"{prefix}_point"
        bounds.append(cert.number(point_key, to=lambda p: confidence_bound(method, p, n, delta)))
    with _at(path, cert.raw("measured_cost")[1]):  # the certificate itself checks only its cost
        rebuilt = ValidationCertificate(
            cert.text("pipeline_id"), cert.number("measured_cost"), tuple(bounds), delta,
            cert.text("fold_strategy"), cert.text("timestamp"),
        )
    items = dict(_certificate_items(rebuilt))
    cert.reject_unknown(items, "certificate key")
    for key, value in items.items():
        if key not in _DERIVED:
            continue
        written, line = cert.raw(key)
        wanted = _cert_value(value)
        if written != wanted and not (isinstance(value, float) and cert.number(key) == value):
            message = f"{key} = {written} does not match its evidence, which gives {wanted}"
            raise InputError(message, str(path), line)
    return rebuilt


def score_table(pipelines: Sequence[PipelineSpec], policy: PolicyParams) -> str:
    """Two CSV sections: per-pipeline scores, then the organisational summary."""
    scores = csv_text(
        "id,kind,expected_cost,eps_ret,eps_gen,eps_ver,eps_tot,score",
        (
            (p.id, p.kind.value, p.expected_cost, p.errors.retrieval, p.errors.generation,
             p.errors.verification, p.total_error(), pipeline_score(p, policy))
            for p in pipelines
        ),
    )
    winner, best = best_pipeline(pipelines, policy)
    summary = csv_text(
        "org_score,best_pipeline,theta_c,predicate",
        [(best, winner.id, policy.theta_c, knowledge_predicate(best, policy.theta_c))],
    )
    return scores + "\n" + summary


def audit_report(
    version: str,
    policy: PolicyParams,
    docket: Docket,
    findings: Mapping[str, DoctrineFinding],
    org_scores: Mapping[str, float],
    certificates: Mapping[str, Sequence[ValidationCertificate]],
    capacity_point: float | None,
    capacity_lower: float | None,
    inputs_hash: str,
    seed: str,
) -> str:
    """Render the sectioned audit report; byte-stable for identical inputs."""
    blocks = [
        "# audit report (model classification, not legal advice)\n"
        f"version = {version}\n"
        f"policy_hash = {policy_hash(policy)}\n"
        f"inputs_hash = {inputs_hash}\n"
        f"seed = {seed}\n"
        f"tau_star = {fmt(policy.tau_star)}\n"
        f"theta_c = {fmt(policy.theta_c)}\n"
    ]
    # A docket lists few pipelines and few distinct findings, so each point's
    # text and each finding's applicable/primary/rationale lines are rendered
    # once per report. A point is keyed by its pipeline id, which names one
    # spec in a docket. A finding is keyed by its rationale; equal keys render
    # equal text because:
    # - every detail value is a str or a float;
    # - floats that compare equal print alike at 4 decimals, except 0.0 and -0.0;
    # - a -0.0 can only be a pipeline's own expected_cost or joint_error-derived
    #   total_error, which sits beside that pipeline's unique id in the same detail.
    points: dict[str, str] = {}
    verdicts: dict[tuple, str] = {}
    for prop in docket.propositions:
        pipes = docket.pipeline_sets.get(prop.id, ())
        frontier = "none"
        if pipes:
            frontier = "; ".join([
                points.get(p.pipeline_id)
                or points.setdefault(p.pipeline_id, f"{p.pipeline_id}:{fmt(p.cost)}:{fmt(p.total_error)}")
                for p in epistemic_frontier(pipes)
            ])
        certs = "; ".join([
            f"{c.pipeline_id}:s_lb={fmt(lower_bound_score(c, policy.tau_star))}"
            for c in certificates.get(prop.id, ())
        ])
        finding = findings[prop.id]
        key = tuple([(doctrine, *detail.items()) for doctrine, detail in finding.rationale])
        verdict = verdicts.get(key)
        if verdict is None:
            applicable = ",".join(sorted(d.value for d in finding.applicable)) or "none"
            primary = finding.primary.value if finding.primary else "none"
            rationale = "".join(
                f"rationale.{doctrine.value} = "
                + " ".join(f"{k}={_cell(v)}" for k, v in sorted(detail.items()))
                + "\n"
                for doctrine, detail in finding.rationale
            )
            verdict = verdicts[key] = f"applicable = {applicable}\nprimary = {primary}\n{rationale}"
        score = org_scores.get(prop.id)
        blocks.append(
            f"\n[proposition {prop.id}]\n"
            f"description = {prop.description}\n"
            f"weight = {fmt(prop.salience_weight)}\n"
            f"threshold = {fmt(prop.threshold)}\n"
            f"org_score = {fmt(score) if score is not None else 'none'}\n"
            f"predicate = {_cell(score is not None and score >= prop.threshold)}\n"
            f"frontier = {frontier}\n"
            f"certificates = {certs or 'none'}\n"
            f"{verdict}"
        )
    blocks.append(
        "\n[capacity]\n"
        f"point = {fmt(capacity_point) if capacity_point is not None else 'none'}\n"
        f"lower_bound = {fmt(capacity_lower) if capacity_lower is not None else 'none'}\n"
        f"theta_neg = {fmt(policy.theta_neg)}\n"
    )
    return "".join(blocks)
