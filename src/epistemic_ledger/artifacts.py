"""File schemas and report rendering for the command-line front end.

Pipelines, propositions, executions, and evaluation records travel as CSV;
certificates and policies as flat key=value text (certificates at full
precision, so they round-trip); audit reports as sectioned key=value text
with every number at fixed 4-decimal precision so reports are diff-able and
byte-reproducible. Certificates, policies and scenario files share one
``key = value`` grammar, read by ``parse_sections``.

The parsing helpers raise a plain ValueError, and ``_at`` alone turns it into an
InputError at ``path:line``: a CSV reader's ``_at`` holds the line ``_rows`` is on,
``Section`` enters one at a key's line, and ``judged`` at the line of the first key
whose value alone breaks a rule.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence

from .doctrine import (
    AvoidanceEvidence,
    Doctrine,
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
    _frontier_key,
    _pareto,
    _require,
    best_pipeline,
    epistemic_frontier,  # not called here; kept bound because the bench wraps it here
    knowledge_predicate,
    pipeline_score,
)
from .validation import (
    BoundMethod,
    LossRecord,
    ValidationCertificate,
    check_delta,
    check_pipeline_id,
    check_sample_size,
    check_timestamp,
    confidence_bound,
    lower_bound_score,
)

# The packaged scenario that the simulation commands load when given none.
DEFAULT_SCENARIO_NAME = "appendix_a"


class InputError(ValueError):
    """A malformed input file, pointing at the offending line."""

    def __init__(self, message: str, path: str, line: int):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class _at:
    """Re-raise a plain ValueError from the block as an InputError at path:line; no other
    code turns one into the other. ``line`` may move while the block runs, as ``_rows``
    moves it from row to row.

    A class, not a generator: it costs a quarter as much, and ``Section`` enters it per key."""

    def __init__(self, path: str | Path, line: int):
        self.path, self.line = str(path), line

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError) and not issubclass(kind, InputError):
            raise InputError(str(exc), self.path, self.line) from exc


def read_input(path: str | Path) -> str:
    """A file's text, less a leading BOM; a byte that is not UTF-8, or a NUL, is rejected
    at its line. ``csv`` refuses NUL only before Python 3.11, so the rule is kept here."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"byte 0x{data[exc.start]:02x} is not UTF-8", str(path), line) from None
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise InputError("byte 0x00 (NUL) is not allowed", str(path), line)
    return text


def _number(value: str, key: str, cast: type = float):
    """Read a number of type ``cast`` from text: a finite float, or an int read strictly,
    which is left to its field's range rule however large."""
    try:
        number = cast(value)
        if cast is int or math.isfinite(number):
            return number
    except ValueError:
        pass
    kind = "an integer" if cast is int else "a finite number"
    raise ValueError(f"{key!r} must be {kind}, got {value!r}")


def _choice(kind: type, value: str, what: str):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"unknown {what} {value!r}") from None


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

    def text(self, key: str, default: str | None = None, to: Callable = lambda text: text):
        """``key``'s text passed through ``to``, whose ValueError names ``key``'s line; or, if
        ``key`` is absent, a ``default`` other than None, as given."""
        if default is not None and key not in self.values:
            return default
        value, line = self.raw(key)
        with _at(self.path, line):
            return to(value)

    def number(self, key: str, cast: type = float, to: Callable = lambda number: number):
        """``key``'s text read by ``_number`` as a finite ``cast``, then passed through ``to``."""
        return self.text(key, to=lambda value: to(_number(value, key, cast)))


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


def judged(make: Callable, settings: Mapping[str, tuple[object, int]], path: str, line: int):
    """``make(**values)``, where ``settings`` maps each key to its (value, line).

    If that raises a ValueError and ``make()`` does not, the InputError names the first
    key whose value alone breaks a rule, with that rule's message at the key's line;
    otherwise it gives the message of all keys together at ``line``."""
    try:
        return make(**{key: value for key, (value, _) in settings.items()})
    except ValueError as exc:
        error = exc
    try:
        make()
    except ValueError:  # then no key can be judged alone over the defaults
        settings = {}
    for key, (value, key_line) in settings.items():
        with _at(path, key_line):
            make(**{key: value})
    with _at(path, line):
        raise error


def policy_params(section: Section, **overrides: float | None) -> PolicyParams:
    """The policy a section sets, with non-None overrides on top.

    Keys and defaults are the fields of PolicyParams; an unknown key or a value
    out of its range is rejected at its line.
    """
    section.reject_unknown(_POLICY_KEYS, "policy key")
    settings = {key: (section.number(key), line) for key, (_, line) in section.values.items()}
    policy = judged(PolicyParams, settings, section.path, section.line)
    with _at(section.path, section.line):
        return replace(policy, **{key: value for key, value in overrides.items() if value is not None})


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


def _one_line(text: str, what: str) -> str:
    """``text``, or a ValueError if it holds a line break: the report echoes it as one line."""
    if len(text.splitlines()) > 1:
        raise ValueError(f"{what} {text!r} holds a line break")
    return text


def _unique_id(kind: str, id_: str, first_line: dict[str, int], line: int) -> str:
    """``id_``, its ``line`` recorded in ``first_line``; a repeated id is a ValueError."""
    _one_line(id_, f"{kind} id")
    if id_ in first_line:
        raise ValueError(f"duplicate {kind} id {id_!r} (first at line {first_line[id_]})")
    first_line[id_] = line
    return id_


def _rows(at: _at, expected: Sequence[str], optional: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Yield the ``expected`` and ``optional`` cells of each data row of the CSV file
    ``at.path``, with ``at.line`` set to the line the row starts on, so that a ValueError
    raised under ``with at`` names that line.

    A quoted cell may span lines. An optional cell that the header or the row
    lacks reads "".
    """
    reader = csv.reader(io.StringIO(read_input(at.path)))
    at.line = 1
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file (missing header)")
        missing = [c for c in expected if c not in header]
        if missing:
            raise ValueError(f"missing column(s): {', '.join(missing)}")
        repeated = [c for c in (*expected, *optional) if header.count(c) > 1]
        if repeated:
            raise ValueError(f"repeated column(s): {', '.join(repeated)}")
        width = 1 + max(header.index(c) for c in expected)
        # A row narrower than the columns read is padded with blanks, so a cell
        # past its end reads "". A column the header lacks reads the pad's last
        # blank at -1, so then every row is padded.
        columns = [header.index(c) if c in header else -1 for c in (*expected, *optional)]
        blank = [""] * (1 + max(columns))
        pad_below = math.inf if -1 in columns else len(blank)
        cells_of = operator.itemgetter(*columns)
        at.line = reader.line_num + 1
        for cells in reader:
            if len(cells) >= width:
                if len(cells) < pad_below:
                    cells += blank
                yield cells_of(cells)
            elif cells:  # a short row, or one that an unterminated quote ran on into
                empty = ", ".join(c for c in expected if header.index(c) >= len(cells))
                raise ValueError(f"row has no value for column(s): {empty}")
            at.line = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"malformed CSV: {exc}") from None


def read_pipelines_csv(path: str | Path) -> list[PipelineSpec]:
    """Columns: id, kind, expected_cost, eps_ret, eps_gen, eps_ver[, joint_error]."""
    pipelines = []
    first_line: dict[str, int] = {}
    columns = ("id", "kind", "expected_cost", "eps_ret", "eps_gen", "eps_ver")
    at = _at(path, 1)
    with at:
        for id_, kind_raw, cost, eps_ret, eps_gen, eps_ver, joint_raw in _rows(at, columns, ("joint_error",)):
            pipeline_id = _unique_id("pipeline", id_.strip(), first_line, at.line)
            kind = _choice(PipelineKind, kind_raw.strip(), "pipeline kind")
            joint_raw = joint_raw.strip()
            pipelines.append(
                PipelineSpec(
                    id=check_pipeline_id(pipeline_id),
                    kind=kind,
                    expected_cost=_number(cost, "expected_cost"),
                    errors=ComponentErrors(
                        retrieval=_number(eps_ret, "eps_ret"),
                        generation=_number(eps_gen, "eps_gen"),
                        verification=_number(eps_ver, "eps_ver"),
                    ),
                    joint_error=_number(joint_raw, "joint_error") if joint_raw else None,
                )
            )
    return pipelines


def read_eval_records_csv(path: str | Path) -> dict[str, list[LossRecord]]:
    """Columns: component, loss[, predicted, actual]; ``predicted`` and ``actual`` are ignored.

    Rows with the same (component, loss) cell pair share one record, checked
    once; a bad pair fails at the first row that holds it.
    """
    sets: dict[str, list[LossRecord]] = {}
    parsed: dict[tuple[str, str], tuple[list[LossRecord], LossRecord]] = {}  # by cell pair
    at = _at(path, 1)
    with at:
        for cells in _rows(at, ("component", "loss"), ()):
            entry = parsed.get(cells)
            if entry is None:
                component, loss = cells
                component = component.strip()
                if component not in COMPONENTS:
                    raise ValueError(f"unknown component {component!r}")
                record = LossRecord("", "", _number(loss, "loss"))
                entry = parsed[cells] = (sets.setdefault(component, []), record)
            entry[0].append(entry[1])
    return sets


def read_propositions_csv(path: str | Path, pipelines: Mapping[str, PipelineSpec]) -> Docket:
    """Columns: id, description, weight, threshold, pipelines (semicolon ids).

    The weights' running total must stay finite; the row where it overflows
    is rejected."""
    propositions = []
    total_weight = 0.0
    sets: dict[str, tuple[PipelineSpec, ...]] = {}
    first_line: dict[str, int] = {}
    columns = ("id", "description", "weight", "threshold", "pipelines")
    at = _at(path, 1)
    with at:
        for id_, description, weight, threshold, listed_raw in _rows(at, columns, ()):
            prop_id = _unique_id("proposition", id_.strip(), first_line, at.line)
            if not prop_id:
                raise ValueError("a proposition needs a non-empty id")
            description = _one_line(description.strip(), "description")
            weight = _number(weight, "weight")
            threshold = _number(threshold, "threshold")
            propositions.append(Proposition(prop_id, description, weight, threshold))
            total_weight = _require("salience weight total", total_weight + weight, 0)
            listed = [p.strip() for p in listed_raw.split(";") if p.strip()]
            unknown = [p for p in listed if p not in pipelines]
            if unknown:
                raise ValueError(f"proposition {prop_id!r} references unknown pipeline(s): {', '.join(unknown)}")
            sets[prop_id] = tuple(pipelines[p] for p in listed)
    return Docket(propositions=tuple(propositions), pipeline_sets=sets)


def read_executions_csv(
    path: str | Path, known_propositions: Collection[str], pipelines: Mapping[str, PipelineSpec]
) -> list[ExecutionRecord]:
    """Columns: proposition_id, pipeline_id, executed, outcome, avoidance_evidence,
    certificate[, timestamp].

    The ids of ``pipelines`` are taken as proven, as ``read_pipelines_csv`` gives
    them. A certificate must be for the row's pipeline and validate every
    component that pipeline's kind runs. A timestamp cell that is not blank must pass
    ``check_timestamp``; a blank one leaves the execution undated.
    """
    records = []
    certificates: dict[str, ValidationCertificate] = {}  # by cell, so each file is read once
    # Each distinct (executed, outcome, avoidance_evidence) cell triple is parsed
    # once: files repeat a few dozen triples, and a bad one fails at its first row.
    states: dict[tuple[str, str, str], tuple[bool, Verdict | None, AvoidanceEvidence]] = {}
    base = Path(path).parent
    columns = ("proposition_id", "pipeline_id", "executed", "outcome", "avoidance_evidence", "certificate")
    at = _at(path, 1)
    with at:
        for prop_id, pipeline_id, executed, outcome, evidence, cert_raw, timestamp in _rows(
            at, columns, ("timestamp",)
        ):
            prop_id = prop_id.strip()
            if prop_id not in known_propositions:
                raise ValueError(f"execution references unknown proposition {prop_id!r}")
            state = states.get((executed, outcome, evidence))
            if state is None:
                state = states[executed, outcome, evidence] = _execution_state(executed, outcome, evidence)
            pipeline_id = pipeline_id.strip()
            if pipeline_id not in pipelines:
                check_pipeline_id(_one_line(pipeline_id, "pipeline id"))
                raise ValueError(f"execution references unknown pipeline {pipeline_id!r}")
            cert_raw = cert_raw.strip()
            certificate = None
            if cert_raw:
                first_read = cert_raw not in certificates
                if first_read:
                    cert_path = base / cert_raw  # an absolute cert_raw replaces base
                    if not cert_path.exists():
                        raise ValueError(f"certificate file not found: {cert_raw}")
                    try:
                        certificates[cert_raw] = read_certificate(cert_path)
                    except OSError as exc:
                        raise ValueError(f"cannot read certificate {cert_raw}: {exc.strerror}") from None
                certificate = certificates[cert_raw]
                if certificate.pipeline_id != pipeline_id:
                    wrote = certificate.pipeline_id
                    raise ValueError(f"certificate {cert_raw} is for pipeline {wrote!r}, not {pipeline_id!r}")
                if first_read:  # later rows naming this cell are for the same pipeline
                    # certify gives the synthetic n = 0 bound only to a component the
                    # kind lacks; on one it runs, it would count as error-free.
                    runs = pipelines[pipeline_id].kind.components
                    unvalidated = [
                        c for c, b in zip(COMPONENTS, certificate.bounds) if b.synthetic and c in runs
                    ]
                    if unvalidated:
                        raise ValueError(
                            f"certificate {cert_raw} has no evaluation records (n = 0) for component(s) "
                            f"{', '.join(unvalidated)}, which pipeline {pipeline_id!r} runs"
                        )
            timestamp = timestamp.strip()
            if timestamp:
                check_timestamp(timestamp)
            ran, verdict, flag = state
            records.append(ExecutionRecord(pipeline_id, prop_id, ran, certificate, verdict, flag, timestamp))
    return records


def _execution_state(
    executed: str, outcome: str, evidence: str
) -> tuple[bool, Verdict | None, AvoidanceEvidence]:
    """An executions row's ``executed``, ``outcome`` and ``avoidance_evidence`` cells, parsed."""
    executed_raw = executed.strip().lower()
    if executed_raw not in ("true", "false"):
        raise ValueError(f"column 'executed' must be true or false, got {executed!r}")
    outcome_raw = outcome.strip()
    verdict = _choice(Verdict, outcome_raw, "outcome") if outcome_raw else None
    evidence_raw = evidence.strip() or "none"
    flag = _choice(AvoidanceEvidence, evidence_raw, "avoidance evidence")
    return executed_raw == "true", verdict, flag


_PREFIXES = ("ret", "gen", "ver")  # the certificate key prefix of each of COMPONENTS


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

    Every key ``certificate_to_text`` writes must hold what the rebuilt certificate
    gives: an int or float equal as a number, anything else as the text written.
    An evidence key, read through its rule, always does. A key that does not, an
    unknown key and a number out of range fail at their line.
    """
    path = cert.path
    delta = cert.number("delta", to=check_delta)
    bounds = []
    for prefix in _PREFIXES:
        method = cert.text(f"{prefix}_method", to=lambda text: _choice(BoundMethod, text, "bound method"))
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
        written, line = cert.raw(key)
        wanted = _cert_value(value)
        if written != wanted and not (type(value) in (int, float) and cert.number(key, type(value)) == value):
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
    # Each frontier point, certificate and rationale line is rendered once per
    # report, as is each doctrine tuple's applicable/primary pair: propositions
    # share pipelines and certificates, and their verdicts, distinct as a whole,
    # repeat line by line. Pipelines and certificates are keyed by identity, and
    # `specs` and the certificate entries hold them so that no id is reused. A
    # rationale line is keyed by its doctrine and detail (strs and floats); as
    # 0.0 and -0.0 compare equal but print apart, a line with a falsy value, such
    # as a zero, is also keyed by its values' text, so its bare key never finds it.
    specs = {id(p): p for pipes in docket.pipeline_sets.values() for p in pipes}
    keys = {ref: _frontier_key(p) for ref, p in specs.items()}
    points = {ref: f"{p.id}:{fmt(p.expected_cost)}:{fmt(p.total_error())}" for ref, p in specs.items()}
    cert_texts: dict[int, tuple[ValidationCertificate, str]] = {}
    heads: dict[tuple[Doctrine, ...], str] = {}
    lines: dict[tuple, str] = {}
    for prop in docket.propositions:
        pipes = docket.pipeline_sets.get(prop.id, ())
        frontier = "none"
        if pipes:
            ordered = sorted(pipes, key=lambda p: keys[id(p)])
            frontier = "; ".join([points[id(p)] for p in _pareto(ordered)])
        certs = []
        for c in certificates.get(prop.id, ()):
            entry = cert_texts.get(id(c))
            if entry is None:
                s_lb = lower_bound_score(c, policy.tau_star)
                entry = cert_texts[id(c)] = (c, f"{c.pipeline_id}:s_lb={fmt(s_lb)}")
            certs.append(entry[1])
        finding = findings[prop.id]
        doctrines = tuple([doctrine for doctrine, _ in finding.rationale])
        head = heads.get(doctrines)
        if head is None:
            applicable = ",".join(sorted(d.value for d in finding.applicable)) or "none"
            primary = finding.primary.value if finding.primary else "none"
            head = heads[doctrines] = f"applicable = {applicable}\nprimary = {primary}\n"
        verdict = [head]
        for doctrine, detail in finding.rationale:
            key = (doctrine, *detail.items())
            line = lines.get(key)
            if line is None and not all(detail.values()):
                key += tuple(map(str, detail.values()))
                line = lines.get(key)
            if line is None:
                rendered = " ".join(f"{k}={_cell(v)}" for k, v in sorted(detail.items()))
                line = lines[key] = f"rationale.{doctrine.value} = {rendered}\n"
            verdict.append(line)
        score = org_scores.get(prop.id)
        blocks.append(
            f"\n[proposition {prop.id}]\n"
            f"description = {prop.description}\n"
            f"weight = {fmt(prop.salience_weight)}\n"
            f"threshold = {fmt(prop.threshold)}\n"
            f"org_score = {fmt(score) if score is not None else 'none'}\n"
            f"predicate = {_cell(score is not None and knowledge_predicate(score, prop.threshold))}\n"
            f"frontier = {frontier}\n"
            f"certificates = {'; '.join(certs) or 'none'}\n"
            f"{''.join(verdict)}"
        )
    blocks.append(
        "\n[capacity]\n"
        f"point = {fmt(capacity_point) if capacity_point is not None else 'none'}\n"
        f"lower_bound = {fmt(capacity_lower) if capacity_lower is not None else 'none'}\n"
        f"theta_neg = {fmt(policy.theta_neg)}\n"
    )
    return "".join(blocks)
