"""File schemas and report rendering for the command-line front end.

Pipelines, propositions, executions, and evaluation records travel as CSV;
certificates and policies as flat key=value text (certificates at full
precision, so they round-trip); audit reports as sectioned key=value text
with every number at fixed 4-decimal precision so reports are diff-able and
byte-reproducible. Certificates, policies and scenario files share one
``key = value`` grammar, read by ``parse_sections``.

The parsing helpers raise a plain ValueError, and ``_at`` alone turns it into an
InputError at ``path:line``: a CSV reader's ``_rows`` finds the line of the row it failed
on, ``Section`` enters one at a key's line, and ``judged`` at the line of the first key
whose value alone breaks a rule.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
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
    code turns one into the other.

    A class, not a generator: it costs a quarter as much, and ``_rows`` extends it."""

    def __init__(self, path: str | Path, line: int | None):
        self.path, self.line = str(path), line

    def __enter__(self):
        return self

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
        try:
            return to(value)
        except ValueError:  # ``_at`` is entered only here: it costs as much as a rule
            with _at(self.path, line):
                raise

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
    if not text.isprintable() and len(text.splitlines()) > 1:  # every line break is unprintable
        raise ValueError(f"{what} {text!r} holds a line break")
    return text


def _unique_id(kind: str, id_: str, seen: Collection[str], rows: _rows) -> str:
    """``id_``, or a ValueError if it holds a line break or is one of the ids ``seen``."""
    _one_line(id_, f"{kind} id")
    if id_ in seen:
        at = rows.header.index("id")
        first = next(n for n, _, cells in _starts(rows.file) if n > 1 and cells and cells[at].strip() == id_)
        raise ValueError(f"duplicate {kind} id {id_!r} (first at line {first})")
    return id_


def _starts(file: io.StringIO) -> Iterator[tuple[int, float, list[str]]]:
    """Each row of ``file`` read again (a blank line as []) with its first and last line;
    malformed CSV ends them."""
    reader = csv.reader(io.StringIO(file.getvalue()))
    start = 1
    try:
        for cells in reader:
            yield start, reader.line_num, cells
            start = reader.line_num + 1
    except csv.Error:
        yield start, math.inf, []


class _rows(_at):
    """The ``expected`` and ``optional`` cells of each data row of the CSV file ``path``,
    iterated under ``with``. A quoted cell may span lines and a blank line is no row; an
    optional cell that the header or the row lacks reads "". No line is kept per row: when
    the block raises, the text is read again for the line the row being read starts on.
    """

    def __init__(self, path: str | Path, expected: Sequence[str], optional: Sequence[str]):
        super().__init__(path, 1)
        self.file, self.expected = io.StringIO(read_input(path)), expected
        self.reader = csv.reader(self.file)
        with self:
            header = self.header = next(self.reader, None)
            if header is None:
                raise ValueError("empty file (missing header)")
            missing = [c for c in expected if c not in header]
            if missing:
                raise ValueError(f"missing column(s): {', '.join(missing)}")
            repeated = [c for c in (*expected, *optional) if header.count(c) > 1]
            if repeated:
                raise ValueError(f"repeated column(s): {', '.join(repeated)}")
        columns = [header.index(c) if c in header else -1 for c in (*expected, *optional)]
        # Rows are padded in C: at the end for optional cells past the expected ones (a row
        # short of an expected cell still raises IndexError), at the start for a column not there.
        rows = filter(None, self.reader)  # a blank line is no row
        self.width = 1 + max(columns[: len(expected)])
        if max(columns) >= self.width:
            rows = map(operator.iadd, rows, itertools.repeat([""] * (1 + max(columns) - self.width)))
        if -1 in columns:
            rows, columns = map(operator.add, itertools.repeat([""]), rows), [c + 1 for c in columns]
        self.cells = map(operator.itemgetter(*columns), rows)
        self.line = None

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return self.cells

    def __exit__(self, kind, exc, tb) -> None:
        if kind is csv.Error:  # e.g. a field over csv.field_size_limit()
            kind, exc = ValueError, ValueError(f"malformed CSV: {exc}")
        if kind is not None and self.line is None:
            self.line, _, cells = next(row for row in _starts(self.file) if row[1] >= self.reader.line_num)
            if kind is IndexError and len(cells) < self.width:  # a short row, or one a quote ran on into
                empty = ", ".join(c for c in self.expected if self.header.index(c) >= len(cells))
                kind, exc = ValueError, ValueError(f"row has no value for column(s): {empty}")
        super().__exit__(kind, exc, tb)


def read_pipelines_csv(path: str | Path) -> list[PipelineSpec]:
    """Columns: id, kind, expected_cost, eps_ret, eps_gen, eps_ver[, joint_error]."""
    pipelines: dict[str, PipelineSpec] = {}
    columns = ("id", "kind", "expected_cost", "eps_ret", "eps_gen", "eps_ver")
    with _rows(path, columns, ("joint_error",)) as rows:
        for id_, kind_raw, cost, eps_ret, eps_gen, eps_ver, joint_raw in rows:
            pipeline_id = _unique_id("pipeline", id_.strip(), pipelines, rows)
            kind = _choice(PipelineKind, kind_raw.strip(), "pipeline kind")
            joint_raw = joint_raw.strip()
            pipelines[pipeline_id] = PipelineSpec(
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
    return list(pipelines.values())


def read_eval_records_csv(path: str | Path) -> dict[str, list[LossRecord]]:
    """Columns: component, loss[, predicted, actual]; ``predicted`` and ``actual`` are ignored.

    Rows with the same (component, loss) cell pair share one record, checked
    once; a bad pair fails at the first row that holds it.
    """
    sets: dict[str, list[LossRecord]] = {}

    @functools.cache  # by cell pair
    def parsed(component: str, loss: str) -> tuple[Callable, LossRecord]:
        component = component.strip()
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        return sets.setdefault(component, []).append, LossRecord("", "", _number(loss, "loss"))

    with _rows(path, ("component", "loss"), ()) as rows:
        for append, record in itertools.starmap(parsed, rows):
            append(record)
    return sets


def read_propositions_csv(path: str | Path, pipelines: Mapping[str, PipelineSpec]) -> Docket:
    """Columns: id, description, weight, threshold, pipelines (semicolon ids).

    Each distinct pipelines cell is read once, and a bad one fails at the first row
    that holds it. The weights' running total must stay finite; the row where it
    overflows is rejected."""
    propositions = []
    total_weight = 0.0
    sets: dict[str, tuple[PipelineSpec, ...]] = {}

    @functools.cache
    def listed_pipelines(cell: str) -> tuple[PipelineSpec, ...]:  # first held by the row of prop_id
        listed = list(filter(None, map(str.strip, cell.split(";"))))
        try:
            return tuple(map(pipelines.__getitem__, listed))
        except KeyError:
            unknown = ", ".join(p for p in listed if p not in pipelines)
            raise ValueError(f"proposition {prop_id!r} references unknown pipeline(s): {unknown}") from None

    with _rows(path, ("id", "description", "weight", "threshold", "pipelines"), ()) as rows:
        for id_, description, weight, threshold, listed in rows:
            prop_id = _unique_id("proposition", id_.strip(), sets, rows)
            if not prop_id:
                raise ValueError("a proposition needs a non-empty id")
            description = _one_line(description.strip(), "description")
            weight = _number(weight, "weight")
            propositions.append(Proposition(prop_id, description, weight, _number(threshold, "threshold")))
            total_weight += weight
            if total_weight == math.inf:  # each weight is finite and >= 0, so the total is < inf or inf
                _require("salience weight total", total_weight, 0)
            sets[prop_id] = listed_pipelines(listed)
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
    # Each distinct (executed, outcome, avoidance_evidence) cell triple is parsed
    # once: files repeat a few dozen triples, and a bad one fails at its first row.
    states = functools.cache(_execution_state)
    base = Path(path).parent

    @functools.cache  # so each certificate cell is read once: a second pipeline beside it fails
    def certificate_for(cert_raw: str, pipeline_id: str) -> ValidationCertificate:
        cert_path = base / cert_raw  # an absolute cert_raw replaces base
        if not cert_path.exists():
            raise ValueError(f"certificate file not found: {cert_raw}")
        try:
            certificate = read_certificate(cert_path)
        except OSError as exc:
            raise ValueError(f"cannot read certificate {cert_raw}: {exc.strerror}") from None
        if certificate.pipeline_id != pipeline_id:
            wrote = certificate.pipeline_id
            raise ValueError(f"certificate {cert_raw} is for pipeline {wrote!r}, not {pipeline_id!r}")
        # certify gives the synthetic n = 0 bound only to a component the
        # kind lacks; on one it runs, it would count as error-free.
        runs = pipelines[pipeline_id].kind.components
        unvalidated = [c for c, b in zip(COMPONENTS, certificate.bounds) if b.synthetic and c in runs]
        if unvalidated:
            raise ValueError(
                f"certificate {cert_raw} has no evaluation records (n = 0) for component(s) "
                f"{', '.join(unvalidated)}, which pipeline {pipeline_id!r} runs"
            )
        return certificate

    columns = ("proposition_id", "pipeline_id", "executed", "outcome", "avoidance_evidence", "certificate")
    with _rows(path, columns, ("timestamp",)) as rows:
        for prop_id, pipeline_id, executed, outcome, evidence, cert_raw, timestamp in rows:
            prop_id = prop_id.strip()
            if prop_id not in known_propositions:
                raise ValueError(f"execution references unknown proposition {prop_id!r}")
            ran, verdict, flag = states(executed, outcome, evidence)
            pipeline_id = pipeline_id.strip()
            if pipeline_id not in pipelines:
                check_pipeline_id(_one_line(pipeline_id, "pipeline id"))
                raise ValueError(f"execution references unknown pipeline {pipeline_id!r}")
            cert_raw = cert_raw.strip()
            certificate = certificate_for(cert_raw, pipeline_id) if cert_raw else None
            timestamp = timestamp.strip()
            if timestamp:
                check_timestamp(timestamp)
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
