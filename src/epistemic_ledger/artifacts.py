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
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Collection, Iterable, Mapping, NoReturn, Sequence

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
    FrontierPoint,
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
    CertProvenance,
    ConfidenceBound,
    LossRecord,
    ValidationCertificate,
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

    A class, not a generator: it wraps every CSV row and costs a quarter as much."""

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

    def number(self, key: str, cast: type = float) -> float:
        value, line = self.raw(key)
        return _number(value, key, self.path, line, cast)

    def integer(self, key: str) -> int:
        return self.number(key, int)


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


def _short_hash(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:12]


def policy_hash(policy: PolicyParams) -> str:
    canon = ",".join(f"{name}={getattr(policy, name)!r}" for name in _POLICY_KEYS)
    return _short_hash(canon.encode("utf-8"))


def files_hash(paths: Iterable[str | Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:12]


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


def _rows(path: str | Path, expected: Sequence[str]) -> Iterable[tuple[int, dict[str, str]]]:
    """Each data row with the line it starts on (a quoted cell may span lines)."""
    reader = csv.reader(io.StringIO(read_input(path)))
    start = 1  # the line the row being read starts on
    try:
        header = next(reader, None)
        if header is None:
            raise InputError("empty file (missing header)", str(path), 1)
        missing = [c for c in expected if c not in header]
        if missing:
            raise InputError(f"missing column(s): {', '.join(missing)}", str(path), 1)
        width = 1 + max(header.index(c) for c in expected)
        start = reader.line_num + 1
        for cells in reader:
            if len(cells) >= width:
                yield start, dict(zip(header, cells))
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
    for line, row in _rows(path, ("id", "kind", "expected_cost", "eps_ret", "eps_gen", "eps_ver")):
        pipeline_id = _unique_id("pipeline", row["id"].strip(), first_line, path, line)
        kind = _choice(PipelineKind, row["kind"].strip(), "pipeline kind", path, line)
        joint_raw = (row.get("joint_error") or "").strip()
        with _at(path, line):
            pipelines.append(
                PipelineSpec(
                    id=check_pipeline_id(pipeline_id),
                    kind=kind,
                    expected_cost=_number(row["expected_cost"], "expected_cost", path, line),
                    errors=ComponentErrors(
                        retrieval=_number(row["eps_ret"], "eps_ret", path, line),
                        generation=_number(row["eps_gen"], "eps_gen", path, line),
                        verification=_number(row["eps_ver"], "eps_ver", path, line),
                    ),
                    joint_error=_number(joint_raw, "joint_error", path, line) if joint_raw else None
                )
            )
    return pipelines


def read_eval_records_csv(path: str | Path) -> dict[str, list[LossRecord]]:
    """Columns: component, loss[, predicted, actual]."""
    sets: dict[str, list[LossRecord]] = {}
    for line, row in _rows(path, ("component", "loss")):
        component = row["component"].strip()
        if component not in COMPONENTS:
            raise InputError(f"unknown component {component!r}", str(path), line)
        with _at(path, line):
            record = LossRecord(
                predicted=(row.get("predicted") or "").strip(),
                actual=(row.get("actual") or "").strip(),
                loss=_number(row["loss"], "loss", path, line),
            )
        sets.setdefault(component, []).append(record)
    return sets


def read_propositions_csv(path: str | Path, pipelines: Mapping[str, PipelineSpec]) -> Docket:
    """Columns: id, description, weight, threshold, pipelines (semicolon ids)."""
    propositions = []
    sets: dict[str, tuple[PipelineSpec, ...]] = {}
    first_line: dict[str, int] = {}
    for line, row in _rows(path, ("id", "description", "weight", "threshold", "pipelines")):
        prop_id = _unique_id("proposition", row["id"].strip(), first_line, path, line)
        with _at(path, line):
            propositions.append(
                Proposition(
                    id=prop_id,
                    description=_one_line(row["description"].strip(), "description", path, line),
                    salience_weight=_number(row["weight"], "weight", path, line),
                    threshold=_number(row["threshold"], "threshold", path, line),
                )
            )
        listed = [p.strip() for p in row["pipelines"].split(";") if p.strip()]
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
    path: str | Path, known_propositions: Collection[str], known_pipelines: Collection[str]
) -> list[ExecutionRecord]:
    """Columns: proposition_id, pipeline_id, executed, outcome, avoidance_evidence, certificate, timestamp."""
    records = []
    certificates: dict[str, ValidationCertificate] = {}  # by cell, so each file is read once
    base = Path(path).parent
    for line, row in _rows(
        path,
        ("proposition_id", "pipeline_id", "executed", "outcome", "avoidance_evidence", "certificate"),
    ):
        prop_id = row["proposition_id"].strip()
        if prop_id not in known_propositions:
            raise InputError(
                f"execution references unknown proposition {prop_id!r}", str(path), line
            )
        executed_raw = row["executed"].strip().lower()
        if executed_raw not in ("true", "false"):
            raise InputError(
                f"column 'executed' must be true or false, got {row['executed']!r}",
                str(path),
                line,
            )
        outcome_raw = (row.get("outcome") or "").strip()
        outcome = _choice(Verdict, outcome_raw, "outcome", path, line) if outcome_raw else None
        evidence_raw = (row.get("avoidance_evidence") or "none").strip() or "none"
        evidence = _choice(AvoidanceEvidence, evidence_raw, "avoidance evidence", path, line)
        pipeline_id = _one_line(row["pipeline_id"].strip(), "pipeline id", path, line)
        with _at(path, line):
            check_pipeline_id(pipeline_id)
        if pipeline_id not in known_pipelines:
            raise InputError(
                f"execution references unknown pipeline {pipeline_id!r}", str(path), line
            )
        cert_raw = (row.get("certificate") or "").strip()
        certificate = None
        if cert_raw:
            certificate = certificates.get(cert_raw)
            if certificate is None:
                cert_path = base / cert_raw  # an absolute cert_raw replaces base
                if not cert_path.exists():
                    raise InputError(f"certificate file not found: {cert_raw}", str(path), line)
                certificate = certificates[cert_raw] = read_certificate(cert_path)
            if certificate.pipeline_id != pipeline_id:
                raise InputError(
                    f"certificate {cert_raw} is for pipeline {certificate.pipeline_id!r}, "
                    f"not {pipeline_id!r}",
                    str(path),
                    line,
                )
        with _at(path, line):
            records.append(
                ExecutionRecord(
                    pipeline_id=pipeline_id,
                    proposition_id=prop_id,
                    executed=executed_raw == "true",
                    certificate=certificate,
                    outcome=outcome,
                    avoidance_evidence=evidence,
                    timestamp=(row.get("timestamp") or "").strip(),
                )
            )
    return records


def certificate_to_text(cert: ValidationCertificate) -> str:
    """Flat key=value serialization, full precision for exact round-trips."""
    lines = [
        "# validation certificate",
        f"pipeline_id = {cert.pipeline_id}",
        f"measured_cost = {cert.measured_cost!r}",
        f"delta = {cert.delta!r}",
        f"total_upper = {cert.total_upper!r}",
    ]
    for prefix, bound in (
        ("ret", cert.ret_bound),
        ("gen", cert.gen_bound),
        ("ver", cert.ver_bound),
    ):
        lines.extend(
            [
                f"{prefix}_point = {bound.point_estimate!r}",
                f"{prefix}_upper = {bound.upper!r}",
                f"{prefix}_method = {bound.method.value}",
                f"{prefix}_delta = {bound.delta!r}",
                f"{prefix}_n = {bound.sample_size}",
                f"{prefix}_synthetic = {str(bound.synthetic).lower()}",
            ]
        )
    prov = cert.provenance
    lines.extend(
        [
            f"fold_strategy = {prov.fold_strategy}",
            f"sample_sizes = {','.join(str(n) for n in prov.sample_sizes)}",
            f"timestamp = {prov.timestamp}",
            f"union_delta = {prov.union_delta!r}",
        ]
    )
    return "\n".join(lines) + "\n"


def read_certificate(path: str | Path) -> ValidationCertificate:
    cert = parse_sections(read_input(path), str(path), flat=True)[""]

    def bound(prefix: str) -> ConfidenceBound:
        method_raw, line = cert.raw(f"{prefix}_method")
        method = _choice(BoundMethod, method_raw, "bound method", path, line)
        with _at(path, line):
            return ConfidenceBound(
                point_estimate=cert.number(f"{prefix}_point"),
                upper=cert.number(f"{prefix}_upper"),
                method=method,
                delta=cert.number(f"{prefix}_delta"),
                sample_size=cert.integer(f"{prefix}_n"),
                synthetic=cert.text(f"{prefix}_synthetic") == "true",
            )

    sizes_raw, sizes_line = cert.raw("sample_sizes")
    sizes = tuple(
        _number(s, "sample_sizes", path, sizes_line, int)
        for s in sizes_raw.split(",")
        if s.strip() != ""
    )
    if len(sizes) != 3:
        raise InputError("sample_sizes must have three entries", str(path), sizes_line)
    with _at(path, cert.line):
        return ValidationCertificate(
            pipeline_id=cert.text("pipeline_id"),
            measured_cost=cert.number("measured_cost"),
            ret_bound=bound("ret"),
            gen_bound=bound("gen"),
            ver_bound=bound("ver"),
            total_upper=cert.number("total_upper"),
            delta=cert.number("delta"),
            provenance=CertProvenance(
                fold_strategy=cert.text("fold_strategy"),
                sample_sizes=sizes,  # type: ignore[arg-type]
                timestamp=cert.text("timestamp"),
                union_delta=cert.number("union_delta"),
            ),
        )


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


def frontier_field(points: Sequence[FrontierPoint]) -> str:
    return "; ".join(
        f"{p.pipeline_id}:{fmt(p.cost)}:{fmt(p.total_error)}" for p in points
    )


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
    lines = [
        "# audit report (model classification, not legal advice)",
        f"version = {version}",
        f"policy_hash = {policy_hash(policy)}",
        f"inputs_hash = {inputs_hash}",
        f"seed = {seed}",
        f"tau_star = {fmt(policy.tau_star)}",
        f"theta_c = {fmt(policy.theta_c)}",
    ]
    for prop in docket.propositions:
        pipes = docket.pipeline_sets.get(prop.id, ())
        finding = findings[prop.id]
        lines.append("")
        lines.append(f"[proposition {prop.id}]")
        lines.append(f"description = {prop.description}")
        lines.append(f"weight = {fmt(prop.salience_weight)}")
        lines.append(f"threshold = {fmt(prop.threshold)}")
        score = org_scores.get(prop.id)
        lines.append(f"org_score = {fmt(score) if score is not None else 'none'}")
        lines.append(f"predicate = {_cell(score is not None and score >= prop.threshold)}")
        lines.append(
            "frontier = " + (frontier_field(epistemic_frontier(pipes)) if pipes else "none")
        )
        certs = certificates.get(prop.id, ())
        if certs:
            rendered = "; ".join(
                f"{c.pipeline_id}:s_lb={fmt(lower_bound_score(c, policy.tau_star))}"
                for c in certs
            )
            lines.append(f"certificates = {rendered}")
        else:
            lines.append("certificates = none")
        applicable = ",".join(sorted(d.value for d in finding.applicable)) or "none"
        lines.append(f"applicable = {applicable}")
        lines.append(f"primary = {finding.primary.value if finding.primary else 'none'}")
        for doctrine, detail in finding.rationale:
            rendered = " ".join(f"{k}={_cell(v)}" for k, v in sorted(detail.items()))
            lines.append(f"rationale.{doctrine.value} = {rendered}")
    lines.append("")
    lines.append("[capacity]")
    lines.append(
        f"point = {fmt(capacity_point) if capacity_point is not None else 'none'}"
    )
    lines.append(
        f"lower_bound = {fmt(capacity_lower) if capacity_lower is not None else 'none'}"
    )
    lines.append(f"theta_neg = {fmt(policy.theta_neg)}")
    return "\n".join(lines) + "\n"
