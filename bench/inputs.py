"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of (workload, seed, scale): the same seed
writes byte-identical files. The program under test sees only these files
(and, for the validation trail, the records parsed from the generated CSV). Each
generator also returns the input properties an optimisation depends on,
measured from what it wrote.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

# Sizes per scale. "full" is what the benchmark measures; "tiny" is the smoke
# test's, small enough that every workload finishes in well under a second.
SIZES = {
    "full": {
        "mc-docket": {"docs": 2000, "runs": 3},
        "audit-classify": {
            "pipelines": 48,
            "certs": 32,
            "records_per_component": 300,
            "dockets": [300, 1000, 3000],
            "records": 4000,
            "groups": 40,
        },
    },
    "tiny": {
        "mc-docket": {"docs": 80, "runs": 2},
        "audit-classify": {
            "pipelines": 8,
            "certs": 4,
            "records_per_component": 20,
            "dockets": [12, 30],
            "records": 200,
            "groups": 8,
        },
    },
}

CERT_TIMESTAMP = "2025-01-01T00:00:00+00:00"


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding goes through sha512, so it is stable across runs and
    # Python versions.
    return random.Random(f"{workload}:{seed}")


def _scaled_scenario(template: str, seed: int, size: int, euphemism_ratio: float) -> str:
    """appendix_a with its seed, corpus size and euphemism ratio replaced."""
    text = template
    for key, value in (
        ("seed", seed),
        ("size", size),
        ("euphemism_ratio", f"{euphemism_ratio:.3f}"),
    ):
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"scenario template has {n} '{key} = ' lines, expected 1")
    return text


def _mc_docket(seed: int, sizes: dict, template: str, out: Path) -> dict:
    # The seed picks the corpus contents; the size and the euphemism ratio
    # are fixed, so every seed asks for the same amount of work.
    scenario_seed = _rng("mc-docket", seed).randrange(1, 2**31)
    ratio = 0.1
    path = out / "scenario.scenario"
    path.write_text(_scaled_scenario(template, scenario_seed, sizes["docs"], ratio))
    return {
        "scenario": str(path),
        "runs": sizes["runs"],
        "properties": {
            "corpus_docs": sizes["docs"],
            "euphemism_ratio": ratio,
            "runs_per_call": sizes["runs"],
            "corpora_per_call": 1,
        },
    }


_KINDS = ("retrieval_only", "retrieval_generation", "full")
_COMPONENTS = {
    "retrieval_only": ("retrieval",),
    "retrieval_generation": ("retrieval", "generation"),
    "full": ("retrieval", "generation", "verification"),
}
_OUTCOMES = ("established", "refuted", "inconclusive", "")
_EVIDENCE = ("suppressed_query", "disabled_index", "filtered_alerts", "skipped_validation")


def _audit(seed: int, sizes: dict, out: Path) -> dict:
    rng = _rng("audit-classify", seed)
    pipelines = []
    rows = ["id,kind,expected_cost,eps_ret,eps_gen,eps_ver"]
    for i in range(sizes["pipelines"]):
        kind = _KINDS[i % len(_KINDS)]
        # A quarter are cheap and exact, the wilful-blindness candidates.
        cheap = i % 4 == 0
        cost = rng.uniform(0.2, 0.9) if cheap else rng.uniform(1.0, 14.0)
        eps = [0.0 if cheap else round(rng.uniform(0.0, 0.2), 4) for _ in range(3)]
        used = _COMPONENTS[kind]
        eps = [e if c in used else 0.0 for e, c in zip(eps, ("retrieval", "generation", "verification"))]
        pid = f"p{i:03d}"
        pipelines.append({"id": pid, "kind": kind, "cost": round(cost, 4)})
        rows.append(f"{pid},{kind},{cost:.4f},{eps[0]},{eps[1]},{eps[2]}")
    (out / "pipelines.csv").write_text("\n".join(rows) + "\n")

    # Four evaluation record sets with different error rates; each certified
    # pipeline uses one of them.
    n = sizes["records_per_component"]
    record_files = []
    for j, rate in enumerate((0.0, 0.01, 0.05, 0.2)):
        lines = ["component,loss"]
        for component in ("retrieval", "generation", "verification"):
            lines += [f"{component},{int(rng.random() < rate)}" for _ in range(n)]
        path = out / f"records_{j}.csv"
        path.write_text("\n".join(lines) + "\n")
        record_files.append(str(path))
    (out / "certs").mkdir()
    certs = []
    for i, p in enumerate(pipelines[: sizes["certs"]]):
        certs.append(
            {
                "pipeline": p["id"],
                "kind": p["kind"],
                "cost": p["cost"],
                "records": record_files[i % len(record_files)],
                "out": str(out / "certs" / f"{p['id']}.cert"),
            }
        )
    certified = [c["pipeline"] for c in certs]

    # The seed picks contents and order; the proportions are fixed, so every
    # seed asks for the same amount of work: in each 20 executions, 9 are
    # executed with a certificate, 5 executed without one, 6 not executed,
    # and 2 carry avoidance evidence.
    dockets = []
    cert_refs = 0
    cert_reused = 0
    for size in sizes["dockets"]:
        props = ["id,description,weight,threshold,pipelines"]
        prop_sets = []
        for i in range(size):
            chosen = rng.sample(pipelines, 1 + i % 4)
            prop_sets.append([p["id"] for p in chosen])
            props.append(
                f"q{i:05d},Proposition {i} of docket {size},{rng.uniform(0.5, 2.0):.3f},"
                f"{rng.uniform(0.6, 0.8):.3f},{';'.join(prop_sets[-1])}"
            )
        rows = []
        seen = set()
        for j in range(size):
            i = rng.randrange(size)
            slot = j % 20
            executed = slot < 14
            cert = ""
            if slot < 9:
                pid = rng.choice(certified)
                cert = f"certs/{pid}.cert"
                cert_refs += 1
                cert_reused += cert in seen
                seen.add(cert)
            else:
                pid = rng.choice(prop_sets[i])
            outcome = rng.choice(_OUTCOMES) if executed else ""
            evidence = rng.choice(_EVIDENCE) if j % 10 == 3 else "none"
            rows.append(f"q{i:05d},{pid},{str(executed).lower()},{outcome},{evidence},{cert},")
        rng.shuffle(rows)
        execs = ["proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp"] + rows
        prop_path = out / f"propositions_{size}.csv"
        exec_path = out / f"executions_{size}.csv"
        prop_path.write_text("\n".join(props) + "\n")
        exec_path.write_text("\n".join(execs) + "\n")
        dockets.append(
            {
                "propositions": str(prop_path),
                "executions": str(exec_path),
                "size": size,
                "report": str(out / f"report_{size}.txt"),
            }
        )
    total_execs = sum(sizes["dockets"])
    return {
        "pipelines": str(out / "pipelines.csv"),
        "certs": certs,
        "dockets": dockets,
        "seed": seed,
        **_evidence(rng, sizes, out),
        "properties": {
            "n": sizes["records"],
            "groups": sizes["groups"],
            "folds": 5,
            "pipelines": sizes["pipelines"],
            "certificates": sizes["certs"],
            "P": sizes["dockets"],
            "E": sizes["dockets"],
            "cert_path_reuse_share": round(cert_reused / total_execs, 4),
            "cert_refs_share": round(cert_refs / total_execs, 4),
        },
    }


def _evidence(rng: random.Random, sizes: dict, out: Path) -> dict:
    """Records for the validation trail: a feature and label, a group, a time
    key, a (confidence, correct) prediction and a per-component 0/1 loss."""
    n = sizes["records"]
    lines = ["x,y,group,time,confidence,correct,component,loss"]
    for i in range(n):
        x = rng.gauss(0.0, 1.0)
        y = int(x + rng.gauss(0.0, 0.8) > 0.0)
        confidence = min(1.0, max(0.0, 0.5 + 0.4 * x * (1 if y else -1) + rng.gauss(0.0, 0.1)))
        correct = int(rng.random() < confidence)
        component = ("retrieval", "generation", "verification")[i % 3]
        loss = int(rng.random() < 0.03)
        lines.append(
            f"{x:.6f},{y},g{rng.randrange(sizes['groups'])},{i},{confidence:.6f},"
            f"{correct},{component},{loss}"
        )
    path = out / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    return {"records": str(path), "shuffle_seed": rng.randrange(2**31)}


def generate(workload: str, seed: int, scale: str, out: Path, scenario_template: str) -> dict:
    """Write the workload's inputs under ``out``; return the job description."""
    sizes = SIZES[scale][workload]
    if workload == "audit-classify":
        job = _audit(seed, sizes, out)
    else:
        job = _mc_docket(seed, sizes, scenario_template, out)
    job.update(workload=workload, seed=seed, scale=scale, workdir=str(out))
    return job
