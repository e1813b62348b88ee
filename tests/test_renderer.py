"""CLI stdout checked against the renderer of the benchmark's oracle.

``bench/oracle.py`` writes what ``audit``, ``homology``, ``thom`` and
``morse`` print from closed forms and known constructions, without
mbaudit, so these checks reach generated documents and every catalog
space, not only the invocations pinned in ``cli_golden.json``.
"""

import ast
import json
from itertools import islice
from pathlib import Path
from random import Random

import oracle
import workloads
from helpers import REPO, run_cli

MAX_DIM = 7
TAGS = ["point", "torus2"] + [f"{f}:{n}" for f in ("sphere", "rp") for n in range(1, MAX_DIM + 1)]


def test_the_oracle_is_bench_oracle_and_imports_no_mbaudit():
    path = REPO / "bench" / "oracle.py"
    assert Path(oracle.__file__).resolve() == path
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [n for n in imported if n.split(".")[0] == "mbaudit"]


def document_text(ambient, criticals) -> str:
    pieces = [
        {"space": tag, "index": index, "negative_character": "twisted" if twisted else "orientable"}
        for tag, index, twisted in criticals
    ]
    return json.dumps({"format": 1, "ambient": ambient, "criticals": pieces})


def test_audit_stdout_matches_the_oracle_on_catalog_documents(tmp_path):
    # every verdict probe on every ambient family, at dimensions 12..40
    # (the noise pairs need 12) and with up to 8 noise pairs
    rng = Random(2026)
    path = tmp_path / "document.json"
    for i in range(100):
        family = "torus2" if i % 8 == 7 else "sphere" if i % 3 == 2 else "rp"
        kind = i % len(workloads.PROBES)
        ambient, crits = workloads.catalog_document(rng, kind, family, rng.randint(12, 40), rng.randint(0, 8))
        path.write_text(document_text(ambient, crits))
        for mode in workloads.MODES:
            for naive in (False, True):
                got = run_cli("audit", str(path), "--mode", mode, *["--naive"] * naive)
                assert got == (*oracle.audit_stdout(ambient, crits, mode, naive), "")


def test_homology_and_thom_stdout_match_the_oracle_on_every_catalog_tag():
    for tag in TAGS:
        for twisted in (False, True):
            code, out, err = run_cli("homology", tag, *["--twisted"] * twisted)
            character = "twisted" if twisted else "orientable"
            if twisted and not oracle.admits_twist(tag):
                assert (code, out) == (3, "") and err.startswith("error: ")
                continue
            assert (code, out, err) == (0, oracle.homology_stdout(tag, twisted), "")
            for rank in range(4):
                code, out, err = run_cli("thom", f"{tag},{rank},{character}")
                if twisted and rank == 0:  # a rank-0 bundle has nothing to twist
                    assert (code, out) == (3, "") and err.startswith("error: ")
                    continue
                assert (code, out, err) == (0, oracle.thom_stdout(tag, rank, twisted), "")


def test_morse_stdout_matches_the_oracle_on_explicit_documents(tmp_path):
    # the "known" draws: a Morse block that is its ambient in another sign
    # basis, with a `gauge` twist that every fourth draw makes inconsistent
    path = tmp_path / "document.json"
    items = workloads.ExplicitComplexes(REPO, 2026, 5.0).items(Random(2026))
    known = [item for item in islice(items, 12) if item["family"] == "known"]
    inconsistent = 0
    for item in known:
        path.write_text(item["input"])
        top = max(g["index"] for g in json.loads(item["input"])["morse"]["generators"])
        _, before, after = item["expected"]
        assert run_cli("morse", str(path)) == (0, oracle.morse_stdout(before, top), "")
        rank = item["rank"]
        got = run_cli("morse", str(path), "--stabilize", str(rank), "--twist", "gauge")
        if after == "InconsistentTwistError":
            # the table before the twist is already printed
            assert got[:2] == (4, oracle.morse_stdout(before, top)) and got[2].startswith("error: ")
            inconsistent += 1
            continue
        assert got == (0, oracle.morse_stdout(before, top, (rank, "gauge", after)), "")
    assert len(known) == 8 and inconsistent == 2
