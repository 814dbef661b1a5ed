"""Byte identity of the CLI: replay every run of `cli_manifest.json`.

The manifest pins stdout (by sha256), stderr and the exit code of each argv;
`make_cli_manifest.py` beside it regenerates it and defines its corpus.
"""

import json

from make_cli_manifest import COLUMNS, MANIFEST, corpus, digest, run


def test_manifest_holds_the_corpus_in_order():
    # an edit to the corpus that is never regenerated fails here
    entries = json.loads(MANIFEST.read_text())
    assert [(e["argv"], e.get("input")) for e in entries] == corpus()


def test_every_manifest_run_is_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    entries = json.loads(MANIFEST.read_text())
    assert len(entries) > 2500
    differ = []
    for e in entries:
        out, err, code = run(e["argv"], e.get("input"))
        if (digest(out), err, code) != (e["stdout_sha256"], e["stderr"], e["exit"]):
            differ.append(" ".join(e["argv"])[:160])
    assert not differ, f"{len(differ)} of {len(entries)} runs differ:\n" + "\n".join(differ)
