"""Byte identity of the CLI: replay every run of `cli_manifest.json`.

The manifest pins stdout (by sha256), stderr and the exit code of each argv;
`make_cli_manifest.py` beside it regenerates it and defines its corpus.
`LARGE_PINS` carries the stdout pins past the manifest's beta <= 44.
"""

import json

from make_cli_manifest import COLUMNS, LAYERS, MANIFEST, corpus, digest, run

# stdout sha256 of `analyze` on pairs past the manifest, in four forms
FORMS = {
    "json": [],
    "text": ["--format", "text"],
    "svg": ["--format", "svg"],
    "svg-all": ["--format", "svg", "--layers", LAYERS],
}
LARGE_PINS = {
    ((76, 85), "json"): "f53688566bff5baff62b1fcb095b244b20265ab9b79484e357bf990f374aa037",
    ((76, 85), "text"): "c39c6a5aa6557c77dcedbbf856681e93d3a5b7c26888641b50b177cc945154c0",
    ((76, 85), "svg"): "af7a220f4827ec295a26cfdf78de2b5362f4d5ba80ded1a0d6cc69606b6af374",
    ((76, 85), "svg-all"): "6160d72854ef6f62fa743d71878df2a972627c5806bdb0e098d93b744b9da818",
    ((80, 81), "json"): "f09c47e509d540a9976aada32f7e7123c7dff929d1372305f3f68289b3718ef0",
    ((80, 81), "text"): "3670640e17e10155101d062641f9c3a0cee1b9e1559d6fb5a2da306d6a6a0c1e",
    ((80, 81), "svg"): "8c14b2eb30b868e2cdfbe23906201a3dd86d410c24ec1ab81d72f2f492cace4d",
    ((80, 81), "svg-all"): "15bd5ae4046fc848f5e9edec20dd022b60cefb1e18d0b5c24314af1f6ca4a73b",
    ((2, 161), "json"): "d0e5be4ea00537cbce700969b7db2aba9fed67144213e990d59db75277c90e7c",
    ((2, 161), "text"): "ae66562e9bc4bd7e8d7f91ba6551dfec1728d0fd80cf8e4af012c369fc7dc702",
    ((2, 161), "svg"): "84b4bbf3c610b838275f4713860d26237a471bfdfbcd6bda128712c5566c722d",
    ((2, 161), "svg-all"): "84b4bbf3c610b838275f4713860d26237a471bfdfbcd6bda128712c5566c722d",
    ((3, 100), "json"): "9f5be244d5b65b4d2cb5434d7fa5f8d65f0a3788c49a0a93341e2c4cf680e8eb",
    ((3, 100), "text"): "4e36dea0158feee985abb8fe058ea88401864d831a35b221dc7338f0488b294b",
    ((3, 100), "svg"): "31dcf572b40b3b6ce713dd79adc954b5613b445e4ec8366d0bc3d8b567a158a5",
    ((3, 100), "svg-all"): "f487ed3b9403a07040570acba871596b0ac3c7a73f76b7bb1d72e36195e4d176",
    # odd alpha, even beta: the self-symmetric column at size
    ((99, 100), "json"): "82a298bf0712ba6d1de8265556827388f476f510b5ddf675a2563e50e16df365",
    ((99, 100), "text"): "4434308ac72c9e9c4e57dec3e430b4a2331fd3f5abc7c16a8ab66a7292e078ed",
    ((99, 100), "svg"): "436b5259060f0912ec93ba938ccb6650879d3ec84c5507b4051dad9e698cfb39",
    ((99, 100), "svg-all"): "4a1c476991c5ec4e7e967c3a3aab9a499be3fe1f5a94d77b420c3178c9ac446d",
}


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


def test_analyze_output_is_pinned_past_the_manifest():
    for ((alpha, beta), form), want in LARGE_PINS.items():
        out, err, code = run(["analyze", "--alpha", str(alpha), "--beta", str(beta), *FORMS[form]])
        assert (digest(out), err, code) == (want, "", 0), (alpha, beta, form)
