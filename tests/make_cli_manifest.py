"""Regenerate `tests/cli_manifest.json`, the byte-identity manifest of the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_manifest.py

Each entry holds one argv, the sha256 of its stdout, its stderr text and its
exit code, from an in-process `gapsym.cli.main` call; `test_cli_manifest.py`
replays them.  A `reconstruct` entry also holds the text of its input file;
its argv and stderr name that file as `{input}`.  A change that means to
alter some output regenerates the manifest and names each argv whose entry
changed.  Runs that take over 1 s are left out of the corpus:
`classes --gens 400,401` (about 1.5 s), the ed-229 `semimodule` over <400, 401>
(about 1 s) and `survey --max-beta 40`; the script names any run in it that
takes longer.  Some stderr texts quote Python's
own messages (argparse, the JSON decoder, the int digit limit), so the
manifest holds for the Python version that made it, CPython 3.11.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "cli_manifest.json"
INPUT = "{input}"
# argparse wraps its usage text to the terminal width, which it reads from
# COLUMNS; the manifest and its replay both fix it
COLUMNS = "80"

LAYERS = "grid,diagonal,values,wilf,triangles,rectangle,sg,ssg,fg"
SURVEY_CHECKS = ("all", "partition", "reconstruct", "equifix", "red", "uff",
                 "cardinality", "conductor-sym")
GEN_SETS = ("1", "2,3", "3,5", "5,7", "8,13", "4,6", "0,5", "-3,5", "4,6,13", "6,9,20",
            "10,14,27", "7,11,13,17", "60,67", "100,113,127", "400,401", "512,513", "4,x")
SEMIMODULES = (
    ("5,7", "0,9,11,8"),
    ("4,6,13", "0,100000"),
    ("400,401", ",".join(map(str, range(400)))),
    ("5,7", "0"),
    ("7,8", "-5,0"),
    ("4,6", "0"),
)
BIG = "1" * 5000
RECONSTRUCT_78 = {"alpha": 7, "beta": 8, "sg_values": [13, 6, 5], "sg_side": "T_r",
                  "ssg_values": [4, 12, 20]}
# (input file text, extra flags) of inputs that fail; each exits 3 or 4
BAD_INPUTS = [
    ("not json at all", []),
    ("\udcff\udcfe" + '{"alpha": 7}', []),
    (f'{{"alpha": 7, "beta": 8, "sg_values": [{BIG}], "ssg_values": []}}', []),
    (f'{{"sg_values": [{BIG}], "ssg_values": []}}', ["--infer"]),
] + [(json.dumps(payload), flags) for payload, flags in [
    ({"alpha": 7, "beta": 8, "sg_values": [], "ssg_values": [], "bogus": 1}, []),
    ({"alpha": 7, "beta": 8, "sg_values": [5], "sg_cells": [[5, 2]], "ssg_values": []}, []),
    ([RECONSTRUCT_78], []),
    ({**RECONSTRUCT_78, "sg_side": "T_x"}, []),
    ({**RECONSTRUCT_78, "alpha": True}, []),
    ({**RECONSTRUCT_78, "sg_values": [13, True, 5]}, []),
    ({**RECONSTRUCT_78, "sg_values": [13, 6, 7]}, []),
    ({**RECONSTRUCT_78, "ssg_values": [4, 12, 42]}, []),
    ({"sg_cells": [[1, 1]], "ssg_cells": []}, ["--infer"]),
    ({"sg_values": [], "ssg_values": []}, ["--infer"]),
    ({"alpha": 7, "beta": 8, "sg_cells": [[1, 1]], "ssg_values": []}, []),
    ({"alpha": 7, "beta": 8, "sg_cells": [[1, 5], [1, 6], [2, 5]], "sg_side": "T_u",
      "ssg_cells": [[4, 1], [4, 2], [4, 3]]}, []),
    ({"alpha": 3, "beta": 4, "sg_cells": [], "sg_side": "T_u", "ssg_cells": [[1, 1]]}, []),
    ({"sg_values": [13, 6, 5], "ssg_values": [4, 12, 20]}, []),
    ({"sg_values": [13, 6, 5], "ssg_values": [4, 12, 20], "beta": 99}, ["--infer"]),
    ({"sg_values": [2], "ssg_values": []}, ["--infer", "--max-beta", "10"]),
    ({"sg_values": [1 << 18], "ssg_values": []}, ["--infer"]),
    ({"alpha": 512, "beta": 513, "sg_values": [], "ssg_values": []}, []),
]]


def coprime_pairs(max_beta):
    return [(a, b) for b in range(3, max_beta + 1) for a in range(2, b) if gcd(a, b) == 1]


def run(argv, text=None):
    """(stdout, stderr, exit code) of one in-process `main(argv)` call; an
    `{input}` in argv names a temporary file holding `text`."""
    from gapsym.cli import main

    if text is None:
        return _call(main, argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
        out, err, code = _call(main, [path if a == INPUT else a for a in argv])
    return out, err.replace(path, INPUT), code


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def corpus():
    """The (argv, input text or None) runs of the manifest, in order."""
    runs = []
    for a, b in coprime_pairs(44):
        pair = ["analyze", "--alpha", str(a), "--beta", str(b)]
        runs += [(pair, None), (pair + ["--format", "text"], None), (pair + ["--format", "svg"], None),
                 (pair + ["--format", "svg", "--layers", LAYERS], None)]
    for max_beta in (6, 10, 14, 20):
        runs += [(["survey", "--max-beta", str(max_beta), "--checks", c], None) for c in SURVEY_CHECKS]
    for command in ("classes", "fundamental"):
        for gens in GEN_SETS:
            if command == "classes" and gens == "400,401":
                continue
            runs += [([command, f"--gens={gens}", "--format", f], None) for f in ("json", "text")]
    for gens, module in SEMIMODULES:
        runs += [(["semimodule", f"--gens={gens}", f"--module={module}", "--format", f], None)
                 for f in ("json", "text")]
    for a, b in coprime_pairs(15):
        rep = json.loads(run(["analyze", "--alpha", str(a), "--beta", str(b)])[0])
        sg, ssg = rep["sg"], rep["ssg"]
        # (input, flags, formats): values with the side, cells without it,
        # and values without the pair under --infer
        inputs = [
            ({"alpha": a, "beta": b, "sg_values": sg["values"], "sg_side": sg["side"],
              "ssg_values": ssg["values"]}, [], ("json", "text")),
            ({"alpha": a, "beta": b, "sg_cells": sg["cells"], "ssg_cells": ssg["cells"]},
             ["--infer"], ("json",)),
            ({"sg_values": sg["values"], "ssg_values": ssg["values"]}, ["--infer"], ("json", "text")),
            ({"sg_values": sg["values"], "ssg_values": ssg["values"]},
             ["--infer", "--max-beta", "9"], ("json",)),
        ]
        for payload, flags, formats in inputs:
            runs += [(["reconstruct", "--input", INPUT, *flags, "--format", f], json.dumps(payload))
                     for f in formats]
    for text, flags in BAD_INPUTS:
        runs.append((["reconstruct", "--input", INPUT, *flags], text))
    return runs


def main():
    os.environ["COLUMNS"] = COLUMNS
    entries, slow = [], []
    for argv, text in corpus():
        start = time.perf_counter()
        out, err, code = run(argv, text)
        if time.perf_counter() - start > 1.0:
            slow.append(argv)
        entry = {"argv": argv, "stdout_sha256": digest(out), "stderr": err, "exit": code}
        if text is not None:
            entry["input"] = text
        entries.append(entry)
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
    for argv in slow:
        print(f"over 1 s: {' '.join(argv)[:120]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
