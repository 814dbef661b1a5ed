"""Seeded argv fuzz of the CLI: a few hundred generated argv, each run
through `cli.main` in process.

Each argv parses as `_PARSER.parse_args` parses it: the same namespace, or
the same exit code, stdout and stderr.  Each run exits with a documented
code (0 to 4) and raises nothing else.  The argv cover all six commands,
integers at and past the sieve limit, random `reconstruct` JSON, and the
forms only argparse handles: help, a missing, unknown or abbreviated
option, a leftover argument, `--` and `--opt=value`.
"""

import json
import random
from argparse import Namespace
from math import gcd

from make_cli_manifest import _call

from gapsym import cli
from gapsym.cli import MAX_SIEVE_BITS
from gapsym.semigroup import TwoGen
from gapsym.symmetry import cell_values, self_symmetric_gaps, supersymmetric_gaps

SEED = 2020
RUNS = 400
COMMANDS = ("analyze", "semimodule", "reconstruct", "survey", "classes", "fundamental")
RECONSTRUCT_KEYS = ("alpha", "beta", "sg_side", "sg_cells", "sg_values", "ssg_cells", "ssg_values")
# tokens spliced into an argv: help, `--`, unknown, abbreviated and `=` options
NOISE = ("-h", "--help", "--", "extra", "--bogus", "-x", "--format=text", "--form", "json",
         "--out", "--alp", "7", "--gens=3,5", "--max-beta=3")


def _int(rng, small=40):
    """Mostly a small positive integer, else one below 1, one at the sieve
    limit or one far past it."""
    kind = rng.random()
    if kind < 0.75:
        return rng.randint(1, small)
    if kind < 0.8:
        return rng.randint(-3, 0)
    if kind < 0.92:
        return MAX_SIEVE_BITS + rng.randint(-2, 2)
    return rng.randint(MAX_SIEVE_BITS, 1 << 80)


def _int_list(rng):
    items = [str(_int(rng)) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        items.append(rng.choice(("x", "", " ", "1.5")))
    return ",".join(items)


def _symmetric_payload(rng):
    """The symmetric values of a small pair, with or without the pair."""
    beta = rng.randint(3, 20)
    alpha = rng.choice([a for a in range(2, beta) if gcd(a, beta) == 1])
    T = TwoGen(alpha, beta)
    side, sg = supersymmetric_gaps(T)
    payload = {"sg_values": cell_values(T, sg),
               "ssg_values": cell_values(T, self_symmetric_gaps(T))}
    if rng.random() < 0.5:
        payload.update(alpha=alpha, beta=beta, sg_side=side)
    return payload


def _random_value(rng, key):
    kind = rng.random()
    if key in ("alpha", "beta"):
        return _int(rng, 20) if kind < 0.8 else rng.choice((True, "7", None, 7.0))
    if key == "sg_side":
        return rng.choice(("T_u", "T_r", "T_x", 1))
    if key.endswith("_values"):
        values = [_int(rng, 60) for _ in range(rng.randint(0, 6))]
        return values if kind < 0.9 else values + [rng.choice((True, "5", [5]))]
    cells = [[_int(rng, 10), _int(rng, 10)] for _ in range(rng.randint(0, 5))]
    return cells if kind < 0.9 else cells + [rng.choice(([1], [1, 2, 3], "1,1", [True, 1]))]


def _reconstruct_text(rng):
    """The text of a `reconstruct` input file."""
    kind = rng.random()
    if kind < 0.05:
        return rng.choice(("not json", "[1, 2]", '{"alpha": 7', "1" * 5000))
    if kind < 0.5:
        payload = _symmetric_payload(rng)
        if rng.random() < 0.4:
            key = rng.choice(RECONSTRUCT_KEYS + ("bogus",))
            payload[key] = _random_value(rng, key)
    else:
        keys = [k for k in RECONSTRUCT_KEYS if rng.random() < 0.5]
        payload = {k: _random_value(rng, k) for k in keys}
    return json.dumps(payload)


def _command_argv(rng, command, tmp_path, index):
    """A well-formed argv of the command, before any noise."""
    fmt = {"analyze": ("json", "text", "svg"), "survey": ("text",)}.get(command, ("json", "text"))
    if command == "analyze":
        pair = [_int(rng), _int(rng)]
        if rng.random() < 0.5:
            pair.sort()
        argv = ["--alpha", str(pair[0]), "--beta", str(pair[1])]
        if rng.random() < 0.2:
            argv += ["--layers", rng.choice(("grid,sg", "fg,ssg,values", "bogus", ""))]
    elif command == "semimodule":
        argv = ["--gens", _int_list(rng), "--module", _int_list(rng)]
    elif command == "reconstruct":
        path = tmp_path / f"input-{index}.json"
        path.write_text(_reconstruct_text(rng))
        argv = ["--input", str(path if rng.random() < 0.95 else tmp_path / "missing.json")]
        if rng.random() < 0.6:
            argv.append("--infer")
        if rng.random() < 0.2:
            argv += ["--max-beta", str(_int(rng))]
    elif command == "survey":
        # a bound past 12 and within the limit would sweep for seconds
        bound = rng.choice((rng.randint(-3, 12), 513, MAX_SIEVE_BITS + rng.randint(-2, 2), 1 << 70))
        argv = ["--max-beta", str(bound)]
        if rng.random() < 0.7:
            argv += ["--checks", rng.choice(("all", "uff", "partition,red", "bogus", ""))]
    else:
        argv = ["--gens", _int_list(rng)]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(fmt) if rng.random() < 0.9 else "csv"]
    if rng.random() < 0.1:
        argv += ["--out", str(tmp_path / rng.choice(("out.txt", "no/such/dir/out.txt")))]
    if rng.random() < 0.5:
        # --opt value as --opt=value, pairwise
        joined = []
        for token in argv:
            if joined and joined[-1].startswith("--") and not token.startswith("--"):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        argv = joined
    return [command, *argv]


def _argv(rng, tmp_path, index):
    kind = rng.random()
    if kind < 0.03:
        return rng.choice(([], ["bogus"], ["-h"], ["--help", "analyze"]))
    argv = _command_argv(rng, rng.choice(COMMANDS), tmp_path, index)
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        if rng.random() < 0.3 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        else:
            # position 0 puts an option or a stray word before the command
            argv.insert(rng.randrange(0, len(argv) + 1), rng.choice(NOISE))
    return argv


def test_seeded_argv_parse_as_parse_args_and_exit_with_documented_codes(tmp_path, monkeypatch):
    # argparse wraps usage text to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(SEED)
    codes = {}
    for index in range(RUNS):
        argv = _argv(rng, tmp_path, index)
        # (stdout, stderr, the namespace or the exit code) of each parse
        parsed = _call(cli._parse, argv)
        assert parsed == _call(cli._PARSER.parse_args, argv), argv
        # any exception but SystemExit propagates and fails the test
        _, _, code = _call(cli.main, argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert isinstance(parsed[2], Namespace) or parsed[2] == code, argv
        codes.setdefault(argv[0] if argv else "", set()).add(code)
    # every command runs, and both succeeds and fails somewhere
    assert set(COMMANDS) <= set(codes)
    assert {0, 2, 3} <= set().union(*codes.values())
