#!/usr/bin/env python3
"""Regenerate the CLI golden files under tests/golden/.

Each golden file records one command line, its exit code and its exact
JSON output; the CLI test replays them and requires the same exit code and
byte-identical output.  The commands after the successful ones pin the
error path: a parse error (2), domain errors (3) and an uncertified
truncation (4).

    python scripts/regen_golden.py           rewrite tests/golden/
    python scripts/regen_golden.py --check   compare only; exit 1 on drift
"""

import argparse
import io
import contextlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from llct.cli import main  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

COMMANDS = [
    ["L", "Sp(unr(1),2)"],
    ["L", "Sp(unr(x),2)+Sp(unr(5),1)"],
    ["Lss", "Sp(unr(1),2)"],
    ["rsL", "Sp(unr(1),2)", "Sp(unr(1),2)"],
    ["rsL", "Sp(unr(2),1)", "Sp(unr(5),1)", "--shift", "1"],
    ["gamma", "Sp(unr(2),1)"],
    ["gamma", "Sp(tau(a,dim=2,f=2,cond=1,w=0),1)+Sp(unr(2),2)"],
    ["eps", "Sp(unr(5),2)"],
    ["eps", "Sp(tau(a,dim=2,f=2,cond=1,w=0)*unr(x),1)"],
    ["classify", "Sp(unr(2),1)+Sp(unr(2),2)"],
    ["llc", "Sp(unr(1),1)+Sp(unr(1/3),1)"],
    ["check", "eps-ratio", "Sp(unr(5),3)"],
    ["check", "sign", "Sp(unr(x),2)+Sp(unr(x^-1),2)", "--bad", "0"],
    ["zeta", "--n1", "2", "--n2", "1", "--params", "2,3", "--m", "-1/2",
     "--bound", "12"],
    ["oracle", "tensor", "Sp(unr(1),2)", "Sp(unr(1),2)"],
    ["family-check", "--matrix", "[[0,x],[0,0]]", "--at", "0"],
    ["zeta", "--n1", "2", "--n2", "2", "--params", "2,3", "--params2", "5,7",
     "--m", "1/2", "--bound", "6"],
    ["zeta", "--n1", "2", "--n2", "1", "--params", "x,q^(1/2)", "--m", "-1/2",
     "--bound", "5"],
    ["Lss", "Sp(unr(x),2)+Sp(unr(q^(1/2)),1)"],
    ["pairing", "--params", "2,5", "--bound", "20"],
    ["check", "feq", "--params", "2,3", "--bound", "20"],
    ["L", "Sp(unr(1)"],
    ["L", "Sp(unr(0),1)"],
    ["eps", "Sp(tau(a,dim=0,cond=1),1)"],
    ["L", "Sp(tau(a,dim=1,f=1,cond=0),1)"],
    ["family-check", "--matrix", "[[1]]", "--at", "0"],
    ["oracle", "roundtrip", "Sp(unr(zeta(1,3)*x),1)"],
    ["zeta", "--n1", "2", "--n2", "2", "--params", "2,3", "--params2", "5,7",
     "--m", "-3/2", "--bound", "2"],
    ["family-check", "--matrix", "[[0,x^-1,1],[0,0,(1+x)],[0,0,0]]", "--at", "-1"],
    ["family-check", "--matrix",
     "[[0,x,0,1],[0,0,(x-1),x^2],[0,0,0,2*x],[0,0,0,0]]", "--at", "1"],
    ["family-check", "--matrix", "[[0,q^(1/2)],[0,0]]", "--at", "1"],
]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def goldens():
    """{file name: file text} for every command in COMMANDS."""
    out = {}
    for i, argv in enumerate(COMMANDS):
        code, stdout = run(argv)
        record = {"argv": argv, "exit": code, "stdout": stdout}
        out[f"cmd_{i:02d}.json"] = json.dumps(record, sort_keys=True, indent=1) + "\n"
    return out


def check(want) -> int:
    """Compare tests/golden/ with want; print each difference."""
    have = {p.name: p.read_text() for p in GOLDEN.glob("*.json")}
    bad = sorted(name for name in have.keys() | want.keys()
                 if have.get(name) != want.get(name))
    for name in bad:
        state = ("missing" if name not in have else
                 "not in COMMANDS" if name not in want else "differs")
        print(f"{name}: {state}")
    return 1 if bad else 0


def main_(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate in memory, write nothing, exit 1 on any difference")
    args = ap.parse_args(argv)
    want = goldens()
    if args.check:
        return check(want)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, text in want.items():
        (GOLDEN / name).write_text(text)
        print(f"wrote {name}: llct {' '.join(json.loads(text)['argv'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
