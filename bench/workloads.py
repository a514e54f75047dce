"""The benchmark's workloads: one `supchar` CLI job each, plus the set-up
program, the correctness checks and the golden output hashes for each."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass

import poset

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = "{spec}"         # placeholder for the generated spec path in `args`
DEFAULT_SEED = 0
BUNDLED = ("dual_numbers_q3.json", "triangular_2_3.json")

TRI_SETUP = ("from supchar.fields import field_make\n"
             "from supchar.triangular import make_triangular\n"
             "make_triangular({n}, field_make({p}))\n")
SPEC_SETUP = ("import sys\n"
              "from supchar.algebra import load_algebra_file\n"
              "load_algebra_file(sys.argv[1])\n")
FAIL_LINE = re.compile(r"^CHECK \S+ FAIL", re.M)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple             # supchar CLI arguments; SPEC marks the spec path
    setup: str              # program that imports supchar and builds the algebra
    group_order: int        # |G|, which the CSV size row must sum to
    size_row: bool = False  # stdout is a CSV table with a size row

    @property
    def uses_spec(self) -> bool:
        return SPEC in self.args


WORKLOADS = {w.name: w for w in (
    Workload("closed-t35", ("table", "--n", "3", "--p", "5", "--mode", "closed"),
             TRI_SETUP.format(n=3, p=5), 8000, size_row=True),
    Workload("orbits-t43", ("orbits", "--n", "4", "--p", "3", "--space", "both"),
             TRI_SETUP.format(n=4, p=3), 11664),
    Workload("verify-t33", ("verify", "--n", "3", "--p", "3", "--checks", "all"),
             TRI_SETUP.format(n=3, p=3), 216),
    Workload("algebra-poset", ("algebra", "--spec", SPEC),
             SPEC_SETUP, 432, size_row=True),
)}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def golden_key(workload: Workload, spec_text: str | None) -> tuple:
    """Where the golden stdout hash of a job lives in golden.json: triangular
    jobs have one; poset jobs have one per spec file, keyed by its hash."""
    if workload.uses_spec:
        return (workload.name, sha(spec_text.encode())[:16])
    return (workload.name,)


def lookup(golden: dict, key: tuple):
    for part in key:
        golden = golden.get(part) if isinstance(golden, dict) else None
    return golden


def size_row_sum(stdout: str) -> int | None:
    for row in csv.reader(stdout.splitlines()):
        if row and row[0] == "size":
            return sum(int(v) for v in row[1:])
    return None


def check_job(workload: Workload | None, rc: int, out: bytes, err: bytes,
              golden_hash: str | None) -> list[str]:
    """Problems with one job's result; an empty list means it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    text = out.decode(errors="replace")
    for stream in (text, err.decode(errors="replace")):
        problems += [f"failed check: {m.group(0)}" for m in FAIL_LINE.finditer(stream)]
    if golden_hash is None:
        problems.append("no golden output hash for this input")
    elif sha(out) != golden_hash:
        problems.append("stdout differs from the golden output")
    if workload is not None and workload.size_row:
        total = size_row_sum(text)
        if total != workload.group_order:
            problems.append(f"size row sums to {total}, not |G| = {workload.group_order}")
    return problems


def check_spec(path: str, group_order: int):
    """Check that supchar accepts the generated spec and |G| is as expected."""
    from supchar.algebra import group_order as order_of, load_algebra_file
    got = order_of(load_algebra_file(path))
    if got != group_order:
        raise ValueError(f"{path}: |G| = {got}, expected {group_order}")


def spec_for_seed(seed: int) -> str:
    return poset.spec_text(poset.random_poset(seed))
