"""One pass of the ``audit-corpus`` workload, run as a child process.

Each corpus item goes through the chain a user runs with the per-file
subcommands over an ``enumerate --out`` directory:

    parse_poly3 -> validate(RIGHT_ANGLED_PROFILE) -> check_right_angled
    -> check_andreev(right_angles) -> to_face_lattice
    -> nikulin.audit + check_small -> canonical_code

The chain is timed per item.  After the timed chain, the item's relabelled
and reflected variant is parsed and coded so that the caller can check
that the canonical code is invariant.

Each result records when its chain started, as a ``time.perf_counter``
reading, so that the caller can scale the chain's time by the host speed
around it (see ``HostSpeed`` in run.py).

Usage: python3 perfbench/audit_child.py CORPUS_JSON RESULT_JSON
(with the program's ``src`` directory on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time

# Calls go through the module attributes, so that the traced run's wrappers
# on those attributes see them.
from orthocusp import andreev, core, nikulin


def audit_item(text: str) -> dict:
    """Run the audit chain on one POLY3 text and return its outputs."""
    p = core.parse_poly3(text)
    report = core.validate(p, core.RIGHT_ANGLED_PROFILE)
    right = andreev.check_right_angled(p)
    acute = andreev.check_andreev(p, andreev.right_angles(p))
    lattice = core.to_face_lattice(p)
    averages = nikulin.audit(lattice)
    small = nikulin.check_small(lattice)
    code = core.canonical_code(p)
    return {
        "clean": report.clean,
        "right_angled": right.verdict,
        "right_angled_witnesses": {k: len(v) for k, v in right.entries.items()},
        "andreev": acute.verdict,
        "audit_strict": [r.strict_ok for r in averages.records],
        "small": small.passed,
        "code": code.hex(),
    }


def variant_code(text: str) -> str:
    return core.canonical_code(core.parse_poly3(text)).hex()


def timed_item(item: dict) -> dict:
    """Audit one item and time its chain; a failing item records its
    error instead."""
    clock = time.perf_counter
    t0 = clock()
    try:
        out = audit_item(item["text"])
        elapsed = clock() - t0
        out["variant_code"] = variant_code(item["variant"])
    except Exception as exc:  # one bad item must not end the pass
        elapsed = clock() - t0
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["name"] = item["name"]
    out["start"] = t0
    out["seconds"] = elapsed
    return out


def main() -> int:
    corpus_path, result_path = sys.argv[1:3]
    with open(corpus_path, encoding="utf-8") as fh:
        items = json.load(fh)
    results = [timed_item(item) for item in items]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
