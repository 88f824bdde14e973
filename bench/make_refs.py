"""Regenerate the correctness references in ``refs/`` from the current code.

    PYTHONPATH=src python3 bench/make_refs.py

A reference holds the outputs of every pooled input (``workloads.POOL``):
operations 0 and 1 of any run use those inputs and are compared against
it.  Regenerate only when a change is meant to alter results, and say so
in the change's description.
"""

from __future__ import annotations

import json

import workloads


def _pooled_outputs(cls, i: int) -> list:
    """Reference of operation ``i`` for every pool entry, in pool order."""
    size = len(workloads.POOL)
    return [cls.reference(cls((k - i) % size).run(i)[1]) for k in range(size)]


def main() -> None:
    refs = {
        "sweep": _pooled_outputs(workloads.Sweep, 0),
        "optimize": _pooled_outputs(workloads.Optimize, 0),
        "simulate": {
            workloads.Simulate.kind(i): _pooled_outputs(workloads.Simulate, i) for i in (0, 1)
        },
    }
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name, data in refs.items():
        path = workloads.REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
