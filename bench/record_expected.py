"""Record the digests of the exact results for the default seed.

Run from the repository root:

    python3 bench/record_expected.py

Runs one round of every workload with ``workloads.DEFAULT_SEED``, checks
each result with its independent oracle, and writes the SHA-256 prefix of
each result's exact text (decomposition tree notation, matrix entries,
normal-form terms) to ``bench/expected.json``.  ``run.py`` compares every
result whose input appears there.  Re-record only when a change is meant
to alter an exact result.
"""

from __future__ import annotations

import json
import sys

from run import _import_library


def main() -> int:
    wl = _import_library()
    digests = {}
    rejected = []
    for workload in wl.WORKLOADS:
        for op in wl.make_ops(workload, wl.DEFAULT_SEED):
            result = wl.execute(op)
            if not wl.oracle_ok(op, result):
                rejected.append(op.key)
            digests[op.key] = wl.digest(wl.canonical(op, result))
        print(f"{workload}: {len(digests)} digests so far", flush=True)
    if rejected:
        print("independent oracle rejected: " + ", ".join(rejected), file=sys.stderr)
        return 1
    with open(wl.EXPECTED_PATH, "w") as f:
        json.dump({"seed": wl.DEFAULT_SEED, "digests": dict(sorted(digests.items()))}, f, indent=1)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
