"""Record reference.json: every pool member's decision at the current build.

Run from the repository root, only on a build whose verdicts are known to
be right:

    python3 perfbench/record_reference.py

Each entry holds the SHA-256 of the rendered --json output and, for
obstruct decisions, the verdict, the certificate and the forced values.
Entries are recorded only if they pass the gate's construction checks
(verdict consistency, verify_certificate, the one failing criterion of a
refutation, the round trip), so a reference never encodes a wrong answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import WORK, import_package


def main() -> int:
    nilaffine = import_package()
    import decide
    import workloads

    data_dir = Path(nilaffine.__file__).resolve().parent / "data"
    reference = {}
    bad = []
    for workload in workloads.WORKLOADS:
        work = WORK / "reference" / workload
        entries = {}
        for item in workloads.prepare(workload, None, work / "inputs", data_dir):
            result = decide.decide(item, work)
            entries[item.key] = decide.reference_entry(result)
            bad += decide.check(result, entries)
            if workload == "obstruct-scaling" and result.value.verdict != "Found":
                bad.append(f"{item.key}: {result.value.verdict}, not Found")
        reference[workload] = entries
        print(f"{workload}: {len(entries)} entries", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    path = Path(__file__).resolve().parent / "reference.json"
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    partial.replace(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
