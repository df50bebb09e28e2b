"""Regenerate ``pinned.json``: the payload digest of every pool spec.

Run from the repository root after a change that is *meant* to alter
simulated results (the benchmark then stops reporting them as failures):

    PYTHONPATH=src REPRO_NO_CACHE=1 python3 perfbench/pin.py

Each spec runs once through ``dispatch_spec``, uncached, with its graph
built from fresh object and task ids exactly as the workloads build it
(``worker.cold_start``): every sweep and tiny spec on its own, the what-if
bases in workload order and their variants on those graphs.  The digest
covers ``RunResult.to_payload()`` (makespan, migrations, energy, the
trace or stream summary and the spec itself).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import specs as S
from repro.experiments.runner import dispatch_spec
from worker import cold_start

PINNED = Path(__file__).resolve().parent / "pinned.json"


def main() -> int:
    groups = [[spec] for spec in S.sweep_pool()]
    groups.append(list(S.WHATIF_BASES) + [
        variant for base in S.WHATIF_BASES for _, variant in S.whatif_variants(base)
    ])
    groups.extend([spec] for spec in S.tiny_pool())
    digests: dict[str, str] = {}
    t0 = time.perf_counter()
    for group in groups:
        cold_start()
        for spec in group:
            sid = S.spec_id(spec)
            if sid in digests:
                raise SystemExit(f"duplicate spec in pool: {spec.label()}")
            digests[sid] = S.payload_digest(dispatch_spec(spec).result.to_payload())
    PINNED.write_text(
        json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"pinned {len(digests)} specs in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
