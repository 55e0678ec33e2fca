"""Write ``pins.json``: store digests and exact counts per campaign seed.

Run from the repository root after a deliberate change of the store bytes
or of a pinned count::

    python3 perfbench/pin.py 0 20

pins seeds 0 to 20.  Each seed runs one traced campaign of every campaign
workload.  The ``campaign-fabric`` store must equal the single writer's
byte for byte, or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(first: int, last: int) -> int:
    pins = run.load_pins()
    work = run.STATE / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(first, last + 1):
            for workload in run.CAMPAIGNS:
                unit = run.campaign_unit(workload, seed, work, 0, traced=True)
                if unit.exit.code != 0 or unit.digest is None:
                    raise SystemExit(f"{workload} seed {seed} failed (exit {unit.exit.code})")
                entry = {"counts": run.exact_counts(unit.ledger)}
                if workload == "campaign-fabric":
                    single = pins[run.SINGLE_WRITER][str(seed)]["sha256"]
                    if unit.digest != single:
                        raise SystemExit(f"seed {seed}: fabric store differs from the single writer's")
                else:
                    entry["sha256"] = unit.digest
                pins.setdefault(workload, {})[str(seed)] = entry
                print(f"{workload} seed {seed}: {entry}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
