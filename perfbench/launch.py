"""Program launcher of the benchmark: one ``repro.cli`` invocation.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py --import-only
    python3 perfbench/launch.py [--ledger DIR] scenarios run mega-uniform ...

``--import-only`` imports ``repro.cli`` and exits: the set-up probe.
Otherwise the arguments go to ``repro.cli.main``.  With ``--ledger`` the
layers are wrapped first (see ``trace_layers.py``); the time spent
importing ``repro.cli`` and the modules the command runs is the
``import`` layer, and the ledger is written to ``DIR`` when ``main``
returns.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        import repro.cli  # noqa: F401

        return 0
    ledger_dir = None
    if argv[:1] == ["--ledger"]:
        ledger_dir, argv = argv[1], argv[2:]
    begin = time.perf_counter()
    import repro.cli

    ledger = None
    if ledger_dir is not None:
        import trace_layers

        ledger = trace_layers.Ledger(ledger_dir)
        if argv[:2] == ["scenarios", "serve"]:
            trace_layers.install_service(ledger)
        else:
            trace_layers.install_campaign(ledger, fabric="--workers" in argv)
        ledger.add("import", time.perf_counter() - begin)
    code = repro.cli.main(argv)
    if ledger is not None:
        ledger.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
