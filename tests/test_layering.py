"""Import-hierarchy tests: the layering below ``repro.scenarios`` is strict.

The workload generators and the campaign engine consume the vectorised
sampler and the order-rule mirrors from their homes
(:mod:`repro.workloads.sampling`, :mod:`repro.core.order_rules`); nothing
below the scenario subsystem may import from ``repro.scenarios`` at
import time.  The Figure 10-13 drivers are views over named scenario
spaces and bind the runner when they run, so ``import repro.cli`` stays
free of the scenario layer and no import order can hit a cycle.  Every
check runs in a fresh subprocess so it cannot be fooled by modules some
earlier test already imported.
"""

from __future__ import annotations

import subprocess
import sys

import pytest


def test_lower_layers_do_not_import_scenarios():
    """core + workloads + experiments import (and run) without scenarios."""
    probe = (
        "import sys\n"
        "import repro.core.order_rules\n"
        "import repro.core.batch_twoport\n"
        "import repro.obs\n"
        "import repro.workloads.sampling\n"
        "import repro.experiments.campaign_engine\n"
        "from repro.workloads.platforms import campaign_factors\n"
        "factors = campaign_factors('hetero-star', 2, size=3, seed=0)\n"
        "assert len(factors) == 2\n"
        "polluted = sorted(m for m in sys.modules if m.startswith('repro.scenarios'))\n"
        "assert not polluted, f'lower layers pulled in {polluted}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_cli_import_loads_no_scenario_module():
    """``import repro.cli`` stays free of the scenario layer: the figure
    drivers bind the runner at call time, so the CLI's start-up import set
    does not grow by it."""
    probe = (
        "import sys\n"
        "import repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.scenarios'))\n"
        "assert not loaded, f'repro.cli pulled in {loaded}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


@pytest.mark.parametrize(
    "first",
    (
        "repro.scenarios.runner",
        "repro.experiments.fig10_homogeneous",
        "repro.experiments.fig11_hetero_compute",
        "repro.experiments.fig12_hetero_star",
        "repro.experiments.fig13_ratio",
    ),
)
def test_runner_and_figure_drivers_import_in_either_order(first):
    """Whichever of the runner and the Figure 10-13 drivers a fresh
    interpreter imports first, both load and a driver runs end to end —
    an import cycle between them fails here."""
    probe = (
        "import importlib\n"
        f"importlib.import_module({first!r})\n"
        "import repro.scenarios.runner\n"
        "from repro.experiments import fig10_homogeneous, fig11_hetero_compute\n"
        "from repro.experiments import fig12_hetero_star, fig13_ratio\n"
        "result = fig13_ratio.run('b', matrix_sizes=(40,), platform_count=1, total_tasks=20)\n"
        "assert result.figure == 'fig13b'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)
