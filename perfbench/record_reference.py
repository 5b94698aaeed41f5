"""Record the reference digests the live checks compare against.

Usage, from the repository root::

    python3 perfbench/record_reference.py

For each workload's scenario at the ``medium`` preset and registry seed,
runs the whole system once on the planned engine and once on the
exhaustive engine (``use_planner=False``), refuses to record unless the
two behavioural digests agree, and writes them to ``reference.json``.
Re-record only when a change to the program is meant to change
behaviour.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.workloads import build_scenario, get_scenario

    from perfbench.workloads import (
        BEHAVIOR_CATEGORIES,
        PRESET,
        REFERENCE_FILE,
        SCENARIOS,
        behavior_digest,
        exhaustive_digest,
    )

    scenarios = {}
    for scenario in dict.fromkeys(SCENARIOS.values()):
        seed = get_scenario(scenario).default_seed
        built = build_scenario(scenario, preset=PRESET, seed=seed,
                               use_planner=True)
        built.system.run(until=built.params["horizon"])
        planned = behavior_digest(built.system)
        exhaustive = exhaustive_digest(scenario, seed)
        if planned != exhaustive:
            print(f"{scenario}: planned {planned} != exhaustive "
                  f"{exhaustive}; not recording", file=sys.stderr)
            return 1
        scenarios[scenario] = {
            "seed": seed,
            "digest": planned,
            "observations": built.system.observation_count(),
            "instances": sum(built.system.instances_by_layer().values()),
        }
        print(f"{scenario}: {planned}")
    REFERENCE_FILE.write_text(json.dumps({
        "preset": PRESET,
        "categories": list(BEHAVIOR_CATEGORIES),
        "cross_checked": "use_planner=False",
        "scenarios": scenarios,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
