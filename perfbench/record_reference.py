"""Rewrite reference.json: the rep-0 final iterates of the DRO workloads at
the reference seed, which every benchmark run checks within 1e-12.

Run it from the repository root only when a change is meant to alter the
fixed-seed trajectories:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    vr = workloads.DroVr()
    cli = workloads.DroSapdCli(ROOT)
    cli_setup = cli.setup()
    cli_x = cli.reference_iterate(cli_setup)
    reference = {
        "seed": workloads.REFERENCE_SEED,
        vr.name: {"x": vr.reference_iterate(vr.setup()).tolist()},
        cli.name: {"x": cli_x.tolist(),
                   "objective": float(cli_setup.instance.robust_loss(cli_x))},
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
