"""Record the sha256 of the pipeline workloads' input scan for seeds 0..N-1.

    python3 perfbench/record_inputs.py 100

Rewrites `inputs.json`, which `run.py` checks each run's input against, so
that a change to the generator cannot silently change the benchmark's
inputs. Rerun it only in a change that means to change those inputs.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    count = int((argv or sys.argv[1:] or ["100"])[0])
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in range(count):
            info = workloads.prepare_inputs("scan-and-sweep", seed, Path(tmp) / str(seed))
            digests[str(seed)] = info["sha256"]
    spec = {"spec": repr(workloads.SPEC), "spacing": workloads.SPACING,
            "rays_per_position": workloads.RAYS_PER_POSITION}
    (HERE / "inputs.json").write_text(
        json.dumps({"scan": spec, "sha256": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
