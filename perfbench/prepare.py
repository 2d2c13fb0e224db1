"""Set-up process of one benchmark run: makes the workload's inputs from the seed.

    python3 perfbench/prepare.py --workload scan-and-sweep --seed 9 --out DIR

Writes the inputs under DIR (which must not exist) and prints one JSON line
with the input's ray count and sha256. `run.py` starts this script in a
process of its own and times it as `setup_s`.
"""

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    print(json.dumps(workloads.prepare_inputs(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
