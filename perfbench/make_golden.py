"""Record golden.json: the exact outputs and numeric reference values that
every benchmark run is checked against.

Exact outputs must stay bit-identical across optimisations, so this is run
once on the code the benchmark was defined against, not after a change:

    python3 perfbench/make_golden.py      # from the root of the repository
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    with open(path, "w") as fh:
        json.dump(workloads.golden_record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
