"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py

Run once at the commit whose outputs are the reference; it rewrites
``bench/reference/<workload>.json`` for every workload.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (after the path set-up above)


def main():
    workloads.use_source_tree()
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        ref = {op.key: workloads.digest(op.collect(op.run()))
               for op in workloads.build(name, 0)}
        path = os.path.join(workloads.REFERENCE_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(ref)} entries -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
