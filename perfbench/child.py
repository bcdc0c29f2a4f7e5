"""Run one operation of a workload in a fresh process and print the
process's peak resident set, in kB, as JSON.

    python3 perfbench/child.py WORKLOAD INPUT_DIR OUT_DIR

The process only reads the pre-generated inputs and runs the operation, so
the generator's and the checker's memory are not counted.
"""
import json
import resource
import sys
from pathlib import Path

import workloads


def main() -> None:
    workload, inputs, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    workloads.import_program()
    workloads.run_op(workload, workloads.load(workload, inputs), out)
    print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()
