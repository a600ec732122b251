"""Check one benchmark result line read from stdin.

Prints the result and exits 0 only if every operation of the run was
correct and none failed; the line is the last one bench/run.py prints.
Standard library only:

    python3 bench/run.py --workload lib-warm --seed 1 --seconds 1 | tail -n 1 \
        | python3 tests/ci/bench_result.py
"""

import json
import sys

result = json.loads(sys.stdin.read())
print(result)
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
