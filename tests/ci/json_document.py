"""Parse stdin as one JSON document holding a table of 300 rows.

Fails unless the whole of stdin is one JSON document whose "rows" list
has 300 entries, as `triangle --pmax 300 --format json` streams it.
Standard library only:

    PYTHONPATH=src python -m figurate.cli triangle --pmax 300 --format json \
        | python tests/ci/json_document.py
"""

import json
import sys

doc = json.load(sys.stdin)
assert len(doc["rows"]) == 300, len(doc["rows"])
