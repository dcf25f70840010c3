#!/usr/bin/env bash
# The smoke suite through the one-shot runner: every JSONL record carries
# the schema, its verdict fields and no thread-count or wall-clock field,
# and the aggregate report counts what the stream holds.
#
# Usage: scenario_smoke.sh <work-dir> <ddl_scenario_runner>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
enter_workdir "$1"

"$runner" --suite smoke --out smoke.jsonl

python3 - <<'PY'
import json
records = [json.loads(line)
           for line in open('smoke.jsonl')]
assert records, 'empty JSONL stream'
for r in records:
    assert r['schema_version'] == 2, r
    assert 'name' in r and 'pass' in r and 'failure_reason' in r, r
    # Scenario records must stay thread-count independent.
    assert 'threads' not in r and 'wall_ms' not in r, r
agg = json.load(open(
    'BENCH_scenario_suite_smoke.json'))
assert agg['scenarios'] == len(records)
assert agg['failed'] == sum(not r['pass'] for r in records)
print(f"{len(records)} scenario records OK, "
      f"{agg['passed']}/{agg['scenarios']} passed")
PY
