#!/usr/bin/env bash
# The recovery suite at one and four jobs: the result and health-event
# streams are byte-identical across thread counts, the aggregate's
# health_events counts the health stream's lines, and the health stream
# holds the whole story -- a lock loss, a re-lock with its latency, and a
# graceful degradation -- in the documented schema.
#
# Usage: recovery_smoke.sh <work-dir> <ddl_scenario_runner>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
enter_workdir "$1"

"$runner" --suite recovery --jobs 1 \
  --out recovery-j1.jsonl --health-out health-j1.jsonl
"$runner" --suite recovery --jobs 4 \
  --out recovery-j4.jsonl --health-out health-j4.jsonl

# Results and health streams are byte-identical across thread counts.
cmp recovery-j1.jsonl recovery-j4.jsonl
cmp health-j1.jsonl health-j4.jsonl

# The --jobs 4 run's aggregate counts every line of its health stream.
python3 - <<'PY'
import json
events = json.load(open('BENCH_scenario_suite_recovery.json'))['health_events']
lines = sum(1 for _ in open('health-j4.jsonl'))
assert events == lines, f'health_events {events} != {lines} health lines'
PY

python3 - <<'PY'
import json
events = [json.loads(line)
          for line in open('health-j1.jsonl')]
assert events, 'empty health stream'
kinds = {'lock_lost', 'relock_attempt', 'relocked', 'relock_failed',
         'degraded'}
for e in events:
    assert e['schema_version'] == 2, e
    assert e['event'] in kinds, e
    assert isinstance(e['period'], int) and e['period'] >= 0, e
    assert isinstance(e['degradation'], int), e
    assert 'scenario' in e and 'tap_position' in e, e
    if e['event'] == 'relocked':
        assert e['relock_latency_periods'] >= 1, e
# The suite must exercise the whole story: a loss, a successful
# re-lock with its latency, and a graceful degradation.
seen = {e['event'] for e in events}
assert {'lock_lost', 'relocked', 'degraded'} <= seen, seen
print(f"{len(events)} health events OK; kinds seen: {sorted(seen)}")
PY
