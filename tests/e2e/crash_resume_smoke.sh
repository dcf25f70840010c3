#!/usr/bin/env bash
# Kill a journaled campaign mid-suite, resume it, and prove the streams are
# byte-identical to an uninterrupted run; then check that a hung scenario is
# timed out, retried and reported as a row without aborting the batch.
#
# Usage: crash_resume_smoke.sh <work-dir> <ddl_scenario_runner>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
enter_workdir "$1"

# Uninterrupted reference run.
"$runner" --suite regression --jobs 2 \
  --out reference.jsonl --health-out reference-health.jsonl || true

# Kill a journaled run mid-suite (SIGKILL): wait until a handful of
# scenarios have committed (one result line, the one with a verdict, per
# commit record), then pull the plug without any chance to flush or clean
# up.
"$runner" --suite regression --jobs 2 --journal journal --out /dev/null &
pid=$!
for _ in $(seq 1 3000); do
  commits=$(cat journal/journal.jsonl 2>/dev/null | grep -c '"verdict"' || true)
  [ "$commits" -ge 5 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.04
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "journaled before kill: $(grep -c '"verdict"' journal/journal.jsonl || true) scenarios"

# Resume and prove byte-identity.
"$runner" --suite regression --jobs 4 --resume journal \
  --out resumed.jsonl --health-out resumed-health.jsonl || true
cmp reference.jsonl resumed.jsonl
cmp reference-health.jsonl resumed-health.jsonl
python3 -c "
import json
agg = json.load(open('BENCH_scenario_suite_regression.json'))
assert agg['resumed'] >= 5, agg['resumed']
assert agg['resumed'] + agg['executed'] == agg['scenarios']
print(f\"resumed {agg['resumed']}, executed {agg['executed']}: byte-identical\")
"

# A hung scenario is timed out, retried and reported (not fatal).
"$runner" --suite smoke --inject-hang 5000 \
  --timeout-ms 300 --retries 1 --backoff-ms 10 --out hang.jsonl || true
python3 - <<'PY'
import json
rows = [json.loads(l) for l in open('hang.jsonl')]
hung, rest = rows[0], rows[1:]
assert hung['verdict'] == 'error', hung
assert hung['error_kind'] == 'timeout', hung
assert hung['failure_reason'] == 'error:timeout', hung
assert hung['attempts'] == 2, hung
assert rest and all(r['pass'] for r in rest), 'batch was aborted'
print(f"hung scenario reported after {hung['attempts']} attempts; "
      f"{len(rest)} other scenarios unharmed")
PY
