#!/usr/bin/env bash
# The sandbox acceptance gate: SIGSEGV and OOM injected into sandbox
# workers -- through the one-shot runner and through the real daemon --
# must surface as structured error rows while everything else completes;
# a kill -9 of the daemon with a journaled crash row must restart and
# replay byte-identically.
#
# Usage: crash_containment.sh <work-dir> <ddl_scenario_runner>
#                             <ddl_scenario_server> <ddl_scenario_client>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
server=$3
client=$4
enter_workdir "$1"

# Clean reference run.
"$runner" --suite smoke --out golden.jsonl

# SIGSEGV in a sandbox worker becomes a structured crash row (runner).
# The exit code counts the one failed scenario; the campaign itself must
# not die with the worker.  One job: the engine's single worker claims
# units FIFO, so it claims unit 0, which crashes, and then claims the
# next unit on a fresh sandbox worker -- it respawns exactly once.
"$runner" --suite smoke --jobs 1 --inject-crash segv --out segv.jsonl || true
python3 - <<'PY'
import json, re
rows = [json.loads(l) for l in open('segv.jsonl')]
crashed = [r for r in rows if r['error_kind'] == 'crash']
assert len(crashed) == 1, [r['error_kind'] for r in rows]
assert re.fullmatch(
    r'sandbox worker killed by SIGSEGV \(spec [0-9a-f]{16}\)',
    crashed[0]['error_detail']), crashed[0]
assert crashed[0]['verdict'] == 'error', crashed[0]
assert all(r['pass'] for r in rows if r['error_kind'] == 'none'), rows
agg = json.load(open(
    'BENCH_scenario_suite_smoke.json'))
assert agg['isolation'] == 'process', agg
assert agg['sandbox_crashes'] == 1, agg
assert agg['workers_respawned'] >= 1, agg
print(f"crash row OK; {len(rows) - 1} other scenarios unharmed, "
      f"{agg['workers_respawned']} respawn(s)")
PY

# OOM is contained by RLIMIT_AS and classified (runner).
"$runner" --suite smoke --inject-crash oom --mem-limit-mb 512 \
  --out oom.jsonl || true
python3 - <<'PY'
import json
rows = [json.loads(l) for l in open('oom.jsonl')]
limited = [r for r in rows if r['error_kind'] == 'resource_limit']
assert len(limited) == 1, [r['error_kind'] for r in rows]
assert limited[0]['error_detail'] == (
    'sandbox worker exceeded RLIMIT_AS (512 MiB): allocation '
    'failed'), limited[0]
assert all(r['pass'] for r in rows if r['error_kind'] == 'none'), rows
agg = json.load(open(
    'BENCH_scenario_suite_smoke.json'))
assert agg['resource_kills'] == 1, agg
print("RLIMIT_AS kill classified; the rest of the suite passed")
PY

# SIGSEGV and OOM through the real daemon; the daemon survives.
launch server1.log "$server" --port 0 --workers 2 \
  --mem-limit-mb 512 --state-dir state
srv=$pid
echo "server on port $port"
# Job 1: a SIGSEGV mid-campaign.  The client sees one structured crash
# row, not a dead daemon.
"$client" --port "$port" --name chaos \
  --job crashy --suite smoke --inject-crash segv \
  --out daemon-segv.jsonl 2> crashy-client.log || true
grep -c '"error_kind": "crash"' daemon-segv.jsonl
grep -q 'sandbox worker killed by SIGSEGV' daemon-segv.jsonl
# Job 2: an OOM against the daemon's RLIMIT_AS cap.
"$client" --port "$port" --name chaos \
  --job oomy --suite smoke --inject-crash oom \
  --out daemon-oom.jsonl 2> oomy-client.log || true
grep -q 'sandbox worker exceeded RLIMIT_AS (512 MiB)' daemon-oom.jsonl
# Job 3: the same daemon, after both worker deaths, still turns a clean
# job around byte-identically to the one-shot runner.
"$client" --port "$port" --name chaos \
  --job clean --suite smoke \
  --out daemon-clean.jsonl 2> clean-client.log
cmp golden.jsonl daemon-clean.jsonl
kill -TERM "$srv"
wait "$srv" || true
# The shutdown accounting owns up to both contained deaths.
grep -q 'sandbox_crashes=1' server1.log
grep -q 'resource_kills=1' server1.log
grep -q 'jobs_completed=3' server1.log
echo "daemon survived a SIGSEGV and an OOM, then served a clean job"

# Kill -9 with a journaled crash row; the restart replays byte-identically.
launch server2.log "$server" --port 0 --workers 2 --state-dir state2
srv=$pid
"$client" --port "$port" --name chaos \
  --job doomed --suite smoke --inject-crash segv \
  --attempts 600 --retry-ms 100 \
  --out resumed.jsonl 2> doomed-client.log &
cli=$!
# Wait until the crash row itself has committed to the journal, then
# SIGKILL the daemon with no chance to flush or clean up.
for _ in $(seq 1 600); do
  grep -q '"error_kind": "crash"' \
    state2/jobs/*/journal.jsonl 2>/dev/null && break
  kill -0 "$srv" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
# Restart on the same port and state dir: the orphan resumes, the retrying
# client reattaches, and the journaled crash row replays instead of
# re-executing.
"$server" --port "$port" --workers 2 --state-dir state2 \
  > server3.log 2>&1 &
srv2=$!
wait "$cli" || true
kill -TERM "$srv2"
wait "$srv2" || true
cmp segv.jsonl resumed.jsonl
# Commit records only: a duplicate result line is a rerun.
dups=$(grep -h '"verdict"' state2/jobs/*/journal.jsonl | sort | uniq -d | wc -l)
[ "$dups" -eq 0 ] || { echo "journal has $dups duplicate rows"; exit 1; }
echo "restart replayed the crash row byte-identically, no reruns"
