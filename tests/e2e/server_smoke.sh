#!/usr/bin/env bash
# The campaign service under process death: three retrying clients ride
# out a kill -9 of the daemon and a restart, and a client killed mid-submit
# leaves an orphan job that completes and replays.  Every reassembled
# stream must be byte-identical to the one-shot runner, and no scenario may
# run twice.
#
# Usage: server_smoke.sh <work-dir> <ddl_scenario_runner>
#                        <ddl_scenario_server> <ddl_scenario_client>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
server=$3
client=$4
enter_workdir "$1"

# Single-shot reference run.
"$runner" --suite smoke --out golden.jsonl --health-out golden-health.jsonl

# Three clients, kill -9 the server mid-campaign, restart.
launch server1.log "$server" --port 0 --workers 2 --state-dir state
srv=$pid
echo "server on port $port"
for c in c1 c2 c3; do
  "$client" --port "$port" --name "$c" \
    --job smoke --suite smoke --attempts 600 --retry-ms 100 \
    --out "$c.jsonl" --health-out "$c-health.jsonl" 2> "$c.log" &
  eval "$c=\$!"
done
# Wait until at least one scenario has committed to a journal, then pull
# the plug with no chance to flush or clean up.
for _ in $(seq 1 600); do
  commits=$(cat state/jobs/*/journal.jsonl 2>/dev/null | grep -c '"verdict"' || true)
  [ "$commits" -ge 1 ] && break
  kill -0 "$srv" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
echo "journaled before kill: $(cat state/jobs/*/journal.jsonl 2>/dev/null | grep -c '"verdict"' || true) scenarios"
# Restart on the same port and state dir: orphans resume, the retrying
# clients reattach and replay what already committed.
"$server" --port "$port" --workers 2 --state-dir state > server2.log &
srv2=$!
wait "$c1"; wait "$c2"; wait "$c3"
kill -TERM "$srv2"
wait "$srv2"

# Reassembled streams are byte-identical; nothing ran twice.
for c in c1 c2 c3; do
  cmp golden.jsonl "$c.jsonl"
  cmp golden-health.jsonl "$c-health.jsonl"
done
# One commit record (result line) per scenario within a job: a duplicate
# inside a job's journal means a scenario executed twice across the
# kill/restart boundary.  (Across jobs, identical lines are fine: three
# clients running the same suite commit the same rows.)
for j in state/jobs/*/journal.jsonl; do
  dups=$(grep '"verdict"' "$j" | sort | uniq -d | wc -l)
  [ "$dups" -eq 0 ] || { echo "duplicate lines in $j: $dups"; exit 1; }
done
echo "3 clients byte-identical to the one-shot runner, no reruns"

# Kill -9 a client mid-submit; the orphan completes and replays.
launch server3.log "$server" --port 0 --workers 2 --state-dir orphan-state
srv=$pid
"$client" --port "$port" --name ghost \
  --job doomed --suite smoke --out /dev/null 2> ghost1.log &
cli=$!
# Wait until the submit landed (the job directory exists), then SIGKILL
# the client with frames still streaming back at it.
for _ in $(seq 1 300); do
  ls orphan-state/jobs/ 2>/dev/null | grep -q . && break
  sleep 0.1
done
kill -9 "$cli" 2>/dev/null || true
wait "$cli" 2>/dev/null || true
# The orphan keeps executing with nobody attached: its journal fills to
# one commit record per scenario of the suite.
golden_lines=$(wc -l < golden.jsonl)
for _ in $(seq 1 600); do
  commits=$(cat orphan-state/jobs/*/journal.jsonl 2>/dev/null | grep -c '"verdict"' || true)
  [ "$commits" -ge "$golden_lines" ] && break
  sleep 0.1
done
# A reconnecting client with the same identity attaches to the finished
# orphan and replays the whole stream byte-exactly.
"$client" --port "$port" --name ghost \
  --job doomed --suite smoke --out ghost.jsonl 2> ghost2.log
cmp golden.jsonl ghost.jsonl
kill -TERM "$srv"
wait "$srv" || true
# Orphan accounting: one job accepted, one completed, every scenario
# executed exactly once (the replay reran nothing).
grep -q "jobs_accepted=1" server3.log
grep -q "jobs_completed=1" server3.log
grep -q "executed=$golden_lines" server3.log
echo "orphaned job finished and replayed byte-identically"
