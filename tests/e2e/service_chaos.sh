#!/usr/bin/env bash
# One seeded chaos storm against the campaign service: a client routed
# through ddl_chaos_proxy (resets, mid-frame truncation, fuzzed length
# prefixes and bodies, slowloris trickle, stalls, duplicated writes) must
# converge to result and health streams byte-identical to a direct one-shot
# ddl_scenario_runner invocation.  Servers and proxies bind ephemeral
# ports, so storms of different seeds run side by side.
#
# Usage: service_chaos.sh <work-dir> <ddl_scenario_runner>
#                         <ddl_scenario_server> <ddl_scenario_client>
#                         <ddl_chaos_proxy> <seed>
# The work directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
server=$3
client=$4
proxy=$5
seed=$6
enter_workdir "$1"

# Single-shot reference run.
"$runner" --suite smoke \
  --out golden.jsonl --health-out golden-health.jsonl

# Alternate fault mixes; 512-byte chunks multiply the fault decision points
# a short smoke campaign crosses.
profile=default
[ $((seed % 2)) -eq 0 ] && profile=heavy
launch server.log "$server" --port 0 --workers 2 \
  --state-dir state --dead-peer-timeout-ms 5000 \
  --partial-frame-timeout-ms 2000
srv=$pid
launch proxy.log "$proxy" --upstream-port "$port" \
  --seed "$seed" --profile "$profile" --chunk-bytes 512
prx=$pid
"$client" --port "$port" --name storm \
  --job "storm-$seed" --suite smoke --attempts 600 \
  --retry-ms 25 --heartbeat-ms 200 --recv-timeout-ms 3000 \
  --out result.jsonl --health-out health.jsonl \
  2> client.log
cmp golden.jsonl result.jsonl
cmp golden-health.jsonl health.jsonl
kill -TERM "$prx" 2>/dev/null || true
wait "$prx" 2>/dev/null || true
kill -TERM "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
echo "seed $seed: byte-identical; $(sed -n 's/^chaos: //p' proxy.log)"
