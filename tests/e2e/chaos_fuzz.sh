#!/usr/bin/env bash
# Chaos storms with shrinking: the runner's exit code counts the failing
# storms (failures are the point), the shrinker turns each into a minimal
# replay bundle, and every bundle must replay its failure.
#
# Usage: chaos_fuzz.sh <work-dir> <ddl_scenario_runner> <runner args...>
# The runner arguments pick the storms, e.g. `--suite chaos --jobs 2`;
# the script adds the journal, --shrink and the output stream.  The work
# directory is wiped and re-created; every artifact lands there.
set -e
. "$(dirname "$0")/lib.sh"

runner=$2
enter_workdir "$1"
shift 2

"$runner" "$@" --journal campaign --shrink --out chaos.jsonl || true

bundles=$(ls campaign/replay_*.json 2>/dev/null || true)
if [ -z "$bundles" ]; then
  echo "no failing storms this seed: nothing to replay"
  exit 0
fi
for bundle in $bundles; do
  echo "replaying $bundle"
  "$runner" --replay "$bundle"
done
