# Shared helpers for the end-to-end scripts in this directory.  Each script
# sources it with `. "$(dirname "$0")/lib.sh"` after `set -e`.

# A failed assertion exits the script under `set -e`; take down any daemon,
# proxy or client still running in the background with it.
trap 'kill -9 $(jobs -p) 2>/dev/null || true' EXIT

# Wipes work directory $1, re-creates it, enters it, and points
# DDL_BENCH_DIR at it: every artifact of the script lands there.  The
# scripts run their binaries from inside it, so pass absolute paths.
enter_workdir() {
  rm -rf "$1"
  mkdir -p "$1"
  cd "$1"
  export DDL_BENCH_DIR=$PWD
}

# Waits for the `listening` line a daemon or proxy prints to log $1 and
# prints its TCP port.
port_of() {
  for _ in $(seq 1 100); do
    grep -q listening "$1" 2>/dev/null && break
    sleep 0.1
  done
  sed -n 's/.*tcp=\([0-9]*\).*/\1/p' "$1"
}

# Starts a daemon or proxy (the command in $2...) in the background with
# stdout and stderr in log $1, waits until it listens, and sets $pid and
# $port.
launch() {
  local log=$1
  shift
  "$@" > "$log" 2>&1 &
  pid=$!
  port=$(port_of "$log")
}
