#!/bin/sh
# Exit-status checks of clic-sim, given the built executable: `run`
# --quick really shrinks an experiment, an unknown id or soak template
# exits 2, and an out-of-range numeric flag (NaN and infinity included)
# is an argument error (exit 124) rather than a crash or a run with a
# nonsense value, and so is a `chaos --loss` its `--burst` channel cannot
# average.  (That every contract holds at quick size is checked by the
# run_quick golden.)
set -eu
sim=$1

quick=$("$sim" run chaos --quick | cksum)
full=$("$sim" run chaos | cksum)
if [ "$quick" = "$full" ]; then
  echo "run chaos: --quick output is identical to full mode" >&2
  exit 1
fi

status=0
"$sim" run nope > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "run nope: exit status $status, expected 2" >&2
  exit 1
fi

# Each line: the expected exit status, then the arguments.  The 0 lines
# are the edge values each flag accepts.
while read -r expected args; do
  status=0
  # shellcheck disable=SC2086 # word-split the argument list on purpose
  "$sim" $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne "$expected" ]; then
    echo "$args: exit status $status, expected $expected" >&2
    exit 1
  fi
done <<'CASES'
124 latency --reps 0
124 bandwidth --reps 0
124 latency --reps=-3
124 bandwidth --size=-5
124 stream --size=-5
124 chaos --size=-5
124 latency --mtu 0
124 bandwidth --mtu 0
124 stream --mtu 0
124 chaos --mtu 0
124 latency --mtu 1
124 chaos --messages=-1
124 check --seeds=-2
124 soak --trials 0
124 soak --trials=-1
124 chaos --loss 2
124 chaos --loss nan
124 chaos --dup=nan
124 chaos --jitter-us inf
124 chaos --jitter-us=nan
124 chaos --jitter-us=-5
124 chaos --jitter-us 0.0001
124 chaos --jitter-us 1e300
124 chaos --burst 0
124 chaos --messages 0 --loss 0.44 --burst 2
124 chaos --loss 1 --burst 2
124 chaos --loss 0.9 --burst 20
124 metrics fig7 --bucket-us 0.0001
124 metrics fig7 --bucket-us=inf
124 metrics fig7 --bucket-us=nan
124 metrics fig7 --bucket-us=1e300
124 metrics fig7 --bucket-us=-1
2 soak --only nope
0 latency --reps 1 --mtu 68
0 bandwidth --size 0 --reps 1
0 chaos --messages 0
0 chaos --messages 0 --loss 1 --dup 1 --burst 1 --jitter-us 0
0 chaos --messages 0 --loss 0.3 --burst 2
0 chaos --messages 1 --jitter-us 0.001
0 metrics fig7 --bucket-us 0.001 -o /dev/null
CASES
