#!/bin/sh
# Exit-status checks of `clic-sim run`, given the built executable:
# --quick really shrinks an experiment, and an unknown id exits 2.  (That
# every contract holds at quick size is checked by the run_quick golden.)
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
