#!/bin/sh
# Run a command and check its exit status and output.
#
# usage: expect_exit.sh STATUS [PATTERN...] -- COMMAND [ARGS...]
#
# Passes when COMMAND exits with exactly STATUS and its combined
# stdout and stderr matches every extended regex PATTERN. An exact
# status also tells a clean usage error (1) from a panic (abort).
status=$1
shift
patterns=""
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    patterns="$patterns
$1"
    shift
done
[ "$1" = "--" ] || { echo "expect_exit.sh: missing --" >&2; exit 2; }
shift

out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$status" ]; then
    echo "expect_exit.sh: exit status $rc, expected $status" >&2
    exit 1
fi
printf '%s\n' "$patterns" | while IFS= read -r p; do
    [ -z "$p" ] && continue
    printf '%s\n' "$out" | grep -Eq -- "$p" || {
        echo "expect_exit.sh: output lacks /$p/" >&2
        exit 1
    }
done
