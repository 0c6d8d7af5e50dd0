#!/bin/sh
# Run a front-end with a bad flag value and print one line: its name, the
# arguments, the exit code and the first line of stderr (the error message).
#
#   sh bad_input.sh EXE ARGS...
exe=$1
shift
msg=$("$exe" "$@" 2>&1 >/dev/null)
code=$?
echo "$(basename "$exe") $* -> exit $code: $(printf '%s\n' "$msg" | head -n 1)"
