#!/bin/sh
# A stand-in host C++ compiler for tests: it answers the toolchain probe
# (`--version`) like a real one, then fails every compile with a diagnostic.
if [ "$1" = "--version" ]; then
  echo "failing-cxx 1.0 (test stand-in)"
  exit 0
fi
echo "failing-cxx: error: refusing to compile $*" >&2
exit 1
