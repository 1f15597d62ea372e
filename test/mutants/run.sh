#!/bin/sh
# The mutation check: every patch under test/mutants/ is a deliberate
# bug.  Each one is applied to a fresh copy of the working tree (build
# directory and git metadata left out), which must still build; then
# `dune runtest` must fail.  A mutant that builds and passes every test
# "survived": the suite cannot see that bug, and the check exits 1.
# A patch that no longer applies or builds also exits 1, since it no
# longer tests anything.
#
# Usage, from the root of a checkout: sh test/mutants/run.sh [PATCH...]
# (default: every test/mutants/*.patch).  `make mutants` runs it.
set -u

root=$(pwd)
[ $# -gt 0 ] || set -- "$root"/test/mutants/*.patch
status=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  copy=$(mktemp -d "${TMPDIR:-/tmp}/rchls-mutant.XXXXXX")
  tar -C "$root" --exclude=./_build --exclude=./.git -cf - . | tar -C "$copy" -xf -
  if ! patch -s -d "$copy" -p1 < "$patch"; then
    echo "mutant $name: patch does not apply"
    status=1
  elif ! (cd "$copy" && dune build 2>/dev/null); then
    echo "mutant $name: does not build"
    status=1
  elif (cd "$copy" && dune runtest >/dev/null 2>&1); then
    echo "mutant $name: SURVIVED (every test passes)"
    status=1
  else
    echo "mutant $name: killed"
  fi
  rm -rf "$copy"
done
exit $status
