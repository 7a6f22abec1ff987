#!/bin/sh
# The mutation corpus: every tests/mutants/NNN-*.patch is a deliberate bug
# that the test filters named on its `Must-fail:` lines must catch.
#
# Usage: scripts/mutants.sh [patch…]      (default: every patch)
#   TMPDIR=dir            where the worktree and its build go (default /tmp)
#   MUTANT_TIMEOUT=secs   per filter, build included (default 900)
#   PROPTEST_CASES=n      cases per property (default 1000)
#
# Each patch is applied to a fresh `git worktree` of HEAD under $TMPDIR,
# and each filter runs as `cargo test --release <filter>` under a timeout.
# A filter that passes lets the mutant survive; a patch that does not
# apply or build is broken. Either makes the script exit non-zero. The
# worktree is removed after every patch; the build directory is shared.
set -u
cd "$(dirname "$0")/.." || exit 1
root=$(pwd)
base=${TMPDIR:-/tmp}/xivm-mutants.$$
tree=$base/tree
timeout=${MUTANT_TIMEOUT:-900}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$base/target}
export PROPTEST_CASES=${PROPTEST_CASES:-1000}
mkdir -p "$base"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null
    git -C "$root" worktree prune
}
trap 'cleanup; rm -rf "$base"' EXIT
[ $# -gt 0 ] || set -- tests/mutants/*.patch
status=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    git worktree add --quiet --detach "$tree" HEAD || exit 1
    if ! git -C "$tree" apply "$root/$patch"; then
        echo "BROKEN   $name: does not apply"
        status=1
    else
        grep '^Must-fail: ' "$patch" | sed 's/^Must-fail: //' >"$base/filters"
        while read -r filter; do
            # shellcheck disable=SC2086 # a filter is several arguments
            if ! (cd "$tree" && timeout "$timeout" cargo test --release --quiet --no-run $filter) >/dev/null 2>&1; then
                echo "BROKEN   $name: does not build for $filter"
                status=1
            elif (cd "$tree" && timeout "$timeout" cargo test --release --quiet $filter) >/dev/null 2>&1; then
                echo "SURVIVED $name: cargo test --release $filter"
                status=1
            else
                echo "killed   $name: cargo test --release $filter"
            fi
        done <"$base/filters"
    fi
    cleanup
done
exit $status
