#!/bin/sh
# Code-line ledger (the PR 12 command): per file, the lines up to the
# first `#[cfg(test)]`, comment-only and blank lines excluded; then per
# crate, then the four totals the simplicity PRs quote: `crates/*/src` and
# `crates/core/src` code lines, `crates/bench/benches` lines (`wc -l`) and
# the number of `[[bench]]` targets.
# Usage: scripts/ledger.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -vc '^\s*$'
}
all=0
for dir in crates/*/src; do
    total=0
    for f in $(find "$dir" -name '*.rs' | sort); do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  %s TOTAL\n' "$total" "$dir"
    [ "$dir" = crates/core/src ] && core=$total
    all=$((all + total))
done
printf '%6d  crates/*/src total\n' "$all"
printf '%6d  crates/core/src total\n' "$core"
printf '%6d  crates/bench/benches lines\n' "$(cat crates/bench/benches/*.rs | wc -l)"
printf '%6d  [[bench]] targets\n' "$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)"
