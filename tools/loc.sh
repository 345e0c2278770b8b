#!/usr/bin/env bash
# Print each crate's non-test lines as a Markdown table: for every
# `src/**/*.rs` file, the lines before its first `#[cfg(test)]` (all of its
# lines when it has none), summed per crate.  ROADMAP's line targets count
# this way.  Run from anywhere:
#
#   tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '| crate | non-test lines |\n|---|---:|\n'
total=0
for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml \
    tools/*/Cargo.toml benchmark/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '| `%s` | %d |\n' "$name" "$lines"
    total=$((total + lines))
done
printf '| total | %d |\n' "$total"
