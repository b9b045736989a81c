#!/usr/bin/env sh
# Offline-build guard: the workspace and the standalone perfbench crate must
# be buildable with no registry access (DESIGN.md §5) — every dependency has
# to be an in-tree path or workspace reference. Fails if any crate manifest
# declares a dependency by registry version or git URL.
set -eu

cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; do
    # Scan only [*dependencies*] sections; `version.workspace = true` under
    # [package] is fine.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[^#[]/ && NF {
            # Inline tables: flag registry/git sourcing unless path-based.
            if ($0 ~ /(^|[{,[:space:]])(version|git|registry)[[:space:]]*=/ && $0 !~ /path[[:space:]]*=/)
                print FILENAME ": " $0
            # Bare `foo = "1.2"` version shorthand.
            else if ($0 ~ /^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/)
                print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry-style dependency found (offline invariant violated):"
        echo "$bad"
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "offline guard: all dependencies are path/workspace references"
fi
exit "$status"
