#!/usr/bin/env bash
# Exits 1, naming each, on a dead dependency edge: a [dependencies] entry of
# the root package or of a crate under crates/ that none of the crate's src/,
# benches/, tests/ or examples/ names (as `name::`, `use name;` or
# `name as`, with `-` spelled `_`) outside a `//` comment. Run from anywhere.
#
# The PINNED edges are dead too, but rangebench/Cargo.lock pins them and
# `cargo test --locked` on the benchmark refuses a lock file that no longer
# matches, so they go with a change allowed to edit rangebench/ (ROADMAP
# item 8).
set -euo pipefail
cd "$(dirname "$0")/.."

PINNED="sgcr-core sgcr-attack
sgcr-core sgcr-iec61850
sgcr-core parking_lot
sgcr-ied sgcr-scl
sgcr-models sgcr-xml
sgcr-models sgcr-net
sgcr-models sgcr-plc
sgcr-models sgcr-kvstore
sgcr-farm sgcr-faults
sgcr-iec61850 bytes"

dead=0
for dir in . crates/*; do
    manifest="$dir/Cargo.toml"
    package=$(awk -F'"' '/^name = / { print $2; exit }' "$manifest")
    deps=$(awk '/^\[/ { on = ($0 == "[dependencies]"); next }
        on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest")
    sources=$(ls -d "$dir/src" "$dir/benches" "$dir/tests" "$dir/examples" 2>/dev/null || true)
    # shellcheck disable=SC2086 # one word per source directory
    code=$(find $sources -name '*.rs' -exec sed 's://.*$::' {} +)
    for dep in $deps; do
        if ! grep -qE "(^|[^A-Za-z0-9_:])${dep//-/_}(::|;| as )" <<<"$code" &&
            ! grep -qx "$package $dep" <<<"$PINNED"; then
            echo "dead dependency edge: $package -> $dep"
            dead=1
        fi
    done
done
exit "$dead"
