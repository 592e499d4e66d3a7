#!/usr/bin/env bash
# The benchmark's one command: build offline against the in-repo shims,
# then measure. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The numbers must describe the shipped code: the benchmark is a
# workspace of its own, so it repeats the root release profile, and the
# two may not drift.
profile() {
    awk '/^\[profile\.release\]/ {on=1; next} /^\[/ {on=0} on && NF && !/^#/' "$1" | sort
}
if [ "$(profile "$here/../Cargo.toml")" != "$(profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] of benchmark/Cargo.toml differs from the root Cargo.toml" >&2
    exit 1
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

export SWDUAL_BENCH_RUSTC="$(rustc --version)"
export SWDUAL_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "${CARGO_TARGET_DIR:-$here/target}/release/swdual-benchmark" "$@"
