#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# Builds the standalone package under benchmark/ (release, offline) into
# $CARGO_TARGET_DIR if set, else the repository's target/ so artefacts are
# shared with the tier-1 build, then runs it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/clare-benchmark" "$@"
