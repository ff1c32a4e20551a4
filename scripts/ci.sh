#!/usr/bin/env bash
# Full CI gate: release build, the complete workspace test suite,
# lint-clean clippy, and a perfbench build + smoke run. Run locally
# before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --no-run

# perfbench is a workspace of its own, so --workspace never compiles it;
# build it so an API break shows here. Seed 26 of pm_mesh once crashed
# on the refresh f32 wrap defect: every run of it must now complete and
# pass the benchmark's physics checks.
echo "==> perfbench build + pm_mesh seed 26 smoke"
cargo build --release --manifest-path perfbench/Cargo.toml
result=$(cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload pm_mesh --seed 26 --seconds 1 --trace 0 | tail -n 1)
echo "$result"
if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0' <<<"$result"; then
  echo "FAIL: perfbench pm_mesh seed 26 did not complete cleanly" >&2
  exit 1
fi

echo "==> cargo xtask verify  (lint wall, deny, loom; miri/tsan when installed)"
cargo xtask verify

echo "==> CI gate passed"
