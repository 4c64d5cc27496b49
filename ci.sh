#!/usr/bin/env bash
# Full local CI: formatting, lints, docs (warnings fatal), build, tests.
# Runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test (unit, integration and doctests)"
cargo test --offline --workspace -q

echo "==> benchmark self-test (perfbench is its own workspace)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> markdown link check (doccheck)"
./target/release/doccheck .

echo "==> figure smoke (fig11, fig12a-c, fig13, ablation at 2 nodes; each twice, stdout must repeat)"
for b in fig11 fig12a fig12b fig12c fig13 ablation; do
    ./target/release/$b --max-nodes 2 --iters 1 >/tmp/fig_smoke_1.txt
    ./target/release/$b --max-nodes 2 --iters 1 >/tmp/fig_smoke_2.txt
    if ! cmp -s /tmp/fig_smoke_1.txt /tmp/fig_smoke_2.txt; then
        echo "$b: two runs printed different stdout"
        diff /tmp/fig_smoke_1.txt /tmp/fig_smoke_2.txt || true
        exit 1
    fi
done

echo "==> example smoke (all seven; five assert their distributed result)"
for e in quickstart jacobi3d wave3d deep_halo irregular_halo placement_explorer topology_report; do
    ./target/release/$e >/dev/null
done

echo "==> summit 256-node row reproduces BENCH_summit_fig12.json (every field before wall_s)"
./target/release/summit --max-nodes 256 --iters 2 --json /tmp/summit_smoke.json >/dev/null
summit_row() { grep -o '"nodes": 256[^}]*' "$1" | sed 's/, "wall_s.*//'; }
want=$(summit_row BENCH_summit_fig12.json)
test -n "$want"
test "$(summit_row /tmp/summit_smoke.json)" = "$want"

echo "==> bench smoke (simperf --quick)"
./target/release/simperf --quick --json /tmp/simperf_smoke.json
./target/release/simperf --validate /tmp/simperf_smoke.json

echo "==> chaos contracts, every scenario (chaos --quick --validate)"
./target/release/chaos --quick --iters 2 --validate --metrics /tmp/chaos_smoke.json
test -s /tmp/chaos_smoke.json

echo "==> mapper smoke (mapperf --quick --validate)"
./target/release/mapperf --quick --validate --json /tmp/mapperf_smoke.json
test -s /tmp/mapperf_smoke.json

echo "==> service smoke (loadgen --quick --validate)"
./target/release/loadgen --quick --validate --json /tmp/loadgen_smoke.json
test -s /tmp/loadgen_smoke.json

echo "==> transport/overlap smoke (overlap --quick --validate)"
./target/release/overlap --quick --validate --json /tmp/overlap_smoke.json
test -s /tmp/overlap_smoke.json

echo "==> OK"
