#!/usr/bin/env bash
# Full local CI: formatting, lints, docs (warnings fatal), build, tests.
# Runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> OS threads: only the service's worker pool starts them (crates/svc/src/service.rs)"
spawns=$(grep -rnE 'std::thread::(spawn|scope|Builder)' --include='*.rs' crates examples tests || true)
echo "$spawns"
if grep -v '^crates/svc/src/service.rs:' <<<"$spawns" | grep -q .; then
    echo "OS threads started outside crates/svc/src/service.rs"
    exit 1
fi

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

echo "==> figure smoke (fig11, fig12a-c, fig13, ablation at 2 nodes; table1, fig3, fig4, fig9 take no flags; each twice, stdout must repeat)"
smoke_twice() {
    ./target/release/"$@" >/tmp/fig_smoke_1.txt
    ./target/release/"$@" >/tmp/fig_smoke_2.txt
    if ! cmp -s /tmp/fig_smoke_1.txt /tmp/fig_smoke_2.txt; then
        echo "$1: two runs printed different stdout"
        diff /tmp/fig_smoke_1.txt /tmp/fig_smoke_2.txt || true
        exit 1
    fi
}
for b in fig11 fig12a fig12b fig12c fig13 ablation; do
    smoke_twice $b --max-nodes 2 --iters 1
done
for b in table1 fig3 fig4 fig9; do
    smoke_twice $b
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

echo "==> chaos contracts, every scenario (chaos --quick --validate), with metrics on and off"
./target/release/chaos --quick --iters 2 --validate --metrics /tmp/chaos_smoke.json | tee /tmp/chaos_metrics.txt
test -s /tmp/chaos_smoke.json
./target/release/chaos --quick --iters 2 --validate >/tmp/chaos_plain.txt
if ! diff <(grep -v '^  metrics written to ' /tmp/chaos_metrics.txt) /tmp/chaos_plain.txt; then
    echo "chaos: stdout with metrics off differs from the --metrics run"
    exit 1
fi

echo "==> mapper smoke (mapperf --quick --validate)"
./target/release/mapperf --quick --validate

echo "==> transport/overlap smoke (overlap --quick --validate)"
./target/release/overlap --quick --validate --json /tmp/overlap_smoke.json
test -s /tmp/overlap_smoke.json

echo "==> OK"
