#!/bin/sh
# Tier-1 gate: offline build + tests, then the lintkit invariant
# checker (`repro lint`) over every source-level deny-list the
# workspace enforces, then the per-subsystem suites.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
# The workspace root is virtual, so this runs every member's unit and
# integration tests once; the suites below add only release-mode runs
# and CLI smokes, never a debug re-run of a test this already ran.
cargo test -q --offline

echo "== perfbench build =="
# The benchmark builds against the public xkit/bench/dnsctx API with the
# same command perfbench/run.py uses, so removing an item it imports
# fails here, not in the benchmark.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== lint (token-aware invariant checker) =="
# One invocation replaces the old awk/grep deny-lists: dependency
# denylist, parse-path unwrap/expect, hot-path to_vec/clone, the
# Instant::now clock seam, the socket fence, the PcapReader ingestion
# seam, the stream batch-fallback scan — plus the rules the shell could
# never express (map iteration, SAFETY comments, stdout discipline,
# wall-clock seams, and this script's own scan hygiene). Exit code 1 on
# any violation keeps the old contract.
lint_json=$(mktemp /tmp/verify_lint.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    lint --format json > "$lint_json"
# The JSON diagnostic document must parse back through xkit::obs::json
# and carry ok=true (lint_cli tests the schema in depth; this is the
# live gate on the real tree).
grep -q '"tool":"lintkit"' "$lint_json"
grep -q '"ok":true' "$lint_json"
rm -f "$lint_json"
echo "clean: repro lint exits clean on the workspace"

echo "== fault suite =="
cargo run -q --release --offline -p bench --bin repro -- fuzz --seed 0

echo "== obs suite =="
# The obs experiment must emit a JSON snapshot we can parse back.
obs_out=$(mktemp /tmp/verify_obs.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    obs --houses 30 --days 0.02 --scale 0.3 --obs-out "$obs_out" >/dev/null
cargo run -q --release --offline -p bench --bin repro -- obs-check "$obs_out"
rm -f "$obs_out"

echo "== stream suite =="
# Streamed output must be byte-identical to batch at every tested
# window/thread combination, with live state bounded for finite windows.
cargo test -q --release --offline -p dnsctx --test stream_agreement
cargo run -q --release --offline -p bench --bin repro -- \
    stream --houses 20 --days 0.1 --window-secs 60 >/dev/null
# Batch-fallback scanning now lives in `repro lint` (no-batch-in-stream).

echo "== ingest suite =="
# One RecordSource seam, three backends: the file and ring paths must be
# indistinguishable downstream (also at the CLI: determinism_cli), and
# the ring must conserve every record.
cargo test -q --release --offline -p dnsctx --test ingest_agreement
cargo build -q --offline -p pcapio --features raw-socket
# Raw-socket loopback smoke, only where AF_PACKET is plausibly permitted
# (the test also self-skips if the open is denied at runtime).
if [ "$(id -u)" = "0" ]; then
    cargo test -q --offline -p pcapio --features raw-socket \
        --test raw_loopback -- --ignored
else
    echo "skipping raw-socket loopback smoke (needs CAP_NET_RAW)"
fi
# Ingestion-seam scanning now lives in `repro lint` (ingest-seam), as do
# the clock seam (clock-seam), parse-path panics (no-unwrap-parse), and
# hot-path copies (no-owned-copy-hotpath).

echo "== perf-hygiene suite =="
# The refactored hot path must be unobservable: bytes, logs, counts, and
# metrics identical across threads, windows, and the owned fallback.
cargo test -q --release --offline -p bench --test zero_copy_agreement

echo "== obs-serve suite =="
# The live observability plane (its tests run under cargo test above).
# Serve smoke on an ephemeral port: every endpoint must answer and
# self-validate while the run is live.
cargo run -q --release --offline -p bench --bin repro -- \
    stream --houses 10 --days 0.05 --window-secs 30 \
    --serve 127.0.0.1:0 --serve-check >/dev/null
# Socket-fence scanning now lives in `repro lint` (socket-fence).

echo "== serve-daemon suite =="
# The multi-tenant daemon (DESIGN.md §15): its lifecycle tests run under
# cargo test above; this ephemeral-port CLI smoke self-validates the
# tenant routes before shutdown.
cargo run -q --release --offline -p bench --bin repro -- \
    serve --tenants 8 --houses 4 --days 0.05 \
    --serve 127.0.0.1:0 --serve-check >/dev/null
# Thread-spawn scanning lives in `repro lint` (thread-spawn-fence).

echo "== verify OK =="
