#!/usr/bin/env bash
# The full local quality gate: formatting, lints (warnings are errors),
# and the complete workspace test suite. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Old paths are replaced, not parked beside the new one: shims marked
# for later removal accumulate, each with its own names to document,
# test and instrument.
echo "==> no parked compatibility shims"
if grep -rn "kept for one release" crates/ src/; then
  echo "ci: a 'kept for one release' shim is back; delete the old path instead"
  exit 1
fi

# The namespace keeps its own books: placement reads counts `Dfs` owns
# and every group decision reads one survey, so no bookkeeping question
# (an RPC, over `RemoteStore`) is put to a store on the data path.
echo "==> no bookkeeping RPCs on the Dfs data path"
if grep -nE '\.probe\(|block_count|contains_block' crates/dfs/src/fs.rs; then
  echo "ci: fs.rs asks a store for bookkeeping; use the counts and the survey Dfs owns"
  exit 1
fi

# Both planes run the one server core (crates/net/src/server.rs) and
# every frame leaves through write_frame_vectored, so a second accept
# loop or a second frame writer is a regression, not a feature.
echo "==> one accept loop, one frame writer in galloper-net"
accept_loops="$(cat crates/net/src/*.rs | grep -c 'incoming()' || true)"
if [ "$accept_loops" -ne 1 ]; then
  echo "ci: $accept_loops accept loops in crates/net/src; serve through server.rs"
  exit 1
fi
if grep -rnw 'write_frame' crates src tests; then
  echo "ci: write_frame is back; write_frame_vectored is the one frame writer"
  exit 1
fi

# The local codec has one way through: ingest is chosen from the input
# (map a regular non-empty mappable file, else read), one coding group
# is in flight, and the kernel is the probed SIMD backend over the
# scalar reference. The options, enums and modules that forked it stay
# deleted.
echo "==> one ingest, one stream strategy, two kernel backends"
if grep -rnE 'GALLOPER_IO_MODE|GALLOPER_STREAM_GROUPS|IoMode|with_concurrency|Backend::Swar|Gf65536' \
  crates src tests examples README.md DESIGN.md; then
  echo "ci: a deleted local-codec fork is back; decide in code from what the code can observe"
  exit 1
fi

# Every setting earns its place: a knob that nothing sets to a second
# value is the constant it defaults to. The serving-plane tunables, the
# address knobs that duplicate --listen / --gateway, the per-family
# thread overrides (the pool's width is the one thread-count rule), the
# straggler multiplier nothing read, the chaos bench's size knobs and
# bench-diff's baseline directory and tolerance stay deleted. (The
# bracketed letters keep this script from matching itself.)
echo "==> no deleted knobs"
if grep -rnE 'GALLOPER_(CHUNK_BYTES|ADMISSION_MS|MAX_INFLIGHT|STAT_RING|LISTEN|GATEWAY|POOL_THREADS|TRACE_CAP|KERNEL_MB|BENCH_BASELINE|CHAOS_TICKS|OBJECT_KB)\b|with_thread[s]|set_slo[w]|--threshol[d]' \
  crates src tests scripts README.md DESIGN.md; then
  echo "ci: a deleted knob is back; make it a constant unless something sets it"
  exit 1
fi

# The README's env table is the one list of knobs: every GALLOPER_*
# name non-test code reads has a row, and every row has a reader.
# (Test modules sit at the end of their file; the handshake tokens are
# printed, never read this way.)
echo "==> README env table = env knobs read in crates/*/src"
knobs_read="$(find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} 1' {} \; \
  | grep -oE '(env::var(_os)?|env_usize|env_f64)\("GALLOPER_[A-Z_]+"' \
  | grep -oE 'GALLOPER_[A-Z_]+' | sort -u)"
knobs_documented="$(grep -oE '^\| `GALLOPER_[A-Z_]+`' README.md | grep -oE 'GALLOPER_[A-Z_]+' | sort -u)"
if [ "$knobs_read" != "$knobs_documented" ]; then
  echo "ci: README's env table and the knobs read in crates/*/src differ (< read, > documented):"
  diff <(echo "$knobs_read") <(echo "$knobs_documented") || true
  exit 1
fi

# Every read is a range read: `ErasureCode::read_range_into` is the one
# primitive, `Dfs::read_span` its one caller in the namespace, and
# `StripeDecoder` a driver over it. `decode` stays for what is not a
# serving read — the primitive's own fallback, `RebuildPlan::apply`'s
# decode arm, the `ObjectCodec` oracle — and none of those lives in
# fs.rs.
echo "==> one read core"
if grep -rnE 'decode_groups|decode_range|read_range_via_decode|seek_group|AsLinearCode|as_linear_code' \
  crates src tests examples README.md DESIGN.md; then
  echo "ci: a deleted read path is back; serve the read through read_range_into"
  exit 1
fi
range_reads="$(grep -c '\.read_range_into(' crates/dfs/src/fs.rs || true)"
decodes="$(grep -c '\.decode(' crates/dfs/src/fs.rs || true)"
if [ "$range_reads" -ne 1 ] || [ "$decodes" -ne 0 ]; then
  echo "ci: fs.rs has $range_reads read_range_into and $decodes decode call sites; want 1 (read_span) and 0"
  exit 1
fi
if sed -n "/^impl<'c, C: ErasureCode> StripeDecoder/,/^}/p" crates/erasure/src/stream.rs | grep -n '\.decode('; then
  echo "ci: StripeDecoder decodes on its own again; it is a driver over read_range_into"
  exit 1
fi

# Every lost block of a stored group comes back through one
# `RebuildPlan`: local plans chained to a fixed point, one decode +
# re-encode for the rest. `Dfs::repair_group` and `galloper fsck
# --repair` / `galloper repair` build one and `apply` it, so neither
# calls `reconstruct` or `decode` itself, and the CLI's
# decode-to-a-temp-object fallback stays deleted. (`StripeReconstructor`,
# the single-target streaming driver, keeps its one direct
# `reconstruct` call with its one `RepairPlan`.)
echo "==> one rebuild core"
if grep -nE '\.(decode|reconstruct)\(' crates/dfs/src/fs.rs crates/cli/src/ops.rs; then
  echo "ci: a repair path rebuilds on its own again; build a RebuildPlan and apply it"
  exit 1
fi
if grep -rnE 'fsck-object\.tmp|fsck-reencode\.tmp' crates src tests; then
  echo "ci: the fsck temp-object fallback is back; the rebuild pass writes only the lost blocks"
  exit 1
fi

# One codec type: `build_code` returns the family's `LinearCode`, which
# records every codec quantity once, under one literal `erasure.*` name.
# The per-family metrics wrapper, the `Box` forward and the names built
# per call stay deleted, and the only `ErasureCode` impls outside tests
# are `LinearCode`'s and the `delegate_erasure_code!` body. (The
# bracketed letters keep this script from matching itself.)
echo "==> one codec type"
if grep -rnE 'Observe[d]|ErasureCode for Bo[x]|forma[t]!\("erasure\.' \
  crates src tests examples README.md DESIGN.md; then
  echo "ci: a second codec type or per-family metric name is back; record it on LinearCode"
  exit 1
fi
codec_impls="$(find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} 1' {} \; \
  | grep -c 'ErasureCode fo[r] ' || true)"
if [ "$codec_impls" -ne 2 ]; then
  echo "ci: $codec_impls ErasureCode impl sites in crates/*/src; want 2 (LinearCode, delegate_erasure_code!)"
  exit 1
fi

# One object handler: the gateway serves its seven object verbs through
# one dispatch, which takes the `Dfs` lock once per request (read for
# the gets, write for the puts); session teardown is the one other lock
# site. The second handler and the predicate that routed between the two
# stay deleted. (The bracketed letters keep this script from matching
# itself.)
echo "==> one object handler"
if grep -rnE 'handle_object_reques[t]|is_stream_reques[t]' crates/net/src; then
  echo "ci: a second gateway handler is back; serve the verb through the one dispatch"
  exit 1
fi
lock_sites="$(awk '/^#\[cfg\(test\)\]/{exit} 1' crates/net/src/gateway.rs \
  | { grep -oE '\.(rea[d]|writ[e])\(\)' || true; } | wc -l)"
if [ "$lock_sites" -gt 3 ]; then
  echo "ci: $lock_sites Dfs lock sites in gateway.rs; want at most 3 (the dispatch's two, teardown's one)"
  exit 1
fi

echo "==> cargo clippy (-D warnings)"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1: cargo build + test"
cargo build --release
cargo test -q --release

echo "==> full workspace tests (auto-dispatched kernel)"
cargo test -q --release --workspace

echo "==> full workspace tests (GALLOPER_KERNEL=scalar)"
GALLOPER_KERNEL=scalar cargo test -q --release --workspace

# The chaos soak (tests/chaos.rs) already ran above on its default
# seed; re-run it on a second pinned schedule under both kernel
# backends so CI always exercises one alternate fault trajectory.
echo "==> chaos soak (pinned seed, auto + scalar kernels)"
GALLOPER_FAULT_SEED=2147483647 cargo test -q --release --test chaos
GALLOPER_FAULT_SEED=2147483647 GALLOPER_KERNEL=scalar \
  cargo test -q --release --test chaos

# Bench gates: every gated document holds only values the code
# determines (counts, bytes read, simulated times), so each is diffed
# for equality (provenance aside) against its committed copy. `chaos`
# runs at its defaults and must reproduce results/BENCH_chaos.json
# under both kernel backends; fig8 runs with the configuration that
# recorded results/baselines/BENCH_fig8.json.
echo "==> bench gates (galloper bench-diff <baseline> <new> --check)"
cargo build --release -p galloper-bench -p galloper-cli --bins
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
GALLOPER_JSON_OUT="$BENCH_TMP/auto" ./target/release/chaos >/dev/null
GALLOPER_KERNEL=scalar GALLOPER_JSON_OUT="$BENCH_TMP/scalar" ./target/release/chaos >/dev/null
for kernel in auto scalar; do
  ./target/release/galloper bench-diff results/BENCH_chaos.json \
    "$BENCH_TMP/$kernel/BENCH_chaos.json" --check
done
GALLOPER_BLOCK_MB=0.5 GALLOPER_REPS=3 \
  GALLOPER_JSON_OUT="$BENCH_TMP" ./target/release/fig8 >/dev/null
./target/release/galloper bench-diff results/baselines/BENCH_fig8.json \
  "$BENCH_TMP/BENCH_fig8.json" --check

# Networked-store smoke: a real 3-daemon + gateway cluster on
# loopback. Put an object, read it back byte-exact, kill -9 one
# daemon (a genuine machine loss — its PID comes from the serve
# handshake), and require the degraded read to still be byte-exact.
echo "==> serve smoke (3 daemons + gateway, kill one, degraded get)"
cargo build --release -p galloper-cli -p galloper-loadgen --bins
SERVE_TMP="$(mktemp -d)"
SERVE_LOG="$SERVE_TMP/serve.log"
GALLOPER_SCRAPE_MS=300 ./target/release/galloper serve --daemons 3 --root "$SERVE_TMP/data" \
  >"$SERVE_LOG" 2>"$SERVE_TMP/serve.err" &
SERVE_PID=$!
cleanup_serve() {
  kill "$SERVE_PID" 2>/dev/null || true
  awk '/^GALLOPER_DAEMON_PID /{print $3}' "$SERVE_LOG" 2>/dev/null \
    | xargs -r kill -9 2>/dev/null || true
  rm -rf "$SERVE_TMP" "$BENCH_TMP" ${BIG_DIR:+"$BIG_DIR"}
}
trap cleanup_serve EXIT
for _ in $(seq 1 100); do
  grep -q GALLOPER_GATEWAY_LISTENING "$SERVE_LOG" 2>/dev/null && break
  sleep 0.2
done
GATEWAY="$(awk '/^GALLOPER_GATEWAY_LISTENING /{print $2}' "$SERVE_LOG")"
[ -n "$GATEWAY" ] || { echo "serve smoke: gateway never came up"; cat "$SERVE_TMP/serve.err"; exit 1; }
head -c 300000 /dev/urandom >"$SERVE_TMP/obj.bin"
./target/release/galloper net-put "$GATEWAY" smoke "$SERVE_TMP/obj.bin"
./target/release/galloper net-get "$GATEWAY" smoke "$SERVE_TMP/back.bin"
cmp "$SERVE_TMP/obj.bin" "$SERVE_TMP/back.bin"

# Chunked-transfer smoke: a ragged ~160 MiB object — far past the old
# one-frame 64 MiB cap — must stream through the same live cluster
# byte-exact. Scratch files live on tmpfs when available so disk
# throughput can't dominate the gate.
echo "==> chunked transfer smoke (160 MiB object through the gateway)"
BIG_DIR="$SERVE_TMP"
if [ -d /dev/shm ] && [ -w /dev/shm ]; then
  BIG_DIR="$(mktemp -d /dev/shm/galloper-big.XXXXXX)"
fi
head -c $((160 * 1024 * 1024 + 12345)) /dev/urandom >"$BIG_DIR/big.bin"
./target/release/galloper net-put "$GATEWAY" bigobj "$BIG_DIR/big.bin"
./target/release/galloper net-get "$GATEWAY" bigobj "$BIG_DIR/big-back.bin"
cmp "$BIG_DIR/big.bin" "$BIG_DIR/big-back.bin"
rm -f "$BIG_DIR/big-back.bin"

# Short loadgen pass against the healthy cluster (writes need every
# daemon; only reads survive a loss). Its exit status is the gate: it
# fails on any byte error, GET-count mismatch, scrape error or oversize
# refusal.
echo "==> loadgen gate (exit status)"
./target/release/galloper-loadgen \
  --gateway "$GATEWAY" --clients 64 --rate 400 --seconds 3 \
  --objects 8 --object-bytes 16384 >/dev/null

# Observability gate, healthy side: the gateway's scraper must see all
# three daemons and the merged view must parse as a healthy cluster
# (--require-healthy exits nonzero on unreachable daemons or scrape
# errors).
echo "==> stat gate (scraper sees 3/3 daemons, then 2/3 after kill)"
./target/release/galloper stat "$GATEWAY" --json --require-healthy \
  | grep -q '"daemons_reachable":3'

# Machine loss mid-service: the degraded read must stay byte-exact —
# on the whole-frame path and on the chunked path alike.
KILLED="$(awk '/^GALLOPER_DAEMON_PID 1 /{print $3}' "$SERVE_LOG")"
kill -9 "$KILLED"
./target/release/galloper net-get "$GATEWAY" smoke "$SERVE_TMP/degraded.bin"
cmp "$SERVE_TMP/obj.bin" "$SERVE_TMP/degraded.bin"
./target/release/galloper net-get "$GATEWAY" bigobj "$BIG_DIR/big-degraded.bin"
cmp "$BIG_DIR/big.bin" "$BIG_DIR/big-degraded.bin"
rm -f "$BIG_DIR/big.bin" "$BIG_DIR/big-degraded.bin"

# Observability gate, degraded side: within a few scrape intervals the
# cluster view must report the killed daemon unreachable (2/3) without
# the dead node poisoning the merge.
STAT_DEGRADED=0
for _ in $(seq 1 50); do
  if ./target/release/galloper stat "$GATEWAY" --json 2>/dev/null \
    | grep -q '"daemons_reachable":2'; then
    STAT_DEGRADED=1
    break
  fi
  sleep 0.2
done
[ "$STAT_DEGRADED" = 1 ] || { echo "stat gate: scraper never reported the killed daemon"; exit 1; }
echo "serve smoke: byte-exact, degraded read survived daemon kill, stat saw the loss"
kill "$SERVE_PID" 2>/dev/null || true

echo "==> miri: gf256 kernel differential suite"
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -p galloper-gf --test kernel_differential
else
  echo "miri: not installed; skipping (install: rustup +nightly component add miri)"
fi

echo "ci: all green"
