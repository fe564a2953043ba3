#!/bin/sh
# Offline CI gate, split into named stages:
#
#   fmt clippy build test doc smoke bench chaos
#
# Run everything (the default), a subset via the environment
# (`CI_STAGES="fmt test" ./ci.sh`), or `./ci.sh --only smoke,chaos`.
# Later stages assume the build artifacts exist: smoke/bench/chaos use
# target/release binaries, so include `build` (or have run it before)
# when selecting them.
#
# doc builds every library's rustdoc with warnings as errors, so a
# broken or ambiguous intra-doc link fails the gate.
#
# bench is a paired gate: it builds the base commit (`git merge-base
# HEAD main`, or HEAD~1 on main itself) in a temporary git worktree,
# then times `hoiho learn` and `hoiho apply` for base and change in 5
# interleaved pairs on one seeded 100k-router corpus and fails when a
# change median exceeds the base median by more than CI_BENCH_TOL.
# chaos runs serve_chaos, which holds the well-behaved clients' p99
# under chaos to 5x their p99 in a calm window of the same run.
#
# Knobs: CI_BENCH_TOL (bench regression tolerance, percent, default 25),
# CI_CHAOS_SECS (chaos soak length, default 10), CI_NO_CURL=1 (force the
# serve_probe fallback even when curl is installed).
#
# Everything runs with --offline — the workspace has no external
# dependencies, so no network (or crates.io index) is required.
set -eu

cd "$(dirname "$0")"

ALL_STAGES="fmt clippy build test doc smoke bench chaos"
STAGES="${CI_STAGES:-$ALL_STAGES}"
if [ "${1:-}" = "--only" ]; then
    [ -n "${2:-}" ] || {
        echo "usage: ci.sh [--only stage[,stage...]]  (stages: $ALL_STAGES)"
        exit 2
    }
    STAGES=$(printf '%s' "$2" | tr ',' ' ')
fi
for s in $STAGES; do
    case " $ALL_STAGES " in
    *" $s "*) ;;
    *)
        echo "unknown stage '$s' (stages: $ALL_STAGES)"
        exit 2
        ;;
    esac
done

want() {
    case " $STAGES " in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

WORK=$(mktemp -d)
SERVE_PID=
# A smoke check that fails while the server runs must not leave it
# behind, and a failed bench stage must not leave its base worktree.
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null
[ ! -d "$WORK/base" ] || git worktree remove --force "$WORK/base" || true
rm -rf "$WORK"' EXIT

if want fmt; then
    echo "==> stage fmt: cargo fmt --check"
    cargo fmt --all -- --check
fi

if want clippy; then
    echo "==> stage clippy: -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
fi

if want build; then
    echo "==> stage build: cargo build --release"
    cargo build --offline --release --workspace
fi

if want test; then
    echo "==> stage test: cargo test"
    cargo test --offline --workspace -q
    # The benchmark package has its own workspace; its cross-process
    # determinism test guards corpus generation and ingest.
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
fi

if want doc; then
    echo "==> stage doc: rustdoc -D warnings"
    # --lib: the `hoiho` bin and the `hoiho` lib would share one
    # target/doc directory.
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib
fi

if want smoke; then
    echo "==> stage smoke"
    # Boot `hoiho serve` on an ephemeral port (the --port-file handshake
    # tells us which), exercise both protocols, then shut down cleanly
    # and require exit 0 (graceful drain). HTTP probes go through curl
    # when present and fall back to the serve_probe binary (same
    # contract: body on stdout, exit 0 only on 2xx) when not;
    # CI_NO_CURL=1 forces the fallback path.
    if [ "${CI_NO_CURL:-0}" != 1 ] && command -v curl >/dev/null 2>&1; then
        fetch() { curl -fsS "http://127.0.0.1:$PORT$1"; }
        post() { curl -fsS -X POST "http://127.0.0.1:$PORT$1"; }
    else
        echo "    (curl unavailable or disabled; probing with serve_probe)"
        fetch() { ./target/release/serve_probe --addr "127.0.0.1:$PORT" --http "GET $1"; }
        post() { ./target/release/serve_probe --addr "127.0.0.1:$PORT" --http "POST $1"; }
    fi
    ./target/release/hoiho generate --routers 1500 --seed 11 --out "$WORK/corpus.txt"
    ./target/release/hoiho learn --threads 1 --corpus "$WORK/corpus.txt" \
        --out "$WORK/artifacts.txt" --metrics "$WORK/metrics1.jsonl"
    # Learning is deterministic across thread counts: a two-thread learn
    # must write the same artifact byte for byte and count the same.
    ./target/release/hoiho learn --threads 2 --corpus "$WORK/corpus.txt" \
        --out "$WORK/artifacts2.txt" --metrics "$WORK/metrics2.jsonl"
    cmp "$WORK/artifacts.txt" "$WORK/artifacts2.txt"
    grep '"type":"counter"' "$WORK/metrics1.jsonl" | sort >"$WORK/counters1.txt"
    grep '"type":"counter"' "$WORK/metrics2.jsonl" | sort >"$WORK/counters2.txt"
    [ -s "$WORK/counters1.txt" ] || { echo "smoke: learn wrote no counters"; exit 1; }
    cmp "$WORK/counters1.txt" "$WORK/counters2.txt"
    # The spoofed-VP filter reports both counters, zero or not.
    for c in rtt.spoof.vps_checked rtt.spoof.vps_flagged; do
        grep -q "\"name\":\"$c\"" "$WORK/counters1.txt" || {
            echo "smoke: learn wrote no $c counter"
            exit 1
        }
    done
    ./target/release/hoiho serve --artifacts "$WORK/artifacts.txt" \
        --addr 127.0.0.1:0 --threads 2 --port-file "$WORK/port" &
    SERVE_PID=$!
    i=0
    while [ ! -s "$WORK/port" ]; do
        i=$((i + 1))
        [ "$i" -gt 200 ] && {
            echo "serve never wrote its port file"
            exit 1
        }
        sleep 0.05
    done
    PORT=$(cat "$WORK/port")
    HOST=$(awk '$1 == "iface" { print $3; exit }' "$WORK/corpus.txt")
    fetch "/lookup?h=$HOST" | grep -q "\"host\":\"$HOST\""
    fetch "/healthz" >/dev/null
    # The line-JSON protocol answers on the same port.
    ./target/release/serve_probe --addr "127.0.0.1:$PORT" --line '{"cmd":"ping"}' |
        grep -q '"epoch"'
    # One lookup path: `hoiho apply` and one line-protocol batch must
    # resolve the same number of the corpus's first 200 hostnames.
    awk '$1 == "iface" && NF >= 3 { print $3; if (++n == 200) exit }' \
        "$WORK/corpus.txt" >"$WORK/hosts.txt"
    APPLY_HITS=$(./target/release/hoiho apply --artifacts "$WORK/artifacts.txt" \
        <"$WORK/hosts.txt" | awk -F '\t' '$2 != "-"' | wc -l)
    BATCH=$(awk 'BEGIN { printf "{\"batch\":[" }
        NR > 1 { printf "," } { printf "\"%s\"", $0 } END { printf "]}" }' "$WORK/hosts.txt")
    SERVE_HITS=$(./target/release/serve_probe --addr "127.0.0.1:$PORT" --line "$BATCH" |
        grep -o '"ok":true' | wc -l)
    [ "$APPLY_HITS" -gt 0 ] && [ "$APPLY_HITS" -eq "$SERVE_HITS" ] || {
        echo "apply resolved $APPLY_HITS hostnames, serve $SERVE_HITS"
        exit 1
    }
    echo "    apply and serve each resolved $APPLY_HITS of the first 200 hostnames"
    # A name past DNS's 253-byte limit is refused by the length bound
    # before routing or regex matching: a 64 003-byte, 32 000-label
    # bare hostname is answered within 1 s.
    LONG=$(awk 'BEGIN { for (i = 0; i < 31998; i++) printf "a."; printf "gtt.net" }')
    ./target/release/serve_probe --addr "127.0.0.1:$PORT" --line "$LONG" --timeout-ms 1000 |
        grep -q '"host":' || {
        echo "serve did not answer a 64003-byte hostname within 1 s"
        exit 1
    }
    # The robustness counters must be exported (at zero) from boot, so
    # dashboards see the full family before anything misbehaves.
    METRICS=$(fetch "/metrics")
    # No per-suffix series: /metrics cardinality does not grow with the
    # artifact.
    if printf '%s\n' "$METRICS" | grep -q 'hoiho_serve_shard_'; then
        echo "per-suffix hoiho_serve_shard_ series in /metrics"
        exit 1
    fi
    for m in hoiho_serve_timeout_read hoiho_serve_timeout_write \
        hoiho_serve_shed_queue_full hoiho_serve_reject_oversize \
        hoiho_serve_conn_reaped; do
        printf '%s\n' "$METRICS" | grep -q "^$m " || {
            echo "missing $m in /metrics"
            exit 1
        }
    done
    post "/shutdown" >/dev/null
    wait "$SERVE_PID"
    SERVE_PID=
fi

if want bench; then
    TOL="${CI_BENCH_TOL:-25}"
    BASE=$(git merge-base HEAD main 2>/dev/null || true)
    [ -n "$BASE" ] && [ "$BASE" != "$(git rev-parse HEAD)" ] || BASE=$(git rev-parse HEAD~1)
    echo "==> stage bench: base $(git rev-parse --short "$BASE") vs change (tolerance ${TOL}%)"
    git worktree prune
    git worktree add --quiet --detach "$WORK/base" "$BASE"
    cargo build --offline --release --quiet -p hoiho-cli \
        --manifest-path "$WORK/base/Cargo.toml" --target-dir target/ci-base
    # One seeded corpus for both sides; apply reads its 72k iface
    # hostnames 20 times over (1.4M lines), so each apply is >= 1 s.
    ./target/release/hoiho generate --routers 100000 --seed 7 --out "$WORK/bench.txt" >/dev/null
    awk '$1 == "iface" && NF >= 3 { print $3 }' "$WORK/bench.txt" >"$WORK/hosts1.txt"
    i=0
    while [ "$i" -lt 20 ]; do
        cat "$WORK/hosts1.txt"
        i=$((i + 1))
    done >"$WORK/hosts.txt"
    # run_side SIDE BIN: time one learn and one apply, appending the
    # wall milliseconds to $WORK/SIDE.learn and $WORK/SIDE.apply.
    run_side() {
        t0=$(date +%s%N)
        "$2" learn --threads 1 --corpus "$WORK/bench.txt" --out "$WORK/$1.art" >/dev/null
        t1=$(date +%s%N)
        "$2" apply --artifacts "$WORK/$1.art" <"$WORK/hosts.txt" >/dev/null
        t2=$(date +%s%N)
        echo $(((t1 - t0) / 1000000)) >>"$WORK/$1.learn"
        echo $(((t2 - t1) / 1000000)) >>"$WORK/$1.apply"
    }
    # Five interleaved pairs, alternating which side goes first.
    for pair in 1 2 3 4 5; do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side base target/ci-base/release/hoiho
            run_side change ./target/release/hoiho
        else
            run_side change ./target/release/hoiho
            run_side base target/ci-base/release/hoiho
        fi
    done
    median() { sort -n "$1" | sed -n 3p; }
    FAIL=0
    printf '    %-6s %10s %10s %7s\n' row "base ms" "change ms" ratio
    for row in learn apply; do
        b=$(median "$WORK/base.$row")
        c=$(median "$WORK/change.$row")
        if awk -v b="$b" -v c="$c" -v t="$TOL" 'BEGIN { exit !(c <= b * (1 + t / 100)) }'; then
            verdict=ok
        else
            verdict="REGRESSED >${TOL}%"
            FAIL=1
        fi
        printf '    %-6s %10s %10s %7s %s\n' "$row" "$b" "$c" \
            "$(awk -v b="$b" -v c="$c" 'BEGIN { printf "%.3f", c / b }')" "$verdict"
    done
    for row in learn apply; do
        echo "    $row runs in pair order, base: $(echo $(cat "$WORK/base.$row"));" \
            "change: $(echo $(cat "$WORK/change.$row"))"
    done
    [ "$FAIL" -eq 0 ] || {
        echo "bench regression gate failed (tolerance ${TOL}%, override with CI_BENCH_TOL)"
        exit 1
    }
fi

if want chaos; then
    SECS="${CI_CHAOS_SECS:-10}"
    echo "==> stage chaos (${SECS}s soak)"
    ./target/release/serve_chaos --routers 1500 --seed 7 \
        --secs "$SECS" --out "$WORK/chaos.json"
fi

echo "CI OK ($STAGES)"
