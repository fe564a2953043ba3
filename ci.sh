#!/bin/sh
# Offline CI gate, split into named stages:
#
#   fmt clippy build test smoke bench chaos
#
# Run everything (the default), a subset via the environment
# (`CI_STAGES="fmt test" ./ci.sh`), or `./ci.sh --only smoke,chaos`.
# Later stages assume the build artifacts exist: smoke/bench/chaos use
# target/release binaries, so include `build` (or have run it before)
# when selecting them.
#
# Knobs: CI_BENCH_TOL (bench regression tolerance, percent, default 25),
# CI_CHAOS_SECS (chaos soak length, default 10), CI_NO_CURL=1 (force the
# serve_probe fallback even when curl is installed).
#
# Everything runs with --offline — the workspace has no external
# dependencies, so no network (or crates.io index) is required.
set -eu

cd "$(dirname "$0")"

ALL_STAGES="fmt clippy build test smoke bench chaos"
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
trap 'rm -rf "$WORK"' EXIT

# First "key":N match in a (flat) JSON benchmark record.
json_num() {
    grep -o "\"$2\":[0-9.]*" "$1" | head -n 1 | cut -d: -f2
}

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
    ./target/release/hoiho learn --corpus "$WORK/corpus.txt" --out "$WORK/artifacts.txt"
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
    # The robustness counters must be exported (at zero) from boot, so
    # dashboards see the full family before anything misbehaves.
    METRICS=$(fetch "/metrics")
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
fi

if want bench; then
    TOL="${CI_BENCH_TOL:-25}"
    echo "==> stage bench (regression tolerance ${TOL}%)"
    ./target/release/serve_load --routers 2000 --requests 6000 --out "$WORK/BENCH_serve.json"
    ./target/release/learn_bench --routers 2000 --out "$WORK/BENCH_learn.json"
    FAIL=0
    # check_bench FILE KEY: compare the fresh run in $WORK against the
    # committed baseline of the same name; a drop beyond TOL% fails. The
    # baselines are only read: fresh records stay in $WORK.
    check_bench() {
        fresh=$(json_num "$WORK/$1" "$2")
        [ -n "$fresh" ] || {
            echo "    $1: no \"$2\" in fresh record"
            FAIL=1
            return 0
        }
        base=""
        [ -f "$1" ] && base=$(json_num "$1" "$2")
        if [ -z "$base" ]; then
            printf '    %-18s %-16s baseline -            fresh %-12s (no baseline)\n' \
                "$1" "$2" "$fresh"
            return 0
        fi
        if awk -v f="$fresh" -v b="$base" -v t="$TOL" \
            'BEGIN { exit !(f >= b * (1 - t / 100)) }'; then
            verdict=ok
        else
            verdict="REGRESSED >${TOL}%"
            FAIL=1
        fi
        printf '    %-18s %-16s baseline %-12s fresh %-12s %s\n' \
            "$1" "$2" "$base" "$fresh" "$verdict"
    }
    check_bench BENCH_serve.json lookups_per_sec
    check_bench BENCH_learn.json hosts_per_sec
    [ "$FAIL" -eq 0 ] || {
        echo "bench regression gate failed (tolerance ${TOL}%, override with CI_BENCH_TOL)"
        exit 1
    }
fi

if want chaos; then
    SECS="${CI_CHAOS_SECS:-10}"
    echo "==> stage chaos (${SECS}s soak)"
    BASELINE=""
    [ -f BENCH_serve.json ] && BASELINE="--baseline BENCH_serve.json"
    # shellcheck disable=SC2086 # $BASELINE is two words or empty
    ./target/release/serve_chaos --routers 1500 --seed 7 \
        --secs "$SECS" $BASELINE --out "$WORK/BENCH_chaos.json"
fi

echo "CI OK ($STAGES)"
