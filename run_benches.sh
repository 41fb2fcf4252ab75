#!/bin/sh
# Regenerates every paper table/figure at paper-fidelity settings.
#
# Usage: ./run_benches.sh [quick] [--jobs=N]
#   quick      ~10x fewer samples on every binary, including the
#              ablation studies
#   --jobs=N   run up to N bench binaries concurrently; output is
#              buffered per binary and printed in the usual order
#
# Exits non-zero if any bench binary fails.
set -u

QUICK=0
JOBS=1
for arg in "$@"; do
    case "$arg" in
      quick) QUICK=1 ;;
      --jobs=*) JOBS="${arg#--jobs=}" ;;
      *) echo "usage: $0 [quick] [--jobs=N]" >&2; exit 2 ;;
    esac
done
case "$JOBS" in
  ''|*[!0-9]*) echo "--jobs wants a number, got '$JOBS'" >&2; exit 2 ;;
esac
[ "$JOBS" -ge 1 ] || JOBS=1

# Sample-count (or window) arguments for one bench binary.
args_for() {
    case "$(basename "$1")" in
      bench_table1|bench_fig2_call_cdf|bench_fig3_hotcall_cdf)
        [ "$QUICK" = 1 ] && echo "--runs=2000" || echo "--runs=20000" ;;
      bench_fig4*|bench_fig5*|bench_fig6*|bench_fig7*|bench_fig8*)
        [ "$QUICK" = 1 ] && echo "--runs=500" || echo "--runs=5000" ;;
      bench_fig10*|bench_fig11*|bench_table2*)
        [ "$QUICK" = 1 ] && echo "--seconds=0.05" || echo "--seconds=0.25" ;;
      bench_host_*)
        echo "--benchmark_min_time=0.2" ;;
      bench_ablation_memset)
        [ "$QUICK" = 1 ] && echo "--runs=200" || echo "" ;;
      bench_ablation_transfer_options)
        [ "$QUICK" = 1 ] && echo "--runs=500" || echo "" ;;
      bench_ablation_extra_worker|bench_ablation_enclave_utilities)
        [ "$QUICK" = 1 ] && echo "--seconds=0.05" || echo "" ;;
      bench_ablation_timeout_fallback)
        [ "$QUICK" = 1 ] && echo "--runs=100" || echo "" ;;
      bench_ablation_responder_sleep)
        [ "$QUICK" = 1 ] && echo "--idle-seconds=0.0005" || echo "" ;;
      bench_ablation_mee_cache)
        [ "$QUICK" = 1 ] && echo "--runs=30" || echo "" ;;
      bench_ablation_fastpath)
        [ "$QUICK" = 1 ] && echo "--runs=200" || echo "" ;;
      bench_ablation_speculative_mee)
        [ "$QUICK" = 1 ] && echo "--runs=40" || echo "" ;;
      bench_hotqueue_scaling)
        [ "$QUICK" = 1 ] && echo "--window=200000" || echo "" ;;
      *)
        echo "" ;;
    esac
}

BENCHES=""
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    BENCHES="$BENCHES $b"
done
[ -n "$BENCHES" ] || { echo "no bench binaries in build/bench" >&2; exit 1; }

FAIL=0

if [ "$JOBS" -le 1 ]; then
    for b in $BENCHES; do
        # shellcheck disable=SC2046  # word-splitting args is intended
        if ! "$b" $(args_for "$b"); then
            echo "FAILED: $(basename "$b")" >&2
            FAIL=1
        fi
        echo ""
    done
else
    # Parallel mode: run in batches of $JOBS, buffering each binary's
    # output so the transcript stays readable and ordered.
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT INT TERM
    running=0
    for b in $BENCHES; do
        name=$(basename "$b")
        (
            # shellcheck disable=SC2046
            "$b" $(args_for "$b") > "$TMP/$name.out" 2>&1
            echo $? > "$TMP/$name.status"
        ) &
        running=$((running + 1))
        if [ "$running" -ge "$JOBS" ]; then
            wait
            running=0
        fi
    done
    wait
    for b in $BENCHES; do
        name=$(basename "$b")
        cat "$TMP/$name.out" 2>/dev/null
        status=$(cat "$TMP/$name.status" 2>/dev/null || echo 1)
        if [ "$status" != 0 ]; then
            echo "FAILED: $name" >&2
            FAIL=1
        fi
        echo ""
    done
fi

if [ "$FAIL" != 0 ]; then
    echo "one or more benches failed" >&2
fi
exit "$FAIL"
