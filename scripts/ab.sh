#!/usr/bin/env bash
# Same-job A/B gate over the repo benchmark: does this checkout read
# worse than BASE on any end-to-end metric?
#
#   scripts/ab.sh BASE [WORKLOAD...]    (default: every BENCHMARK.json workload)
#
# BASE (any commit) is checked out in a git worktree under .ab/. Each
# pair runs `benchmark/run.sh --workload W --seed 1 --seconds S --trace 0`
# once in each tree, back to back, BASE first in odd pairs and this
# checkout first in even ones. `benchmark/run.sh compare` reads each
# pair, so metric names, units and directions are defined once, in
# benchmark/. A metric fails when this checkout reads worse in at least
# MIN_WORSE of PAIRS pairs and its median change is worse by more than
# FLOOR_PCT; a rise in failed_share fails too. Digest differences are
# printed, not gated: byte identity is the corpus's job
# (crates/cli/tests/corpus.tsv). Exit 0 pass, 1 a metric failed, 2
# misuse or a broken run.
set -euo pipefail

# Ten alternating pairs, nine of them worse: order effects cancel and
# no single noisy pair decides. 5 s runs keep all five workloads near
# a quarter of an hour on two vCPUs. The 10 % floor is half the 20 %
# regression the gate exists to catch.
PAIRS=10 MIN_WORSE=9 RUN_SECONDS=5 FLOOR_PCT=10

[ $# -ge 1 ] || { echo "usage: scripts/ab.sh BASE [WORKLOAD...]" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_rev="$(git rev-parse --verify --quiet "$1^{commit}")" || { echo "ab: no commit '$1'" >&2; exit 2; }
shift
all="$(jq -c '[.workloads[].name]' BENCHMARK.json)"
if [ $# -gt 0 ]; then workloads=("$@"); else mapfile -t workloads < <(jq -r '.[]' <<<"$all"); fi
work="$root/.ab" base="$root/.ab/base"
rm -rf "$work/pairs" && mkdir -p "$work/pairs"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune && git worktree add --quiet --detach "$base" "$base_rev"
trap 'git worktree remove --force "$base"' EXIT
unset CARGO_TARGET_DIR # each tree builds into its own benchmark/target

# One run of workload $2 on side $1 (a = BASE, b = this checkout), as a
# `workloads` entry of the results.json that `compare` reads.
run() {
    local out detail
    out="$(cd "${tree[$1]}" && benchmark/run.sh --workload "$2" --seed 1 \
        --seconds "$RUN_SECONDS" --trace 0 2>>"$work/runs.log")" || return 2
    detail="$(grep '^detail ' <<<"$out" | tail -n 1)"
    jq -n --argjson r "$(tail -n 1 <<<"$out")" --argjson d "${detail#detail }" --arg w "$2" \
        '{($w): {digest: $d.digest, traced_digest: null, end_to_end: $r,
                 failed_share: ($r.failed / ([$r.attempted, 1] | max))}}'
}

# `compare` wants every workload: one this run skipped copies one it ran.
results() {
    jq -s --argjson all "$all" 'add as $w | {seed: 1, smoke: false,
        workloads: (reduce $all[] as $n ($w; .[$n] //= $w[$w | keys[0]]))}'
}

declare -A tree=([a]="$base" [b]="$root")
echo "ab: $(git rev-parse --short "$base_rev") vs this checkout, $PAIRS pairs of ${workloads[*]}" >&2
for side in a b; do (cd "${tree[$side]}" && benchmark/run.sh describe >/dev/null); done # build before timing
for ((p = 1; p <= PAIRS; p++)); do
    # A workload's two runs are back to back, so a slow spell of the host
    # tends to cover both; which side goes first alternates.
    if ((p % 2)); then order="a b"; else order="b a"; fi
    for w in "${workloads[@]}"; do
        for side in $order; do run "$side" "$w" >>"$work/pairs/$p$side.part" || exit 2; done
    done
    for side in a b; do results <"$work/pairs/$p$side.part" >"$work/pairs/$p$side.json"; done
    # `compare` exits 1 when the pair breaks its A/A bounds: not an error here.
    benchmark/run.sh compare "$work/pairs/${p}a.json" "$work/pairs/${p}b.json" >"$work/pairs/$p.txt" ||
        [ $? -eq 1 ] || { cat "$work/pairs/$p.txt" >&2; exit 2; }
    echo "ab: pair $p of $PAIRS done" >&2
done

cat "$work"/pairs/*.txt | awk -v ws=" ${workloads[*]} " -v min="$MIN_WORSE" -v floor="$FLOOR_PCT" '
function q(x, k, f,   i, j, t, m, s) { # the f-quantile of x[k, 1..n[k]]
    m = n[k]; for (i = 1; i <= m; i++) s[i] = x[k, i]
    for (i = 2; i <= m; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    i = 1 + f * (m - 1); j = int(i); return s[j] + (i - j) * (s[j + 1 < m ? j + 1 : m] - s[j])
}
function side(x, k) { return sprintf("%.4g (%.2g)", q(x, k, 0.5), q(x, k, 0.75) - q(x, k, 0.25)) }
index(ws, " " $1 " ") == 0 { next }
$3 == "DIFFERS:" { x = $4; y = $6; gsub(/^[^0-9]*|[^0-9]*$/, "", x); gsub(/^[^0-9]*|[^0-9]*$/, "", y)
    if ($2 == "failed_share" && y + 0 > x + 0) rose[$1]++; else if ($2 == "digest") dig[$1]++; next }
$4 == "->" { k = $1 " " $2; moved = substr($8, 2, length($8) - 2); c = $7; sub(/%$/, "", c)
    c = (c ~ /[0-9]/) ? c + 0 : 0; if (c < 0) c = -c
    a[k, ++n[k]] = $3; b[k, n[k]] = $5; v[k, n[k]] = moved == "worse" ? c : moved == "better" ? -c : 0
    if (moved == "worse") worse[k]++; if (!(k in seen)) { seen[k] = 1; keys[++nk] = k } }
END {
    printf "%-13s %-19s %-19s %-19s %-6s %-26s %s\n", "workload", "metric", "base median (IQR)",
        "this median (IQR)", "worse", "change worse+: median [IQR]", "verdict"
    for (i = 1; i <= nk; i++) { k = keys[i]; split(k, f, " "); med = q(v, k, 0.5)
        bad = worse[k] >= min && med > floor; failed += bad
        printf "%-13s %-19s %-19s %-19s %2d/%-3d %+7.2f%% [%+6.1f%%, %+6.1f%%]  %s\n", f[1], f[2], side(a, k), side(b, k),
            worse[k], n[k], med, q(v, k, 0.25), q(v, k, 0.75), bad ? "FAIL" : "ok" }
    for (w in rose) { printf "%-13s failed_share rose in %d pair(s): FAIL\n", w, rose[w]; failed++ }
    for (w in dig) printf "%-13s digest differs in %d pair(s) (not gated; the corpus pins bytes)\n", w, dig[w]
    print failed ? "ab: FAILED" : "ab: no metric reads worse"; exit failed ? 1 : 0 }'
