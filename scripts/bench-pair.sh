#!/usr/bin/env bash
# Paired benchmark runs, parent vs this checkout — the procedure every
# performance claim is judged by (ROADMAP item 3, choosing-metrics §8):
# seeds 1..PAIRS, the side that runs first alternating, each side built and
# run by its OWN tree's benchmark/run.sh, then the benchmark's -compare
# verdict. Everything lives under benchmark/out/ (git-ignored); no network.
#
#   scripts/bench-pair.sh <parent-rev> "<workload> ..." [pairs=10]
set -euo pipefail
parent="${1:?usage: bench-pair.sh <parent-rev> \"<workload> ...\" [pairs]}"
workloads="${2:?usage: bench-pair.sh <parent-rev> \"<workload> ...\" [pairs]}"
pairs="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"

# The parent tree is an export of the revision, not a worktree: nothing is
# registered in .git, and deleting benchmark/out/ removes it.
rm -rf "$out/parent" "$out/pair"
mkdir -p "$out/parent" "$out/pair/parent" "$out/pair/change"
git -C "$root" archive "$parent" | tar -x -C "$out/parent"

run() { # side tree workload seed
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" \
		--trace 0 -out "$out/pair/$1" >"$out/pair/$1/$3.seed$4.log" 2>&1 ||
		{ echo "bench-pair: $1 failed, see $out/pair/$1/$3.seed$4.log" >&2; exit 1; }
}
for seed in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if ((seed % 2)); then
			run parent "$out/parent" "$w" "$seed" && run change "$root" "$w" "$seed"
		else
			run change "$root" "$w" "$seed" && run parent "$out/parent" "$w" "$seed"
		fi
		echo "bench-pair: $w seed $seed done"
	done
done
go -C "$root/benchmark" run . -compare "$out/pair/parent/runs.jsonl" "$out/pair/change/runs.jsonl"
