#!/usr/bin/env bash
# benchpair runs the benchmark on two revisions in alternating pairs and
# prints the comparison a performance claim needs: every end-to-end
# metric's value in each pair, each side's median, the baseline's
# interquartile range and how many pairs the candidate won.
#
# Usage: scripts/benchpair.sh REV_A REV_B WORKLOAD SEEDS...
#   e.g. scripts/benchpair.sh HEAD~1 HEAD corpus-cold 601 602 603 604
#
# REV_A is the baseline (the parent of a change), REV_B the candidate.
# Run it from inside the repository. Each revision is exported with
# `git archive` into .bench_build/pair/<commit>/ and built there by its
# own icfgbench/run.sh, so the working tree is never benchmarked and no
# network is used. Each seed is one pair: the first pair runs REV_A
# first, the next REV_B first, and so on. Every run lasts BENCHMARK.json's
# run_seconds; its full output stays in .bench_build/pair/logs/.
# Metric names, units and directions come from BENCHMARK.json's
# end_to_end list. A pair is a win when REV_B is strictly better.
set -euo pipefail

if [ $# -lt 4 ]; then
	sed -n '2,/^set /{/^#/s/^# \{0,1\}//p}' "$0" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3
shift 3
seeds=("$@")

root=$(git rev-parse --show-toplevel)
cd "$root"
spec="$root/BENCHMARK.json"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")
out="$root/.bench_build/pair"
mkdir -p "$out/logs"

# export_rev prints the directory holding rev's tree, exporting it once.
export_rev() {
	local sha dir
	sha=$(git rev-parse --verify "$1^{commit}")
	dir="$out/$sha"
	if [ ! -d "$dir" ]; then
		rm -rf "$dir.tmp"
		mkdir -p "$dir.tmp"
		git archive "$sha" | tar -x -C "$dir.tmp"
		mv "$dir.tmp" "$dir"
	fi
	echo "$dir"
}
dir_a=$(export_rev "$rev_a")
dir_b=$(export_rev "$rev_b")
name_a=$(basename "$dir_a" | cut -c1-12)
name_b=$(basename "$dir_b" | cut -c1-12)

# run_one SIDE DIR SEED runs one benchmark and keeps its last line (the
# result object) in $out/logs/SIDE-WORKLOAD-SEED.json.
run_one() {
	local log="$out/logs/$1-$workload-$3"
	echo "benchpair: $1 ($(basename "$2" | cut -c1-12)) seed $3" >&2
	if ! (cd "$2" && bash icfgbench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0) >"$log.out" 2>&1; then
		echo "benchpair: $1 seed $3 exited non-zero; see $log.out" >&2
	fi
	tail -n 1 "$log.out" >"$log.json"
}

for i in "${!seeds[@]}"; do
	seed=${seeds[$i]}
	if [ $((i % 2)) -eq 0 ]; then
		run_one a "$dir_a" "$seed"
		run_one b "$dir_b" "$seed"
	else
		run_one b "$dir_b" "$seed"
		run_one a "$dir_a" "$seed"
	fi
done

# field FILE KEY prints a top-level number of a result object, or a
# metric's value when KEY is a metric name; nothing for a missing file.
field() {
	[ -f "$1" ] || return 0
	local key=${2//./\\.}
	sed -n -e "s/.*\"$key\":{\"value\":\([^,}]*\).*/\1/p" \
		-e "s/^{.*\"$key\":\([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

echo "workload $workload, ${#seeds[@]} pairs, ${seconds} s runs: A = $name_a (baseline), B = $name_b"
for side in a b; do
	attempted=0 failed=0
	for seed in "${seeds[@]}"; do
		f="$out/logs/$side-$workload-$seed.json"
		n=$(field "$f" attempted) m=$(field "$f" failed)
		attempted=$((attempted + ${n:-0})) failed=$((failed + ${m:-0}))
	done
	echo "$(echo "$side" | tr ab AB): $failed of $attempted operations failed"
done

awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
	e && /"name"/ { gsub(/[",]/, "", $2); n = $2 }
	e && /"unit"/ { gsub(/[",]/, "", $2); u = $2 }
	e && /"better"/ { gsub(/[",]/, "", $2); print n, u, $2 }' "$spec" |
	while read -r metric unit better; do
		echo
		echo "$metric ($unit, $better is better)"
		for seed in "${seeds[@]}"; do
			echo "$seed $(field "$out/logs/a-$workload-$seed.json" "$metric") $(field "$out/logs/b-$workload-$seed.json" "$metric")"
		done | awk -v better="$better" '
			function quantile(v, n, q,   pos, lo) {
				pos = (n - 1) * q; lo = int(pos)
				return lo + 1 < n ? v[lo] + (v[lo + 1] - v[lo]) * (pos - lo) : v[lo]
			}
			function sort(v, n,   i, j, t) {
				for (i = 1; i < n; i++)
					for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
			}
			BEGIN { n = wins = 0; printf "  %-8s %14s %14s %9s\n", "seed", "A", "B", "B/A" }
			NF < 3 { printf "  %-8s  missing value\n", $1; next }
			{
				a[n] = $2; b[n] = $3; n++
				printf "  %-8s %14.6g %14.6g %9.3f\n", $1, $2, $3, ($2 != 0 ? $3 / $2 : 0)
				if ((better == "higher" && $3 > $2) || (better == "lower" && $3 < $2)) wins++
			}
			END {
				if (n == 0) exit
				sort(a, n); sort(b, n)
				ma = quantile(a, n, 0.5); mb = quantile(b, n, 0.5)
				printf "  median A %.6g, B %.6g (%+.1f%%); A IQR %.6g; B won %d of %d\n",
					ma, mb, (ma != 0 ? 100 * (mb - ma) / ma : 0),
					quantile(a, n, 0.75) - quantile(a, n, 0.25), wins, n
			}'
	done
