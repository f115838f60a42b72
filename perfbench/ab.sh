#!/usr/bin/env bash
# Runs the benchmark on two checkouts in alternating pairs and compares
# them against this checkout's BENCHMARK.json bounds. Run it from the
# repository root:
#
#   bash perfbench/ab.sh PARENT_CHECKOUT CHANGE_CHECKOUT [PAIRS [WORKLOAD...]]
#
# Pair i runs seed i on both sides, the parent first in odd pairs and
# the change first in even ones, each for BENCHMARK.json's run_seconds.
# PAIRS defaults to 10 and the workloads to all three. Results go to
# .bench_build/perfbench/ab/{parent,change}/ and the verdict table to
# standard output; the exit code is the compare mode's.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,12p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(sweep-saturated standalone-sparse serve-mixed)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
out=$PWD/.bench_build/perfbench/ab
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

run() { # side checkout workload seed
	echo "ab: $1 $3 seed $4" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
		--out "$out/$1/$3-$4.json" >/dev/null)
}

for wl in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$wl" "$i"
			run change "$change" "$wl" "$i"
		else
			run change "$change" "$wl" "$i"
			run parent "$parent" "$wl" "$i"
		fi
	done
done
bash perfbench/run.sh compare "$out/parent" "$out/change"
