#!/usr/bin/env bash
# Paired benchmark comparison of the checkout against a base revision:
#
#   bash scripts/bench-pairs.sh BASE WORKLOAD PAIRS SECONDS
#
# (or `make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=<n> SECONDS=<s>`).
# BASE is exported with `git archive` into .bench_build/base-<rev>, then
# each pair runs `bash perfbench/run.sh` at seed 1 once in the export
# ("base") and once in the checkout ("change"), alternating which side goes
# first. It
# prints one line per run (side, verdict digest, the six end-to-end
# metrics), then per metric the base median, the base quartiles and their
# spread, the change median, and in how many pairs the change read lower.
# Everything it writes stays under .bench_build/.
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS SECONDS" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=$4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev=$(git rev-parse --short "$base^{commit}")
export_dir="$root/.bench_build/base-$rev"
if [ ! -d "$export_dir" ]; then
	mkdir -p "$export_dir.tmp"
	git archive "$rev" | tar -x -C "$export_dir.tmp"
	mv "$export_dir.tmp" "$export_dir"
fi
metrics="setup_s sweep_s cpu_s peak_rss_mb exposed decided_frac"
results="$root/.bench_build/pairs-$rev-$workload.txt"
: >"$results"

# one SIDE DIR runs the workload in DIR and appends "SIDE DIGEST m1..m6".
one() {
	local side=$1 dir=$2 out
	out=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2>&1) || {
		printf '%s\n' "$out" >&2
		echo "bench-pairs: $side run failed" >&2
		exit 1
	}
	printf '%s\n' "$out" | awk -v side="$side" -v names="$metrics" '
		/^digest / { digest = $2; sub(/:$/, "", digest) }
		$1 == "metric" { val[$2] = $3 }
		END {
			n = split(names, m, " ")
			line = side " " digest
			for (i = 1; i <= n; i++) line = line " " ((m[i] in val) ? val[m[i]] : "NA")
			print line
		}' | tee -a "$results"
}

echo "side digest $metrics"
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		one base "$export_dir"
		one change "$root"
	else
		one change "$root"
		one base "$export_dir"
	fi
done

# Per metric: medians, base quartiles (linear interpolation) and the pairs in
# which the change read lower than its partner run.
awk -v names="$metrics" '
	function sortn(a, n,   i, j, t) {
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	}
	function q(a, n, f,   h, lo) {
		h = (n - 1) * f + 1; lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
	}
	{
		side = $1
		k = ++count[side]
		if (!((side, $2) in seen)) { seen[side, $2] = 1; digests[side] = digests[side] " " $2 }
		for (i = 3; i <= NF; i++) v[side, i-2, k] = $i
	}
	END {
		n = split(names, m, " ")
		printf "%-12s %12s %12s %12s %12s %12s %s\n", "metric", "base_med", "base_q1", "base_q3", "base_iqr", "change_med", "change<base"
		for (i = 1; i <= n; i++) {
			nb = count["base"]; nc = count["change"]
			for (k = 1; k <= nb; k++) b[k] = v["base", i, k]
			for (k = 1; k <= nc; k++) c[k] = v["change", i, k]
			lower = 0
			for (k = 1; k <= nb && k <= nc; k++) if (c[k] + 0 < b[k] + 0) lower++
			sortn(b, nb); sortn(c, nc)
			q1 = q(b, nb, 0.25); q3 = q(b, nb, 0.75)
			printf "%-12s %12.6g %12.6g %12.6g %12.6g %12.6g %d/%d\n", m[i], q(b, nb, 0.5), q1, q3, q3 - q1, q(c, nc, 0.5), lower, (nb < nc ? nb : nc)
		}
		print "distinct digests: base" digests["base"] ", change" digests["change"]
	}' "$results"
