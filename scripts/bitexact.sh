#!/usr/bin/env bash
# Bit-exactness check of the working tree against another revision.
#
# Usage: scripts/bitexact.sh <git-ref>
#
# Exports <git-ref> with `git archive` into a temporary directory (the
# repository is left untouched) and runs perfbench/run.py in that tree and in
# the working tree: every workload BENCHMARK.json lists at seeds 7 and 90210,
# once with --trace 0 and once with --trace 1, and cluster_mix with --driver
# parallel. Each pair of runs must agree on the digest line, sim_ms and every
# per-layer metric BENCHMARK.json lists with unit count, ratio or bytes, except
# sim.cluster.imbalance (host-timed); both must report correct with no failed
# operation. Prints one line per run and exits nonzero on any difference.
#
# The dispatch counts -- sim.turns, ck.turn.{idle,fault,guest,native}.count
# and ck.idle_turn_ratio -- count the simulator's OnCpuTurn calls, not
# simulated state: a turn that covers a whole idle stretch or a run of quiet
# polls (docs/PERFORMANCE.md, "Tickless idle" and "Tickless polling") is one
# turn where the crawl takes many. A difference in one of them does not fail
# the check; each one is reported as a `moved` line with both values.
#
# Each tree builds its own Release perfbench_runner under .bench_build/ (the
# exported tree's build goes with the temporary directory).

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/bitexact.sh <git-ref>" >&2
  exit 2
fi
ref=$1
if ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
  echo "bitexact: unknown revision '$ref'" >&2
  exit 2
fi

base=$(mktemp -d "${TMPDIR:-/tmp}/bitexact.XXXXXX")
trap 'rm -rf "$base"' EXIT
mkdir "$base/tree" "$base/out"
git archive "$ref" | tar -x -C "$base/tree"

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
runs=()
for workload in $workloads; do
  for seed in 7 90210; do
    runs+=("$workload $seed 0 serial" "$workload $seed 1 serial")
  done
done
runs+=("cluster_mix 7 0 parallel" "cluster_mix 90210 0 parallel")

status=0
for run in "${runs[@]}"; do
  read -r workload seed trace driver <<<"$run"
  name="$workload-$seed-$trace-$driver"
  for side in base work; do
    tree=.
    [[ $side == base ]] && tree=$base/tree
    if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 0.3 --trace "$trace" --driver "$driver") >"$base/out/$name.$side" 2>&1; then
      tail -n 20 "$base/out/$name.$side" >&2
      echo "FAIL  $run: perfbench/run.py failed in the $side tree"
      status=1
      continue 2
    fi
  done
  python3 - "$run" "$base/out/$name.base" "$base/out/$name.work" <<'EOF' || status=1
import json
import sys

run, base_path, work_path = sys.argv[1:]
trace = run.split()[2] == "1"
with open("BENCHMARK.json") as f:
    spec = json.load(f)
compared = [m["name"] for m in spec["per_layer"]
            if m["unit"] in ("count", "ratio", "bytes") and m["name"] != "sim.cluster.imbalance"]
# Dispatch counts: reported when they move, never a failure.
dispatch = {"sim.turns", "ck.turn.idle.count", "ck.turn.fault.count", "ck.turn.guest.count",
            "ck.turn.native.count", "ck.idle_turn_ratio"}


def load(path):
    digest = None
    with open(path) as f:
        lines = f.read().splitlines()
    for line in lines:
        if line.startswith("digest "):
            digest = line.split()[1]
    result = json.loads(lines[-1])
    values = {"digest": digest}
    names = compared if trace else ["sim_ms"]
    for name in names:
        metric = result["metrics"].get(name)
        values[name] = None if metric is None else metric["value"]
    return result, values


base_result, base = load(base_path)
work_result, work = load(work_path)
for k in base:
    if k in dispatch and base[k] != work[k]:
        print("moved %s: %s %s -> %s" % (run, k, base[k], work[k]))
problems = ["%s %s -> %s" % (k, base[k], work[k])
            for k in base if base[k] != work[k] and k not in dispatch]
for side, result in (("base", base_result), ("work", work_result)):
    if not result["correct"] or result["failed"] != 0:
        problems.append("%s tree: correct %s, %d failed" %
                        (side, result["correct"], result["failed"]))
if problems:
    print("DIFF  %s: %s" % (run, "; ".join(problems)))
    sys.exit(1)
equal = sum(1 for k in work if k != "digest" and base[k] == work[k])
detail = "%d metrics" % equal if trace else "sim_ms %s" % work["sim_ms"]
print("ok    %s: digest %s, %s equal" % (run, work["digest"], detail))
EOF
done
exit $status
