#!/usr/bin/env bash
# Regenerate every soak's JSON report, for the default seed and seeds 1
# and 7, the `secbus observe --metrics` snapshot, the Chrome traces of
# `secbus observe` with and without `--attack`, the stdout of every
# report binary that takes no arguments and the stdout of every example
# into target/golden/ (one file per report and seed). Pin them against
# the recorded digests from the repository root with:
#
#   bash tests/golden/soak_json.sh && sha256sum -c tests/golden/soak_json.sha256
#
# A change that alters report bytes on purpose regenerates the digest
# file with `sha256sum target/golden/* > tests/golden/soak_json.sha256`
# and says why in CHANGES.md.
set -euo pipefail

cargo build --release --quiet -p secbus-bench -p secbus-cli -p secbus-examples
bin="${CARGO_TARGET_DIR:-target}/release"
out=target/golden
mkdir -p "$out"

for soak in crash_soak "chaos_soak --smoke" "noc_soak --smoke" "campaign_soak --smoke" \
    "overload_soak --smoke" "reconfig_soak --smoke"; do
  set -- $soak
  name=$1
  shift
  "$bin/$name" "$@" > "$out/$name-default.json"
  for seed in 1 7; do
    "$bin/$name" "$@" --seed "$seed" > "$out/$name-seed$seed.json"
  done
done
"$bin/secbus" observe --metrics > "$out/observe-metrics.txt"
"$bin/secbus" observe --trace-out "$out/observe-trace.json" > /dev/null
"$bin/secbus" observe --attack --trace-out "$out/observe-attack-trace.json" > /dev/null

for report in ablation_cache ablation_dos ablation_rules ablation_traffic ablation_tree \
    attacks baseline_compare casestudy_run energy_report fig1 noc_compare table1 table2 \
    workload_overhead; do
  "$bin/$report" > "$out/report-$report.txt"
done
for example in quickstart secure_boot attack_demo policy_reconfiguration dma_pipeline \
    thread_security noc_demo; do
  "$bin/$example" > "$out/example-$example.txt"
done
