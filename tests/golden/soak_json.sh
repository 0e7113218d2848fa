#!/usr/bin/env bash
# Regenerate every soak's JSON report, for the default seed and seeds 1
# and 7, plus the `secbus observe --metrics` snapshot, into
# target/golden/ (one file per report and seed). Pin them against the
# recorded digests from the repository root with:
#
#   bash tests/golden/soak_json.sh && sha256sum -c tests/golden/soak_json.sha256
#
# A change that alters report bytes on purpose regenerates the digest
# file with `sha256sum target/golden/* > tests/golden/soak_json.sha256`
# and says why in CHANGES.md.
set -euo pipefail

cargo build --release --quiet -p secbus-bench -p secbus-cli
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
