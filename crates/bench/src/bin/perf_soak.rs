//! S-16: performance soak — cached-vs-uncached Integrity Core, batched
//! vs per-block Confidentiality Core, serial vs parallel harness.
//!
//! Full mode runs the sweep-sized workloads and (re)writes
//! `BENCH_PERF.json`, the repo's perf-trajectory artifact. `--smoke`
//! runs CI-sized workloads and *asserts* instead:
//!
//! * the optimized paths produce identical security outcomes (outcome
//!   digests, alert counts, ciphertexts, merged harness results);
//! * no measured speedup regressed more than 20 % against the recorded
//!   `BENCH_PERF.json` baseline. The gates compare *ratios* (cached vs
//!   uncached on the same host), so they hold across machines; the
//!   parallel-harness gate only applies on multi-core hosts.
//!
//! `--seed N` reseeds the IC workload; the IC section is byte-identical
//! per seed (host wall-times of course are not).

use secbus_bench::hostperf::{measure_host, HostWorkload};
use secbus_bench::perf::{compare_cc, compare_harness, compare_ic, compare_sim, IcWorkload};
use secbus_sim::Json;
use secbus_soc::{case_study, CaseStudyConfig};

const BASELINE: &str = "BENCH_PERF.json";

fn main() {
    let secbus_bench::SoakArgs { seed, smoke } = secbus_bench::SoakArgs::parse(0x516);

    let ic_workload = if smoke {
        IcWorkload::smoke(seed)
    } else {
        IcWorkload::full(seed)
    };
    let ic = compare_ic(&ic_workload);
    // CC reps are NOT scaled down in smoke mode: the comparison is host
    // time, and each timed window must be long enough (~0.5 s) for the
    // paired-round median to see past scheduler noise; short runs trip
    // the 20 % gate.
    let cc = compare_cc(4096, 8_000);
    let harness = if smoke {
        compare_harness(4, 128)
    } else {
        compare_harness(8, 1_024)
    };
    // S-21: stepped vs event simulator core. The idle workload's halting
    // programs leave a long quiet tail (the event core's whole reason to
    // exist); the saturated one never idles, so it prices the skip-check
    // overhead.
    // Same sizes in both modes: the idle ratio scales with the length
    // of the skipped tail, so a smoke-sized run would not be comparable
    // against the recorded full-sized baseline — and the whole
    // comparison only costs ~0.4 s anyway. The saturated window must be
    // long enough (tens of ms per run) for the wall-clock ratio to see
    // past scheduler noise.
    let sim = compare_sim(400_000, 200_000);
    // S-22: host-side crypto throughput across backends (soft reference
    // vs AES-NI/SHA-NI, plus one Merkle build). Ratios transfer across
    // hosts; absolute GB/s and build times are trajectory data.
    let host = measure_host(&if smoke {
        HostWorkload::smoke()
    } else {
        HostWorkload::full()
    });

    // Observability cell: the case-study workload with the trace spine
    // armed. Entirely simulated time — no host wall-clock leaks in — so
    // the whole section is byte-identical run to run.
    let observe = {
        let mut soc = case_study(CaseStudyConfig {
            trace: Some(8_192),
            ..Default::default()
        });
        let cycles = soc.run_until_halt(2_000_000);
        let tracer = soc.tracer().expect("trace armed");
        Json::Obj(vec![
            ("cycles".into(), Json::uint(cycles)),
            ("trace_events".into(), Json::uint(tracer.total())),
            ("trace_dropped".into(), Json::uint(tracer.dropped())),
            ("metrics".into(), soc.metrics_snapshot().to_json()),
        ])
    };

    let report = Json::Obj(vec![
        ("experiment".into(), Json::str("S-16 perf soak")),
        ("seed".into(), Json::uint(seed)),
        ("smoke".into(), Json::Bool(smoke)),
        (
            "ic".into(),
            Json::Obj(vec![
                ("accesses".into(), Json::uint(ic_workload.accesses)),
                (
                    "per_level_cycles".into(),
                    Json::uint(ic_workload.per_level_cycles),
                ),
                (
                    "cache_entries".into(),
                    Json::uint(ic_workload.cache_entries as u64),
                ),
                ("uncached_cycles".into(), Json::uint(ic.uncached.ic_cycles)),
                ("cached_cycles".into(), Json::uint(ic.cached.ic_cycles)),
                ("cycles_saved".into(), Json::uint(ic.cached.cycles_saved)),
                ("cache_hits".into(), Json::uint(ic.cached.cache_hits)),
                ("cache_misses".into(), Json::uint(ic.cached.cache_misses)),
                ("alerts".into(), Json::uint(ic.cached.alerts)),
                ("simulated_speedup".into(), Json::Num(ic.speedup())),
                ("equivalent".into(), Json::Bool(ic.equivalent())),
            ]),
        ),
        (
            "cc".into(),
            Json::Obj(vec![
                ("per_block_ns".into(), Json::uint(cc.per_block_ns)),
                ("batched_ns".into(), Json::uint(cc.batched_ns)),
                ("host_speedup".into(), Json::Num(cc.speedup())),
                ("outputs_match".into(), Json::Bool(cc.outputs_match)),
            ]),
        ),
        (
            "harness".into(),
            Json::Obj(vec![
                ("threads".into(), Json::uint(harness.threads as u64)),
                ("serial_ns".into(), Json::uint(harness.serial_ns)),
                ("parallel_ns".into(), Json::uint(harness.parallel_ns)),
                ("host_speedup".into(), Json::Num(harness.speedup())),
                ("identical".into(), Json::Bool(harness.identical)),
            ]),
        ),
        (
            "sim".into(),
            Json::Obj(vec![
                // The active crypto backend is part of the measurement
                // conditions here: LCF crypto work is a fixed cost in
                // both cores, so the stepped/event ratio is only
                // comparable between runs that selected the same
                // backend (Amdahl dilution under `soft`). The other
                // soaks' reports stay backend-free — this one already
                // carries host timings and is excluded from the
                // byte-identity cmp discipline.
                (
                    "crypto_backend".into(),
                    Json::str(secbus_crypto::active_backend().name()),
                ),
                (
                    "idle".into(),
                    Json::Obj(vec![
                        ("sim_cycles".into(), Json::uint(sim.idle.event.sim_cycles)),
                        ("stepped_ns".into(), Json::uint(sim.idle.stepped.host_ns)),
                        ("event_ns".into(), Json::uint(sim.idle.event.host_ns)),
                        (
                            "stepped_cycles_per_sec".into(),
                            Json::Num(sim.idle.stepped.cycles_per_sec()),
                        ),
                        (
                            "event_cycles_per_sec".into(),
                            Json::Num(sim.idle.event.cycles_per_sec()),
                        ),
                        (
                            "events_per_sec".into(),
                            Json::Num(sim.idle.event.events_per_sec()),
                        ),
                        ("events".into(), Json::uint(sim.idle.event.ticks)),
                        ("skip_fraction".into(), Json::Num(sim.idle.skip_fraction())),
                        ("host_speedup".into(), Json::Num(sim.idle.speedup())),
                        ("identical".into(), Json::Bool(sim.idle.identical)),
                    ]),
                ),
                (
                    "saturated".into(),
                    Json::Obj(vec![
                        (
                            "sim_cycles".into(),
                            Json::uint(sim.saturated.event.sim_cycles),
                        ),
                        (
                            "stepped_ns".into(),
                            Json::uint(sim.saturated.stepped.host_ns),
                        ),
                        ("event_ns".into(), Json::uint(sim.saturated.event.host_ns)),
                        (
                            "stepped_cycles_per_sec".into(),
                            Json::Num(sim.saturated.stepped.cycles_per_sec()),
                        ),
                        (
                            "event_cycles_per_sec".into(),
                            Json::Num(sim.saturated.event.cycles_per_sec()),
                        ),
                        (
                            "events_per_sec".into(),
                            Json::Num(sim.saturated.event.events_per_sec()),
                        ),
                        ("events".into(), Json::uint(sim.saturated.event.ticks)),
                        (
                            "skip_fraction".into(),
                            Json::Num(sim.saturated.skip_fraction()),
                        ),
                        ("host_speedup".into(), Json::Num(sim.saturated.speedup())),
                        ("identical".into(), Json::Bool(sim.saturated.identical)),
                    ]),
                ),
            ]),
        ),
        (
            "host".into(),
            Json::Obj(vec![
                ("aesni".into(), Json::Bool(host.aesni)),
                ("shani".into(), Json::Bool(host.shani)),
                (
                    "ctr".into(),
                    Json::Obj(vec![
                        (
                            "per_block_soft_gbps".into(),
                            Json::Num(host.ctr_per_block_soft.gbps()),
                        ),
                        (
                            "batched_soft_gbps".into(),
                            Json::Num(host.ctr_batched_soft.gbps()),
                        ),
                        (
                            "batched_accel_gbps".into(),
                            Json::Num(host.ctr_batched_accel.gbps()),
                        ),
                        (
                            "batched_vs_per_block".into(),
                            Json::Num(host.ctr_batched_vs_per_block()),
                        ),
                        (
                            "accel_vs_per_block".into(),
                            Json::Num(host.ctr_accel_vs_per_block()),
                        ),
                    ]),
                ),
                (
                    "sha".into(),
                    Json::Obj(vec![
                        ("soft_gbps".into(), Json::Num(host.sha_soft.gbps())),
                        ("accel_gbps".into(), Json::Num(host.sha_accel.gbps())),
                        ("speedup".into(), Json::Num(host.sha_speedup())),
                    ]),
                ),
                (
                    "merkle".into(),
                    Json::Obj(vec![
                        ("leaves".into(), Json::uint(host.merkle_leaves as u64)),
                        ("build_ns".into(), Json::uint(host.merkle_build_ns)),
                        (
                            "region_build_ns".into(),
                            Json::uint(host.merkle_region_build_ns),
                        ),
                    ]),
                ),
                ("outputs_match".into(), Json::Bool(host.outputs_match)),
            ]),
        ),
        ("observe".into(), observe),
    ]);
    println!("{}", report.render_pretty());

    // Security equivalence is non-negotiable in every mode.
    let mut failures = Vec::new();
    if !ic.equivalent() {
        failures.push("cached IC outcome differs from uncached".to_string());
    }
    if ic.cached.alerts == 0 {
        failures.push("IC workload raised no alerts (tampering not exercised)".to_string());
    }
    if !cc.outputs_match {
        failures.push("batched CC ciphertext differs from per-block".to_string());
    }
    if !harness.identical {
        failures.push("parallel harness merge differs from serial".to_string());
    }
    if !sim.idle.identical {
        failures.push("event core diverged from stepped on the idle workload".to_string());
    }
    if !sim.saturated.identical {
        failures.push("event core diverged from stepped on the saturated workload".to_string());
    }
    if !host.outputs_match {
        failures.push("host crypto backends disagreed (ciphertext/digest/root)".to_string());
    }
    // The hardware gate: batched accel CTR must beat the per-block soft
    // reference ≥10x — but only where the hardware exists. Hosts without
    // AES-NI skip (not fail) it, in every mode.
    if host.aesni {
        if host.ctr_accel_vs_per_block() < 10.0 {
            failures.push(format!(
                "AES-NI batched CTR below 10x over per-block soft: {:.2}x",
                host.ctr_accel_vs_per_block()
            ));
        }
    } else {
        eprintln!("perf_soak: host has no AES-NI; hardware CTR gate skipped");
    }
    // The saturated workload has nothing to skip, so the event core's
    // only effect is its per-tick skip check — more than 20% slower than
    // stepped means the check is too expensive. Host-local ratio, so it
    // holds in every mode without a baseline.
    if sim.saturated.speedup() < 0.8 {
        failures.push(format!(
            "event core regressed the saturated workload >20%: {:.2}x vs stepped",
            sim.saturated.speedup()
        ));
    }

    if smoke {
        // Regression gates against the recorded baseline, as ratios so
        // they transfer across hosts. >20 % regression fails.
        match std::fs::read_to_string(BASELINE) {
            Ok(text) => {
                let base = Json::parse(&text).expect("BENCH_PERF.json parses");
                let gate = |what: &str, current: f64, recorded: Option<f64>| {
                    let Some(recorded) = recorded else {
                        return Some(format!("baseline missing {what}"));
                    };
                    (current < 0.8 * recorded).then(|| {
                        format!("{what} regressed >20%: {current:.2}x vs recorded {recorded:.2}x")
                    })
                };
                let baseline_speedup = |section: &str| {
                    base.get(section)?
                        .get(if section == "ic" {
                            "simulated_speedup"
                        } else {
                            "host_speedup"
                        })?
                        .as_f64()
                };
                failures.extend(gate(
                    "IC simulated speedup",
                    ic.speedup(),
                    baseline_speedup("ic"),
                ));
                failures.extend(gate(
                    "CC host speedup",
                    cc.speedup(),
                    baseline_speedup("cc"),
                ));
                if harness.threads > 1 {
                    failures.extend(gate(
                        "harness host speedup",
                        harness.speedup(),
                        baseline_speedup("harness"),
                    ));
                }
                // Older baselines predate the sim section; the gate
                // arms once a full run has recorded one — and only
                // when the recorded run selected the same crypto
                // backend (the ratio dilutes under slower crypto, so
                // cross-backend comparison is meaningless).
                let recorded_backend = base
                    .get("sim")
                    .and_then(|s| s.get("crypto_backend"))
                    .and_then(|v| v.as_str());
                let backend_comparable =
                    recorded_backend.is_none_or(|b| b == secbus_crypto::active_backend().name());
                if let Some(recorded) = base
                    .get("sim")
                    .and_then(|s| s.get("idle"))
                    .and_then(|i| i.get("host_speedup"))
                    .and_then(|v| v.as_f64())
                {
                    if backend_comparable {
                        failures.extend(gate(
                            "sim idle-heavy host speedup",
                            sim.idle.speedup(),
                            Some(recorded),
                        ));
                    } else {
                        eprintln!(
                            "perf_soak: note: sim idle gate skipped \
                             (baseline recorded under crypto backend {:?}, \
                             this run uses {:?})",
                            recorded_backend.unwrap_or("?"),
                            secbus_crypto::active_backend().name()
                        );
                    }
                }
                // Host-throughput gates likewise arm once a full run has
                // recorded the section, and only where the recorded
                // ratio is comparable (same hardware class: the accel
                // ratios collapse by design on capability-less hosts).
                let host_ratio =
                    |inner: &str, leaf: &str| base.get("host")?.get(inner)?.get(leaf)?.as_f64();
                if host.aesni {
                    if let Some(recorded) = host_ratio("ctr", "accel_vs_per_block") {
                        failures.extend(gate(
                            "host CTR accel-vs-per-block",
                            host.ctr_accel_vs_per_block(),
                            Some(recorded),
                        ));
                    }
                }
                if let Some(recorded) = host_ratio("ctr", "batched_vs_per_block") {
                    failures.extend(gate(
                        "host CTR batched-vs-per-block (soft)",
                        host.ctr_batched_vs_per_block(),
                        Some(recorded),
                    ));
                }
                if host.shani {
                    if let Some(recorded) = host_ratio("sha", "speedup") {
                        failures.extend(gate(
                            "host SHA accel speedup",
                            host.sha_speedup(),
                            Some(recorded),
                        ));
                    }
                }
            }
            Err(e) => failures.push(format!("cannot read {BASELINE} baseline: {e}")),
        }
    } else {
        // The event core's reason to exist: at least 5x on the
        // idle-heavy workload when recording the trajectory baseline.
        if sim.idle.speedup() < 5.0 {
            failures.push(format!(
                "idle-heavy event-core speedup below 5x: {:.2}x",
                sim.idle.speedup()
            ));
        }
        std::fs::write(BASELINE, format!("{}\n", report.render_pretty()))
            .expect("write BENCH_PERF.json");
        eprintln!("perf_soak: wrote {BASELINE}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf_soak: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
