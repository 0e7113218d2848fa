//! S-13: chaos soak — the case-study SoC under randomized hardware
//! faults, swept over fault rate × protection mode.
//!
//! For every cell the same seed generates the same [`FaultPlan`], so the
//! three modes face *identical* fault schedules and the whole report is
//! byte-identical across runs of the same seed (`--seed N` to change it).
//!
//! Modes:
//! * `generic` — no firewalls (the Table I baseline): faults land
//!   silently, nothing is detected.
//! * `detect-only` — the paper's system as published: firewalls and the
//!   LCF raise alerts, but nothing recovers.
//! * `hardened` — this repo's resilience stack on top: watchdog, bounded
//!   retry with backoff, config-parity scrubbing, quarantine with
//!   automatic integrity-tree recovery.
//!
//! Reported per cell: faults fired, detection counters (watchdog
//! timeouts, config-corruption repairs, integrity mismatches, corrupted
//! reads caught inbound), an estimated false-negative count, recovery
//! work (retries, their latency, quarantine recoveries) and throughput
//! degradation against the same mode's zero-fault cell.

use secbus_fault::{FaultPlan, FaultRates, FaultSpec};
use secbus_sim::Json;
use secbus_soc::casestudy::{
    case_study, CaseResilience, CaseStudyConfig, CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM,
};
use secbus_soc::Soc;

/// Soak length in cycles (long enough for all three cores to finish and
/// the dedicated IP to keep streaming throughout).
const DURATION: u64 = 60_000;
/// Expected injections per fault class at rate factor 1.0.
const BASE_RATE: f64 = 4.0;
/// Fault-rate sweep (factor on [`BASE_RATE`]); 0.0 is the baseline cell.
const FACTORS: &[f64] = &[0.0, 0.5, 2.0, 8.0];

struct Mode {
    name: &'static str,
    security: bool,
    resilient: bool,
}

const MODES: &[Mode] = &[
    Mode {
        name: "generic",
        security: false,
        resilient: false,
    },
    Mode {
        name: "detect-only",
        security: true,
        resilient: false,
    },
    Mode {
        name: "hardened",
        security: true,
        resilient: true,
    },
];

/// Rewrite a core program to loop forever instead of halting, so memory
/// traffic (and therefore fault exposure) persists for the whole soak.
fn looping(src: &str) -> String {
    format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"))
}

fn build(mode: &Mode) -> Soc {
    case_study(CaseStudyConfig {
        security: mode.security,
        programs: Some([
            looping(CPU0_PROGRAM),
            looping(CPU1_PROGRAM),
            looping(CPU2_PROGRAM),
        ]),
        // Escalate after a burst of violations so quarantine recovery
        // actually exercises; detect-only keeps the paper's log-only
        // monitor to show the contrast.
        monitor_threshold: if mode.resilient { 8 } else { 0 },
        ip_samples: 0, // stream forever: throughput stays meaningful
        resilience: mode.resilient.then(|| CaseResilience {
            rekey: true,
            ..CaseResilience::default()
        }),
        ic_cache: None,
        trace: None,
    })
}

fn counter(soc: &Soc, key: &str) -> u64 {
    soc.stats().counter(key)
}

fn run_cell(mode: &Mode, factor: f64, seed: u64) -> (Json, u64) {
    let mut soc = build(mode);
    let spec = FaultSpec {
        duration: DURATION,
        ddr_bytes: 0x10_0000,
        firewalls: if mode.security { 5 } else { 0 }, // 4 LFs + the LCF
        slaves: 2,
        noc_nodes: 0, // bus-only target: the NoC classes land in S-15
        rates: FaultRates::uniform(BASE_RATE * factor),
    };
    let plan = FaultPlan::generate(seed, &spec);
    let planned = plan.len() as u64;
    soc.attach_fault_plan(plan);
    soc.run(DURATION);

    let fired = planned - soc.fault_plan().remaining() as u64;
    let completions = soc.bus().stats().counter("bus.completions");

    // Detections: every alert stream a fault can end up in.
    let fw_stats = soc.firewall_stats();
    let watchdog = soc.monitor().stats().counter("monitor.watchdog_timeouts");
    let config_repairs = fw_stats.counter("fw.parity_repairs");
    let integrity = fw_stats.counter("lcf.integrity_failures");
    let detections = watchdog + config_repairs + integrity;

    // Faults that *could* have been seen by a detector but never showed
    // up in any alert stream. Bit flips in the public DDR region and
    // glitches that hit idle hardware are genuinely silent — this is the
    // honest upper bound on escaped faults, not a claim they all matter.
    let false_negatives = fired.saturating_sub(detections);

    let retry_latency = soc
        .stats()
        .histogram("soc.retry_latency")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);

    let cell = Json::Obj(vec![
        ("mode".into(), Json::str(mode.name)),
        ("rate_factor".into(), Json::Num(factor)),
        ("faults_planned".into(), Json::uint(planned)),
        ("faults_fired".into(), Json::uint(fired)),
        ("detections".into(), Json::uint(detections)),
        ("watchdog_timeouts".into(), Json::uint(watchdog)),
        ("config_repairs".into(), Json::uint(config_repairs)),
        ("integrity_alerts".into(), Json::uint(integrity)),
        ("false_negatives".into(), Json::uint(false_negatives)),
        ("retries".into(), Json::uint(counter(&soc, "soc.retries"))),
        (
            "retry_successes".into(),
            Json::uint(counter(&soc, "soc.retry_successes")),
        ),
        ("mean_retry_latency".into(), Json::Num(retry_latency)),
        (
            "quarantines".into(),
            Json::uint(soc.monitor().stats().counter("monitor.blocks")),
        ),
        (
            "recoveries".into(),
            Json::uint(counter(&soc, "soc.recoveries")),
        ),
        (
            "quarantine_releases".into(),
            Json::uint(counter(&soc, "soc.quarantine_releases")),
        ),
        ("bus_completions".into(), Json::uint(completions)),
        // The cores loop forever: a cell with zero completions means the
        // whole system deadlocked under fault injection.
        ("wedged".into(), Json::Bool(completions == 0)),
        // The unified observability snapshot: key-sorted and, per seed,
        // byte-identical whether the sweep ran serial or parallel.
        ("metrics".into(), soc.metrics_snapshot().to_json()),
    ]);
    (cell, completions)
}

fn main() {
    let seed = secbus_bench::SoakArgs::parse(0xC4A05).seed;

    // Every (mode, factor) cell is a pure function of its inputs, so the
    // sweep fans out across threads and merges back in input order — the
    // JSON is byte-identical to a serial run (`--serial` to force one).
    let specs: Vec<(usize, usize)> = (0..MODES.len())
        .flat_map(|mi| (0..FACTORS.len()).map(move |fi| (mi, fi)))
        .collect();
    let results = secbus_bench::par_map_with(secbus_bench::sweep_threads(), specs, |(mi, fi)| {
        // Same plan seed per factor across modes: every mode faces the
        // identical fault schedule.
        run_cell(&MODES[mi], FACTORS[fi], seed + fi as u64)
    });

    let mut cells = Vec::new();
    let mut wedged = false;
    let mut results = results.into_iter();
    for _ in MODES {
        // The first factor of each mode is its zero-fault baseline.
        let mut baseline_completions = None;
        for _ in FACTORS {
            let (mut cell, completions) = results.next().expect("one result per spec");
            wedged |= completions == 0;
            let base = *baseline_completions.get_or_insert(completions);
            let degradation = if base == 0 {
                0.0
            } else {
                100.0 * (base.saturating_sub(completions)) as f64 / base as f64
            };
            if let Json::Obj(fields) = &mut cell {
                fields.push(("throughput_degradation_pct".into(), Json::Num(degradation)));
            }
            cells.push(cell);
        }
    }

    let report = Json::Obj(vec![
        ("experiment".into(), Json::str("S-13 chaos soak")),
        ("duration_cycles".into(), Json::uint(DURATION)),
        ("seed".into(), Json::uint(seed)),
        ("base_rate_per_class".into(), Json::Num(BASE_RATE)),
        ("cells".into(), Json::Arr(cells)),
        ("wedged".into(), Json::Bool(wedged)),
    ]);
    secbus_bench::finish(
        "chaos_soak",
        &report,
        wedged,
        "wedged cell detected (zero bus completions)",
    )
}
