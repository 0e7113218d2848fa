//! The observability spine end to end: trace events stay accountable
//! under bound pressure, the metrics snapshot is deterministic and
//! key-sorted, the security monitor's accounting fixes hold at system
//! level (monotonic `alerts_from`), and every completed transaction
//! traces its latency from issue.

use secbus_core::SbTiming;
use secbus_sim::metrics::is_key_sorted;
use secbus_sim::{Cycle, Json, SimRng, TraceEvent, Tracer};
use secbus_soc::casestudy::{
    case_study, CaseResilience, CaseStudyConfig, CPU1_PROGRAM, CPU2_PROGRAM,
};

// ---- trace spine: lossless accounting under bound pressure ----

/// Property: for any capacity and any push count, nothing is silently
/// lost — `total == retained + dropped`, the retained window is exactly
/// the newest `capacity` events in push (cycle) order.
#[test]
fn trace_buffer_accounting_is_lossless_under_pressure() {
    let mut rng = SimRng::new(0x0b5e7e);
    for _ in 0..50 {
        let capacity = 1 + rng.below(64) as usize;
        let pushes = rng.below(512);
        let tracer = Tracer::new(capacity);
        let mut cycle = 0u64;
        for i in 0..pushes {
            // Irregular cycle gaps: the ordering property must not
            // depend on one-event-per-cycle pushing.
            cycle += rng.below(3);
            tracer.record(
                Cycle(cycle),
                TraceEvent::TxnIssued {
                    txn: i,
                    master: (i % 4) as u8,
                    addr: 0x2000_0000 + i as u32,
                    write: i % 2 == 0,
                },
            );
        }
        assert_eq!(tracer.total(), pushes, "every push counted");
        assert_eq!(
            tracer.total(),
            tracer.len() as u64 + tracer.dropped(),
            "retained + dropped covers every event"
        );
        assert_eq!(tracer.len(), (pushes as usize).min(capacity));
        let snap = tracer.snapshot();
        // Cycle-ordered retention...
        assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0));
        // ...and exactly the newest window: txn ids are the tail of the
        // push sequence, in order.
        for (offset, (_, ev)) in snap.iter().enumerate() {
            let TraceEvent::TxnIssued { txn, .. } = ev else {
                panic!("unexpected event kind");
            };
            assert_eq!(*txn, pushes - snap.len() as u64 + offset as u64);
        }
    }
}

/// The shared-buffer trace spine keeps its accounting when the whole
/// case-study SoC records through it with a deliberately tiny bound.
#[test]
fn soc_trace_spine_counts_evictions_instead_of_losing_them() {
    let mut soc = case_study(CaseStudyConfig {
        trace: Some(32), // far below the workload's event volume
        ..Default::default()
    });
    soc.run_until_halt(2_000_000);
    let tracer = soc.tracer().unwrap();
    assert_eq!(tracer.len(), 32, "bound holds");
    assert!(tracer.dropped() > 0, "pressure actually evicted");
    assert_eq!(tracer.total(), 32 + tracer.dropped());
    let snap = tracer.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0), "cycle-ordered");
    // The metrics snapshot reports the same numbers.
    let registry = soc.metrics_snapshot();
    let trace_stats = registry.component("trace").unwrap();
    assert_eq!(trace_stats.counter("trace.total"), tracer.total());
    assert_eq!(trace_stats.counter("trace.dropped"), tracer.dropped());
}

// ---- metrics snapshot: deterministic, key-sorted, complete ----

#[test]
fn case_study_metrics_snapshot_is_deterministic_and_sorted() {
    let run = || {
        let mut soc = case_study(CaseStudyConfig {
            trace: Some(8_192),
            monitor_threshold: 8,
            resilience: Some(CaseResilience::default()),
            ..Default::default()
        });
        soc.run_until_halt(2_000_000);
        soc.metrics_json()
    };
    let a = run();
    let doc = Json::parse(&a).expect("snapshot parses");
    assert!(is_key_sorted(&doc), "every nesting level key-sorted");
    // One document covers the whole platform: per-LF components (by
    // label), the LCF, bus, monitor, soc lifecycle and trace accounting.
    for section in ["LF cpu0", "LCF ddr", "bus", "monitor", "soc", "trace"] {
        assert!(doc.get(section).is_some(), "missing component {section}");
    }
    // The txn-lifecycle latency histograms exist and saw real traffic.
    let histograms = doc.get("soc").unwrap().get("histograms").unwrap();
    for h in ["txn.issue_to_verdict", "txn.verdict_to_complete"] {
        let count = histograms
            .get(h)
            .and_then(|x| x.get("count"))
            .and_then(|c| c.as_u64())
            .unwrap_or(0);
        assert!(count > 0, "{h} recorded nothing");
    }
    // The verdict histogram's floor is the paper's SB pipeline latency.
    let min = histograms
        .get("txn.issue_to_verdict")
        .and_then(|x| x.get("min"))
        .and_then(|m| m.as_u64())
        .unwrap();
    assert_eq!(min, SbTiming::PAPER.total(), "verdict floor = SB latency");
    assert_eq!(a, run(), "byte-identical across identical runs");
}

#[test]
fn tracing_changes_observability_not_behaviour() {
    let run = |trace: Option<usize>| {
        let mut soc = case_study(CaseStudyConfig {
            trace,
            ..Default::default()
        });
        let cycles = soc.run_until_halt(2_000_000);
        (cycles, soc.audit().to_json().render_pretty())
    };
    let (cycles_off, audit_off) = run(None);
    let (cycles_on, audit_on) = run(Some(4_096));
    assert_eq!(cycles_off, cycles_on, "tracing changed the halt cycle");
    assert_eq!(audit_off, audit_on, "tracing changed the audit report");
}

// ---- monitor accounting regressions, system level ----

/// `alerts_from` is monotonic across quarantine rounds while the
/// per-firewall violation budget resets — the two counters the old API
/// conflated.
#[test]
fn alerts_from_survives_quarantine_while_budget_resets() {
    use secbus_bus::{MasterId, Op, Transaction, TxnId, Width};
    use secbus_core::{Alert, FirewallId, SecurityMonitor, Violation};

    let mut monitor = SecurityMonitor::new(3).with_quarantine(100);
    let fw = FirewallId(1);
    let txn = Transaction {
        id: TxnId(1),
        master: MasterId(0),
        op: Op::Write,
        addr: 0x2000_0040,
        width: Width::Word,
        data: 0,
        burst: 1,
        issued_at: Cycle(0),
    };
    for round in 0u64..3 {
        for i in 0..3 {
            monitor.observe(Alert {
                firewall: fw,
                violation: Violation::UnauthorizedWrite,
                txn,
                at: Cycle(round * 10 + i),
            });
        }
        // Escalation consumed the budget; the audit total keeps growing.
        assert_eq!(monitor.violation_budget(fw), 0, "budget reset");
        assert_eq!(monitor.alerts_from(fw), (round + 1) * 3, "monotonic");
    }
}

/// The trace `secbus observe` exports: the case study with the spine
/// armed and no resilience stack, with or without its `--attack`
/// hijack of cpu0 into an out-of-policy write.
fn observe_trace(attack: bool) -> Vec<(Cycle, TraceEvent)> {
    let programs = attack.then(|| {
        [
            r"
            li  r1, 0x80080000
            addi r2, r0, 99
            sw  r2, 0(r1)   ; violates cpu0's read-only rule -> alert
            halt
            "
            .to_string(),
            CPU1_PROGRAM.to_string(),
            CPU2_PROGRAM.to_string(),
        ]
    });
    let mut soc = case_study(CaseStudyConfig {
        programs,
        trace: Some(16_384),
        ..Default::default()
    });
    soc.run_until_halt(2_000_000);
    let tracer = soc.tracer().expect("trace armed");
    assert_eq!(tracer.dropped(), 0, "the whole run is retained");
    tracer.snapshot()
}

/// Every transaction answered over the bus traces the cycles it took:
/// a completed write's `TxnComplete.latency` is its completion cycle
/// minus its `TxnIssued` cycle, and no successful transaction reads 0.
/// Writes once kept their issue cycle only with a watchdog or retry
/// armed, so without one each traced a latency of 0.
#[test]
fn completed_transactions_trace_their_latency_from_issue() {
    for attack in [false, true] {
        let events = observe_trace(attack);
        let mut issued = std::collections::HashMap::new();
        let mut writes = 0;
        for &(at, ref event) in &events {
            match *event {
                TraceEvent::TxnIssued { txn, write, .. } => {
                    issued.insert(txn, (at, write));
                }
                TraceEvent::TxnComplete {
                    txn, ok, latency, ..
                } => {
                    assert!(!ok || latency > 0, "txn {txn} (attack: {attack})");
                    let (issued_at, write) = issued[&txn];
                    if write && ok {
                        assert_eq!(latency, at.get() - issued_at.get(), "txn {txn}");
                        writes += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(writes > 0, "the case study writes over the bus");
    }
}
