//! Run-time reconfiguration of security policies (paper §VI future work).
//!
//! > "We also plan to integrate reconfiguration of security services (i.e.
//! > modification of security policies) to counter some attacks against
//! > the system."
//!
//! The model: an update is *scheduled*, the target firewall keeps running
//! under the old table for a quiesce window (`swap_latency` cycles — the
//! hardware would drain its pipeline and rewrite the Configuration Memory),
//! and then the whole table is swapped atomically. A failed validation
//! (overlapping regions) leaves the old table in force — a half-applied
//! security policy would be worse than a stale one.
//!
//! Multi-firewall batches get the same guarantee through **policy
//! epochs** ([`ReconfigController::commit_epoch`]): every staged table is
//! validated against every target firewall first (*prepare*), and only if
//! all of them pass does a single commit point swap them all and bump the
//! epoch counter. One bad table means *no* firewall moves — the fleet is
//! never left straddling two security postures.

use secbus_sim::{Cycle, Stats};

use crate::config::{ConfigMemory, PolicyOverlap};
use crate::firewall::{FirewallId, LocalFirewall};
use crate::policy::SecurityPolicy;
use crate::policy_dsl::PolicyVerifyError;

/// A staged replacement of one firewall's whole policy table.
#[derive(Debug, Clone)]
pub struct PolicyUpdate {
    /// The firewall whose Configuration Memory is rewritten.
    pub firewall: FirewallId,
    /// The complete new policy set.
    pub policies: Vec<SecurityPolicy>,
}

/// Why one firewall's staged table failed the prepare phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochFailure {
    /// The firewall whose staged table was rejected.
    pub firewall: FirewallId,
    /// The validation error (overlapping regions).
    pub cause: PolicyOverlap,
}

/// Why an epoch commit was refused — in every case, *no* firewall was
/// modified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// A staged table failed validation during prepare.
    Validation(EpochFailure),
    /// An update targets a firewall that is not in the commit set.
    UnknownFirewall(FirewallId),
    /// The master initiating the commit carries a taint tag: data from an
    /// unprotected source must never reach the policy configuration path
    /// (the config store is a DIFT sink), so the whole epoch is refused.
    TaintedInitiator(FirewallId),
    /// An injected fault hit the prepare/commit boundary after `staged`
    /// firewalls had already swapped; every one of them was rolled back to
    /// its pre-commit table and the epoch counter did not move.
    CommitFault {
        /// How many firewalls had swapped (and were rolled back) when the
        /// fault landed.
        staged: u8,
    },
    /// The staged tables failed exhaustive verification against the policy
    /// program's intent (see [`crate::policy_dsl::verify`]); the epoch was
    /// refused fail-secure before any firewall staged a table.
    Verifier(PolicyVerifyError),
}

impl EpochError {
    /// Stable mnemonic for traces and metrics.
    pub fn reason(&self) -> &'static str {
        match self {
            EpochError::Validation(_) => "validation",
            EpochError::UnknownFirewall(_) => "unknown_firewall",
            EpochError::TaintedInitiator(_) => "tainted_initiator",
            EpochError::CommitFault { .. } => "commit_fault",
            EpochError::Verifier(_) => "verifier",
        }
    }
}

/// Orchestrates staged policy swaps.
#[derive(Debug)]
pub struct ReconfigController {
    swap_latency: u64,
    queue: Vec<(Cycle, u64, PolicyUpdate)>,
    next_seq: u64,
    commit_fault: Option<u8>,
    stats: Stats,
    epoch: u64,
    firewall_epochs: Vec<(FirewallId, u64)>,
}

impl ReconfigController {
    /// A controller whose updates take effect `swap_latency` cycles after
    /// being scheduled.
    pub fn new(swap_latency: u64) -> Self {
        ReconfigController {
            swap_latency,
            queue: Vec::new(),
            next_seq: 0,
            commit_fault: None,
            stats: Stats::new(),
            epoch: 0,
            firewall_epochs: Vec::new(),
        }
    }

    /// The current committed policy epoch (0 = boot configuration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch in which `fw`'s table was last swapped (0 if never).
    pub fn firewall_epoch(&self, fw: FirewallId) -> u64 {
        self.firewall_epochs
            .iter()
            .find(|(id, _)| *id == fw)
            .map_or(0, |(_, e)| *e)
    }

    /// Resume epoch numbering from a checkpoint (boot-time restore):
    /// epochs committed after the restore continue the old sequence
    /// instead of reusing numbers already handed out.
    pub fn resume_epoch(&mut self, epoch: u64) {
        debug_assert_eq!(self.epoch, 0, "resume before committing anything");
        self.epoch = epoch;
    }

    /// The configured quiesce window.
    pub fn swap_latency(&self) -> u64 {
        self.swap_latency
    }

    /// Stage an update; returns the cycle at which it becomes applicable.
    pub fn schedule(&mut self, update: PolicyUpdate, now: Cycle) -> Cycle {
        let ready_at = now + self.swap_latency;
        self.stats.incr("reconfig.scheduled");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push((ready_at, seq, update));
        ready_at
    }

    /// Updates whose quiesce window has elapsed at `now`, in a
    /// deterministic canonical order: ascending `(ready_at, firewall)`,
    /// with schedule order breaking ties for the *same* firewall. The
    /// order two same-cycle updates for different firewalls apply in is a
    /// property of the updates, never of queue insertion order — so an
    /// epoch's contents cannot depend on who called
    /// [`ReconfigController::schedule`] first. The caller applies each
    /// with [`ReconfigController::apply_to`].
    #[inline]
    pub fn take_ready(&mut self, now: Cycle) -> Vec<PolicyUpdate> {
        // Nothing due (every tick outside a swap): no allocation, and the
        // queue is left untouched.
        if !self.queue.iter().any(|&(at, _, _)| at <= now) {
            return Vec::new();
        }
        let mut ready = Vec::new();
        let mut remaining = Vec::with_capacity(self.queue.len());
        for (at, seq, update) in self.queue.drain(..) {
            if at <= now {
                ready.push((at, seq, update));
            } else {
                remaining.push((at, seq, update));
            }
        }
        self.queue = remaining;
        ready.sort_by_key(|(at, seq, update)| (*at, update.firewall, *seq));
        ready.into_iter().map(|(_, _, update)| update).collect()
    }

    /// Number of updates still quiescing.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Earliest `ready_at` among still-quiescing updates, if any — the
    /// event-driven core's wake point for epoch swaps.
    #[inline]
    pub fn next_ready(&self) -> Option<Cycle> {
        self.queue.iter().map(|&(at, _, _)| at).min()
    }

    /// Arm a one-shot fault on the prepare/commit boundary: the next
    /// [`ReconfigController::commit_epoch`] will "lose power" after
    /// `stage` firewalls have swapped. The commit must (and does) roll
    /// back every staged swap and report
    /// [`EpochError::CommitFault`] — the fleet is never left straddling
    /// two epochs. Driven by `secbus-fault`'s `EpochCommitFault`.
    pub fn arm_commit_fault(&mut self, stage: u8) {
        self.commit_fault = Some(stage);
    }

    /// Whether a commit-boundary fault is currently armed.
    pub fn commit_fault_armed(&self) -> bool {
        self.commit_fault.is_some()
    }

    /// Record that `firewall` swapped in the just-opened epoch.
    fn note_swap(&mut self, firewall: FirewallId) {
        match self
            .firewall_epochs
            .iter_mut()
            .find(|(id, _)| *id == firewall)
        {
            Some((_, e)) => *e = self.epoch,
            None => self.firewall_epochs.push((firewall, self.epoch)),
        }
    }

    /// Apply a ready update to its firewall; returns the new generation.
    ///
    /// Also lifts an administrative block: reconfiguration is the paper's
    /// envisioned recovery path after an attack forced a lockdown.
    ///
    /// A single-firewall update is its own (degenerate) epoch: the swap
    /// either happens entirely or not at all, so success bumps the epoch
    /// counter. For multi-firewall batches use
    /// [`ReconfigController::commit_epoch`] — looping over `apply_to`
    /// would apply a prefix of the batch before discovering a bad table.
    pub fn apply_to(
        &mut self,
        fw: &mut LocalFirewall,
        update: PolicyUpdate,
    ) -> Result<u64, PolicyOverlap> {
        debug_assert_eq!(fw.id(), update.firewall, "update routed to wrong firewall");
        let generation = fw.config_mut().swap(update.policies)?;
        fw.unblock();
        self.epoch += 1;
        self.note_swap(update.firewall);
        self.stats.incr("reconfig.applied");
        Ok(generation)
    }

    /// Two-phase commit of a multi-firewall batch.
    ///
    /// **Prepare**: every update must target a firewall in `fws` and its
    /// staged table must validate. **Commit**: only when every table
    /// passed, swap them all and bump the epoch once. On `Err`, no
    /// firewall was touched and the error names the firewall that failed
    /// — the caller can drop just that update and retry the rest.
    ///
    /// Returns the new epoch on success.
    pub fn commit_epoch(
        &mut self,
        fws: &mut [&mut LocalFirewall],
        updates: Vec<PolicyUpdate>,
    ) -> Result<u64, EpochError> {
        // Phase 1: prepare. Validate every staged table against a
        // scratch Configuration Memory; nothing live is modified.
        for update in &updates {
            if !fws.iter().any(|f| f.id() == update.firewall) {
                self.stats.incr("reconfig.epoch_aborts");
                return Err(EpochError::UnknownFirewall(update.firewall));
            }
            if let Err(cause) = ConfigMemory::with_policies(update.policies.clone()) {
                self.stats.incr("reconfig.epoch_aborts");
                return Err(EpochError::Validation(EpochFailure {
                    firewall: update.firewall,
                    cause,
                }));
            }
        }
        // An armed commit-boundary fault interrupts the batch after
        // `stage` swaps. The partial swaps are rolled back to the exact
        // pre-commit tables (generation included) before returning: the
        // observable outcome of a faulted commit is indistinguishable
        // from a refused one.
        if let Some(stage) = self.commit_fault.take() {
            let staged = (stage as usize).min(updates.len());
            let mut undo: Vec<(FirewallId, ConfigMemory)> = Vec::with_capacity(staged);
            for update in updates.into_iter().take(staged) {
                let fw = fws
                    .iter_mut()
                    .find(|f| f.id() == update.firewall)
                    .expect("presence checked in prepare");
                undo.push((update.firewall, fw.config().clone()));
                fw.config_mut()
                    .swap(update.policies)
                    .expect("table validated in prepare");
            }
            for (id, saved) in undo.into_iter().rev() {
                let fw = fws
                    .iter_mut()
                    .find(|f| f.id() == id)
                    .expect("presence checked in prepare");
                *fw.config_mut() = saved;
            }
            self.stats.incr("reconfig.commit_faults");
            self.stats.incr("reconfig.epoch_aborts");
            return Err(EpochError::CommitFault {
                staged: staged as u8,
            });
        }
        // Phase 2: commit. Every swap below is infallible (validated
        // above), so the batch cannot stop halfway.
        self.epoch += 1;
        for update in updates {
            let fw = fws
                .iter_mut()
                .find(|f| f.id() == update.firewall)
                .expect("presence checked in prepare");
            fw.config_mut()
                .swap(update.policies)
                .expect("table validated in prepare");
            fw.unblock();
            self.note_swap(update.firewall);
            self.stats.incr("reconfig.applied");
        }
        self.stats.incr("reconfig.epochs_committed");
        Ok(self.epoch)
    }

    /// Controller statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigMemory;
    use crate::policy::{AdfSet, Rwa, SecurityPolicy, Spi};
    use secbus_bus::{AddrRange, MasterId, Op, Transaction, TxnId, Width};

    fn policy(spi: u16, base: u32) -> SecurityPolicy {
        SecurityPolicy::internal(
            spi,
            AddrRange::new(base, 0x100),
            Rwa::ReadWrite,
            AdfSet::ALL,
        )
    }

    fn fw() -> LocalFirewall {
        LocalFirewall::new(
            FirewallId(3),
            "LF",
            ConfigMemory::with_policies(vec![policy(1, 0x1000)]).unwrap(),
        )
    }

    fn txn(addr: u32) -> Transaction {
        Transaction {
            id: TxnId(0),
            master: MasterId(0),
            op: Op::Read,
            addr,
            width: Width::Word,
            data: 0,
            burst: 1,
            issued_at: Cycle(0),
        }
    }

    #[test]
    fn update_waits_for_quiesce_window() {
        let mut rc = ReconfigController::new(50);
        let ready_at = rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(3),
                policies: vec![policy(2, 0x2000)],
            },
            Cycle(10),
        );
        assert_eq!(ready_at, Cycle(60));
        assert!(rc.take_ready(Cycle(59)).is_empty());
        assert_eq!(rc.pending(), 1);
        let ready = rc.take_ready(Cycle(60));
        assert_eq!(ready.len(), 1);
        assert_eq!(rc.pending(), 0);
    }

    #[test]
    fn applied_update_changes_enforcement() {
        let mut rc = ReconfigController::new(0);
        let mut f = fw();
        assert!(f.check(&txn(0x1000), Cycle(0)).allowed);
        assert!(!f.check(&txn(0x2000), Cycle(0)).allowed);

        rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(3),
                policies: vec![policy(2, 0x2000)],
            },
            Cycle(0),
        );
        for update in rc.take_ready(Cycle(0)) {
            rc.apply_to(&mut f, update).unwrap();
        }
        assert!(
            !f.check(&txn(0x1000), Cycle(1)).allowed,
            "old policy revoked"
        );
        assert!(
            f.check(&txn(0x2000), Cycle(1)).allowed,
            "new policy in force"
        );
        assert_eq!(rc.stats().counter("reconfig.applied"), 1);
    }

    #[test]
    fn reconfiguration_unblocks_a_contained_ip() {
        let mut rc = ReconfigController::new(0);
        let mut f = fw();
        f.block();
        assert!(!f.check(&txn(0x1000), Cycle(0)).allowed);
        rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(3),
                policies: vec![policy(1, 0x1000)],
            },
            Cycle(0),
        );
        for u in rc.take_ready(Cycle(0)) {
            rc.apply_to(&mut f, u).unwrap();
        }
        assert!(f.check(&txn(0x1000), Cycle(1)).allowed);
    }

    #[test]
    fn invalid_update_is_rejected_atomically() {
        let mut rc = ReconfigController::new(0);
        let mut f = fw();
        rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(3),
                policies: vec![policy(2, 0x2000), policy(3, 0x2080)], // overlap
            },
            Cycle(0),
        );
        for u in rc.take_ready(Cycle(0)) {
            assert!(rc.apply_to(&mut f, u).is_err());
        }
        // The old table still works.
        assert!(f.check(&txn(0x1000), Cycle(1)).allowed);
        assert_eq!(f.config().generation(), 0);
    }

    fn fw_with_id(id: u8, base: u32) -> LocalFirewall {
        LocalFirewall::new(
            FirewallId(id),
            "LF",
            ConfigMemory::with_policies(vec![policy(1, base)]).unwrap(),
        )
    }

    #[test]
    fn epoch_commit_is_all_or_nothing() {
        let mut rc = ReconfigController::new(0);
        let mut a = fw_with_id(0, 0x1000);
        let mut b = fw_with_id(1, 0x1000);
        let bad = PolicyUpdate {
            firewall: FirewallId(1),
            policies: vec![policy(2, 0x2000), policy(3, 0x2080)], // overlap
        };
        let good = PolicyUpdate {
            firewall: FirewallId(0),
            policies: vec![policy(2, 0x2000)],
        };
        let err = rc
            .commit_epoch(&mut [&mut a, &mut b], vec![good.clone(), bad])
            .unwrap_err();
        assert_eq!(
            err,
            EpochError::Validation(EpochFailure {
                firewall: FirewallId(1),
                cause: PolicyOverlap {
                    attempted: Spi(3),
                    existing: Spi(2)
                },
            }),
            "the error names the firewall whose table failed"
        );
        // The GOOD update earlier in the batch was not applied either.
        assert!(a.check(&txn(0x1000), Cycle(1)).allowed);
        assert!(!a.check(&txn(0x2000), Cycle(1)).allowed);
        assert_eq!(rc.epoch(), 0);
        assert_eq!(rc.stats().counter("reconfig.applied"), 0);

        // Retrying without the bad table commits one epoch for the rest.
        let epoch = rc.commit_epoch(&mut [&mut a, &mut b], vec![good]).unwrap();
        assert_eq!(epoch, 1);
        assert!(a.check(&txn(0x2000), Cycle(2)).allowed);
        assert_eq!(rc.firewall_epoch(FirewallId(0)), 1);
        assert_eq!(
            rc.firewall_epoch(FirewallId(1)),
            0,
            "untouched firewall keeps its epoch"
        );
    }

    #[test]
    fn epoch_commit_rejects_unknown_firewall() {
        let mut rc = ReconfigController::new(0);
        let mut a = fw_with_id(0, 0x1000);
        let err = rc
            .commit_epoch(
                &mut [&mut a],
                vec![PolicyUpdate {
                    firewall: FirewallId(9),
                    policies: vec![],
                }],
            )
            .unwrap_err();
        assert_eq!(err, EpochError::UnknownFirewall(FirewallId(9)));
        assert_eq!(rc.epoch(), 0);
    }

    #[test]
    fn single_firewall_apply_is_a_degenerate_epoch() {
        let mut rc = ReconfigController::new(0);
        let mut f = fw();
        rc.apply_to(
            &mut f,
            PolicyUpdate {
                firewall: FirewallId(3),
                policies: vec![policy(2, 0x2000)],
            },
        )
        .unwrap();
        assert_eq!(rc.epoch(), 1);
        assert_eq!(rc.firewall_epoch(FirewallId(3)), 1);
    }

    #[test]
    fn multiple_updates_order_preserved() {
        let mut rc = ReconfigController::new(10);
        rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(0),
                policies: vec![],
            },
            Cycle(0),
        );
        rc.schedule(
            PolicyUpdate {
                firewall: FirewallId(1),
                policies: vec![],
            },
            Cycle(5),
        );
        let ready = rc.take_ready(Cycle(20));
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].firewall, FirewallId(0));
        assert_eq!(ready[1].firewall, FirewallId(1));
    }

    #[test]
    fn same_cycle_updates_apply_in_canonical_order_not_insertion_order() {
        // Regression: two updates ready the same cycle used to come back
        // in insertion order, so the applied epoch depended on who called
        // schedule() first.
        let schedule = |order: &[u8]| {
            let mut rc = ReconfigController::new(10);
            for &id in order {
                rc.schedule(
                    PolicyUpdate {
                        firewall: FirewallId(id),
                        policies: vec![],
                    },
                    Cycle(0),
                );
            }
            rc.take_ready(Cycle(10))
                .into_iter()
                .map(|u| u.firewall)
                .collect::<Vec<_>>()
        };
        let canonical = vec![FirewallId(0), FirewallId(1), FirewallId(2)];
        assert_eq!(schedule(&[2, 0, 1]), canonical);
        assert_eq!(schedule(&[0, 1, 2]), canonical);
        assert_eq!(schedule(&[1, 2, 0]), canonical);
    }

    #[test]
    fn same_firewall_same_cycle_keeps_schedule_order() {
        // Two rewrites of the SAME table in one cycle: last write wins,
        // and "last" means schedule order, which is part of the key.
        let mut rc = ReconfigController::new(0);
        for spi in [7u16, 8] {
            rc.schedule(
                PolicyUpdate {
                    firewall: FirewallId(3),
                    policies: vec![policy(spi, 0x1000)],
                },
                Cycle(0),
            );
        }
        let ready = rc.take_ready(Cycle(0));
        assert_eq!(ready[0].policies[0].spi, Spi(7));
        assert_eq!(ready[1].policies[0].spi, Spi(8));
    }

    #[test]
    fn faulted_commit_rolls_back_every_staged_swap() {
        let mut rc = ReconfigController::new(0);
        let mut a = fw_with_id(0, 0x1000);
        let mut b = fw_with_id(1, 0x1000);
        let updates = vec![
            PolicyUpdate {
                firewall: FirewallId(0),
                policies: vec![policy(2, 0x2000)],
            },
            PolicyUpdate {
                firewall: FirewallId(1),
                policies: vec![policy(2, 0x2000)],
            },
        ];
        // Fault after ONE of the two swaps: the worst case — a mixed
        // fleet if the rollback were missing.
        rc.arm_commit_fault(1);
        let err = rc
            .commit_epoch(&mut [&mut a, &mut b], updates.clone())
            .unwrap_err();
        assert_eq!(err, EpochError::CommitFault { staged: 1 });
        assert_eq!(err.reason(), "commit_fault");
        for f in [&mut a, &mut b] {
            assert!(f.check(&txn(0x1000), Cycle(1)).allowed, "old epoch rules");
            assert!(!f.check(&txn(0x2000), Cycle(1)).allowed);
            assert_eq!(f.config().generation(), 0, "generation restored");
        }
        assert_eq!(rc.epoch(), 0, "epoch did not move");
        assert_eq!(rc.stats().counter("reconfig.commit_faults"), 1);
        assert_eq!(rc.stats().counter("reconfig.epoch_aborts"), 1);
        assert!(!rc.commit_fault_armed(), "the fault is one-shot");

        // The retry (no fault armed) commits cleanly.
        let epoch = rc.commit_epoch(&mut [&mut a, &mut b], updates).unwrap();
        assert_eq!(epoch, 1);
        for f in [&mut a, &mut b] {
            assert!(f.check(&txn(0x2000), Cycle(2)).allowed);
        }
    }

    #[test]
    fn faulted_commit_with_stage_beyond_batch_still_aborts() {
        let mut rc = ReconfigController::new(0);
        let mut a = fw_with_id(0, 0x1000);
        rc.arm_commit_fault(200);
        let err = rc
            .commit_epoch(
                &mut [&mut a],
                vec![PolicyUpdate {
                    firewall: FirewallId(0),
                    policies: vec![policy(2, 0x2000)],
                }],
            )
            .unwrap_err();
        assert_eq!(err, EpochError::CommitFault { staged: 1 });
        assert_eq!(a.config().generation(), 0);
        assert_eq!(rc.epoch(), 0);
    }
}
