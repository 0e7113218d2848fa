//! The firewall fleet: the one owner of the id → firewall mapping.
//!
//! The paper puts a firewall in front of every IP, every guarded slave
//! and the external memory, and every alert names its firewall by id
//! (Fig. 1). [`SocBuilder::try_build`] allocates those ids in fleet
//! order (master LFs in master order, then slave-side LFs in slave
//! order, then the LCF's embedded LF) and records here where each one
//! lives, so `FirewallId(k)` is the `k`-th member.
//!
//! Fleet-wide walks (tracer wiring, the per-tick alert drain, stats,
//! metrics, audit, epoch commits) go over the slot vectors directly, in
//! that admission order, which is id order. Lookups by id (blocks,
//! releases, recovery, scheduled updates, policy corruption) go through
//! `homes`, the index of where each id lives. Tests check that the two
//! agree on every id.
//!
//! The index holds positions only. A walk or a lookup borrows the slot
//! vectors it is handed and nothing else of the [`Soc`], so a caller can
//! pass the firewall it found to another part of the system, such as the
//! reconfiguration controller.
//!
//! [`SocBuilder::try_build`]: crate::SocBuilder::try_build
//! [`Soc`]: crate::Soc

use secbus_bus::MasterId;
use secbus_core::{FirewallId, LocalCipheringFirewall, LocalFirewall};
use secbus_mem::ExternalDdr;

use crate::soc::{MasterSlot, SlaveKind, SlaveSlot};

/// Where one member of the fleet lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Home {
    /// The Local Firewall in front of master `i`.
    Master(usize),
    /// The Local Firewall in front of slave `i`.
    Slave(usize),
    /// The firewall embedded in the LCF on the DDR slave.
    Lcf,
}

/// A fleet member found by id, with what recovery needs beside it.
pub(crate) enum Member<'a> {
    /// A Local Firewall, and the master it guards (`None` on the slave
    /// side).
    Lf(&'a mut LocalFirewall, Option<MasterId>),
    /// The LCF and the DDR it guards.
    Lcf(&'a mut LocalCipheringFirewall, &'a mut ExternalDdr),
}

/// The fleet index; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Fleet {
    /// `homes[k]` is where `FirewallId(k)` lives.
    homes: Vec<Home>,
    /// The DDR's slave index ([`SocBuilder::set_ddr`] allows one DDR).
    ///
    /// [`SocBuilder::set_ddr`]: crate::SocBuilder::set_ddr
    ddr: Option<usize>,
}

impl Fleet {
    /// Allocate the next id, for a firewall living at `home`.
    pub(crate) fn admit(&mut self, home: Home) -> FirewallId {
        let id = FirewallId(self.homes.len() as u8);
        self.homes.push(home);
        id
    }

    /// Record the DDR's slave index.
    pub(crate) fn set_ddr(&mut self, slave: usize) {
        self.ddr = Some(slave);
    }

    /// Number of firewalls in the fleet.
    pub(crate) fn len(&self) -> usize {
        self.homes.len()
    }

    /// The DDR's slave index, if the system has a DDR.
    pub(crate) fn ddr_index(&self) -> Option<usize> {
        self.ddr
    }

    /// The DDR and its LCF, if the system has a DDR.
    pub(crate) fn ddr<'a>(
        &self,
        slaves: &'a [SlaveSlot],
    ) -> Option<(&'a ExternalDdr, Option<&'a LocalCipheringFirewall>)> {
        slaves.get(self.ddr?)?.kind.ddr()
    }

    /// [`Fleet::ddr`], mutably.
    pub(crate) fn ddr_mut<'a>(
        &self,
        slaves: &'a mut [SlaveSlot],
    ) -> Option<(&'a mut ExternalDdr, Option<&'a mut LocalCipheringFirewall>)> {
        slaves.get_mut(self.ddr?)?.kind.ddr_mut()
    }

    /// Firewall `id` with what surrounds it, if the fleet has one.
    pub(crate) fn member_mut<'a>(
        &self,
        id: FirewallId,
        masters: &'a mut [MasterSlot],
        slaves: &'a mut [SlaveSlot],
    ) -> Option<Member<'a>> {
        Some(match *self.homes.get(usize::from(id.0))? {
            Home::Master(i) => {
                let slot = masters.get_mut(i)?;
                Member::Lf(slot.firewall.as_mut()?, Some(slot.bus_id))
            }
            Home::Slave(i) => Member::Lf(slaves.get_mut(i)?.firewall.as_mut()?, None),
            Home::Lcf => {
                let (ddr, lcf) = self.ddr_mut(slaves)?;
                Member::Lcf(lcf?, ddr)
            }
        })
    }

    /// Firewall `id`, mutably, if the fleet has one.
    pub(crate) fn get_mut<'a>(
        &self,
        id: FirewallId,
        masters: &'a mut [MasterSlot],
        slaves: &'a mut [SlaveSlot],
    ) -> Option<&'a mut LocalFirewall> {
        Some(match self.member_mut(id, masters, slaves)? {
            Member::Lf(fw, _) => fw,
            Member::Lcf(lcf, _) => lcf.firewall_mut(),
        })
    }

    /// Every firewall, in id order: the slots in the order
    /// [`SocBuilder::try_build`] admits them.
    ///
    /// [`SocBuilder::try_build`]: crate::SocBuilder::try_build
    pub(crate) fn iter<'a>(
        &self,
        masters: &'a [MasterSlot],
        slaves: &'a [SlaveSlot],
    ) -> impl Iterator<Item = &'a LocalFirewall> + 'a {
        let lcf = self.ddr(slaves).and_then(|(_, lcf)| lcf);
        masters
            .iter()
            .filter_map(|m| m.firewall.as_ref())
            .chain(slaves.iter().filter_map(|s| s.firewall.as_ref()))
            .chain(lcf.map(LocalCipheringFirewall::firewall))
    }

    /// Visit every firewall mutably, in id order (see [`Fleet::iter`]).
    pub(crate) fn for_each_mut(
        &self,
        masters: &mut [MasterSlot],
        slaves: &mut [SlaveSlot],
        mut f: impl FnMut(&mut LocalFirewall),
    ) {
        for fw in masters.iter_mut().filter_map(|m| m.firewall.as_mut()) {
            f(fw);
        }
        for fw in slaves.iter_mut().filter_map(|s| s.firewall.as_mut()) {
            f(fw);
        }
        if let Some((_, Some(lcf))) = self.ddr_mut(slaves) {
            f(lcf.firewall_mut());
        }
    }

    /// Every firewall at once, mutably, for an epoch commit (which finds
    /// its targets by id, so the order is not part of the contract).
    pub(crate) fn all_mut<'a>(
        &self,
        masters: &'a mut [MasterSlot],
        slaves: &'a mut [SlaveSlot],
    ) -> Vec<&'a mut LocalFirewall> {
        masters
            .iter_mut()
            .filter_map(|m| m.firewall.as_mut())
            .chain(slaves.iter_mut().flat_map(|s| {
                let lcf = s.kind.ddr_mut().and_then(|(_, lcf)| lcf);
                s.firewall
                    .as_mut()
                    .into_iter()
                    .chain(lcf.map(LocalCipheringFirewall::firewall_mut))
            }))
            .collect()
    }
}

impl SlaveKind {
    /// The memory and LCF of a DDR slave; `None` for any other slave.
    fn ddr(&self) -> Option<(&ExternalDdr, Option<&LocalCipheringFirewall>)> {
        match self {
            SlaveKind::Ddr { ddr, lcf } => Some((ddr, lcf.as_deref())),
            SlaveKind::Bram(_) => None,
        }
    }

    /// [`SlaveKind::ddr`], mutably.
    fn ddr_mut(&mut self) -> Option<(&mut ExternalDdr, Option<&mut LocalCipheringFirewall>)> {
        match self {
            SlaveKind::Ddr { ddr, lcf } => Some((ddr, lcf.as_deref_mut())),
            SlaveKind::Bram(_) => None,
        }
    }
}
