//! Packet slab: an index-addressed arena for packets on the wire.
//!
//! [`Packet`] is `Copy` but large (~560 B with two INT stacks), and the
//! dominant heap event — `Arrive` — used to carry it by value, so every
//! binary-heap sift moved the whole struct. The slab breaks that: packets
//! in flight live here, heap entries carry a 4-byte [`PacketRef`], and the
//! heap sifts ~56-byte keys.
//!
//! Ownership contract (see DESIGN.md §3e): a slab slot holds exactly one
//! live packet "on the wire" — from the moment a host NIC or switch egress
//! commits it to a link (or a switch mints a PFC/feedback frame) until it
//! is delivered to a host ([`PacketSlab::take`]), dropped
//! ([`PacketSlab::free`]), or consumed by an adjacent port (PFC). Packets
//! *inside* nodes (host `ctrl_q`, NIC `in_flight`) stay by value; switch
//! queues hold refs because their packets re-enter the wire unchanged.
//!
//! Freed slots go on a LIFO freelist, so steady-state traffic recycles a
//! small hot set of slots and the arena stays cache-resident. Allocation
//! order is a pure function of the event sequence — no addresses, no
//! randomness — so refs are as deterministic as the sequence numbers the
//! heap already orders by.

use crate::packet::Packet;
use crate::snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};

/// Index of a live packet in the [`PacketSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

impl PacketRef {
    /// Raw slot index (snapshot codec).
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw slot index captured with [`PacketRef::index`].
    pub(crate) fn from_index(i: u32) -> PacketRef {
        PacketRef(i)
    }
}

/// Arena of packets currently on the wire or parked in switch queues.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Packet>,
    /// Slot indices available for reuse, popped LIFO.
    free: Vec<u32>,
    /// Live-slot count (diagnostics).
    live: usize,
    /// High-water mark of live slots (self-profiling).
    peak_live: usize,
}

impl PacketSlab {
    /// Empty slab.
    pub fn new() -> Self {
        PacketSlab::default()
    }

    /// Put `pkt` on the wire; returns its ref.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketRef(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("packet slab overflow");
                self.slots.push(pkt);
                PacketRef(i)
            }
        }
    }

    /// Read a live packet.
    #[inline]
    pub fn get(&self, pr: PacketRef) -> &Packet {
        &self.slots[pr.0 as usize]
    }

    /// Mutate a live packet in place (ECN marking, INT stamping, fault
    /// echo-stripping).
    #[inline]
    pub fn get_mut(&mut self, pr: PacketRef) -> &mut Packet {
        &mut self.slots[pr.0 as usize]
    }

    /// Take the packet off the wire (host delivery): returns it by value
    /// and recycles the slot.
    #[inline]
    pub fn take(&mut self, pr: PacketRef) -> Packet {
        let pkt = self.slots[pr.0 as usize];
        self.release(pr);
        pkt
    }

    /// Drop the packet (loss, corruption, downed link): recycles the slot
    /// without reading it.
    #[inline]
    pub fn free(&mut self, pr: PacketRef) {
        self.release(pr);
    }

    #[inline]
    fn release(&mut self, pr: PacketRef) {
        debug_assert!(
            !self.free.contains(&pr.0),
            "double free of packet slot {}",
            pr.0
        );
        self.free.push(pr.0);
        self.live -= 1;
    }

    /// Packets currently live in the slab.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live packets (self-profiling).
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }
}

/// The complete arena: every slot (live or free) verbatim, plus the
/// freelist in its exact LIFO order. Slot indices embedded in queued
/// events must keep meaning after restore, and future allocations must pop
/// the same slots in the same order, so nothing is compacted.
impl Codec for PacketSlab {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.slots);
        w.put(&self.free);
        w.put(&self.live);
        w.put(&self.peak_live);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let slab = PacketSlab {
            slots: r.get()?,
            free: r.get()?,
            live: r.get()?,
            peak_live: r.get()?,
        };
        let n = slab.slots.len();
        if slab.free.iter().any(|&i| i as usize >= n) {
            return Err(SnapshotError::Malformed("slab freelist index"));
        }
        if slab.live != n - slab.free.len().min(n) {
            return Err(SnapshotError::Malformed("slab live count"));
        }
        Ok(slab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, IntStack, PacketKind};
    use crate::time::SimTime;
    use crate::topology::NodeId;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Data {
                seq,
                payload: 1000,
                last: false,
            },
            ecn: false,
            int: IntStack::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn alloc_take_round_trip() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(pkt(0));
        let b = slab.alloc(pkt(1000));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.get(a).wire_bytes(), 1048);
        let got = slab.take(b);
        assert!(matches!(got.kind, PacketKind::Data { seq: 1000, .. }));
        assert_eq!(slab.live(), 1);
    }

    #[test]
    fn slots_recycle_lifo() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(pkt(0));
        let _b = slab.alloc(pkt(1));
        slab.free(a);
        // The freed slot is reused before the arena grows.
        let c = slab.alloc(pkt(2));
        assert_eq!(c, a);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.peak_live(), 2);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(pkt(0));
        slab.get_mut(a).ecn = true;
        assert!(slab.get(a).ecn);
    }
}
