//! Packet slab: an index-addressed arena for packets on the wire.
//!
//! Packets in flight live here, and the dominant event — `Arrive` — carries
//! a 4-byte [`PacketRef`] instead of the 336-byte [`Packet`], so the
//! scheduler moves 64-byte [`crate::sched::Scheduled`] entries. The slab
//! itself stores a [`Packet`] as a 72-byte [`PacketHead`] per slot plus its
//! INT hop records in side storage that is written only when the packet
//! carries hops: only HPCC stamps them, so every other scheme's slab is
//! heads alone.
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
//! small hot set of slots and the arena stays cache-resident. A freed slot
//! keeps its head and hop records until it is reused: snapshots write every
//! slot, free ones included. Allocation order is a pure function of the
//! event sequence — no addresses, no randomness — so refs are as
//! deterministic as the sequence numbers the heap already orders by.

use crate::packet::{FlowId, IntHop, IntStack, Packet, PacketKind, MAX_INT_HOPS};
use crate::snapshot::{self, Codec, SnapReader, SnapWriter, SnapshotError};
use crate::time::SimTime;
use crate::topology::NodeId;

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

/// A packet in the slab: every [`Packet`] field but the INT stack, whose
/// records the slab keeps apart, plus how many of them there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHead {
    /// See [`Packet::flow`].
    pub flow: FlowId,
    /// See [`Packet::src`].
    pub src: NodeId,
    /// See [`Packet::dst`].
    pub dst: NodeId,
    /// See [`Packet::kind`].
    pub kind: PacketKind,
    /// See [`Packet::ecn`].
    pub ecn: bool,
    /// Length of the packet's INT stack ([`PacketSlab::push_hop`] grows it).
    hops: u8,
    /// See [`Packet::sent_at`].
    pub sent_at: SimTime,
}

impl PacketHead {
    /// `pkt` without its hop records.
    pub(crate) fn of(pkt: &Packet) -> PacketHead {
        PacketHead {
            flow: pkt.flow,
            src: pkt.src,
            dst: pkt.dst,
            kind: pkt.kind,
            ecn: pkt.ecn,
            hops: pkt.int.len() as u8,
            sent_at: pkt.sent_at,
        }
    }

    /// Total bytes the packet occupies on the wire and in buffers (the
    /// same rule as [`Packet::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        self.kind.wire_bytes(self.hops as usize)
    }

    /// True if this packet carries flow payload.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

/// Arena of packets currently on the wire or parked in switch queues.
#[derive(Debug, Default)]
pub struct PacketSlab {
    heads: Vec<PacketHead>,
    /// Hop records of slot `i` at `hops[i]`, the first
    /// `heads[i].hops` of them valid. Grown only as far as the highest
    /// slot that has carried hops; empty unless some packet did.
    hops: Vec<[IntHop; MAX_INT_HOPS]>,
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
        let pr = self.place(PacketHead::of(&pkt));
        if !pkt.int.is_empty() {
            self.set_hops(pr, pkt.int.hops());
        }
        pr
    }

    /// Occupy a slot with `head`, reusing the most recently freed one.
    #[inline]
    fn place(&mut self, head: PacketHead) -> PacketRef {
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        match self.free.pop() {
            Some(i) => {
                self.heads[i as usize] = head;
                PacketRef(i)
            }
            None => {
                let i = u32::try_from(self.heads.len()).expect("packet slab overflow");
                self.heads.push(head);
                PacketRef(i)
            }
        }
    }

    /// Slot `pr`'s hop records, allocating side storage up to it.
    fn hop_slot(&mut self, pr: PacketRef) -> &mut [IntHop; MAX_INT_HOPS] {
        let i = pr.0 as usize;
        if self.hops.len() <= i {
            self.grow_hops(i + 1);
        }
        &mut self.hops[i]
    }

    #[cold]
    fn grow_hops(&mut self, slots: usize) {
        self.hops.resize(slots, [IntHop::default(); MAX_INT_HOPS]);
    }

    /// Out of line: only INT-carrying packets get here, and `alloc` stays
    /// small for the rest.
    #[inline(never)]
    fn set_hops(&mut self, pr: PacketRef, hops: &[IntHop]) {
        self.hop_slot(pr)[..hops.len()].copy_from_slice(hops);
    }

    /// Slot `i`'s valid hop records.
    fn hops_of(&self, i: usize) -> &[IntHop] {
        match self.heads[i].hops as usize {
            0 => &[],
            n => &self.hops[i][..n],
        }
    }

    /// Read a live packet's head.
    #[inline]
    pub fn get(&self, pr: PacketRef) -> &PacketHead {
        &self.heads[pr.0 as usize]
    }

    /// Mutate a live packet's head in place (ECN marking, fault
    /// echo-stripping).
    #[inline]
    pub fn get_mut(&mut self, pr: PacketRef) -> &mut PacketHead {
        &mut self.heads[pr.0 as usize]
    }

    /// Stamp one INT hop on a live packet; silently dropped beyond
    /// [`MAX_INT_HOPS`], as [`IntStack::push`] does.
    pub fn push_hop(&mut self, pr: PacketRef, hop: IntHop) {
        let n = self.heads[pr.0 as usize].hops as usize;
        if n < MAX_INT_HOPS {
            self.hop_slot(pr)[n] = hop;
            self.heads[pr.0 as usize].hops += 1;
        }
    }

    /// Put a copy of live packet `pr`, hops included, on the wire (the
    /// `Duplicate` fault); returns the copy's ref.
    pub fn duplicate(&mut self, pr: PacketRef) -> PacketRef {
        let head = self.heads[pr.0 as usize];
        let dup = self.place(head);
        if head.hops > 0 {
            let hops = self.hops[pr.0 as usize];
            *self.hop_slot(dup) = hops;
        }
        dup
    }

    /// Slot `i` as a [`Packet`].
    #[inline]
    fn packet(&self, i: usize) -> Packet {
        let h = &self.heads[i];
        let mut int = IntStack::new();
        for &hop in self.hops_of(i) {
            int.push(hop);
        }
        Packet {
            flow: h.flow,
            src: h.src,
            dst: h.dst,
            kind: h.kind,
            ecn: h.ecn,
            int,
            sent_at: h.sent_at,
        }
    }

    /// Take the packet off the wire (host delivery): returns it by value
    /// and recycles the slot.
    #[inline]
    pub fn take(&mut self, pr: PacketRef) -> Packet {
        let pkt = self.packet(pr.0 as usize);
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

    /// Slots with hop side storage: 0 until some packet carries INT hops.
    pub fn hop_slots(&self) -> usize {
        self.hops.len()
    }
}

/// The complete arena: every slot (live or free) verbatim as a [`Packet`],
/// plus the freelist in its exact LIFO order. Slot indices embedded in
/// queued events must keep meaning after restore, and future allocations
/// must pop the same slots in the same order, so nothing is compacted.
impl Codec for PacketSlab {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.heads.len());
        for (i, head) in self.heads.iter().enumerate() {
            snapshot::put_packet(w, head, self.hops_of(i));
        }
        w.put(&self.free);
        w.put(&self.live);
        w.put(&self.peak_live);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut slab = PacketSlab::new();
        for i in 0..r.len()? {
            let pkt: Packet = r.get()?;
            slab.heads.push(PacketHead::of(&pkt));
            if !pkt.int.is_empty() {
                slab.set_hops(PacketRef(i as u32), pkt.int.hops());
            }
        }
        slab.free = r.get()?;
        slab.live = r.get()?;
        slab.peak_live = r.get()?;
        let n = slab.heads.len();
        // Each free slot once: a repeated index would hand one slot to
        // two later allocations.
        let mut seen = vec![false; n];
        for &i in &slab.free {
            if (i as usize) >= n || std::mem::replace(&mut seen[i as usize], true) {
                return Err(SnapshotError::Malformed("slab freelist index"));
            }
        }
        if slab.live != n - slab.free.len() {
            return Err(SnapshotError::Malformed("slab live count"));
        }
        Ok(slab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn hop(q: u64) -> IntHop {
        IntHop {
            qlen_bytes: q,
            ..Default::default()
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

    /// A later field cannot silently regrow what every alloc and take
    /// copies.
    #[test]
    fn layouts_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<Packet>() <= 336, "Packet is {} B", size_of::<Packet>());
        assert!(size_of::<PacketKind>() <= 32, "PacketKind is {} B", size_of::<PacketKind>());
        assert!(size_of::<PacketHead>() <= 72, "PacketHead is {} B", size_of::<PacketHead>());
    }

    #[test]
    fn hops_round_trip_and_reused_slots_start_empty() {
        let mut slab = PacketSlab::new();
        let mut stamped = pkt(0);
        stamped.int.push(hop(1));
        let a = slab.alloc(stamped);
        slab.push_hop(a, hop(2));
        assert_eq!(slab.get(a).wire_bytes(), 1048 + 2 + 8 * 2);
        let dup = slab.duplicate(a);
        let got = slab.take(a);
        assert_eq!(got.int.hops(), [hop(1), hop(2)]);
        assert_eq!(slab.take(dup).int, got.int);
        // Stamped slots, reused by hop-less packets, take back empty.
        let b = slab.alloc(pkt(1));
        let c = slab.alloc(pkt(2));
        assert_eq!((b, c), (dup, a));
        assert!(slab.take(b).int.is_empty());
        assert_eq!(slab.take(c), pkt(2));
    }

    #[test]
    fn hop_storage_is_only_grown_by_hops() {
        let mut slab = PacketSlab::new();
        let refs: Vec<PacketRef> = (0..4).map(|s| slab.alloc(pkt(s))).collect();
        assert_eq!(slab.hop_slots(), 0);
        slab.push_hop(refs[2], hop(7));
        assert_eq!(slab.hop_slots(), 3);
    }

    #[test]
    fn stamps_beyond_capacity_are_dropped() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(pkt(0));
        for q in 0..MAX_INT_HOPS as u64 + 3 {
            slab.push_hop(a, hop(q));
        }
        let int = slab.take(a).int;
        assert_eq!(int.len(), MAX_INT_HOPS);
        assert_eq!(int.hops()[MAX_INT_HOPS - 1], hop(MAX_INT_HOPS as u64 - 1));
    }

    fn encode(slab: &PacketSlab) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(slab);
        w.into_bytes()
    }

    /// Free slots keep what they held: the codec writes them, and a
    /// restored slab writes the same bytes.
    #[test]
    fn codec_round_trips_free_slots_with_their_hops() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(pkt(0));
        let b = slab.alloc(pkt(1));
        slab.push_hop(a, hop(3));
        slab.push_hop(b, hop(4));
        slab.free(a);
        let c = slab.alloc(pkt(2));
        slab.free(b);
        slab.free(c);
        let bytes = encode(&slab);
        let back: PacketSlab = SnapReader::new(&bytes).get().expect("decodes");
        assert_eq!(encode(&back), bytes);
        assert_eq!(back.packet(b.0 as usize).int.hops(), [hop(4)]);
        assert!(back.packet(c.0 as usize).int.is_empty());
    }

    /// A freelist naming one slot twice would let two allocations alias
    /// it after restore.
    #[test]
    fn repeated_freelist_index_is_malformed() {
        let mut w = SnapWriter::new();
        w.put(&vec![pkt(0), pkt(1)]);
        w.put(&vec![0u32, 0]);
        w.put(&0usize);
        w.put(&2usize);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).get::<PacketSlab>().err(),
            Some(SnapshotError::Malformed("slab freelist index"))
        );
    }
}
