//! Packet descriptors.
//!
//! The simulator forwards typed packet descriptors rather than byte buffers:
//! headers are plain struct fields, while wire sizes are accounted explicitly
//! so serialization times and queue occupancy stay faithful. The CNP *wire
//! format* (ICMP type 253) lives in `rocc-core`, which encodes/decodes real
//! bytes; the simulator carries the decoded form.

use crate::time::SimTime;
use crate::topology::{NodeId, PortId};
use crate::units::BitRate;

/// Identifies one flow (a source→destination byte stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifies a congestion point: an egress port of a switch.
/// RoCC's RP compares CP identities when arbitrating between CNPs from
/// multiple bottlenecks (Alg. 2 line 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpId {
    /// The switch that generated the feedback.
    pub node: NodeId,
    /// The congested egress port on that switch.
    pub port: PortId,
}

/// Per-hop in-band network telemetry record (HPCC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntHop {
    /// Egress queue length at dequeue time, in bytes.
    pub qlen_bytes: u64,
    /// Cumulative bytes transmitted by the egress port (wraps naturally).
    pub tx_bytes: u64,
    /// Timestamp when the packet left the port.
    pub ts_ns: u64,
    /// Port line rate.
    pub rate: BitRate,
}

/// Maximum network diameter in hops for INT stamping; the paper's fat-tree
/// has 4 switch hops end to end.
pub const MAX_INT_HOPS: usize = 8;

/// A fixed-capacity INT stack: heap-free so packets stay cheap to clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntStack {
    hops: [IntHop; MAX_INT_HOPS],
    len: u8,
}

impl IntStack {
    /// Empty stack.
    pub const fn new() -> Self {
        IntStack {
            hops: [IntHop {
                qlen_bytes: 0,
                tx_bytes: 0,
                ts_ns: 0,
                rate: BitRate::ZERO,
            }; MAX_INT_HOPS],
            len: 0,
        }
    }

    /// Append one hop record; silently drops beyond capacity (as real INT
    /// does when the stack budget in the header is exhausted).
    pub fn push(&mut self, hop: IntHop) {
        if (self.len as usize) < MAX_INT_HOPS {
            self.hops[self.len as usize] = hop;
            self.len += 1;
        }
    }

    /// Recorded hops, in path order.
    pub fn hops(&self) -> &[IntHop] {
        &self.hops[..self.len as usize]
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no hops were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-packet INT overhead on the wire, in bytes.
    pub fn wire_overhead_bytes(&self) -> u64 {
        int_overhead_bytes(self.len())
    }
}

/// INT overhead of `hops` stamped hops, in bytes (HPCC reports 42 B for 5
/// hops; we charge 8 B per stamped hop plus a 2 B shim).
fn int_overhead_bytes(hops: usize) -> u64 {
    if hops == 0 {
        0
    } else {
        2 + 8 * hops as u64
    }
}

/// What a packet is: 32 bytes and `Copy`. No variant carries INT records;
/// a packet's hops, stamped on data and echoed on its ACK, are
/// [`Packet::int`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Application payload carried by the reliable transport.
    Data {
        /// Sequence number of the first payload byte in the flow.
        seq: u64,
        /// Payload length in bytes (wire size adds headers).
        payload: u64,
        /// True on the final packet of the flow (drives FCT recording).
        last: bool,
    },
    /// Cumulative acknowledgment from receiver to sender.
    Ack {
        /// All bytes strictly below this sequence number were received.
        cum_seq: u64,
        /// Echo of the data packet's ECN mark (DCQCN's notification input
        /// travels via receiver-generated CNP; TIMELY/HPCC use ACK echoes).
        ecn_echo: bool,
        /// Send timestamp of the acked data packet (TIMELY RTT measurement).
        data_tx_time: SimTime,
    },
    /// Go-back-N negative acknowledgment: receiver saw a gap.
    Nack {
        /// Next in-order sequence number expected by the receiver.
        expected_seq: u64,
    },
    /// RoCC congestion notification packet (switch→source, ICMP type 253).
    RoccCnp {
        /// Fair rate in multiples of ΔF, exactly as carried on the wire.
        fair_rate_units: u32,
        /// Originating congestion point.
        cp: CpId,
    },
    /// RoCC queue report for host-side rate computation (paper §3.6): the
    /// CP ships its raw queue depth and Fmax; the source replicates the
    /// fair-rate calculation locally.
    RoccQueueReport {
        /// Current queue depth in multiples of ΔQ.
        q_cur_units: u32,
        /// The CP's Fmax in multiples of ΔF (lets the host select the
        /// parameter profile from its registry).
        f_max_units: u32,
        /// Originating congestion point.
        cp: CpId,
    },
    /// DCQCN congestion notification packet (receiver→source).
    DcqcnCnp,
    /// QCN feedback message (switch→source).
    QcnFb {
        /// Quantized congestion feedback value Fb (6 bits in QCN).
        fb: u8,
        /// Originating congestion point.
        cp: CpId,
    },
    /// PFC PAUSE frame (link-local, per traffic class; we model one class).
    PfcPause,
    /// PFC RESUME (XON) frame.
    PfcResume,
}

impl PacketKind {
    /// True for link-local PFC frames, which are consumed by the adjacent
    /// port and never forwarded or queued.
    pub fn is_pfc(&self) -> bool {
        matches!(self, PacketKind::PfcPause | PacketKind::PfcResume)
    }

    /// True for control traffic that rides the high-priority queue
    /// (feedback messages; the paper prioritizes CNPs, §3.3).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            PacketKind::Ack { .. }
                | PacketKind::Nack { .. }
                | PacketKind::RoccCnp { .. }
                | PacketKind::RoccQueueReport { .. }
                | PacketKind::DcqcnCnp
                | PacketKind::QcnFb { .. }
        )
    }

    /// Bytes a packet of this kind carrying `int_hops` INT records
    /// occupies on the wire and in buffers: the one size rule behind
    /// [`Packet::wire_bytes`] and [`crate::slab::PacketHead::wire_bytes`].
    /// Hops count on data (stamped) and ACKs (echoed) only.
    pub(crate) fn wire_bytes(&self, int_hops: usize) -> u64 {
        match *self {
            PacketKind::Data { payload, .. } => {
                DATA_HEADER_BYTES + payload + int_overhead_bytes(int_hops)
            }
            PacketKind::PfcPause | PacketKind::PfcResume => PFC_FRAME_BYTES,
            PacketKind::Ack { .. } => CONTROL_PACKET_BYTES + int_overhead_bytes(int_hops),
            _ => CONTROL_PACKET_BYTES,
        }
    }
}

/// Fixed per-packet header overhead on the wire for data packets:
/// Ethernet (18) + IPv4 (20) + UDP/IB BTH-equivalent (10) = 48 bytes.
pub const DATA_HEADER_BYTES: u64 = 48;
/// Wire size of control packets (ACK/NACK/CNP/Fb): minimum Ethernet frame.
pub const CONTROL_PACKET_BYTES: u64 = 64;
/// Wire size of a PFC pause/resume frame.
pub const PFC_FRAME_BYTES: u64 = 64;

/// A packet in flight or queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to (control packets reference the flow
    /// they steer; PFC frames use `FlowId(u64::MAX)`).
    pub flow: FlowId,
    /// Source host (for data) or the feedback origin's notion of the flow
    /// source (for control packets routed back).
    pub src: NodeId,
    /// Destination node this packet is routed toward.
    pub dst: NodeId,
    /// Packet kind and kind-specific headers.
    pub kind: PacketKind,
    /// ECN congestion-experienced mark (set by switches, DCQCN/DCQCN+PI).
    pub ecn: bool,
    /// In-band telemetry: on data, the hops switches stamped (when HPCC is
    /// active); on an ACK, the acked data packet's hops, echoed.
    pub int: IntStack,
    /// Time the packet was first transmitted by its origin.
    pub sent_at: SimTime,
}

impl Packet {
    /// Total bytes this packet occupies on the wire and in buffers.
    pub fn wire_bytes(&self) -> u64 {
        self.kind.wire_bytes(self.int.len())
    }

    /// True if this packet carries flow payload.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_packet(payload: u64) -> Packet {
        Packet {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Data {
                seq: 0,
                payload,
                last: false,
            },
            ecn: false,
            int: IntStack::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(data_packet(1000).wire_bytes(), 1048);
        let mut p = data_packet(1000);
        p.int.push(IntHop::default());
        p.int.push(IntHop::default());
        assert_eq!(p.wire_bytes(), 1048 + 2 + 16);
    }

    #[test]
    fn int_stack_capacity_is_bounded() {
        let mut s = IntStack::new();
        for i in 0..20 {
            s.push(IntHop {
                qlen_bytes: i,
                ..Default::default()
            });
        }
        assert_eq!(s.len(), MAX_INT_HOPS);
        assert_eq!(s.hops()[0].qlen_bytes, 0);
        assert_eq!(s.hops()[MAX_INT_HOPS - 1].qlen_bytes, MAX_INT_HOPS as u64 - 1);
    }

    #[test]
    fn control_classification() {
        assert!(PacketKind::DcqcnCnp.is_control());
        assert!(PacketKind::RoccCnp {
            fair_rate_units: 1,
            cp: CpId {
                node: NodeId(0),
                port: PortId(0)
            }
        }
        .is_control());
        assert!(!PacketKind::PfcPause.is_control());
        assert!(PacketKind::PfcPause.is_pfc());
        assert!(!data_packet(1).kind.is_control());
    }
}
