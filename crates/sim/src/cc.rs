//! Congestion-control integration points.
//!
//! The simulator is scheme-agnostic: a scheme supplies
//!
//! * a [`SwitchCc`] per switch egress port (the congestion point — it can
//!   mark ECN, stamp INT, run periodic timers, and emit feedback packets
//!   toward flow sources), and
//! * a [`HostCc`] per flow at the sender (the reaction point — it consumes
//!   ACK echoes and feedback packets and yields a rate and/or window).
//!
//! `rocc-core` implements RoCC on these traits; `rocc-baselines` implements
//! DCQCN, DCQCN+PI, QCN, TIMELY, and HPCC.
//!
//! Both traits require [`CcState`]: the controller's dynamic state as a
//! flat stream of `u64` words, which engine checkpoints carry. A
//! controller states its layout once, as the list of its dynamic fields
//! given to [`cc_state!`](crate::cc_state); that one list writes the
//! words and reads them back. Decoding is strict: a stream that ends
//! early, leaves words over, or holds a word its field cannot take (a
//! flag other than 0/1, an unknown tag, a non-zero fill) is a
//! [`CcStateError`], and a snapshot carrying one is refused.
//!
//! The word rules, per field type:
//!
//! * one word per scalar: `u32`/`u64`/`usize`/`i64` as the value, `bool`
//!   as 0/1, `f64` as its raw bits; [`BitRate`] as bps, [`SimTime`] and
//!   [`SimDuration`] as ns; [`NodeId`], [`PortId`], [`FlowId`] as their
//!   index; [`CpId`] as node, port;
//! * tuples and fixed arrays: their elements in order, no prefix;
//! * `Option<T>`: a 0/1 flag, then `T`'s words — zeros of the same width
//!   when `None`;
//! * `HashMap`/`BTreeMap`: an entry count, then key, value per entry in
//!   ascending key order (strictly ascending on decode).

use crate::packet::{CpId, FlowId, IntStack, PacketKind};
use crate::telemetry::{CcEvent, EventMask};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PortId};
use crate::units::BitRate;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

/// A value's layout in a congestion controller's snapshot word stream
/// (module docs: the word rules). Implemented for the field types
/// controllers hold; a controller or a struct inside one implements it
/// with [`cc_state!`](crate::cc_state), naming its dynamic fields once.
pub trait CcState {
    /// Append this value's words.
    fn snapshot_state(&self, out: &mut Vec<u64>);

    /// Overwrite this value from the next words of `r`, as
    /// [`CcState::snapshot_state`] wrote them on an identically
    /// configured value. On `Err` the value is partly overwritten and
    /// must be restored again or dropped.
    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError>;
}

/// Implement [`CcState`] for a struct as the listed fields, in order.
/// List the dynamic fields only: what is fixed at construction
/// (parameters, line rate, identity) is rebuilt by the factory, not
/// carried. A controller with no dynamic state says so with an empty
/// list, `cc_state!(MyCc {})`.
///
/// ```
/// use rocc_sim::prelude::{BitRate, SimTime};
///
/// struct Rp {
///     line_rate: BitRate, // configuration
///     rate: BitRate,
///     last_cut: Option<SimTime>,
/// }
/// rocc_sim::cc_state!(Rp { rate, last_cut });
/// ```
#[macro_export]
macro_rules! cc_state {
    ($t:ty { $($f:tt),* $(,)? }) => {
        impl $crate::cc::CcState for $t {
            #[inline]
            #[allow(unused_variables)]
            fn snapshot_state(&self, out: &mut ::std::vec::Vec<u64>) {
                $($crate::cc::CcState::snapshot_state(&self.$f, out);)*
            }

            #[inline]
            #[allow(unused_variables)]
            fn restore_state(
                &mut self,
                r: &mut $crate::cc::CcReader<'_>,
            ) -> ::core::result::Result<(), $crate::cc::CcStateError> {
                $($crate::cc::CcState::restore_state(&mut self.$f, r)?;)*
                Ok(())
            }
        }
    };
}

pub use crate::cc_state;

/// Why a controller's words did not decode; the text names the rule
/// broken. The engine reports it as
/// [`crate::snapshot::SnapshotError::Malformed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcStateError(pub &'static str);

/// Sequential reader over a controller's words.
#[derive(Debug)]
pub struct CcReader<'a> {
    words: &'a [u64],
    at: usize,
}

impl<'a> CcReader<'a> {
    /// Read from the start of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        CcReader { words, at: 0 }
    }

    /// The next word.
    #[inline]
    pub fn word(&mut self) -> Result<u64, CcStateError> {
        let w = *self
            .words
            .get(self.at)
            .ok_or(CcStateError("cc state: stream ends inside a value"))?;
        self.at += 1;
        Ok(w)
    }

    /// The next value of type `T`, decoded into `T::default()`.
    #[inline]
    pub fn get<T: CcState + Default>(&mut self) -> Result<T, CcStateError> {
        let mut v = T::default();
        v.restore_state(self)?;
        Ok(v)
    }
}

/// Overwrite `state` from exactly `words`: every word read, none left.
pub fn restore_words<T: CcState + ?Sized>(
    state: &mut T,
    words: &[u64],
) -> Result<(), CcStateError> {
    let mut r = CcReader::new(words);
    state.restore_state(&mut r)?;
    if r.at < words.len() {
        return Err(CcStateError("cc state: words left over"));
    }
    Ok(())
}

/// One word each: `$to` maps `x` to its word, `$from` maps word `w`
/// back (returning early on a word the type cannot take).
macro_rules! word_state {
    ($($t:ty: |$x:ident| $to:expr, |$w:ident| $from:expr;)*) => {$(
        impl CcState for $t {
            #[inline]
            fn snapshot_state(&self, out: &mut Vec<u64>) {
                let $x = *self;
                out.push($to);
            }

            #[inline]
            fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
                let $w = r.word()?;
                *self = $from;
                Ok(())
            }
        }
    )*};
}

const OUT_OF_RANGE: CcStateError = CcStateError("cc state: integer out of range");

word_state! {
    u64: |x| x, |w| w;
    u32: |x| x.into(), |w| w.try_into().map_err(|_| OUT_OF_RANGE)?;
    usize: |x| x as u64, |w| w.try_into().map_err(|_| OUT_OF_RANGE)?;
    i64: |x| x as u64, |w| w as i64;
    f64: |x| x.to_bits(), |w| f64::from_bits(w);
    bool: |x| x.into(), |w| match w {
        0 => false,
        1 => true,
        _ => return Err(CcStateError("cc state: flag not 0/1")),
    };
    BitRate: |x| x.as_bps(), |w| BitRate::from_bps(w);
    SimTime: |x| x.as_nanos(), |w| SimTime::from_nanos(w);
    SimDuration: |x| x.as_nanos(), |w| SimDuration::from_nanos(w);
    NodeId: |x| x.0 as u64, |w| NodeId(w.try_into().map_err(|_| OUT_OF_RANGE)?);
    PortId: |x| x.0 as u64, |w| PortId(w.try_into().map_err(|_| OUT_OF_RANGE)?);
    FlowId: |x| x.0, |w| FlowId(w);
}

cc_state!(CpId { node, port });

impl<A: CcState, B: CcState> CcState for (A, B) {
    #[inline]
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        self.0.snapshot_state(out);
        self.1.snapshot_state(out);
    }

    #[inline]
    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        self.0.restore_state(r)?;
        self.1.restore_state(r)
    }
}

impl<T: CcState, const N: usize> CcState for [T; N] {
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        self.iter().for_each(|v| v.snapshot_state(out));
    }

    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        self.iter_mut().try_for_each(|v| v.restore_state(r))
    }
}

impl<T: CcState + Default> CcState for Option<T> {
    #[inline]
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        out.push(self.is_some().into());
        match self {
            Some(v) => v.snapshot_state(out),
            None => {
                // Zeros as wide as a `T`.
                let at = out.len();
                T::default().snapshot_state(out);
                out[at..].fill(0);
            }
        }
    }

    #[inline]
    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        if r.get::<bool>()? {
            return self.get_or_insert_with(T::default).restore_state(r);
        }
        let at = r.at;
        r.get::<T>()?;
        if r.words[at..r.at].iter().any(|&w| w != 0) {
            return Err(CcStateError("cc state: non-zero fill after a None flag"));
        }
        *self = None;
        Ok(())
    }
}

impl<T: CcState + ?Sized> CcState for Box<T> {
    #[inline]
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        (**self).snapshot_state(out);
    }

    #[inline]
    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        (**self).restore_state(r)
    }
}

/// The map rule: count, then entries in ascending key order.
fn put_map<'a, K: CcState + 'a, V: CcState + 'a>(
    out: &mut Vec<u64>,
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) {
    entries.len().snapshot_state(out);
    for (k, v) in entries {
        k.snapshot_state(out);
        v.snapshot_state(out);
    }
}

/// Decode the map rule, handing each entry to `insert`; keys must ascend.
fn restore_map<K, V>(
    r: &mut CcReader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), CcStateError>
where
    K: CcState + Default + Ord + Copy,
    V: CcState + Default,
{
    let mut last = None;
    for _ in 0..r.get::<usize>()? {
        let k: K = r.get()?;
        if last.is_some_and(|l| l >= k) {
            return Err(CcStateError("cc state: map keys not ascending"));
        }
        last = Some(k);
        insert(k, r.get()?);
    }
    Ok(())
}

impl<K, V, S> CcState for HashMap<K, V, S>
where
    K: CcState + Default + Ord + Copy + Hash,
    V: CcState + Default,
    S: BuildHasher,
{
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| *k);
        put_map(out, entries.into_iter());
    }

    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        self.clear();
        restore_map(r, |k, v| {
            self.insert(k, v);
        })
    }
}

impl<K, V> CcState for BTreeMap<K, V>
where
    K: CcState + Default + Ord + Copy,
    V: CcState + Default,
{
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        put_map(out, self.iter());
    }

    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        self.clear();
        restore_map(r, |k, v| {
            self.insert(k, v);
        })
    }
}

/// A feedback packet a switch CC wants sent to a flow's source.
#[derive(Debug, Clone)]
pub struct CtrlEmit {
    /// The flow being steered.
    pub flow: FlowId,
    /// The flow's source host (feedback destination).
    pub to: NodeId,
    /// Feedback payload; must be `RoccCnp` or `QcnFb`.
    pub kind: PacketKind,
}

/// Context handed to [`SwitchCc`] callbacks.
pub struct SwitchCcCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Identity of this congestion point.
    pub cp: CpId,
    /// Data-queue occupancy in bytes (excludes the control queue).
    pub qlen_bytes: u64,
    /// Egress line rate.
    pub link_rate: BitRate,
    /// Cumulative bytes transmitted by this port.
    pub tx_bytes: u64,
    /// Deterministic per-run RNG (for probabilistic marking/sampling).
    pub rng: &'a mut StdRng,
    /// Feedback packets to inject; drained and routed by the switch.
    pub emits: Vec<CtrlEmit>,
    /// Decision events buffered by the scheme; drained by the engine and
    /// wrapped into full [`crate::telemetry::SimEvent`]s. Empty `Vec` does
    /// not allocate, so the disabled path stays free.
    pub events: Vec<CcEvent>,
    /// Telemetry classes the run cares about; schemes test this via
    /// [`SwitchCcCtx::wants`] before constructing an event.
    pub event_mask: EventMask,
}

impl SwitchCcCtx<'_> {
    /// True if the run wants events of this class buffered.
    #[inline]
    pub fn wants(&self, class: EventMask) -> bool {
        self.event_mask.intersects(class)
    }
}

/// Per-packet metadata visible to switch CC hooks.
#[derive(Debug, Clone, Copy)]
pub struct PacketMeta {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Source host of the flow (where feedback would be sent).
    pub src: NodeId,
    /// Wire size in bytes.
    pub wire_bytes: u64,
}

/// Switch-side congestion control, instantiated once per egress port.
/// Its [`CcState`] is what engine checkpoints carry of it.
#[allow(unused_variables)]
pub trait SwitchCc: CcState {
    /// If `Some(p)`, the engine invokes [`SwitchCc::on_timer`] every `p`.
    /// RoCC's CP computes the fair rate on this timer (T = 40 µs).
    fn timer_period(&self) -> Option<SimDuration> {
        None
    }

    /// Periodic tick; emit feedback via `ctx.emits`.
    fn on_timer(&mut self, ctx: &mut SwitchCcCtx<'_>) {}

    /// A data packet was appended to the egress queue. `qlen_bytes` in `ctx`
    /// includes the arriving packet. Return `true` to ECN-mark the packet.
    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        false
    }

    /// A data packet is leaving the egress queue (serialization begins).
    /// `qlen_bytes` excludes the departing packet. Return an
    /// [`crate::packet::IntHop`]
    /// record to stamp onto the packet, if the scheme uses INT.
    fn on_dequeue(
        &mut self,
        ctx: &mut SwitchCcCtx<'_>,
        pkt: PacketMeta,
    ) -> Option<crate::packet::IntHop> {
        None
    }
}

/// A [`SwitchCc`] that does nothing (plain drop-tail/PFC switch).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSwitchCc;

impl SwitchCc for NullSwitchCc {}

// No state at all.
cc_state!(NullSwitchCc {});

/// Creates a [`SwitchCc`] per congestion point.
pub trait SwitchCcFactory {
    /// Instantiate the per-port controller; `link_rate` is the egress line
    /// rate (schemes derive Fmax, thresholds, and gains from it).
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc>;
}

/// Factory for [`NullSwitchCc`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSwitchCcFactory;

impl SwitchCcFactory for NullSwitchCcFactory {
    fn make(&self, _cp: CpId, _link_rate: BitRate) -> Box<dyn SwitchCc> {
        Box::new(NullSwitchCc)
    }
}

/// Feedback delivered to a sender's reaction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackEvent {
    /// RoCC CNP: fair rate in wire units (multiples of ΔF; the RoCC RP
    /// scales by ΔF, Alg. 2 line 2) plus the originating congestion point.
    RoccCnp {
        /// Fair rate in multiples of ΔF, exactly as carried on the wire.
        fair_rate_units: u32,
        /// Congestion point that generated the CNP.
        cp: CpId,
    },
    /// RoCC queue report (§3.6 host-side rate computation): raw queue
    /// depth and the CP's Fmax, both in wire units.
    RoccQueueReport {
        /// Queue depth in multiples of ΔQ.
        q_cur_units: u32,
        /// CP's Fmax in multiples of ΔF.
        f_max_units: u32,
        /// Originating congestion point.
        cp: CpId,
    },
    /// DCQCN CNP (congestion seen; no rate carried).
    DcqcnCnp,
    /// QCN feedback with quantized congestion measure Fb.
    QcnFb {
        /// Quantized feedback (0..=63).
        fb: u8,
        /// Originating congestion point.
        cp: CpId,
    },
}

/// ACK information delivered to a sender's congestion control.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Bytes newly acknowledged by this ACK (0 for duplicates).
    pub newly_acked: u64,
    /// Cumulative acked sequence number.
    pub cum_seq: u64,
    /// Measured round-trip time of the acked packet.
    pub rtt: SimDuration,
    /// ECN congestion-experienced echo from the receiver.
    pub ecn_echo: bool,
    /// Echoed in-band telemetry (HPCC).
    pub int: IntStack,
}

/// Context handed to [`HostCc`] callbacks.
pub struct HostCcCtx {
    /// Current simulation time.
    pub now: SimTime,
    /// NIC line rate (the usual Rmax).
    pub link_rate: BitRate,
    /// Timer (re)arm requests: `(token, delay)` — replaces any pending timer
    /// with the same token (i.e., arming is also a reset).
    pub set_timers: Vec<(u8, SimDuration)>,
    /// Timer cancellation requests by token.
    pub cancel_timers: Vec<u8>,
    /// Decision events buffered by the scheme; drained by the engine and
    /// wrapped into full [`crate::telemetry::SimEvent`]s.
    pub events: Vec<CcEvent>,
    /// Telemetry classes the run cares about; schemes test this via
    /// [`HostCcCtx::wants`] before constructing an event.
    pub event_mask: EventMask,
}

impl HostCcCtx {
    /// Arm (or reset) the timer identified by `token` to fire after `d`.
    /// Tokens are `0..`[`crate::host::TIMER_SLOTS`]; the host panics on
    /// any other.
    pub fn set_timer(&mut self, token: u8, d: SimDuration) {
        self.set_timers.push((token, d));
    }

    /// Cancel the pending timer identified by `token`, if any.
    pub fn cancel_timer(&mut self, token: u8) {
        self.cancel_timers.push(token);
    }

    /// True if the run wants events of this class buffered.
    #[inline]
    pub fn wants(&self, class: EventMask) -> bool {
        self.event_mask.intersects(class)
    }
}

/// What the sender is currently allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateDecision {
    /// Pacing rate; packets are spaced at `wire_bytes / rate`.
    pub rate: BitRate,
    /// Optional in-flight byte cap (window-based schemes like HPCC).
    pub window_bytes: Option<u64>,
}

impl RateDecision {
    /// Unthrottled: line rate, no window.
    pub fn line_rate(rate: BitRate) -> Self {
        RateDecision {
            rate,
            window_bytes: None,
        }
    }
}

/// Sender-side congestion control, instantiated once per flow.
/// Its [`CcState`] is what engine checkpoints carry of it.
#[allow(unused_variables)]
pub trait HostCc: CcState {
    /// Current sending constraint; consulted whenever the NIC schedules the
    /// flow's next packet.
    fn decision(&self) -> RateDecision;

    /// Switch- or receiver-originated feedback arrived (after the RP
    /// feedback delay).
    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: FeedbackEvent) {}

    /// An ACK for this flow arrived.
    fn on_ack(&mut self, ctx: &mut HostCcCtx, ack: AckEvent) {}

    /// A timer armed via [`HostCcCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {}

    /// The hard `(min, max)` bounds this controller promises its rate stays
    /// within, if it makes such a promise. The invariant sanitizer audits
    /// `min ≤ decision().rate ≤ max` whenever this returns `Some`; `None`
    /// (the default) skips the audit for schemes without declared bounds.
    fn rate_bounds(&self) -> Option<(BitRate, BitRate)> {
        None
    }
}

/// A [`HostCc`] that always sends at line rate (no congestion control).
#[derive(Debug, Clone, Copy)]
pub struct NullHostCc {
    rate: BitRate,
}

impl NullHostCc {
    /// Send at the given fixed rate.
    pub fn new(rate: BitRate) -> Self {
        NullHostCc { rate }
    }
}

impl HostCc for NullHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rate)
    }
}

// `rate` is configuration, fixed at construction: no dynamic state.
cc_state!(NullHostCc {});

/// Creates a [`HostCc`] per flow.
pub trait HostCcFactory {
    /// Instantiate the per-flow controller; `link_rate` is the sender NIC
    /// line rate.
    fn make(&self, flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc>;
}

/// Factory for [`NullHostCc`] (flows run at line rate).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHostCcFactory;

impl HostCcFactory for NullHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(NullHostCc::new(link_rate))
    }
}

/// A fixed-rate host CC factory, useful for open-loop traffic (e.g., the
/// DPDK validation scenario drives iPerf-like senders at set offered rates).
#[derive(Debug, Clone)]
pub struct FixedRateFactory {
    rates: Vec<(FlowId, BitRate)>,
    default: Option<BitRate>,
}

impl FixedRateFactory {
    /// Flows listed in `rates` get their specific rate; all others get
    /// `default` (or line rate when `None`).
    pub fn new(rates: Vec<(FlowId, BitRate)>, default: Option<BitRate>) -> Self {
        FixedRateFactory { rates, default }
    }
}

impl HostCcFactory for FixedRateFactory {
    fn make(&self, flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        let rate = self
            .rates
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, r)| *r)
            .or(self.default)
            .unwrap_or(link_rate);
        Box::new(NullHostCc::new(rate.min(link_rate)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field per word rule.
    #[derive(Debug, Default, PartialEq)]
    struct Every {
        n: u32,
        on: bool,
        x: f64,
        cp: Option<CpId>,
        seen: Option<SimTime>,
        pair: (BitRate, SimDuration),
        arr: [u64; 2],
        table: HashMap<FlowId, (u32, NodeId)>,
        tree: BTreeMap<FlowId, PortId>,
    }

    crate::cc_state!(Every { n, on, x, cp, seen, pair, arr, table, tree });

    fn every() -> Every {
        Every {
            n: 7,
            on: true,
            x: 0.5,
            cp: Some(CpId { node: NodeId(3), port: PortId(1) }),
            seen: None,
            pair: (BitRate::from_gbps(1), SimDuration::from_nanos(40)),
            arr: [9, 10],
            table: [(FlowId(5), (2, NodeId(4))), (FlowId(1), (1, NodeId(8)))].into(),
            tree: [(FlowId(2), PortId(6))].into(),
        }
    }

    fn words() -> Vec<u64> {
        let mut w = Vec::new();
        every().snapshot_state(&mut w);
        w
    }

    #[test]
    fn cc_words_follow_the_rules_and_round_trip() {
        #[rustfmt::skip]
        let expect = [
            7, 1, 0.5f64.to_bits(),
            1, 3, 1,                // Some(cp): flag, node, port
            0, 0,                   // None: flag, zero fill
            1_000_000_000, 40,      // bps, ns
            9, 10,                  // array, no prefix
            2, 1, 1, 8, 5, 2, 4,    // count, then entries by key
            1, 2, 6,
        ];
        assert_eq!(words(), expect);
        let mut back = Every::default();
        restore_words(&mut back, &words()).unwrap();
        assert_eq!(back, every());
    }

    #[test]
    fn cc_words_refuse_what_a_field_cannot_take() {
        let with = |i: usize, v: u64| {
            let mut w = words();
            w[i] = v;
            restore_words(&mut Every::default(), &w).map_err(|e| e.0)
        };
        assert_eq!(with(0, 1 << 32), Err("cc state: integer out of range"));
        assert_eq!(with(1, 2), Err("cc state: flag not 0/1"));
        assert_eq!(with(3, 2), Err("cc state: flag not 0/1"));
        assert_eq!(with(7, 5), Err("cc state: non-zero fill after a None flag"));
        assert_eq!(with(16, 1), Err("cc state: map keys not ascending"));
        let w = words();
        let short = restore_words(&mut Every::default(), &w[..w.len() - 1]);
        assert_eq!(short, Err(CcStateError("cc state: stream ends inside a value")));
        let long = [&w[..], &[0]].concat();
        let long = restore_words(&mut Every::default(), &long);
        assert_eq!(long, Err(CcStateError("cc state: words left over")));
    }

    #[test]
    fn null_host_cc_is_line_rate() {
        let cc = NullHostCc::new(BitRate::from_gbps(40));
        assert_eq!(
            cc.decision(),
            RateDecision {
                rate: BitRate::from_gbps(40),
                window_bytes: None
            }
        );
    }

    #[test]
    fn fixed_rate_factory_assigns_rates() {
        let f = FixedRateFactory::new(
            vec![(FlowId(1), BitRate::from_gbps(3))],
            Some(BitRate::from_gbps(10)),
        );
        let line = BitRate::from_gbps(10);
        assert_eq!(f.make(FlowId(1), line).decision().rate, BitRate::from_gbps(3));
        assert_eq!(f.make(FlowId(2), line).decision().rate, BitRate::from_gbps(10));
    }

    #[test]
    fn ctx_timer_requests_accumulate() {
        let mut ctx = HostCcCtx {
            now: SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: EventMask::NONE,
        };
        ctx.set_timer(0, SimDuration::from_micros(100));
        ctx.set_timer(1, SimDuration::from_micros(50));
        ctx.cancel_timer(0);
        assert_eq!(ctx.set_timers.len(), 2);
        assert_eq!(ctx.cancel_timers, vec![0]);
    }
}
