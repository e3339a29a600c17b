//! Mechanism vectors: tiny scripted scenarios whose timelines are derived
//! by hand in each test's doc comment and asserted to the nanosecond.
//!
//! Every scenario uses `mtu_payload = 952`, so a full data frame is
//! 48 + 952 = 1,000 wire bytes; control frames (ACKs, CNPs) and PFC frames
//! are 64 bytes. Serialization times follow `BitRate::serialization_time`
//! (ceiling nanoseconds): a 1,000-byte frame takes 1,000 ns at 8 Gb/s,
//! 500 ns at 16 Gb/s, 400 ns at 20 Gb/s and 320 ns at 25 Gb/s; a 64-byte
//! frame takes 64, 26 (25.6) and 21 (20.48) ns at 8, 20 and 25 Gb/s.
//!
//! Observables are read as of the *end* of each nanosecond (after every
//! event at that instant has run), so a vector pins what the model does
//! at an instant, not the order in which same-instant events happen to be
//! dispatched. Unless a vector says otherwise, hosts send at line rate
//! (`NullHostCcFactory`) and switches run no congestion control.

use rocc_sim::host::SenderAudit;
use rocc_sim::prelude::*;

/// Payload that makes a full data frame exactly 1,000 wire bytes.
const PAYLOAD: u64 = 952;

fn ns(t: u64) -> SimDuration {
    SimDuration::from_nanos(t)
}

fn config(xoff: u64) -> SimConfig {
    SimConfig {
        mtu_payload: PAYLOAD,
        pfc: PfcConfig {
            xoff_40g: xoff,
            xoff_100g: xoff,
            resume_frac: 0.5,
        },
        ..SimConfig::default()
    }
}

fn flow(id: u64, src: NodeId, dst: NodeId, frames: u64, start_ns: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(id),
        src,
        dst,
        size: frames * PAYLOAD,
        start: SimTime::from_nanos(start_ns),
        offered: None,
    }
}

/// A probe reads one number from the simulation.
type Probe<'a> = Box<dyn Fn(&Sim) -> u64 + 'a>;

/// Run `sim` one nanosecond at a time through `end_ns` and return, per
/// probe, every `(instant, new value)` at which the value as of the end of
/// that instant differs from the one before it.
fn timelines(sim: &mut Sim, end_ns: u64, probes: &[Probe<'_>]) -> Vec<Vec<(u64, u64)>> {
    let mut last: Vec<u64> = probes.iter().map(|p| p(sim)).collect();
    let mut out = vec![Vec::new(); probes.len()];
    for t in 0..=end_ns {
        sim.run_until(SimTime::from_nanos(t));
        for (i, p) in probes.iter().enumerate() {
            let v = p(sim);
            if v != last[i] {
                out[i].push((t, v));
                last[i] = v;
            }
        }
    }
    out
}

/// Bytes `host` has received in order on `flow`.
fn received<'a>(host: NodeId, flow: u64) -> Probe<'a> {
    Box::new(move |s: &Sim| s.host(host).audit_receiver(FlowId(flow)).map_or(0, |r| r.expected))
}

/// `(instant, PAYLOAD × k)` for receipts at `t0 + step × (k - 1)`.
fn receipts(t0: u64, step: u64, frames: u64) -> Vec<(u64, u64)> {
    (1..=frames).map(|k| (t0 + step * (k - 1), PAYLOAD * k)).collect()
}

/// **A back-to-back train through one switch.** `h0 —8 Gb/s, 500 ns— sw
/// —8 Gb/s, 500 ns— h1`, one flow of four full frames at t = 0.
///
/// - h0 serializes frame k over [1000k, 1000k + 1000] and it reaches sw at
///   1000k + 1500.
/// - sw's egress starts frame 0 at 1500 and is busy until 2500. Frame 1
///   arrives at 2500: exactly when the port becomes free. A port is free
///   from `busy_until` on, so frame 1 starts at once; so does every later
///   frame. Frame k leaves sw over [1000k + 1500, 1000k + 2500].
/// - h1 receives frame k at 1000k + 3000: 3000, 4000, 5000, 6000.
///
/// **The same train into a backlog.** With h0's link at 16 Gb/s, frame k
/// is serialized over [500k, 500k + 500] and reaches sw at 500k + 1000.
/// The 8 Gb/s egress starts frame 0 at 1000 and then runs back to back:
/// frame k leaves over [1000k + 1000, 1000k + 2000], whatever order the
/// frames arriving at 2000 and 3000 and the port freeing at that instant
/// are taken in, because the data queue is FIFO. h1 receives frame k at
/// 1000k + 2500: 2500, 3500, 4500, 5500.
#[test]
fn back_to_back_train_through_one_switch() {
    for (in_gbps, first, end) in [(8, 3_000, 8_000), (16, 2_500, 8_000)] {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        b.connect(h0, sw, BitRate::from_gbps(in_gbps), ns(500));
        b.connect(sw, h1, BitRate::from_gbps(8), ns(500));
        let mut sim = Sim::new(b.build(), config(kb(500)), Box::new(NullHostCcFactory), Box::new(NullSwitchCcFactory));
        sim.add_flow(flow(0, h0, h1, 4, 0));
        let got = timelines(&mut sim, end, &[received(h1, 0)]);
        assert_eq!(got[0], receipts(first, 1_000, 4), "{in_gbps} Gb/s into 8 Gb/s");
        let fct = &sim.trace.fcts[0];
        assert_eq!((fct.start.as_nanos(), fct.end.as_nanos()), (0, first + 3_000));
    }
}

/// **A PFC PAUSE landing mid-serialization at a switch port.**
/// `h0 —20 Gb/s, 100 ns— sw0 —20 Gb/s, 150 ns— sw1 —8 Gb/s, 100 ns— h1`,
/// XOFF 1,500 B, XON 750 B, one flow of six full frames at t = 0.
///
/// - h0 serializes frame k over [400k, 400k + 400]; it reaches sw0 at
///   400k + 500. sw0's egress to sw1 runs at the same rate, so while it is
///   not paused it sends frame k over [400k + 500, 400k + 900] and frame k
///   reaches sw1 at 400k + 1050: frames 0–3 at 1050, 1450, 1850, 2250.
/// - sw1 sends frame 0 over [1050, 2050] at once. Frames 1 and 2 queue:
///   sw1's bytes buffered for its ingress from sw0 reach 1000 at 1450 and
///   2000 at 1850. 2000 > 1500, so sw1 sends XOFF at 1850. The PAUSE frame
///   takes 26 ns on the wire plus 150 ns, and lands on sw0 at 2026.
/// - At 2026 sw0 is serializing frame 3 (1700–2100). That frame finishes
///   and reaches sw1 at 2250. Frame 4 reaches sw0 at 2100 and waits: sw0's
///   data queue toward sw1 holds 1000 B from 2100, and 2000 B once frame 5
///   arrives at 2500.
/// - sw0's own ingress from h0 then holds 2000 B > 1500, so sw0 PAUSEs h0
///   at 2500; that lands at 2500 + 26 + 100 = 2626. h0 has nothing left to
///   send (its last frame ended at 2400).
/// - sw1 starts frame 1 at 2050 (buffered 1000), frame 3 arrives at 2250
///   (2000), frame 2 starts at 3050 (1000) and frame 3 at 4050 (0 < 750):
///   sw1 sends XON at 4050, landing on sw0 at 4226.
/// - sw0 starts frame 4 at 4226 (its queue falls to 1000) and frame 5 at
///   4626 (0). Its ingress from h0 falls below 750 at 4626: XON to h0,
///   landing at 4752.
/// - Frame 4 reaches sw1 at 4776 and frame 5 at 5176. sw1 sends them over
///   [5050, 6050] and [6050, 7050]. Its buffered bytes go 1000 at 4776, 0
///   at 5050, 1000 at 5176, 0 at 6050.
/// - h1 receives frame k at 2150, 3150, 4150, 5150, 6150, 7150.
#[test]
fn pfc_pause_lands_mid_serialization() {
    let mut b = TopologyBuilder::new();
    let sw0 = b.add_switch("sw0", NodeRole::Switch);
    let sw1 = b.add_switch("sw1", NodeRole::Switch);
    let h0 = b.add_host("h0");
    let h1 = b.add_host("h1");
    let (_, sw0_from_h0) = b.connect(h0, sw0, BitRate::from_gbps(20), ns(100));
    let (sw0_to_sw1, sw1_from_sw0) = b.connect(sw0, sw1, BitRate::from_gbps(20), ns(150));
    b.connect(sw1, h1, BitRate::from_gbps(8), ns(100));
    let mut sim = Sim::new(b.build(), config(1_500), Box::new(NullHostCcFactory), Box::new(NullSwitchCcFactory));
    sim.add_flow(flow(0, h0, h1, 6, 0));
    let got = timelines(
        &mut sim,
        9_000,
        &[
            received(h1, 0),
            Box::new(move |s: &Sim| s.switch(sw0).port(sw0_to_sw1).is_paused() as u64),
            Box::new(move |s: &Sim| s.switch(sw0).port(sw0_to_sw1).qlen_bytes()),
            Box::new(move |s: &Sim| s.switch(sw1).ingress_buffered(sw1_from_sw0)),
            Box::new(move |s: &Sim| s.switch(sw1).sent_xoff(sw1_from_sw0) as u64),
            Box::new(move |s: &Sim| s.switch(sw0).sent_xoff(sw0_from_h0) as u64),
            Box::new(move |s: &Sim| s.host(h0).is_paused() as u64),
        ],
    );
    assert_eq!(got[0], receipts(2_150, 1_000, 6), "receipts at h1");
    assert_eq!(got[1], [(2_026, 1), (4_226, 0)], "sw0 → sw1 paused");
    assert_eq!(got[2], [(2_100, 1_000), (2_500, 2_000), (4_226, 1_000), (4_626, 0)], "sw0 → sw1 data queue");
    let sw1_buffered = [
        (1_450, 1_000),
        (1_850, 2_000),
        (2_050, 1_000),
        (2_250, 2_000),
        (3_050, 1_000),
        (4_050, 0),
        (4_776, 1_000),
        (5_050, 0),
        (5_176, 1_000),
        (6_050, 0),
    ];
    assert_eq!(got[3], sw1_buffered, "sw1 buffered for its ingress from sw0");
    assert_eq!(got[4], [(1_850, 1), (4_050, 0)], "sw1 XOFF toward sw0");
    assert_eq!(got[5], [(2_500, 1), (4_626, 0)], "sw0 XOFF toward h0");
    assert_eq!(got[6], [(2_626, 1), (4_752, 0)], "h0 paused");
}

/// Emits one CNP addressed to `to` when its port sees its `nth` data
/// enqueue (`nth = 0`: never).
struct CnpOnEnqueue {
    nth: u32,
    seen: u32,
    to: NodeId,
}

// `nth` and `to` are configuration.
rocc_sim::cc_state!(CnpOnEnqueue { seen });

impl SwitchCc for CnpOnEnqueue {
    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        self.seen += 1;
        if self.seen == self.nth {
            let kind = PacketKind::RoccCnp { fair_rate_units: 1, cp: ctx.cp };
            ctx.emits.push(CtrlEmit { flow: pkt.flow, to: self.to, kind });
        }
        false
    }
}

/// Arms [`CnpOnEnqueue`] on one egress port only.
struct CnpAt {
    cp: CpId,
    nth: u32,
    to: NodeId,
}

impl SwitchCcFactory for CnpAt {
    fn make(&self, cp: CpId, _link_rate: BitRate) -> Box<dyn SwitchCc> {
        let nth = if cp == self.cp { self.nth } else { 0 };
        Box::new(CnpOnEnqueue { nth, seen: 0, to: self.to })
    }
}

/// **A CNP overtaking queued data at a busy port.** Hosts a, b, c on one
/// switch, every link 8 Gb/s and 100 ns. Flows b → a and c → a of three
/// full frames each start at 0 and 1 ns. The CC on sw's port toward a
/// emits a CNP addressed to a on its fourth data enqueue.
///
/// - b's frame k reaches sw at 1000k + 1100 and c's at 1000k + 1101, so
///   the port toward a enqueues b0, c0, b1, c1, … in that order.
/// - The port sends b0 over [1100, 2100] and c0 over [2100, 3100]. b1
///   (2100) and c1 (2101) queue behind c0.
/// - c1 is the fourth enqueue: the CNP is queued at 2101 on the control
///   class. When c0 ends at 3100 it goes first, over [3100, 3164], ahead
///   of b1 and c1, which were queued before it.
/// - b1 then goes over [3164, 4164], c1 [4164, 5164], b2 [5164, 6164] and
///   c2 [6164, 7164].
/// - a receives b's frames at 2200, 4264, 6264 and c's at 3200, 5264,
///   7264: every frame behind the CNP is 64 ns late.
#[test]
fn cnp_overtakes_queued_data_at_a_busy_port() {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let a = b.add_host("a");
    let hb = b.add_host("b");
    let hc = b.add_host("c");
    let (to_a, _) = b.connect(sw, a, BitRate::from_gbps(8), ns(100));
    b.connect(hb, sw, BitRate::from_gbps(8), ns(100));
    b.connect(hc, sw, BitRate::from_gbps(8), ns(100));
    let cnp = CnpAt { cp: CpId { node: sw, port: to_a }, nth: 4, to: a };
    let mut sim = Sim::new(b.build(), config(kb(500)), Box::new(NullHostCcFactory), Box::new(cnp));
    sim.add_flow(flow(0, hb, a, 3, 0));
    sim.add_flow(flow(1, hc, a, 3, 1));
    let emitted = |s: &Sim| s.trace.ctrl_emitted;
    let got = timelines(&mut sim, 9_000, &[received(a, 0), received(a, 1), Box::new(emitted)]);
    assert_eq!(got[0], [(2_200, PAYLOAD), (4_264, 2 * PAYLOAD), (6_264, 3 * PAYLOAD)], "b → a");
    assert_eq!(got[1], [(3_200, PAYLOAD), (5_264, 2 * PAYLOAD), (7_264, 3 * PAYLOAD)], "c → a");
    assert_eq!(got[2], [(2_101, 1)], "CNP emitted");
}

/// **An XOFF → XON round trip between a switch and a host.**
/// `s0 —25 Gb/s, 100 ns— sw —8 Gb/s, 100 ns— r`, XOFF 2,500 B, XON
/// 1,250 B, one flow of six full frames at t = 0.
///
/// - s0 serializes frame k over [320k, 320k + 320]; it reaches sw at
///   320k + 420: 420, 740, 1060, 1380, 1700 for frames 0–4.
/// - sw sends frame 0 over [420, 1420] at once; frames 1–3 queue, and
///   what sw buffers for s0 reaches 1000, 2000 and 3000 at 740, 1060 and
///   1380. 3000 > 2500: XOFF at 1380. The PAUSE frame takes 21 ns plus
///   100 ns and lands on s0 at 1501.
/// - s0 is then serializing frame 4 (1280–1600). It finishes, frame 4
///   reaches sw at 1700 (buffered 3000 again after frame 1 started at
///   1420 and took it to 2000), and frame 5 waits in s0.
/// - sw starts frame 2 at 2420 (2000) and frame 3 at 3420 (1000 < 1250):
///   XON at 3420, landing on s0 at 3541. s0 was paused over [1501, 3541).
/// - s0 sends frame 5 over [3541, 3861]; it reaches sw at 3961 (2000).
///   sw starts frame 4 at 4420 (1000) and frame 5 at 5420 (0).
/// - r receives frame k when sw's serialization of it ends plus 100 ns:
///   1520, 2520, 3520, 4520, 5520, 6520.
#[test]
fn xoff_xon_round_trip() {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let s0 = b.add_host("s0");
    let r = b.add_host("r");
    let (_, from_s0) = b.connect(s0, sw, BitRate::from_gbps(25), ns(100));
    b.connect(sw, r, BitRate::from_gbps(8), ns(100));
    let mut sim = Sim::new(b.build(), config(2_500), Box::new(NullHostCcFactory), Box::new(NullSwitchCcFactory));
    sim.add_flow(flow(0, s0, r, 6, 0));
    let got = timelines(
        &mut sim,
        9_000,
        &[
            received(r, 0),
            Box::new(move |s: &Sim| s.switch(sw).ingress_buffered(from_s0)),
            Box::new(move |s: &Sim| s.switch(sw).sent_xoff(from_s0) as u64),
            Box::new(move |s: &Sim| s.host(s0).is_paused() as u64),
        ],
    );
    assert_eq!(got[0], receipts(1_520, 1_000, 6), "receipts at r");
    let buffered = [
        (740, 1_000),
        (1_060, 2_000),
        (1_380, 3_000),
        (1_420, 2_000),
        (1_700, 3_000),
        (2_420, 2_000),
        (3_420, 1_000),
        (3_961, 2_000),
        (4_420, 1_000),
        (5_420, 0),
    ];
    assert_eq!(got[1], buffered, "sw buffered for s0");
    assert_eq!(got[2], [(1_380, 1), (3_420, 0)], "sw XOFF toward s0");
    assert_eq!(got[3], [(1_501, 1), (3_541, 0)], "s0 paused");
    let pauses: Vec<u64> = sim.trace.pfc_events.iter().map(|e| e.t.as_nanos()).collect();
    assert_eq!(pauses, [1_380]);
}

/// `h0 —8 Gb/s, 500 ns— sw —8 Gb/s, 500 ns— h1` with `cfg`, the one
/// topology of the host vectors below; also returns sw's port toward h1.
fn host_pair(cfg: SimConfig, flap: Option<(bool, u64, u64)>) -> (Sim, NodeId, NodeId, NodeId, PortId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let h0 = b.add_host("h0");
    let h1 = b.add_host("h1");
    b.connect(h0, sw, BitRate::from_gbps(8), ns(500));
    let (to_h1, _) = b.connect(sw, h1, BitRate::from_gbps(8), ns(500));
    let topo = b.build();
    // A flap takes both directions of h0's (false) or h1's (true) link.
    let fault_plan = match flap {
        Some((at_h1, down, up)) => {
            let link = topo.out_link(if at_h1 { h1 } else { h0 }, PortId(0));
            FaultPlan::default().with_flap(link, SimTime::from_nanos(down), SimTime::from_nanos(up))
        }
        None => FaultPlan::default(),
    };
    let cfg = SimConfig { fault_plan, ..cfg };
    let sim = Sim::new(topo, cfg, Box::new(NullHostCcFactory), Box::new(NullSwitchCcFactory));
    (sim, sw, h0, h1, to_h1)
}

/// One word of `host`'s sender state for `flow` (0 once the flow is gone).
fn sender<'a>(host: NodeId, flow: u64, word: fn(&SenderAudit) -> u64) -> Probe<'a> {
    Box::new(move |s: &Sim| s.host(host).audit_senders().find(|a| a.flow == FlowId(flow)).map_or(0, |a| word(&a)))
}

/// **A paced sender below line rate.** [`host_pair`], one flow of four
/// full frames at t = 0 with an offered rate of 4 Gb/s.
///
/// - At 4 Gb/s a 1,000-byte frame earns a 2,000 ns pacing gap, so h0
///   starts frame k at 2000k and serializes it over [2000k, 2000k + 1000]
///   at the 8 Gb/s line rate. The NIC idles over the other 1,000 ns; the
///   ACKs that arrive meanwhile (frame k's at 2000k + 4128: 64 ns on each
///   link plus 500 ns twice) do not move the pacing baseline.
/// - Frame k reaches sw at start + ser + delay = 2000k + 1500. sw's port
///   toward h1 is idle each time, so it sends frame k over
///   [2000k + 1500, 2000k + 2500]: the port's transmitted bytes step by
///   1,000 at 2000k + 2500.
/// - h1 receives frame k at 2000k + 3000: 3000, 5000, 7000, 9000.
#[test]
fn paced_sender_below_line_rate() {
    let (mut sim, sw, h0, h1, to_h1) = host_pair(config(kb(500)), None);
    let mut paced = flow(0, h0, h1, 4, 0);
    paced.offered = Some(BitRate::from_gbps(4));
    sim.add_flow(paced);
    let sent = |s: &Sim| s.trace.tx_data_bytes;
    let wire = move |s: &Sim| s.switch(sw).port(to_h1).tx_bytes(s.kernel.now);
    let got = timelines(&mut sim, 10_000, &[Box::new(sent), Box::new(wire), received(h1, 0)]);
    assert_eq!(got[0], receipts(0, 2_000, 4), "h0 starts each frame");
    let switched: Vec<(u64, u64)> = (1..=4).map(|k| (2_000 * k + 500, 1_000 * k)).collect();
    assert_eq!(got[1], switched, "sw → h1 bytes on the wire");
    assert_eq!(got[2], receipts(3_000, 2_000, 4), "receipts at h1");
}

/// **An ACK generated while the NIC is mid-frame leaves at exactly
/// `busy_until`, ahead of queued data.** [`host_pair`]; flow B, h1 → h0,
/// six full frames at t = 0 at line rate; flow A, h0 → h1, one full frame
/// at t = 250.
///
/// - h1 serializes B's frame k over [1000k, 1000k + 1000] while it has
///   nothing else to send.
/// - h0 sends A's frame over [250, 1250]; it reaches sw at 1750, leaves
///   sw over [1750, 2750] and reaches h1 at 3250, while h1 is serializing
///   B3 over [3000, 4000].
/// - The ACK for A is queued at 3250. When B3 ends at 4000 it goes first
///   (64 ns, over [4000, 4064]) although B4 has been eligible since 4000;
///   B4 follows over [4064, 5064] and B5 over [5064, 6064].
/// - sw receives B's frame k at 1000k + 1500 for k ≤ 3 and sends each at
///   once toward h0 (a back-to-back train): h0 receives B0–B3 at 3000,
///   4000, 5000, 6000.
/// - The ACK reaches sw at 4564, behind B3 on the wire ([4500, 5500]): it
///   leaves at 5500 ahead of any data and reaches h0 at 6064, where A
///   completes. B4 reaches sw at 5564, the instant that port frees, and
///   h0 at 7064; B5 reaches sw at 6564 and h0 at 8064 — both 64 ns behind
///   the train, the time the ACK took on h1's wire.
#[test]
fn an_ack_leaves_at_busy_until_ahead_of_queued_data() {
    let (mut sim, _, h0, h1, _) = host_pair(config(kb(500)), None);
    sim.add_flow(flow(0, h0, h1, 1, 250));
    sim.add_flow(flow(1, h1, h0, 6, 0));
    let a_open = sender(h0, 0, |_| 1);
    let got = timelines(&mut sim, 9_000, &[received(h1, 0), received(h0, 1), a_open]);
    assert_eq!(got[0], [(3_250, PAYLOAD)], "A at h1");
    let b: Vec<(u64, u64)> = [3_000, 4_000, 5_000, 6_000, 7_064, 8_064]
        .iter()
        .zip(1..)
        .map(|(&t, k)| (t, PAYLOAD * k))
        .collect();
    assert_eq!(got[1], b, "B at h0");
    assert_eq!(got[2], [(250, 1), (6_064, 0)], "A open at its sender");
}

/// **A go-back-N rollback after one lost frame.** [`host_pair`], one flow
/// of six full frames at t = 0; h0's link is down over [1400, 1600].
///
/// - h0 serializes frame k over [1000k, 1000k + 1000]; it is due at sw at
///   1000k + 1500. Frame 0 is due at 1500, while the link is down, and is
///   lost. Frames 1–5 reach sw at 2500 … 6500, leave it back to back over
///   [1000k + 1500, 1000k + 2500] and reach h1 at 4000 … 8000.
/// - Frame 1 (seq 952) reaches h1 at 4000 with 0 expected: h1 queues a
///   NACK for 0 and then an ACK for 0, sent over [4000, 4064] and
///   [4064, 4128]. The NACK reaches sw at 4564 and h0 at 5128. Frames 2–5
///   add ACKs only (one NACK per gap).
/// - At 5128 h0 is serializing frame 5 ([5000, 6000]); the NACK rolls
///   `next_seq` back to 0 at once, and the NIC picks the flow up when it
///   frees at 6000: frames 0–5 again over [1000j + 6000, 1000j + 7000],
///   each one a retransmission.
/// - Resent frame j reaches sw at 1000j + 7500. The original frame 5
///   leaves sw over [6500, 7500], so resent frame 0 finds the port free
///   at the instant it arrives, and each resent frame reaches h1 at
///   1000j + 9000: 9000 … 14000.
#[test]
fn go_back_n_after_one_lost_frame() {
    let (mut sim, _, h0, h1, _) = host_pair(config(kb(500)), Some((false, 1_400, 1_600)));
    sim.add_flow(flow(0, h0, h1, 6, 0));
    let lost = |s: &Sim| s.trace.faults.link_down_drops;
    let retx = |s: &Sim| s.trace.retx_bytes;
    let next_seq = sender(h0, 0, |a| a.next_seq);
    let got = timelines(&mut sim, 15_000, &[Box::new(lost), next_seq, Box::new(retx), received(h1, 0)]);
    assert_eq!(got[0], [(1_500, 1)], "lost on h0's link");
    let mut seq = receipts(0, 1_000, 6);
    seq.push((5_128, 0));
    seq.extend(receipts(6_000, 1_000, 6));
    assert_eq!(got[1], seq, "h0's next_seq");
    assert_eq!(got[2], receipts(6_000, 1_000, 6), "retransmitted bytes");
    assert_eq!(got[3], receipts(9_000, 1_000, 6), "receipts at h1");
}

/// **An RTO at exactly the last arm + `rto`.** [`host_pair`] with
/// `rto` = 10 µs, one flow of three full frames at t = 0; h1's link is
/// down over [4900, 5100].
///
/// - h0 serializes frame k over [1000k, 1000k + 1000]; sw forwards each
///   at once and h1 receives them at 3000, 4000 and — due at 5000, while
///   its link is down — never: frame 2 is the last, so no later frame
///   shows the gap and no NACK comes.
/// - Each send arms the timeout to now + 10,000: 10,000, 11,000, 12,000.
///   The ACKs for frames 0 and 1 leave h1 at 3000 and 4000 and reach h0 at
///   4128 and 5128 (64 ns on each link plus 500 ns twice); each acks new
///   data with data still outstanding, so each re-arms: 14,128, then
///   15,128.
/// - The timeout fires at 15,128 = last arm + `rto`: h0 rolls back to
///   1904 and resends frame 2 at once over [15128, 16128], re-arming to
///   25,128. It reaches sw at 16628 and h1 at 18128.
/// - h1's ACK for it reaches h0 at 19256 and the flow completes there.
#[test]
fn rto_fires_at_last_arm_plus_rto() {
    let cfg = SimConfig { rto: SimDuration::from_micros(10), ..config(kb(500)) };
    let (mut sim, _, h0, h1, _) = host_pair(cfg, Some((true, 4_900, 5_100)));
    sim.add_flow(flow(0, h0, h1, 3, 0));
    let deadline = sender(h0, 0, |a| a.rto_deadline.map_or(0, SimTime::as_nanos));
    let retx = |s: &Sim| s.trace.retx_bytes;
    let got = timelines(&mut sim, 20_000, &[deadline, Box::new(retx), received(h1, 0)]);
    let arms = [
        (0, 10_000),
        (1_000, 11_000),
        (2_000, 12_000),
        (4_128, 14_128),
        (5_128, 15_128),
        (15_128, 25_128),
        (19_256, 0),
    ];
    assert_eq!(got[0], arms, "h0's RTO deadline");
    assert_eq!(got[1], [(15_128, PAYLOAD)], "retransmitted bytes");
    assert_eq!(got[2], [(3_000, PAYLOAD), (4_000, 2 * PAYLOAD), (18_128, 3 * PAYLOAD)], "receipts at h1");
}
