//! The `rocc-snapshot/v8` wire format, pinned.
//!
//! Each case runs a scheme to two event cut points and compares the full
//! snapshot bytes — length and FNV-1a-64 — against constants captured
//! once. Any change to any section's layout, to the section order or to
//! the framing moves one of them. A refactor that must keep the format
//! (id narrowing, codec rewrites) is checked by this file staying green
//! unedited; a deliberate format change bumps [`SNAPSHOT_MAGIC`] and
//! re-pins here in the same commit.
//!
//! The cases cover what travels through a snapshot: RoCC CNPs, a chaos
//! fault plan, the sanitizer, every telemetry class with metrics, the
//! observatory and all five trace watch kinds (chaos); INT stacks in
//! flight on packets and ACKs (HPCC); QCN feedback frames in flight and
//! their feedback events queued (QCN).
//!
//! Every other scheme's controller words are pinned by a mid-run incast
//! of its own: DCQCN, DCQCN+PI, TIMELY, TIMELY+patch and no CC at all,
//! RoCC with host-computed rates (per-CP calculator replicas at the
//! senders), and RoCC with the bounded-age and the sampling flow table.

use rocc_experiments::diverge::scenario_sim;
use rocc_experiments::micro::sim_with;
use rocc_experiments::{scenarios, Scale, Scheme};
use rocc_core::{FlowTablePolicy, HostCalcRoccFactory, RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::cc::{HostCcFactory, SwitchCcFactory};
use rocc_sim::prelude::*;
use rocc_stats::digest::fnv1a_64;

/// `(event index, snapshot length, FNV-1a-64 of the snapshot)`.
type Pin = (u64, usize, u64);

/// Run `sim` to each pinned event index in turn and check its snapshot
/// there; also check that the bytes restore into `rebuild()` and
/// re-serialize unchanged.
fn check(name: &str, mut sim: Sim, rebuild: impl Fn() -> Sim, pins: [Pin; 2]) {
    for (k, len, digest) in pins {
        assert!(sim.run_until_event(k), "{name}: the run ends before event {k}");
        let bytes = sim.snapshot();
        assert_eq!(
            (bytes.len(), fnv1a_64(&bytes)),
            (len, digest),
            "{name}: snapshot at event {k} moved (got len {}, digest {:#018x})",
            bytes.len(),
            fnv1a_64(&bytes)
        );
        let mut resumed = rebuild();
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{name}@{k}: {e}"));
        assert!(resumed.snapshot() == bytes, "{name}@{k}: restore does not re-serialize");
    }
}

/// The faulted RoCC incast of `repro diverge … chaos`, with every piece of
/// instrumentation that has a snapshot section switched on.
fn chaos_everything_on() -> Sim {
    let mut sim = scenario_sim("chaos", Scale::Quick, 7).expect("chaos is a diverge scenario");
    sim.enable_sanitizer();
    sim.trace.telemetry.collect(EventMask::ALL);
    sim.trace.telemetry.enable_metrics();
    sim.trace.observatory.enable();
    sim.trace.sample_period = Some(SimDuration::from_micros(10));
    // Node 0 is the switch, port 0 faces the receiver; flow 0 starts at
    // node 2.
    let (sw, bottleneck) = (NodeId(0), PortId(0));
    sim.trace.watch_queue(sw, bottleneck);
    sim.trace.watch_queue_avg(sw, bottleneck);
    sim.trace.watch_port_tput(sw, bottleneck);
    sim.trace.watch_flow_rate(FlowId(0));
    sim.trace.watch_cc_rate(FlowId(0));
    sim
}

/// `n` senders of 400 KB each into one receiver at 40 Gb/s under `scheme`.
fn incast(scheme: Scheme, n: usize, seed: u64) -> Sim {
    let d = scenarios::dumbbell(n, BitRate::from_gbps(40));
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = sim_with(d.topo, scheme, 7, cfg);
    for (i, &src) in d.senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src,
            dst: d.receiver,
            size: 400_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

/// [`incast`] under an explicit factory pair.
fn incast_with(
    h: Box<dyn HostCcFactory>,
    s: Box<dyn SwitchCcFactory>,
    n: usize,
    seed: u64,
) -> Sim {
    let d = scenarios::dumbbell(n, BitRate::from_gbps(40));
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Sim::new(d.topo, cfg, h, s);
    for (i, &src) in d.senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src,
            dst: d.receiver,
            size: 400_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

#[test]
fn rocc_chaos_with_everything_on() {
    check(
        "rocc chaos",
        chaos_everything_on(),
        chaos_everything_on,
        [
            (10_000, 30_396, 0x182b_13af_74a3_38ce),
            (42_000, 58_103, 0x04a7_05ea_14e2_e8d9),
        ],
    );
}

#[test]
fn hpcc_incast_with_int_stacks_in_flight() {
    let build = || incast(Scheme::Hpcc, 6, 3);
    let pins = [
        (2_000, 7_967, 0xc5ba_6c84_161b_9b53),
        (10_000, 8_003, 0x9fe2_c92c_cf03_4741),
    ];
    check("hpcc", build(), build, pins);
}

#[test]
fn qcn_incast_with_feedback_in_flight() {
    let build = || incast(Scheme::Qcn, 8, 5);
    let pins = [
        (2_000, 16_218, 0x7fbd_21d3_1d4d_4cbd),
        (6_000, 40_180, 0x59e6_b692_9431_7cba),
    ];
    check("qcn", build(), build, pins);
}

#[test]
fn dcqcn_incast_with_rates_cut() {
    let build = || incast(Scheme::Dcqcn, 8, 11);
    let pins = [(6_000, 35_479, 0xb944_3c42_46eb_d033), (20_000, 39_584, 0x903b_a74d_d396_dedd)];
    check("dcqcn", build(), build, pins);
}

#[test]
fn dcqcn_pi_incast_with_marking_probability_up() {
    let build = || incast(Scheme::DcqcnPi, 8, 13);
    let pins = [(6_000, 43_247, 0x3bed_2ab2_12dc_f070), (20_000, 51_817, 0x0954_996b_e2e5_1004)];
    check("dcqcn+pi", build(), build, pins);
}

#[test]
fn timely_incast_with_rtt_gradient() {
    let build = || incast(Scheme::Timely, 8, 17);
    let pins = [(6_000, 37_928, 0x60c9_01da_2c96_a548), (17_000, 38_463, 0x57e3_180e_8815_514c)];
    check("timely", build(), build, pins);
}

#[test]
fn timely_patched_incast() {
    let build = || incast(Scheme::TimelyPatched, 8, 19);
    let pins = [(6_000, 43_119, 0x6438_bd8e_47d9_3452), (17_000, 52_850, 0x13ba_005b_01fa_0e1a)];
    check("timely+patch", build(), build, pins);
}

#[test]
fn no_cc_incast() {
    let build = || incast(Scheme::None, 8, 23);
    let pins = [(6_000, 42_944, 0xb9eb_6376_0059_769a), (17_000, 52_714, 0x8ed6_ae37_3f7b_6615)];
    check("none", build(), build, pins);
}

#[test]
fn rocc_host_computed_incast_with_replicas() {
    let build = || {
        incast_with(
            Box::new(HostCalcRoccFactory::default()),
            Box::new(RoccSwitchCcFactory::new().host_computed()),
            8,
            29,
        )
    };
    let pins = [(6_000, 38_984, 0x3c8f_df5b_d2e0_3bdd), (20_000, 36_582, 0x1db5_8178_8a60_55ef)];
    check("rocc host-computed", build(), build, pins);
}

#[test]
fn rocc_bounded_age_table_incast() {
    let build = || {
        let policy = FlowTablePolicy::BoundedAge {
            capacity: 6,
            idle_timeout_ns: 50_000,
        };
        incast_with(
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new().with_policy(policy)),
            8,
            31,
        )
    };
    let pins = [(6_000, 40_180, 0xf55f_dd4a_16c8_7d75), (20_000, 38_521, 0x1eee_8afc_f8f4_c2e3)];
    check("rocc bounded-age", build(), build, pins);
}

#[test]
fn rocc_sampling_table_incast() {
    let build = || {
        let policy = FlowTablePolicy::Sampling {
            capacity: 6,
            sample_prob: 0.25,
        };
        incast_with(
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new().with_policy(policy)),
            8,
            37,
        )
    };
    let pins = [(6_000, 40_180, 0x5234_85c6_831b_9441), (20_000, 38_215, 0x15d2_04a1_8117_95f2)];
    check("rocc sampling", build(), build, pins);
}
