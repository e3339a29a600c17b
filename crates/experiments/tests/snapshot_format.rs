//! The `rocc-snapshot/v6` wire format, pinned.
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
            (10_000, 115_557, 0x32e0_620a_daaa_720e),
            (42_000, 268_398, 0xa851_4a35_f7a4_cb20),
        ],
    );
}

#[test]
fn hpcc_incast_with_int_stacks_in_flight() {
    let build = || incast(Scheme::Hpcc, 6, 3);
    let pins = [
        (2_000, 23_940, 0xb5ea_7916_2572_38bd),
        (10_000, 24_070, 0x40ab_865b_bd2b_7166),
    ];
    check("hpcc", build(), build, pins);
}

#[test]
fn qcn_incast_with_feedback_in_flight() {
    let build = || incast(Scheme::Qcn, 8, 5);
    let pins = [
        (2_000, 57_024, 0xcbb4_7ff8_ec39_9328),
        (6_000, 138_040, 0x7a3b_9986_9758_f47b),
    ];
    check("qcn", build(), build, pins);
}

#[test]
fn dcqcn_incast_with_rates_cut() {
    let build = || incast(Scheme::Dcqcn, 8, 11);
    let pins = [(6_000, 121_773, 0x2b91_6900_d430_2d25), (20_000, 125_289, 0xaab9_1a9a_6d37_a6db)];
    check("dcqcn", build(), build, pins);
}

#[test]
fn dcqcn_pi_incast_with_marking_probability_up() {
    let build = || incast(Scheme::DcqcnPi, 8, 13);
    let pins = [(6_000, 148_428, 0xb417_778d_e291_9917), (20_000, 164_984, 0xcd5c_bb17_b5a0_2980)];
    check("dcqcn+pi", build(), build, pins);
}

#[test]
fn timely_incast_with_rtt_gradient() {
    let build = || incast(Scheme::Timely, 8, 17);
    let pins = [(6_000, 130_156, 0xa719_ecdc_089e_c806), (17_000, 122_123, 0x30b1_ad1f_0ea8_7a5f)];
    check("timely", build(), build, pins);
}

#[test]
fn timely_patched_incast() {
    let build = || incast(Scheme::TimelyPatched, 8, 19);
    let pins = [(6_000, 147_932, 0xd7d6_5cab_1f9a_3b0a), (17_000, 170_611, 0xb953_7a4e_4556_f01f)];
    check("timely+patch", build(), build, pins);
}

#[test]
fn no_cc_incast() {
    let build = || incast(Scheme::None, 8, 23);
    let pins = [(6_000, 147_548, 0x018f_1238_c24f_f5a7), (17_000, 170_199, 0x3c0b_5081_ef2c_6872)];
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
    let pins = [(6_000, 134_457, 0x6a7d_c4c2_a157_28dd), (20_000, 118_525, 0x105d_bb85_b1a8_c8dd)];
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
    let pins = [(6_000, 138_257, 0x6322_66a4_bf38_624a), (20_000, 123_664, 0xb5b5_1ecc_ac56_77b1)];
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
    let pins = [(6_000, 138_289, 0xd569_79da_fd6c_c4d8), (20_000, 122_979, 0x8117_4d24_4f25_9faf)];
    check("rocc sampling", build(), build, pins);
}
