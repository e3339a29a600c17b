//! The `rocc-snapshot/v7` wire format, pinned.
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
            (10_000, 95_237, 0x7602_689b_18ab_2f7d),
            (42_000, 154_334, 0x02b4_6fd9_9db5_2585),
        ],
    );
}

#[test]
fn hpcc_incast_with_int_stacks_in_flight() {
    let build = || incast(Scheme::Hpcc, 6, 3);
    let pins = [
        (2_000, 23_802, 0x0eb5_6a2b_e649_f540),
        (10_000, 23_932, 0x09e3_03c3_a4ca_69b2),
    ];
    check("hpcc", build(), build, pins);
}

#[test]
fn qcn_incast_with_feedback_in_flight() {
    let build = || incast(Scheme::Qcn, 8, 5);
    let pins = [
        (2_000, 56_886, 0x247c_4d2f_db7f_befc),
        (6_000, 137_902, 0x8164_7582_a6b4_0035),
    ];
    check("qcn", build(), build, pins);
}

#[test]
fn dcqcn_incast_with_rates_cut() {
    let build = || incast(Scheme::Dcqcn, 8, 11);
    let pins = [(6_000, 121_635, 0xbe68_352d_50de_bd2d), (20_000, 125_151, 0xaaa6_d948_49ce_40e0)];
    check("dcqcn", build(), build, pins);
}

#[test]
fn dcqcn_pi_incast_with_marking_probability_up() {
    let build = || incast(Scheme::DcqcnPi, 8, 13);
    let pins = [(6_000, 148_290, 0x4b91_e2b5_3e9e_b251), (20_000, 164_846, 0xba26_c3e7_f82a_6eb5)];
    check("dcqcn+pi", build(), build, pins);
}

#[test]
fn timely_incast_with_rtt_gradient() {
    let build = || incast(Scheme::Timely, 8, 17);
    let pins = [(6_000, 130_018, 0xf7d7_2cb2_e57d_992d), (17_000, 121_985, 0x1302_fd84_6517_956d)];
    check("timely", build(), build, pins);
}

#[test]
fn timely_patched_incast() {
    let build = || incast(Scheme::TimelyPatched, 8, 19);
    let pins = [(6_000, 147_794, 0xf90f_01f8_911a_d795), (17_000, 170_473, 0x0955_716f_f9f4_2699)];
    check("timely+patch", build(), build, pins);
}

#[test]
fn no_cc_incast() {
    let build = || incast(Scheme::None, 8, 23);
    let pins = [(6_000, 147_410, 0x3e4d_41d6_a3e5_bfef), (17_000, 170_061, 0xf403_1f47_a7ed_04f0)];
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
    let pins = [(6_000, 134_319, 0x63f7_5d1b_6e72_1df6), (20_000, 118_387, 0x8b3a_f11f_ed1f_6428)];
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
    let pins = [(6_000, 138_119, 0x97a7_e0ab_1051_cb55), (20_000, 123_526, 0x3abb_4b1c_d2f9_e849)];
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
    let pins = [(6_000, 138_151, 0x393a_34dd_8fca_636d), (20_000, 122_841, 0xb865_8e3b_0e4c_c600)];
    check("rocc sampling", build(), build, pins);
}
