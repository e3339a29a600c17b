//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use rocc_sim::prelude::*;

proptest! {
    /// Serialization time is consistent with byte counts: doubling the
    /// bytes at least doubles (ceil-rounded) the time, and higher rates
    /// never serialize slower.
    #[test]
    fn serialization_time_monotone(
        bytes in 1u64..10_000_000,
        gbps in 1u64..400,
    ) {
        let r = BitRate::from_gbps(gbps);
        let t1 = r.serialization_time(bytes).as_nanos();
        let t2 = r.serialization_time(bytes * 2).as_nanos();
        prop_assert!(t2 >= 2 * t1 - 1, "t({bytes})={t1}, t({})={t2}", bytes * 2);
        let faster = BitRate::from_gbps(gbps * 2);
        prop_assert!(faster.serialization_time(bytes) <= r.serialization_time(bytes));
    }

    /// bytes_over is the (floor) inverse of serialization_time.
    #[test]
    fn bytes_over_inverts_serialization(
        bytes in 1u64..1_000_000,
        gbps in 1u64..200,
    ) {
        let r = BitRate::from_gbps(gbps);
        let t = r.serialization_time(bytes);
        let back = r.bytes_over(t);
        // Serialization time is ceil-rounded to whole nanoseconds, so the
        // inverse can overshoot by up to one nanosecond's worth of bytes.
        let ns_bytes = r.as_bps() / 8_000_000_000 + 1;
        prop_assert!(back >= bytes.saturating_sub(1) && back <= bytes + ns_bytes,
            "bytes {bytes} -> {t} -> {back}");
    }

    /// SimTime arithmetic: (a + d) - a == d for all representable values.
    #[test]
    fn time_add_sub_roundtrip(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a) + SimDuration::from_nanos(d);
        prop_assert_eq!((t - SimTime::from_nanos(a)).as_nanos(), d);
    }

    /// Rate scaling by a factor in [0, 1] never increases the rate.
    #[test]
    fn rate_scale_contracts(bps in 0u64..u64::MAX / 2, f in 0.0f64..1.0) {
        let r = BitRate::from_bps(bps);
        prop_assert!(r.scale(f) <= r);
    }
}

// Random fan-in topologies: every host can route to every other host, and
// the route's first hop is always a real neighbor one step closer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn routing_is_complete_and_consistent(
        hosts_per_switch in 1usize..4,
        switches in 2usize..5,
        extra_links in 0usize..4,
        flow in 0u64..1000,
    ) {
        let mut b = TopologyBuilder::new();
        let sws: Vec<NodeId> = (0..switches)
            .map(|i| b.add_switch(format!("s{i}"), NodeRole::Switch))
            .collect();
        // Chain the switches, then add extra parallel links for ECMP.
        for w in sws.windows(2) {
            b.connect(w[0], w[1], BitRate::from_gbps(40), SimDuration::from_micros(1));
        }
        for i in 0..extra_links {
            let a = sws[i % switches];
            let c = sws[(i + 1) % switches];
            if a != c {
                b.connect(a, c, BitRate::from_gbps(40), SimDuration::from_micros(1));
            }
        }
        let mut hosts = Vec::new();
        for (si, &sw) in sws.iter().enumerate() {
            for h in 0..hosts_per_switch {
                let id = b.add_host(format!("h{si}_{h}"));
                b.connect(id, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
                hosts.push(id);
            }
        }
        let t = b.build();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let mut node = src;
                let mut hops = 0;
                // Walk the route; must reach dst within the diameter bound.
                while node != dst {
                    let port = t.route(node, dst, FlowId(flow));
                    prop_assert!(port.is_some(), "{node:?} cannot reach {dst:?}");
                    node = t.neighbor(node, port.unwrap());
                    hops += 1;
                    prop_assert!(hops <= switches + 2, "routing loop from {src:?} to {dst:?}");
                }
            }
        }
    }
}

// Arbitrary flow mixes on a dumbbell complete losslessly, conserve bytes,
// and never drop packets under PFC.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn lossless_delivery_conserves_bytes(
        sizes in proptest::collection::vec(1u64..400_000, 1..8),
        stagger_us in 0u64..100,
    ) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let dst = b.add_host("dst");
        b.connect(sw, dst, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..sizes.len() {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        for (i, (&s, &size)) in srcs.iter().zip(&sizes).enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size,
                start: SimTime::from_micros(i as u64 * stagger_us),
                offered: None,
            });
        }
        prop_assert!(sim.run_until_flows_done(SimTime::from_millis(500)).is_complete());
        prop_assert_eq!(sim.trace.drops, 0);
        prop_assert_eq!(sim.trace.retx_bytes, 0);
        prop_assert_eq!(sim.trace.fcts.len(), sizes.len());
        for (i, &size) in sizes.iter().enumerate() {
            prop_assert_eq!(sim.trace.delivered_bytes(FlowId(i as u64)), size);
        }
        // FCT ordering sanity: every FCT at least the line-rate floor.
        for rec in &sim.trace.fcts {
            let floor = BitRate::from_gbps(10)
                .serialization_time(rec.size)
                .as_nanos();
            prop_assert!(rec.fct().as_nanos() >= floor / 2);
        }
    }

    /// Lossy mode with arbitrary tiny buffers: go-back-N still delivers
    /// every byte exactly once to the application (no gaps, no dupes in
    /// the in-order stream).
    #[test]
    fn lossy_go_back_n_delivers_everything(
        n_flows in 2usize..6,
        limit_kb in 5u64..40,
    ) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let dst = b.add_host("dst");
        b.connect(sw, dst, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..n_flows {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let cfg = SimConfig {
            buffer_mode: BufferMode::LossyTailDrop {
                limit_bytes: limit_kb * 1000,
            },
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            b.build(),
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        let size = 200_000u64;
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        prop_assert!(
            sim.run_until_flows_done(SimTime::from_millis(2000)).is_complete(),
            "flows stuck with limit {limit_kb} KB (drops {})",
            sim.trace.drops
        );
        for i in 0..n_flows {
            prop_assert_eq!(sim.trace.delivered_bytes(FlowId(i as u64)), size);
        }
    }
}
