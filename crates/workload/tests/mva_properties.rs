//! Property-based tests of the MVA solver against the classical bounds of
//! closed queueing networks (asymptotic bound analysis).

use proptest::prelude::*;
use spothost_workload::mva::{fleet_response, ClosedNetwork, FleetLoad, MvaMemo, Station};

fn arb_network() -> impl Strategy<Value = ClosedNetwork> {
    (prop::collection::vec(0.001f64..0.2, 1..5), 0.0f64..20.0).prop_map(|(demands, think)| {
        let stations = demands
            .into_iter()
            .enumerate()
            .map(|(i, d)| Station::new(format!("s{i}"), d))
            .collect();
        ClosedNetwork::new(stations, think)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throughput_respects_bounds(net in arb_network(), n in 1u32..500) {
        let sol = net.solve(n);
        let d_total: f64 = net.stations.iter().map(|s| s.demand_s).sum();
        // Asymptotic bound analysis: X(n) <= min(1/Dmax, n/(Z + D)).
        let upper = (1.0 / net.bottleneck_demand())
            .min(n as f64 / (net.think_time_s + d_total));
        prop_assert!(sol.throughput <= upper * (1.0 + 1e-9),
            "X {} exceeds ABA bound {}", sol.throughput, upper);
        prop_assert!(sol.throughput > 0.0);
    }

    #[test]
    fn response_bounded_below_by_total_demand(net in arb_network(), n in 1u32..500) {
        let sol = net.solve(n);
        let d_total: f64 = net.stations.iter().map(|s| s.demand_s).sum();
        prop_assert!(sol.response_s >= d_total - 1e-9,
            "R {} below demand {}", sol.response_s, d_total);
    }

    #[test]
    fn response_monotone_in_population(net in arb_network(), n in 2u32..400) {
        let lo = net.solve(n - 1).response_s;
        let hi = net.solve(n).response_s;
        prop_assert!(hi >= lo - 1e-9, "R({}) = {} < R({}) = {}", n, hi, n - 1, lo);
    }

    #[test]
    fn littles_law_holds(net in arb_network(), n in 1u32..300) {
        // N = X * (R + Z): total population equals throughput times total
        // cycle time.
        let sol = net.solve(n);
        let cycle = sol.response_s + net.think_time_s;
        prop_assert!((sol.throughput * cycle - n as f64).abs() < 1e-6,
            "Little's law violated: X*(R+Z) = {}", sol.throughput * cycle);
    }

    #[test]
    fn queues_sum_to_jobs_in_service(net in arb_network(), n in 1u32..300) {
        // Jobs queued at stations plus jobs thinking = N.
        let sol = net.solve(n);
        let queued: f64 = sol.queue_lengths.iter().sum();
        let thinking = sol.throughput * net.think_time_s;
        prop_assert!((queued + thinking - n as f64).abs() < 1e-6);
    }

    #[test]
    fn utilizations_in_unit_interval(net in arb_network(), n in 1u32..500) {
        for (i, &u) in net.solve(n).utilizations.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&u), "station {i}: {u}");
        }
    }

    #[test]
    fn scaling_all_demands_scales_response(net in arb_network(), n in 1u32..200) {
        // Doubling every service demand (and zero think time) must exactly
        // double response times — MVA is homogeneous of degree one.
        let zero_think = ClosedNetwork::new(net.stations.clone(), 0.0);
        let doubled = ClosedNetwork::new(
            net.stations
                .iter()
                .map(|s| Station::new(s.name.clone(), s.demand_s * 2.0))
                .collect(),
            0.0,
        );
        let r1 = zero_think.solve(n).response_s;
        let r2 = doubled.solve(n).response_s;
        prop_assert!((r2 - 2.0 * r1).abs() < 1e-6 * r2.max(1.0));
    }
}

/// Every field of a fleet load, as raw bits.
fn load_bits(l: &FleetLoad) -> [u64; 5] {
    [
        l.mean_response_s.to_bits(),
        l.p99_response_s.to_bits(),
        l.utilization.to_bits(),
        l.throughput.to_bits(),
        l.slo_violation_frac.to_bits(),
    ]
}

/// A `(users, servers)` sequence drawn from a small pool, so populations
/// repeat (memo hits) as well as appear for the first time (misses). The
/// pool covers idle fleets, one server, and fewer users than servers.
fn arb_queries() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let pair = prop_oneof![
        (Just(0u64), 1u64..40),
        (0u64..3_000, Just(1u64)),
        (0u64..20, 20u64..60),
        (0u64..6_000, 1u64..200),
    ];
    (
        prop::collection::vec(pair, 1..12),
        prop::collection::vec(0usize..1_000, 1..60),
    )
        .prop_map(|(pool, picks)| picks.into_iter().map(|i| pool[i % pool.len()]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoised_fleet_response_is_bit_identical(
        net in arb_network(),
        queries in arb_queries(),
        slo in 0.05f64..5.0,
    ) {
        let mut memo = MvaMemo::new(net.clone());
        let mut pops = std::collections::HashSet::new();
        for &(users, servers) in &queries {
            let fresh = fleet_response(&net, users, servers, slo);
            let memoised = memo.fleet_response(users, servers, slo);
            prop_assert_eq!(load_bits(&memoised), load_bits(&fresh),
                "users {} servers {}", users, servers);
            if users == 0 {
                pops.insert(1);
            } else {
                let lo = users / servers;
                if users % servers > 0 {
                    pops.insert(lo + 1);
                }
                if lo > 0 {
                    pops.insert(lo);
                }
            }
        }
        // Each population was solved exactly once.
        prop_assert_eq!(memo.solves(), pops.len() as u64);
    }
}
