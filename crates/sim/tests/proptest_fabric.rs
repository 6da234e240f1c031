//! Property tests for the multi-PoP fabric's determinism contract:
//!
//! - the PoP fan-out must be observationally identical for any worker
//!   count (the `STELLAR_TICK_WORKERS` axis) — verdicts, fabric
//!   counters, and exported obs snapshot bytes;
//! - per-port outcomes must not depend on how ports are partitioned
//!   into PoPs (the `STELLAR_POPS` axis), because filtering is
//!   egress-side;
//! - a 1-PoP fabric must be byte-indistinguishable from the bare
//!   single [`EdgeRouter`] it wraps;
//! - none of this may depend on the order ports were added in, and the
//!   fabric's port walk stays in ascending `PortId` order.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::{Fabric, PopId};

const TICK_US: u64 = 1_000_000;

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        proptest::option::of(prop_oneof![Just(IpProtocol::UDP), Just(IpProtocol::TCP)]),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(|(proto, sp)| MatchSpec {
            protocol: proto,
            src_port: sp.map(PortMatch::Exact),
            ..Default::default()
        })
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Drop),
        Just(Action::Forward),
        (1_000_000u64..1_000_000_000).prop_map(|r| Action::Shape { rate_bps: r }),
    ]
}

/// One port's rules: `(spec, action, priority)`.
type RuleGen = Vec<(MatchSpec, Action, u16)>;
/// One tick's offers: `(src port index, dst port index, l4 src port,
/// bytes, udp)` — src drawn from the member ports so cross-PoP and
/// local paths both occur, plus some external (unknown-MAC) sources.
type OfferGen = Vec<(usize, usize, u16, u64, bool)>;

/// Per-port rules, the ticks, and the order the ports are added in (a
/// permutation of the port indices).
fn arb_topology() -> impl Strategy<Value = (Vec<RuleGen>, Vec<OfferGen>, Vec<usize>)> {
    let rules = proptest::collection::vec(
        proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..4),
        2..18,
    );
    let ticks = proptest::collection::vec(
        proptest::collection::vec(
            (
                0usize..32,
                0usize..18,
                any::<u16>(),
                1u64..50_000_000,
                any::<bool>(),
            ),
            0..24,
        ),
        1..4,
    );
    // The add order: port indices sorted by a random key each.
    let keys = proptest::collection::vec(any::<u32>(), 18);
    (rules, ticks, keys).prop_map(|(rules, ticks, keys)| {
        let mut order: Vec<usize> = (0..rules.len()).collect();
        order.sort_by_key(|&p| keys[p]);
        (rules, ticks, order)
    })
}

fn ascending(n_ports: usize) -> Vec<usize> {
    (0..n_ports).collect()
}

fn port_rules_to_filter(p: usize, rules: &RuleGen) -> Vec<FilterRule> {
    rules
        .iter()
        .enumerate()
        .map(|(i, (spec, action, prio))| {
            FilterRule::new((p * 8 + i) as u64 + 1, spec.clone(), *action, *prio)
        })
        .collect()
}

/// Adds port `p` (on PoP `p % pops`, with its rules) for each `p` in
/// `order`.
fn build_fabric(port_rules: &[RuleGen], pops: usize, order: &[usize]) -> Fabric {
    let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), pops);
    for &p in order {
        let rules = &port_rules[p];
        let asn = 64500 + p as u32;
        let pid = PortId(p as u32 + 1);
        fabric.add_port(
            PopId((p % pops) as u16),
            pid,
            MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
        );
        let port = fabric.port_mut(pid).expect("port just added");
        for rule in port_rules_to_filter(p, rules) {
            port.policy.install(rule);
        }
    }
    fabric
}

fn build_router(port_rules: &[RuleGen]) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
    for (p, rules) in port_rules.iter().enumerate() {
        let asn = 64500 + p as u32;
        let pid = PortId(p as u32 + 1);
        er.add_port(
            pid,
            MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
        );
        let port = er.port_mut(pid).expect("port just added");
        for rule in port_rules_to_filter(p, rules) {
            port.policy.install(rule);
        }
    }
    er
}

fn offers_for_tick(n_ports: usize, tick: &OfferGen) -> Vec<OfferedAggregate> {
    tick.iter()
        .map(|&(src, dst, sp, bytes, udp)| {
            let dst = dst % n_ports;
            let dst_asn = 64500 + dst as u32;
            // src index past the member range -> an external source MAC
            // the fabric cannot attribute to any PoP.
            let src_mac = if src < n_ports {
                MacAddr::for_member(64500 + src as u32, 1)
            } else {
                MacAddr::for_member(65000 + src as u32, 1)
            };
            OfferedAggregate {
                key: FlowKey {
                    src_mac,
                    dst_mac: MacAddr::for_member(dst_asn, 1),
                    src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, src as u8)),
                    dst_ip: IpAddress::V4(Ipv4Address::new(100, 0, dst as u8, 10)),
                    protocol: if udp {
                        IpProtocol::UDP
                    } else {
                        IpProtocol::TCP
                    },
                    src_port: sp,
                    dst_port: 40000,
                    ..FlowKey::default()
                },
                bytes,
                packets: bytes / 1000 + 1,
            }
        })
        .collect()
}

/// One tick through the fabric, copied out of the PoP arenas.
fn run_tick(
    fabric: &mut Fabric,
    offers: &[OfferedAggregate],
    end_us: u64,
) -> BTreeMap<PortId, TickResult> {
    fabric.process_tick_in_place(offers, end_us, TICK_US);
    fabric
        .last_tick()
        .map(|(pid, r)| (pid, r.clone()))
        .collect()
}

fn obs_bytes_fabric(fabric: &Fabric) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    fabric.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

fn obs_bytes_router(er: &EdgeRouter) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    er.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

/// Per-port cumulative counters, sorted by port id — the
/// partition-independence witness.
fn fingerprint(fabric: &Fabric) -> Vec<(u32, stellar_dataplane::counters::PortCounters)> {
    fabric
        .ports()
        .map(|(pid, port)| (pid.0, port.counters))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The worker axis: for each PoP count, every worker count on a
    /// fabric built in a permuted port order yields the same verdicts,
    /// fabric counters, and obs snapshot bytes as the single-worker run
    /// on the ascending build.
    #[test]
    fn fabric_is_deterministic_across_workers_and_pops(topo in arb_topology()) {
        let (port_rules, ticks, order) = topo;
        let n_ports = port_rules.len();
        for pops in [1usize, 4, 16] {
            let mut base = build_fabric(&port_rules, pops, &ascending(n_ports));
            base.set_tick_workers(1);
            let mut base_results = Vec::new();
            for (t, tick) in ticks.iter().enumerate() {
                let offers = offers_for_tick(n_ports, tick);
                base_results.push(run_tick(&mut base, &offers, (t as u64 + 1) * TICK_US));
            }
            let base_obs = obs_bytes_fabric(&base);
            for workers in [2usize, 4] {
                let mut fab = build_fabric(&port_rules, pops, &order);
                let ids: Vec<PortId> = fab.ports().map(|(pid, _)| pid).collect();
                prop_assert_eq!(ids, (0..n_ports).map(|p| PortId(p as u32 + 1)).collect::<Vec<_>>());
                fab.set_tick_workers(workers);
                // Defeat the adaptive cutoff: these topologies sit far
                // below the default threshold and the property under
                // test is the parallel fan-out itself.
                fab.set_parallel_min_work(0);
                for (t, tick) in ticks.iter().enumerate() {
                    let offers = offers_for_tick(n_ports, tick);
                    let r = run_tick(&mut fab, &offers, (t as u64 + 1) * TICK_US);
                    prop_assert_eq!(&r, &base_results[t]);
                }
                prop_assert_eq!(fab.counters(), base.counters());
                prop_assert_eq!(obs_bytes_fabric(&fab), base_obs.clone());
            }
        }
    }

    /// The PoP axis: per-port verdicts and cumulative counters are
    /// independent of how ports are sharded into PoPs, because rules
    /// filter at egress only.
    #[test]
    fn port_outcomes_are_partition_independent(topo in arb_topology()) {
        let (port_rules, ticks, _) = topo;
        let n_ports = port_rules.len();
        let mut fabrics: Vec<Fabric> = [1usize, 4, 16]
            .iter()
            .map(|&pops| {
                let mut f = build_fabric(&port_rules, pops, &ascending(n_ports));
                f.set_tick_workers(1);
                f
            })
            .collect();
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            let mut results = fabrics
                .iter_mut()
                .map(|f| run_tick(f, &offers, end_us));
            let first = results.next().expect("three fabrics");
            for r in results {
                prop_assert_eq!(&r, &first);
            }
        }
        let fp = fingerprint(&fabrics[0]);
        for f in &fabrics[1..] {
            prop_assert_eq!(&fingerprint(f), &fp);
        }
        // Byte totals are conserved across partitions: only the
        // local/cross-PoP split moves, their sum does not.
        let sum = |f: &Fabric| {
            let c = f.counters();
            (c.local_bytes + c.cross_pop_bytes, c.external_bytes, c.unroutable_bytes)
        };
        let s = sum(&fabrics[0]);
        for f in &fabrics[1..] {
            prop_assert_eq!(sum(f), s);
        }
    }

    /// A 1-PoP fabric is the single router: same verdicts in the same
    /// ascending order and the exact same exported snapshot bytes (the
    /// fabric delegates its observe to the lone PoP rather than
    /// renaming anything), even when the fabric's ports were added in a
    /// permuted order.
    #[test]
    fn one_pop_fabric_matches_bare_router(topo in arb_topology()) {
        let (port_rules, ticks, order) = topo;
        let n_ports = port_rules.len();
        let mut fab = build_fabric(&port_rules, 1, &order);
        fab.set_tick_workers(1);
        let mut er = build_router(&port_rules);
        er.set_tick_workers(1);
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            fab.process_tick_in_place(&offers, end_us, TICK_US);
            let rr: Vec<(PortId, TickResult)> = er
                .process_tick_in_place(&offers, end_us, TICK_US)
                .iter()
                .map(|(pid, r)| (pid, r.clone()))
                .collect();
            let rf: Vec<(PortId, TickResult)> =
                fab.last_tick().map(|(pid, r)| (pid, r.clone())).collect();
            prop_assert_eq!(&rf, &rr);
        }
        prop_assert_eq!(fab.rule_ledger(), er.rule_ledger());
        prop_assert_eq!(obs_bytes_fabric(&fab), obs_bytes_router(&er));
    }
}
