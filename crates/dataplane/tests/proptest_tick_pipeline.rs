//! Property tests for the tick pipeline: the single-threaded arena path
//! and the worker-pool parallel path must be observationally identical
//! — per-tick verdicts (delivered aggregates), cumulative port/ledger
//! counters, and the exported metrics snapshot bytes — and both must
//! agree with a first-match reference model written here. Routers are
//! built from ports added in any id order; the walk and the tick view
//! must still come out in ascending `PortId` order.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar_dataplane::counters::{PortCounters, RuleCounters};
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::queue;
use stellar_dataplane::shaper::TokenBucket;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

const TICK_US: u64 = 1_000_000;
const CAPACITY_BPS: u64 = 100_000_000;

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        proptest::option::of(prop_oneof![Just(IpProtocol::UDP), Just(IpProtocol::TCP)]),
        proptest::option::of(any::<u16>()),
        proptest::option::of((any::<u16>(), any::<u16>())),
    )
        .prop_map(|(proto, sp, dpr)| MatchSpec {
            protocol: proto,
            src_port: sp.map(PortMatch::Exact),
            dst_port: dpr.map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
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

/// One port's worth of generated rules: `(spec, action, priority)`.
type RuleGen = Vec<(MatchSpec, Action, u16)>;
/// One tick's offers: `(destination port index, src port, bytes, udp)`.
type OfferGen = Vec<(usize, u16, u64, bool)>;

/// Per-port rules, the ticks, and the order the ports are added in (a
/// permutation of the port indices).
fn arb_topology() -> impl Strategy<Value = (Vec<RuleGen>, Vec<OfferGen>, Vec<usize>)> {
    let rules = proptest::collection::vec(
        proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..5),
        1..5,
    );
    let ticks = proptest::collection::vec(
        proptest::collection::vec(
            (0usize..5, any::<u16>(), 1u64..50_000_000, any::<bool>()),
            0..16,
        ),
        // Enough ticks for shaper credit to carry from one into the next.
        1..8,
    );
    // The add order: port indices sorted by a random key each.
    let keys = proptest::collection::vec(any::<u32>(), 5);
    (rules, ticks, keys).prop_map(|(rules, ticks, keys)| {
        let mut order: Vec<usize> = (0..rules.len()).collect();
        order.sort_by_key(|&p| keys[p]);
        (rules, ticks, order)
    })
}

fn port_id(p: usize) -> PortId {
    PortId(p as u32 + 1)
}

fn rule_id(p: usize, i: usize) -> u64 {
    (p * 8 + i) as u64 + 1
}

/// Adds port `p` (with its rules) for each `p` in `order`.
fn build_router(port_rules: &[RuleGen], order: &[usize]) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
    for &p in order {
        let asn = 64500 + p as u32;
        er.add_port(
            port_id(p),
            MemberPort::new(asn, MacAddr::for_member(asn, 1), CAPACITY_BPS),
        );
        let port = er.port_mut(port_id(p)).expect("port just added");
        for (i, (spec, action, prio)) in port_rules[p].iter().enumerate() {
            port.policy
                .install(FilterRule::new(rule_id(p, i), spec.clone(), *action, *prio));
        }
    }
    er
}

fn ascending(n_ports: usize) -> Vec<usize> {
    (0..n_ports).collect()
}

/// The tick's offers, each with the index of the port it is addressed to.
fn offers_for_tick(n_ports: usize, tick: &OfferGen) -> Vec<(usize, OfferedAggregate)> {
    tick.iter()
        .map(|&(p, sp, bytes, udp)| {
            let p = p % n_ports;
            let asn = 64500 + p as u32;
            let offer = OfferedAggregate {
                key: FlowKey {
                    src_mac: MacAddr::for_member(65000, 1),
                    dst_mac: MacAddr::for_member(asn, 1),
                    src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, p as u8)),
                    dst_ip: IpAddress::V4(Ipv4Address::new(100, 0, p as u8, 10)),
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
            };
            (p, offer)
        })
        .collect()
}

fn aggregates(offers: &[(usize, OfferedAggregate)]) -> Vec<OfferedAggregate> {
    offers.iter().map(|&(_, o)| o).collect()
}

/// One tick through the router, copied out of the arena in view order.
fn tick(
    er: &mut EdgeRouter,
    offers: &[OfferedAggregate],
    end_us: u64,
) -> Vec<(PortId, TickResult)> {
    er.process_tick_in_place(offers, end_us, TICK_US)
        .iter()
        .map(|(pid, r)| (pid, r.clone()))
        .collect()
}

fn is_ascending(ids: impl Iterator<Item = PortId>) -> bool {
    let ids: Vec<PortId> = ids.collect();
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The exported metrics snapshot, serialized — byte equality here means
/// every counter and gauge the obs layer would publish is identical.
fn obs_bytes(er: &EdgeRouter) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    er.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

/// Reference state of one port: one token bucket per shape rule,
/// cumulative port counters, and per-rule counters.
#[derive(Default)]
struct RefPort {
    shapers: BTreeMap<u64, TokenBucket>,
    counters: PortCounters,
    rule_counters: BTreeMap<u64, RuleCounters>,
}

/// Packets carried by `fwd` of an aggregate's `bytes`, at least one
/// when any byte passes.
fn packets_for(packets: u64, bytes: u64, fwd: u64) -> u64 {
    (packets * fwd).checked_div(bytes).map_or(0, |p| p.max(1))
}

impl RefPort {
    /// One tick of one port's egress policy, written from the policy's
    /// contract rather than its code: first-match classification by a
    /// linear scan of `rules` (evaluation order), drop / shape /
    /// forward queues, shaping groups by ascending rule id sharing the
    /// admitted bytes proportionally, then the forwarding queue drained
    /// at port capacity.
    fn tick(
        &mut self,
        rules: &[FilterRule],
        offers: &[OfferedAggregate],
        end_us: u64,
    ) -> TickResult {
        let mut r = TickResult::default();
        let mut to_forward: Vec<(FlowKey, u64, u64)> = Vec::new();
        let mut shape_groups: BTreeMap<u64, Vec<&OfferedAggregate>> = BTreeMap::new();
        for o in offers {
            let Some(rule) = rules.iter().find(|rule| rule.spec.matches(&o.key)) else {
                to_forward.push((o.key, o.bytes, o.packets));
                continue;
            };
            let rc = self.rule_counters.entry(rule.id).or_default();
            match rule.action {
                Action::Drop => {
                    r.counters.dropped_bytes += o.bytes;
                    r.counters.dropped_packets += o.packets;
                    rc.matched_bytes += o.bytes;
                    rc.matched_packets += o.packets;
                    rc.discarded_bytes += o.bytes;
                }
                Action::Forward => {
                    rc.matched_bytes += o.bytes;
                    rc.matched_packets += o.packets;
                    rc.passed_bytes += o.bytes;
                    to_forward.push((o.key, o.bytes, o.packets));
                }
                Action::Shape { .. } => shape_groups.entry(rule.id).or_default().push(o),
            }
        }
        for (id, group) in shape_groups {
            let Some(Action::Shape { rate_bps }) =
                rules.iter().find(|r| r.id == id).map(|r| r.action)
            else {
                unreachable!("shape group {id} without a shape rule");
            };
            let total: u64 = group.iter().map(|o| o.bytes).sum();
            let admitted = self
                .shapers
                .entry(id)
                .or_insert_with(|| TokenBucket::new(rate_bps, (rate_bps / 8).max(1500)))
                .admit(total, end_us);
            let bytes: Vec<u64> = group.iter().map(|o| o.bytes).collect();
            for (o, (fwd, _)) in group
                .iter()
                .zip(queue::drain_proportional(&bytes, admitted))
            {
                if fwd > 0 {
                    to_forward.push((o.key, fwd, packets_for(o.packets, o.bytes, fwd)));
                }
            }
            let rc = self.rule_counters.entry(id).or_default();
            rc.matched_bytes += total;
            rc.matched_packets += group.iter().map(|o| o.packets).sum::<u64>();
            rc.discarded_bytes += total - admitted;
            rc.passed_bytes += admitted;
            r.counters.shaped_bytes += admitted;
            r.counters.shape_dropped_bytes += total - admitted;
        }
        let budget = queue::capacity_bytes(CAPACITY_BPS, TICK_US);
        let bytes: Vec<u64> = to_forward.iter().map(|&(_, b, _)| b).collect();
        for ((key, b, packets), (fwd, dropped)) in to_forward
            .into_iter()
            .zip(queue::drain_proportional(&bytes, budget))
        {
            if fwd > 0 {
                let pkts = packets_for(packets, b, fwd);
                r.counters.forwarded_bytes += fwd;
                r.counters.forwarded_packets += pkts;
                r.delivered.push((key, fwd, pkts));
            }
            r.counters.congestion_dropped_bytes += dropped;
        }
        self.counters.absorb(&r.counters);
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel tick on a router built in a permuted port order is
    /// observationally identical to the sequential tick on the
    /// ascending build: same verdicts, same cumulative counters, same
    /// obs snapshot bytes — tick by tick — and both walk their ports
    /// and tick views in ascending `PortId` order.
    #[test]
    fn parallel_tick_matches_sequential(topo in arb_topology()) {
        let (port_rules, ticks, order) = topo;
        let n_ports = port_rules.len();
        let mut seq = build_router(&port_rules, &ascending(n_ports));
        seq.set_tick_workers(1);
        let mut par = build_router(&port_rules, &order);
        par.set_tick_workers(4);
        // Defeat the adaptive cutoff: these topologies are far below the
        // default threshold, and the property under test is the parallel
        // path itself.
        par.set_parallel_min_work(0);
        prop_assert!(is_ascending(par.ports().map(|(pid, _)| pid)));
        prop_assert_eq!(par.ports().count(), n_ports);
        for (t, gen) in ticks.iter().enumerate() {
            let offers = aggregates(&offers_for_tick(n_ports, gen));
            let end_us = (t as u64 + 1) * TICK_US;
            let rs = tick(&mut seq, &offers, end_us);
            let rp = tick(&mut par, &offers, end_us);
            prop_assert!(is_ascending(rp.iter().map(|(pid, _)| *pid)));
            prop_assert_eq!(rs, rp);
        }
        prop_assert!(is_ascending(par.ports().map(|(pid, _)| pid)));
        for ((spid, sport), (ppid, pport)) in seq.ports().zip(par.ports()) {
            prop_assert_eq!(spid, ppid);
            prop_assert_eq!(sport.counters, pport.counters);
        }
        prop_assert_eq!(seq.rule_ledger(), par.rule_ledger());
        prop_assert_eq!(obs_bytes(&seq), obs_bytes(&par));
    }

    /// The arena tick agrees with the first-match reference model on
    /// every tick's verdicts, every port's cumulative counters and
    /// every rule's counters, whatever order the ports were added in.
    #[test]
    fn arena_tick_matches_reference(topo in arb_topology()) {
        let (port_rules, ticks, order) = topo;
        let n_ports = port_rules.len();
        let mut er = build_router(&port_rules, &order);
        er.set_tick_workers(1);
        let rules: Vec<Vec<FilterRule>> = (0..n_ports)
            .map(|p| er.port(port_id(p)).expect("port exists").policy.rules().to_vec())
            .collect();
        let mut model: Vec<RefPort> = (0..n_ports).map(|_| RefPort::default()).collect();
        for (t, gen) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, gen);
            let end_us = (t as u64 + 1) * TICK_US;
            let got = tick(&mut er, &aggregates(&offers), end_us);
            let mut want = Vec::new();
            for p in 0..n_ports {
                let mine: Vec<OfferedAggregate> =
                    offers.iter().filter(|(q, _)| *q == p).map(|&(_, o)| o).collect();
                if !mine.is_empty() {
                    want.push((port_id(p), model[p].tick(&rules[p], &mine, end_us)));
                }
            }
            prop_assert_eq!(got, want);
        }
        for (p, m) in model.iter().enumerate() {
            let port = er.port(port_id(p)).expect("port exists");
            prop_assert_eq!(port.counters, m.counters);
            for (i, _) in port_rules[p].iter().enumerate() {
                let id = rule_id(p, i);
                prop_assert_eq!(
                    port.policy.rule_counters(id).copied().unwrap_or_default(),
                    m.rule_counters.get(&id).copied().unwrap_or_default()
                );
            }
        }
    }
}
