//! The dataplane loop: offered aggregates through the multi-PoP fabric.
//!
//! [`tick`] is the one place a tick is timed. Untraced, it times
//! `Fabric::process_tick_in_place`. Traced, even ticks still go through
//! the fabric while odd ticks call each PoP's
//! `EdgeRouter::process_tick_in_place` directly on offers the benchmark
//! bucketed by PoP beforehand; per-port state evolves identically either
//! way (a port's verdicts depend only on its own offers, in order).
//! After each traced tick a separate pass times `QosPolicy::classify`
//! per offered key on its egress port.
//!
//! [`DataPlane`] builds the two dataplane workloads: `deep` (few victim
//! ports with rule tables near the per-port cap, classification heavy)
//! and `wide` (a very large port count with a small touched share, the
//! idle-port walk and the MAC→PoP exchange dominate).

use crate::alloc;
use crate::rng::{Digest, Rng};
use crate::trace::Trace;
use std::collections::BTreeSet;
use std::time::Instant;
use stellar_dataplane::filter::{Action, BitsMatch, FilterRule, MatchSpec, PortMatch, RangeMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::{Fabric, PopId};

/// Simulated tick length.
pub const TICK_US: u64 = 1_000_000;
const PORT_CAPACITY_BPS: u64 = 10_000_000_000;
/// TCP SYN.
const SYN: u8 = 0x02;

/// Tick samples from one measured window.
#[derive(Debug, Default)]
pub struct TickStats {
    /// Wall time (ms) of every tick through `Fabric::process_tick_in_place`.
    pub tick_ms: Vec<f64>,
    /// Σ wall time of those ticks.
    pub busy_ns: u64,
    /// Aggregates offered to those ticks.
    pub aggs: u64,
    /// Traced: Σ over PoPs of the direct router ticks (ms).
    pub router_ms: Vec<f64>,
    /// Traced: the router critical path of those ticks under the
    /// fabric's PoP fan-out (ms).
    pub router_critical_ms: Vec<f64>,
    /// Traced: heap allocations per tick.
    pub allocs: Vec<f64>,
    /// Traced: fabric ticks that fanned PoPs out to the pool.
    pub parallel: u64,
    /// Traced: ns per `QosPolicy::classify` call, per tick.
    pub lookup_ns: Vec<f64>,
    /// Traced: keys classified and keys that matched a rule.
    pub keys: u64,
    /// Traced: keys that matched a rule.
    pub hits: u64,
    /// Traced: rules on each touched port.
    pub rules_per_port: Vec<f64>,
    /// Traced: touched ports ÷ ports, per tick.
    pub touched_share: Vec<f64>,
    /// Traced: µs per `Fabric::install_rule` / `remove_rule`.
    pub update_us: Vec<f64>,
    next_id: u64,
}

impl TickStats {
    /// Empty stats whose tick ids start at `base`.
    pub fn starting_at(base: u64) -> Self {
        TickStats {
            next_id: base,
            ..Default::default()
        }
    }

    /// Pools another window's samples into these.
    pub fn absorb(&mut self, o: TickStats) {
        self.tick_ms.extend(o.tick_ms);
        self.busy_ns += o.busy_ns;
        self.aggs += o.aggs;
        self.router_ms.extend(o.router_ms);
        self.router_critical_ms.extend(o.router_critical_ms);
        self.allocs.extend(o.allocs);
        self.parallel += o.parallel;
        self.lookup_ns.extend(o.lookup_ns);
        self.keys += o.keys;
        self.hits += o.hits;
        self.rules_per_port.extend(o.rules_per_port);
        self.touched_share.extend(o.touched_share);
        self.update_us.extend(o.update_us);
    }

    /// A fresh tick id.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }
}

/// Buckets `offers` by the PoP of their egress port (unroutable
/// aggregates are left out, as the fabric's exchange does).
pub fn bucket_by_pop(fabric: &Fabric, offers: &[OfferedAggregate]) -> Vec<Vec<OfferedAggregate>> {
    let mut buckets = vec![Vec::new(); fabric.num_pops()];
    for o in offers {
        if let Some(pop) = fabric
            .port_of_mac(o.key.dst_mac)
            .and_then(|p| fabric.pop_of_port(p))
        {
            buckets[pop.0 as usize].push(*o);
        }
    }
    buckets
}

/// One tick of `offers` ending at `tick_end_us`. On the traced run's
/// router ticks the offers are bucketed by PoP first, outside every
/// timed span.
pub fn tick(
    fabric: &mut Fabric,
    offers: &[OfferedAggregate],
    tick_end_us: u64,
    id: u64,
    trace: &mut Trace,
    st: &mut TickStats,
) {
    if !trace.enabled() {
        let t = Instant::now();
        fabric.process_tick_in_place(offers, tick_end_us, TICK_US);
        let ns = t.elapsed().as_nanos() as u64;
        st.tick_ms.push(ns as f64 / 1e6);
        st.busy_ns += ns;
        st.aggs += offers.len() as u64;
        return;
    }
    let tick_span = trace.begin("tick", id);
    if id.is_multiple_of(2) {
        let t = Instant::now();
        let sp = trace.begin("sim.fabric_tick", id);
        let ((), allocs) = alloc::counted(true, || {
            fabric.process_tick_in_place(offers, tick_end_us, TICK_US)
        });
        trace.end(sp);
        let ns = t.elapsed().as_nanos() as u64;
        st.tick_ms.push(ns as f64 / 1e6);
        st.busy_ns += ns;
        st.aggs += offers.len() as u64;
        st.allocs.push(allocs as f64);
        st.parallel += u64::from(fabric.last_tick_parallel());
    } else {
        let buckets = bucket_by_pop(fabric, offers);
        let mut per_pop = Vec::with_capacity(buckets.len());
        for (pop, bucket) in buckets.iter().enumerate() {
            let Some(router) = fabric.router_mut(PopId(pop as u16)) else {
                continue;
            };
            let t = Instant::now();
            let sp = trace.begin("dataplane.router_tick", id);
            router.process_tick_in_place(bucket, tick_end_us, TICK_US);
            trace.end(sp);
            per_pop.push(t.elapsed().as_nanos() as f64 / 1e6);
        }
        st.router_ms.push(per_pop.iter().sum());
        st.router_critical_ms.push(critical_path(
            &per_pop,
            fabric.tick_workers(),
            fabric.last_tick_parallel(),
        ));
    }
    trace.end(tick_span);

    // Classification pass: every offered key against its egress port's
    // policy, timed as one batch.
    let policies: Vec<_> = offers
        .iter()
        .filter_map(|o| {
            let port = fabric
                .port_of_mac(o.key.dst_mac)
                .and_then(|p| fabric.port(p))?;
            Some((&o.key, &port.policy))
        })
        .collect();
    let t = Instant::now();
    let sp = trace.begin("classify.lookup", id);
    let mut hits = 0u64;
    for (key, policy) in &policies {
        hits += u64::from(policy.classify(key).is_some());
    }
    trace.end(sp);
    let ns = t.elapsed().as_nanos() as f64;
    if !policies.is_empty() {
        st.lookup_ns.push(ns / policies.len() as f64);
    }
    st.keys += policies.len() as u64;
    st.hits += hits;
    let touched: BTreeSet<PortId> = offers
        .iter()
        .filter_map(|o| fabric.port_of_mac(o.key.dst_mac))
        .collect();
    st.touched_share
        .push(touched.len() as f64 / fabric.ports().count().max(1) as f64);
    if st.touched_share.len() <= 2 {
        for p in &touched {
            if let Some(port) = fabric.port(*p) {
                st.rules_per_port.push(port.policy.rule_count() as f64);
            }
        }
    }
}

/// The router share of a fabric tick's wall time: Σ over PoPs when the
/// fabric ran its PoPs sequentially, else the slowest of the contiguous
/// worker chunks the pool splits the PoPs into.
fn critical_path(per_pop_ms: &[f64], workers: usize, parallel: bool) -> f64 {
    if !parallel || per_pop_ms.len() <= 1 || workers <= 1 {
        return per_pop_ms.iter().sum();
    }
    let chunk = per_pop_ms.len().div_ceil(workers.min(per_pop_ms.len()));
    per_pop_ms
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// Traced only: times `Fabric::install_rule` and `remove_rule` of a
/// probe rule on up to `sample` ports of the final state.
pub fn time_rule_updates(fabric: &mut Fabric, sample: usize, now_us: u64, st: &mut TickStats) {
    let ports: Vec<(PortId, u32)> = fabric.ports().map(|(id, p)| (id, p.member_asn)).collect();
    let step = (ports.len() / sample.max(1)).max(1);
    for (n, &(pid, asn)) in ports.iter().step_by(step).take(sample).enumerate() {
        let rule = FilterRule::new(
            u64::MAX - n as u64,
            MatchSpec {
                dst_ip: Some(Prefix::V4(Ipv4Prefix::host(Ipv4Address::new(
                    100,
                    (asn >> 16) as u8,
                    (asn >> 8) as u8,
                    asn as u8,
                )))),
                protocol: Some(IpProtocol::UDP),
                src_port: Some(PortMatch::Exact(7)),
                ..Default::default()
            },
            Action::Drop,
            u16::MAX,
        );
        let t = Instant::now();
        let installed = fabric.install_rule(pid, rule, now_us).is_ok();
        st.update_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if installed {
            let t = Instant::now();
            fabric.remove_rule(pid, u64::MAX - n as u64, now_us);
            st.update_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
}

/// Sizes of one dataplane workload.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    /// PoPs (edge routers).
    pub pops: usize,
    /// Member ports across the fabric.
    pub ports: usize,
    /// Ports holding rules.
    pub ruled_ports: usize,
    /// Rule tables: deep (7-field specs, `min..=max` rules per port) or
    /// wide (four one-field rules per port).
    pub rules: RuleShape,
    /// Aggregates offered per tick.
    pub offers_per_tick: usize,
    /// Distinct offer sets, cycled tick by tick.
    pub offer_sets: usize,
}

/// How ruled ports are populated.
#[derive(Debug, Clone, Copy)]
pub enum RuleShape {
    /// Seven-field rules, `min..=max` per port; 80% of offers go to the
    /// ruled ports and half of those are drawn to match a rule.
    Deep {
        /// Fewest rules on a ruled port.
        min: usize,
        /// Most rules on a ruled port.
        max: usize,
    },
    /// `per_port` UDP source-port rules per ruled port; offers spread
    /// multiplicatively over every port.
    Wide {
        /// Rules per ruled port.
        per_port: usize,
    },
}

/// A built dataplane workload.
pub struct DataPlane {
    /// The fabric under test.
    pub fabric: Fabric,
    /// Offer sets, used round-robin.
    pub sets: Vec<Vec<OfferedAggregate>>,
    /// Ticks run so far with each set.
    pub ticks_per_set: Vec<u64>,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Aggregates whose destination MAC no port owns.
    pub unroutable: u64,
    ticks: u64,
}

fn member_asn(port: usize) -> u32 {
    64_500 + port as u32
}

fn port_mac(port: usize) -> MacAddr {
    MacAddr::for_member(member_asn(port), 1)
}

fn port_addr(port: usize) -> Ipv4Address {
    Ipv4Address::new(
        100,
        ((port >> 16) & 0xff) as u8,
        ((port >> 8) & 0xff) as u8,
        (port & 0xff) as u8,
    )
}

/// Ruled port `i` of `n` among `ports`: spread evenly, so ruled ports
/// land on every PoP.
fn ruled_port(i: usize, n: usize, ports: usize) -> usize {
    i * (ports / n.max(1)).max(1)
}

fn deep_rule(rng: &mut Rng, id: u64, priority: u16, dst: Ipv4Address) -> FilterRule {
    let dst_ip = Some(Prefix::V4(Ipv4Prefix::host(dst)));
    let len_lo = rng.range(40, 900) as u16;
    let packet_len = Some(RangeMatch::new(len_lo, len_lo + rng.range(100, 600) as u16));
    let dscp_lo = rng.range(0, 40) as u8;
    let dscp = Some(RangeMatch::new(dscp_lo, dscp_lo + rng.range(4, 23) as u8));
    let spec = if rng.chance(2, 3) {
        // UDP amplification: vector or low-port range as the source.
        let src_port = if rng.chance(1, 2) {
            PortMatch::Exact(crate::control::VECTORS[rng.below(6) as usize])
        } else {
            let lo = rng.range(0, 4000) as u16;
            PortMatch::Range(lo, lo + rng.range(0, 95) as u16)
        };
        MatchSpec {
            dst_ip,
            protocol: Some(IpProtocol::UDP),
            src_port: Some(src_port),
            dst_port: Some(PortMatch::Range(1024, 65_535)),
            packet_len,
            dscp,
            ..Default::default()
        }
    } else {
        // TCP SYN flood towards a service port.
        let lo = rng.range(1024, 30_000) as u16;
        MatchSpec {
            dst_ip,
            protocol: Some(IpProtocol::TCP),
            src_port: Some(PortMatch::Range(lo, lo + rng.range(100, 4000) as u16)),
            dst_port: Some(PortMatch::Exact([80, 443, 22, 25][rng.below(4) as usize])),
            tcp_flags: Some(BitsMatch::all_of(SYN)),
            packet_len,
            dscp,
            ..Default::default()
        }
    };
    let action = match rng.below(10) {
        0..=5 => Action::Drop,
        6..=8 => Action::Shape {
            rate_bps: rng.range(1, 50) * 10_000_000,
        },
        _ => Action::Forward,
    };
    FilterRule::new(id, spec, action, priority)
}

/// A key inside `spec` (every range and cube satisfied).
fn key_in(rng: &mut Rng, spec: &MatchSpec, key: &mut FlowKey) {
    let pick_port = |rng: &mut Rng, m: &Option<PortMatch>| match m {
        Some(PortMatch::Exact(p)) => *p,
        Some(PortMatch::Range(lo, hi)) => rng.range(u64::from(*lo), u64::from(*hi)) as u16,
        None => rng.range(1024, 65_535) as u16,
    };
    key.protocol = spec.protocol.unwrap_or(IpProtocol::UDP);
    key.src_port = pick_port(rng, &spec.src_port);
    key.dst_port = pick_port(rng, &spec.dst_port);
    key.tcp_flags = spec.tcp_flags.map_or(0, |b| b.value);
    if let Some(r) = spec.packet_len {
        key.packet_len = rng.range(u64::from(r.lo), u64::from(r.hi)) as u16;
    }
    if let Some(r) = spec.dscp {
        key.dscp = rng.range(u64::from(r.lo), u64::from(r.hi)) as u8;
    }
}

fn wide_rules(seed: u64, per_port: usize, port: usize, first_id: u64) -> Vec<FilterRule> {
    let mut rng = Rng::new(seed, 0x71de ^ port as u64);
    (0..per_port)
        .map(|r| {
            let action = match r % 3 {
                0 => Action::Drop,
                1 => Action::Shape {
                    rate_bps: 50_000_000,
                },
                _ => Action::Forward,
            };
            FilterRule::new(
                first_id + r as u64,
                MatchSpec {
                    protocol: Some(IpProtocol::UDP),
                    src_port: Some(PortMatch::Exact(rng.below(1024) as u16)),
                    ..Default::default()
                },
                action,
                r as u16,
            )
        })
        .collect()
}

impl DataPlane {
    /// Builds the fabric, installs the rule tables straight into the
    /// port policies and generates the offer sets for `seed`.
    pub fn setup(spec: DataSpec, seed: u64) -> Self {
        let mut fabric = Fabric::new(HardwareInfoBase::production_er(), spec.pops);
        for p in 0..spec.ports {
            fabric.add_port(
                PopId((p % spec.pops) as u16),
                PortId(p as u32 + 1),
                MemberPort::new(member_asn(p), port_mac(p), PORT_CAPACITY_BPS),
            );
        }
        let mut digest = Digest::default();
        let mut rng = Rng::new(seed, 0xda7a);
        let mut next_id = 1u64;
        let ruled: Vec<usize> = (0..spec.ruled_ports)
            .map(|i| ruled_port(i, spec.ruled_ports, spec.ports))
            .collect();
        let mut tables: Vec<Vec<FilterRule>> = Vec::with_capacity(ruled.len());
        for &p in &ruled {
            let rules = match spec.rules {
                RuleShape::Deep { min, max } => {
                    let n = rng.range(min as u64, max as u64) as usize;
                    (0..n)
                        .map(|r| deep_rule(&mut rng, next_id + r as u64, r as u16, port_addr(p)))
                        .collect()
                }
                RuleShape::Wide { per_port } => wide_rules(seed, per_port, p, next_id),
            };
            next_id += rules.len() as u64;
            for r in &rules {
                digest.u64(r.id);
                digest.bytes(format!("{:?}{:?}", r.spec, r.action).as_bytes());
            }
            if let Some(port) = fabric.port_mut(PortId(p as u32 + 1)) {
                for r in &rules {
                    port.policy.install(r.clone());
                }
            }
            tables.push(rules);
        }
        let sets: Vec<Vec<OfferedAggregate>> = (0..spec.offer_sets)
            .map(|s| {
                let mut rng = Rng::new(seed, 0x0ffe + s as u64);
                (0..spec.offers_per_tick)
                    .map(|i| match spec.rules {
                        RuleShape::Deep { .. } => deep_offer(&mut rng, &spec, &ruled, &tables),
                        RuleShape::Wide { .. } => wide_offer(&mut rng, &spec, i, s),
                    })
                    .collect()
            })
            .collect();
        let mut unroutable = 0;
        for set in &sets {
            for o in set {
                digest.bytes(format!("{:?}{}{}", o.key, o.bytes, o.packets).as_bytes());
                unroutable += u64::from(fabric.port_of_mac(o.key.dst_mac).is_none());
            }
        }
        DataPlane {
            fabric,
            ticks_per_set: vec![0; sets.len()],
            sets,
            digest: digest.value(),
            unroutable,
            ticks: 0,
        }
    }

    /// Runs the next tick.
    pub fn step(&mut self, trace: &mut Trace, st: &mut TickStats) {
        let s = (self.ticks % self.sets.len() as u64) as usize;
        self.ticks += 1;
        self.ticks_per_set[s] += 1;
        let id = st.next_id();
        tick(
            &mut self.fabric,
            &self.sets[s],
            self.ticks * TICK_US,
            id,
            trace,
            st,
        );
    }

    /// Runs the next tick untimed (warm-up and check replays).
    pub fn step_untimed(&mut self) {
        let s = (self.ticks % self.sets.len() as u64) as usize;
        self.ticks += 1;
        self.ticks_per_set[s] += 1;
        self.fabric
            .process_tick_in_place(&self.sets[s], self.ticks * TICK_US, TICK_US);
    }

    /// Simulated time of the last tick.
    pub fn now_us(&self) -> u64 {
        self.ticks * TICK_US
    }

    /// FNV digest of every port's cumulative counters, in port order.
    pub fn counters_digest(&self) -> u64 {
        let mut d = Digest::default();
        for (pid, port) in self.fabric.ports() {
            let c = &port.counters;
            d.u64(u64::from(pid.0));
            for x in [
                c.forwarded_bytes,
                c.forwarded_packets,
                c.dropped_bytes,
                c.dropped_packets,
                c.shaped_bytes,
                c.shape_dropped_bytes,
                c.congestion_dropped_bytes,
            ] {
                d.u64(x);
            }
        }
        d.value()
    }

    /// The independent oracle: a first-match scan (`MatchSpec::matches`
    /// over `QosPolicy::rules()`) of every offer of every set, weighted
    /// by how many ticks ran that set, must reproduce each port's
    /// cumulative drop and shape counters.
    pub fn check_oracle(&self) -> Result<(), String> {
        // (dropped bytes, dropped packets, shape-matched bytes) per port.
        let mut expect: std::collections::BTreeMap<PortId, [u64; 3]> = Default::default();
        for (set, &ticks) in self.sets.iter().zip(&self.ticks_per_set) {
            if ticks == 0 {
                continue;
            }
            for o in set {
                let Some(pid) = self.fabric.port_of_mac(o.key.dst_mac) else {
                    continue;
                };
                let Some(port) = self.fabric.port(pid) else {
                    continue;
                };
                let first = port.policy.rules().iter().find(|r| r.spec.matches(&o.key));
                let e = expect.entry(pid).or_default();
                match first.map(|r| r.action) {
                    Some(Action::Drop) => {
                        e[0] += o.bytes * ticks;
                        e[1] += o.packets * ticks;
                    }
                    Some(Action::Shape { .. }) => e[2] += o.bytes * ticks,
                    Some(Action::Forward) | None => {}
                }
            }
        }
        for (pid, port) in self.fabric.ports() {
            let c = &port.counters;
            let got = [
                c.dropped_bytes,
                c.dropped_packets,
                c.shaped_bytes + c.shape_dropped_bytes,
            ];
            let want = expect.get(&pid).copied().unwrap_or_default();
            if got != want {
                return Err(format!(
                    "{pid:?}: counters (dropped B, dropped pkts, shaped B) = {got:?}, \
                     first-match oracle says {want:?}"
                ));
            }
        }
        Ok(())
    }
}

/// A deep-workload offer: 80% to ruled ports (half drawn inside one of
/// the port's rules, half to UDP source ports no rule covers), 20% to
/// other ports.
fn deep_offer(
    rng: &mut Rng,
    spec: &DataSpec,
    ruled: &[usize],
    tables: &[Vec<FilterRule>],
) -> OfferedAggregate {
    let mut key = FlowKey {
        src_mac: MacAddr::for_member(70_000 + rng.below(64) as u32, 1),
        src_ip: IpAddress::V4(Ipv4Address::new(
            198,
            51,
            rng.below(256) as u8,
            rng.below(256) as u8,
        )),
        protocol: IpProtocol::UDP,
        src_port: rng.range(40_000, 60_000) as u16,
        dst_port: rng.range(1024, 65_535) as u16,
        packet_len: rng.range(64, 1500) as u16,
        dscp: rng.below(64) as u8,
        ..FlowKey::default()
    };
    let port = if rng.chance(4, 5) && !ruled.is_empty() {
        let v = rng.below(ruled.len() as u64) as usize;
        if rng.chance(1, 2) && !tables[v].is_empty() {
            let rule = &tables[v][rng.below(tables[v].len() as u64) as usize];
            key_in(rng, &rule.spec, &mut key);
        }
        ruled[v]
    } else {
        rng.below(spec.ports as u64) as usize
    };
    key.dst_mac = port_mac(port);
    key.dst_ip = IpAddress::V4(port_addr(port));
    let bytes = rng.range(10_000, 1_000_000);
    OfferedAggregate {
        key,
        bytes,
        packets: bytes / 1000 + 1,
    }
}

/// A wide-workload offer: destinations spread multiplicatively over the
/// whole port range (each set shifted by a seeded offset), UDP-heavy
/// with source ports overlapping the rule space.
fn wide_offer(rng: &mut Rng, spec: &DataSpec, i: usize, set: usize) -> OfferedAggregate {
    let p = ((i as u64).wrapping_mul(0x9e37_79b1) + set as u64 * 7919) % spec.ports as u64;
    let p = p as usize;
    let protocol = if rng.chance(1, 4) {
        IpProtocol::TCP
    } else {
        IpProtocol::UDP
    };
    let bytes = rng.range(10_000, 110_000);
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(65_600_000 + rng.below(64) as u32, 1),
            dst_mac: port_mac(p),
            src_ip: IpAddress::V4(Ipv4Address::new(
                198,
                51,
                rng.below(256) as u8,
                rng.below(256) as u8,
            )),
            dst_ip: IpAddress::V4(port_addr(p)),
            protocol,
            src_port: rng.below(2048) as u16,
            dst_port: if protocol == IpProtocol::TCP {
                443
            } else {
                40_000
            },
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 1200 + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_deep() -> DataSpec {
        DataSpec {
            pops: 2,
            ports: 40,
            ruled_ports: 4,
            rules: RuleShape::Deep { min: 20, max: 40 },
            offers_per_tick: 400,
            offer_sets: 2,
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = DataPlane::setup(small_deep(), 11);
        let b = DataPlane::setup(small_deep(), 11);
        let c = DataPlane::setup(small_deep(), 12);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        let render = |d: &DataPlane| format!("{:?}", d.sets);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn oracle_accepts_the_fabric_and_catches_a_sabotaged_action() {
        let mut d = DataPlane::setup(small_deep(), 5);
        for _ in 0..3 {
            d.step_untimed();
        }
        assert_eq!(d.check_oracle(), Ok(()));
        // Flip one drop rule that traffic actually hit to forward: the
        // counters now disagree with what the rule table says.
        let (pid, rule) = d
            .fabric
            .ports()
            .find_map(|(pid, port)| {
                port.policy
                    .rules()
                    .iter()
                    .find(|r| {
                        r.action == Action::Drop
                            && port
                                .policy
                                .rule_counters(r.id)
                                .is_some_and(|c| c.matched_bytes > 0)
                    })
                    .map(|r| (pid, r.clone()))
            })
            .expect("some drop rule matched traffic");
        let mut sabotaged = rule.clone();
        sabotaged.action = Action::Forward;
        d.fabric
            .port_mut(pid)
            .expect("port exists")
            .policy
            .install(sabotaged);
        assert!(d.check_oracle().is_err());
    }

    #[test]
    fn deep_offers_hit_rules_about_four_tenths_of_the_time() {
        let d = DataPlane::setup(small_deep(), 3);
        let set = &d.sets[0];
        let hits = set
            .iter()
            .filter(|o| {
                d.fabric
                    .port_of_mac(o.key.dst_mac)
                    .and_then(|p| d.fabric.port(p))
                    .is_some_and(|p| p.policy.classify(&o.key).is_some())
            })
            .count();
        let share = hits as f64 / set.len() as f64;
        assert!((0.3..0.5).contains(&share), "hit share {share}");
        assert_eq!(d.unroutable, 0);
    }

    #[test]
    fn critical_path_follows_the_pool_chunking() {
        let per_pop = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(critical_path(&per_pop, 2, false), 10.0);
        // Two workers: chunks [1,2] and [3,4].
        assert_eq!(critical_path(&per_pop, 2, true), 7.0);
    }
}
