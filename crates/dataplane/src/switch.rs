//! The edge router: member ports + TCAM + control-plane CPU.
//!
//! IXPs "often deploy routers but configure them to act as switches"
//! (§5.1 fn. 5): the ER forwards on L2 (destination MAC → member port)
//! while its QoS machinery implements Stellar's filtering layer.

use crate::cpu::ControlPlaneCpu;
use crate::filter::FilterRule;
use crate::hardware::HardwareInfoBase;
use crate::port::MemberPort;
use crate::qos::{Offer, TickResult};
use crate::tcam::{Tcam, TcamHandle, TcamVerdict};
use std::collections::HashMap;
use stellar_classify::sharded;
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::packet::Packet;

/// Identifies a member port on the ER. `u32` so multi-PoP fabrics can
/// address ~10^6 ports with one flat, fabric-unique id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// One tick's worth of traffic belonging to one flow.
#[derive(Debug, Clone, Copy)]
pub struct OfferedAggregate {
    /// Flow key; `dst_mac` selects the egress port.
    pub key: FlowKey,
    /// Bytes in this tick.
    pub bytes: u64,
    /// Packets in this tick.
    pub packets: u64,
}

/// Errors installing a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// No such port.
    NoSuchPort,
    /// The vendor's per-port rule limit would be exceeded.
    PerPortLimit,
    /// TCAM exhaustion (F1/F2, Fig. 9).
    Tcam(TcamVerdict),
}

/// Fate of a single packet on the functional path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Delivered to the member on this port.
    Delivered(PortId),
    /// Discarded by a drop rule.
    Dropped,
    /// Queued behind a shaping rule (per-packet path reports the match;
    /// rate enforcement happens on the aggregate path).
    Shaped(PortId),
    /// No port knows this destination MAC.
    Unroutable,
}

/// The tick pipeline's reusable arena: per-port offer buckets, the
/// touched-port worklist, and one recycled [`TickResult`] per port, all
/// keyed by dense port index. Buckets and results are cleared, never
/// freed, between ticks, so a steady-state tick allocates nothing here.
#[derive(Debug, Default)]
struct TickScratch {
    /// Offers routed to each port this tick, by dense index.
    buckets: Vec<Vec<Offer>>,
    /// Dense indices that received traffic this tick, sorted ascending
    /// (= ascending `PortId`, the deterministic merge order).
    touched: Vec<u32>,
    /// Recycled per-port results, by dense index.
    results: Vec<TickResult>,
}

/// Borrowed view of one tick's outcome, indexed over the arena: the
/// results stay owned by the router for recycling.
#[derive(Debug, Clone, Copy)]
pub struct TickView<'a> {
    ids: &'a [PortId],
    touched: &'a [u32],
    results: &'a [TickResult],
}

impl<'a> TickView<'a> {
    /// Per-port results in ascending `PortId` order.
    pub fn iter(self) -> impl Iterator<Item = (PortId, &'a TickResult)> {
        let TickView {
            ids,
            touched,
            results,
        } = self;
        touched
            .iter()
            .map(move |&i| (ids[i as usize], &results[i as usize]))
    }

    /// The result for one port, if it saw traffic this tick.
    pub fn get(&self, pid: PortId) -> Option<&'a TickResult> {
        self.touched
            .iter()
            .find(|&&i| self.ids[i as usize] == pid)
            .map(|&i| &self.results[i as usize])
    }

    /// Number of ports that saw traffic this tick.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no port saw traffic.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// Disjoint `&mut` borrows of `items[i]` for each `i` in the strictly
/// ascending `indices`, reached by splitting the slice: one step per
/// index, none per skipped item.
fn pick_mut<'a, T>(items: &'a mut [T], indices: &'a [u32]) -> impl Iterator<Item = &'a mut T> {
    let mut rest = items;
    // Absolute index of `rest[0]`.
    let mut next = 0usize;
    indices.iter().map_while(move |&i| {
        let skip = (i as usize).checked_sub(next)?;
        let (item, tail) = std::mem::take(&mut rest)
            .get_mut(skip..)?
            .split_first_mut()?;
        rest = tail;
        next = i as usize + 1;
        Some(item)
    })
}

/// Worker count for the parallel tick mode: `STELLAR_TICK_WORKERS` when
/// set (1 = force sequential), else the machine's available parallelism.
fn tick_workers_from_env() -> usize {
    std::env::var("STELLAR_TICK_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(sharded::default_workers)
}

/// The edge router.
#[derive(Debug)]
pub struct EdgeRouter {
    hib: HardwareInfoBase,
    /// Port ids, ascending whenever `sorted`; position = dense index.
    ids: Vec<PortId>,
    /// Member ports, index-aligned with `ids`.
    ports: Vec<MemberPort>,
    /// Destination MAC → dense index: the one routing table the tick
    /// and the per-packet path share.
    by_mac: HashMap<MacAddr, u32>,
    /// False after an out-of-order [`add_port`](Self::add_port) until
    /// the next tick re-sorts the store.
    sorted: bool,
    tcam: Tcam,
    cpu: ControlPlaneCpu,
    handles: HashMap<(PortId, u64), TcamHandle>,
    /// Tick arena (see [`TickScratch`]).
    scratch: TickScratch,
    /// Max workers for the parallel tick mode; 1 = sequential.
    tick_workers: usize,
    /// Minimum per-tick work (Σ over touched ports of 1 + rules) below
    /// which the tick runs sequentially even when `tick_workers` > 1.
    parallel_min_work: u64,
    /// Whether the most recent tick actually fanned out to the pool.
    last_parallel: bool,
    /// Cumulative rule installs (including replacements' re-installs).
    installs: u64,
    /// Cumulative rule removals, including flush/restart wipes — so
    /// `installs - removals` always equals the live rule count and the
    /// obs ledger cannot drift from TCAM occupancy after a
    /// fault-recovery flush.
    removals: u64,
}

impl EdgeRouter {
    /// Creates an ER from a hardware description.
    pub fn new(hib: HardwareInfoBase) -> Self {
        let tcam = hib.tcam();
        let cpu = hib.cpu_model();
        EdgeRouter {
            hib,
            ids: Vec::new(),
            ports: Vec::new(),
            by_mac: HashMap::new(),
            sorted: true,
            tcam,
            cpu,
            handles: HashMap::new(),
            scratch: TickScratch::default(),
            tick_workers: tick_workers_from_env(),
            parallel_min_work: sharded::parallel_min_work_from_env(),
            last_parallel: false,
            installs: 0,
            removals: 0,
        }
    }

    /// Adds a member port. Panics if the port id or the MAC is already
    /// attached (topology bugs: a MAC on two ports would let the tick
    /// and per-packet paths deliver to different ports). Ports append;
    /// an out-of-order id defers the re-sort, and its duplicate-id
    /// check, to the next tick, so adding N ports in any order costs
    /// O(N log N).
    pub fn add_port(&mut self, id: PortId, port: MemberPort) {
        assert!(
            !self.sorted || self.ids.binary_search(&id).is_err(),
            "duplicate port id {id:?} in topology"
        );
        assert!(
            !self.by_mac.contains_key(&port.mac),
            "duplicate MAC {} in topology",
            port.mac
        );
        self.sorted &= self.ids.last().is_none_or(|&last| last < id);
        self.by_mac.insert(port.mac, self.ids.len() as u32);
        self.ids.push(id);
        self.ports.push(port);
    }

    /// Restores ascending id order after out-of-order adds and re-points
    /// the MAC table and the arena at the new positions. No-op on the
    /// steady-state tick path.
    fn sort_ports(&mut self) {
        if self.sorted {
            return;
        }
        self.sorted = true;
        let mut store: Vec<(PortId, MemberPort)> =
            self.ids.drain(..).zip(self.ports.drain(..)).collect();
        store.sort_unstable_by_key(|(id, _)| *id);
        (self.ids, self.ports) = store.into_iter().unzip();
        for w in self.ids.windows(2) {
            assert!(w[0] != w[1], "duplicate port id {:?} in topology", w[0]);
        }
        for (i, p) in self.ports.iter().enumerate() {
            self.by_mac.insert(p.mac, i as u32);
        }
        // Last tick's touched indices point at pre-sort positions.
        let TickScratch {
            buckets, touched, ..
        } = &mut self.scratch;
        for &i in touched.iter() {
            buckets[i as usize].clear();
        }
        touched.clear();
    }

    /// Dense index of a port: a binary search over the id order, or a
    /// scan while out-of-order adds await their re-sort.
    fn index_of(&self, id: PortId) -> Option<usize> {
        if self.sorted {
            self.ids.binary_search(&id).ok()
        } else {
            self.ids.iter().position(|&p| p == id)
        }
    }

    /// Caps the parallel tick fan-out; `1` forces the sequential
    /// in-place path. Defaults to `STELLAR_TICK_WORKERS` or the
    /// machine's available parallelism.
    pub fn set_tick_workers(&mut self, workers: usize) {
        self.tick_workers = workers.max(1);
    }

    /// The current parallel tick fan-out cap.
    pub fn tick_workers(&self) -> usize {
        self.tick_workers
    }

    /// Sets the adaptive-parallelism cutoff: ticks whose work estimate
    /// (Σ over touched ports of 1 + rules) falls below this run
    /// sequentially regardless of `tick_workers`. `0` disables the
    /// cutoff. Defaults to `STELLAR_PARALLEL_MIN_WORK` or
    /// [`sharded::DEFAULT_PARALLEL_MIN_WORK`].
    pub fn set_parallel_min_work(&mut self, min_work: u64) {
        self.parallel_min_work = min_work;
    }

    /// The adaptive-parallelism cutoff currently in force.
    pub fn parallel_min_work(&self) -> u64 {
        self.parallel_min_work
    }

    /// Whether the most recent tick actually fanned out to the worker
    /// pool (false: sequential, by configuration or by the adaptive
    /// cutoff). Benchmarks record this as the effective execution mode.
    pub fn last_tick_parallel(&self) -> bool {
        self.last_parallel
    }

    /// The port a MAC address is attached to.
    pub fn port_of_mac(&self, mac: MacAddr) -> Option<PortId> {
        self.by_mac.get(&mac).map(|&i| self.ids[i as usize])
    }

    /// Immutable access to a port.
    pub fn port(&self, id: PortId) -> Option<&MemberPort> {
        self.index_of(id).map(|i| &self.ports[i])
    }

    /// Mutable access to a port.
    pub fn port_mut(&mut self, id: PortId) -> Option<&mut MemberPort> {
        let i = self.index_of(id)?;
        self.ports.get_mut(i)
    }

    /// Iterates over all ports in ascending `PortId` order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        // Out-of-order adds not yet re-sorted by a tick are walked
        // through a sorted permutation instead.
        let order = (!self.sorted).then(|| {
            let mut order: Vec<usize> = (0..self.ids.len()).collect();
            order.sort_unstable_by_key(|&i| self.ids[i]);
            order
        });
        (0..self.ids.len()).map(move |k| {
            let i = order.as_ref().map_or(k, |o| o[k]);
            (self.ids[i], &self.ports[i])
        })
    }

    /// The TCAM (read access for scaling experiments).
    pub fn tcam(&self) -> &Tcam {
        self.tcam_ref()
    }

    fn tcam_ref(&self) -> &Tcam {
        &self.tcam
    }

    /// The control-plane CPU model.
    pub fn cpu_mut(&mut self) -> &mut ControlPlaneCpu {
        &mut self.cpu
    }

    /// Installs a rule on a port's egress policy, charging TCAM and CPU.
    /// All-or-nothing: on any failure neither the TCAM nor the policy is
    /// modified.
    pub fn install_rule(
        &mut self,
        port_id: PortId,
        rule: FilterRule,
        now_us: u64,
    ) -> Result<(), InstallError> {
        let i = self.index_of(port_id).ok_or(InstallError::NoSuchPort)?;
        let replacing = self.handles.contains_key(&(port_id, rule.id));
        if !replacing && self.ports[i].policy.rule_count() >= self.hib.max_rules_per_port {
            return Err(InstallError::PerPortLimit);
        }
        // Release the old allocation first when replacing, so retuning a
        // rule never double-charges the TCAM.
        if let Some(old) = self.handles.remove(&(port_id, rule.id)) {
            self.tcam.free(old);
        }
        let handle = self.tcam.alloc(&rule.spec).map_err(InstallError::Tcam)?;
        self.handles.insert((port_id, rule.id), handle);
        self.ports[i].policy.install(rule);
        // A replacement is one removal plus one install in the ledger,
        // counted only once the new allocation succeeded.
        if replacing {
            self.removals += 1;
        }
        self.installs += 1;
        self.cpu.record_update(now_us);
        Ok(())
    }

    /// Removes a rule, releasing its TCAM allocation.
    pub fn remove_rule(&mut self, port_id: PortId, rule_id: u64, now_us: u64) -> bool {
        let Some(i) = self.index_of(port_id) else {
            return false;
        };
        let removed = self.ports[i].policy.remove(rule_id);
        if removed {
            if let Some(h) = self.handles.remove(&(port_id, rule_id)) {
                self.tcam.free(h);
            }
            self.removals += 1;
            self.cpu.record_update(now_us);
        }
        removed
    }

    /// Removes every rule on a port (fallback-to-forwarding resilience,
    /// §4.1.2). Returns how many rules were removed.
    pub fn flush_port(&mut self, port_id: PortId, now_us: u64) -> usize {
        let Some(i) = self.index_of(port_id) else {
            return 0;
        };
        // The policy clears its compiled engine and reports what was
        // installed, so nothing re-walks the rule list here.
        let ids = self.ports[i].policy.clear();
        for id in &ids {
            if let Some(h) = self.handles.remove(&(port_id, *id)) {
                self.tcam.free(h);
            }
        }
        // A flush is N removals in the obs ledger, same as N
        // remove_rule calls — occupancy gauges cannot drift from it.
        self.removals += ids.len() as u64;
        if !ids.is_empty() {
            self.cpu.record_update(now_us);
        }
        ids.len()
    }

    /// Cold-restarts the edge router: every volatile piece of filter
    /// state — per-port QoS policies, rule telemetry counters, TCAM
    /// allocations — is wiped, while the persistent configuration (ports,
    /// MAC table, hardware description) survives, exactly as a power
    /// cycle behaves. Traffic keeps forwarding unfiltered afterwards
    /// (availability first, §4.1.2); the control plane must reconcile
    /// the rules back in. Returns how many installed rules were lost.
    pub fn restart(&mut self, now_us: u64) -> usize {
        let mut wiped = 0;
        for port in &mut self.ports {
            wiped += port.policy.reset();
        }
        self.handles.clear();
        self.tcam.reset();
        // Like flush_port: every wiped rule is a ledger removal, so the
        // install/removal counters keep agreeing with TCAM occupancy
        // across a power cycle.
        self.removals += wiped as u64;
        if wiped > 0 {
            self.cpu.record_update(now_us);
        }
        wiped
    }

    /// Pushes one tick of traffic through the router without allocating
    /// in steady state: routes `offers` by destination MAC into the
    /// arena's per-port buckets, runs every touched port's policy (in
    /// parallel when [`tick_workers`](Self::tick_workers) > 1), and
    /// returns a borrowed view of the per-port results in ascending
    /// `PortId` order. Aggregates toward an unknown MAC vanish.
    ///
    /// Ports are independent shards — each owns its policy, shapers and
    /// counters, and is mutated only by its owning worker — so parallel
    /// and sequential modes produce bit-identical results and obs
    /// snapshots; only wall-clock differs.
    pub fn process_tick_in_place(
        &mut self,
        offers: &[OfferedAggregate],
        tick_end_us: u64,
        tick_us: u64,
    ) -> TickView<'_> {
        self.sort_ports();
        let TickScratch {
            buckets,
            touched,
            results,
        } = &mut self.scratch;
        // Ports added since the last tick get their arena slots.
        buckets.resize_with(self.ports.len(), Vec::new);
        results.resize_with(self.ports.len(), TickResult::default);
        // Clear-don't-free: only last tick's touched buckets hold data.
        for &i in touched.iter() {
            buckets[i as usize].clear();
        }
        touched.clear();
        for o in offers {
            if let Some(&i) = self.by_mac.get(&o.key.dst_mac) {
                let bucket = &mut buckets[i as usize];
                if bucket.is_empty() {
                    touched.push(i);
                }
                bucket.push(Offer {
                    key: o.key,
                    bytes: o.bytes,
                    packets: o.packets,
                });
            }
            // Unroutable aggregates vanish (no port = no delivery), as on
            // a real fabric with no FDB entry and unicast flooding off.
        }
        // Deterministic merge order: ascending dense index == ascending
        // PortId, independent of offer arrival order and worker count.
        touched.sort_unstable();
        // Adaptive cutoff: estimate the tick's work as Σ over touched
        // ports of (1 + installed rules) — roughly ports × rules. Below
        // the threshold, pool dispatch costs more than it buys (the
        // 4-port sweep cell ran at 0.48× sequential), so fall back to
        // the in-place sequential walk, which also allocates nothing.
        let work: u64 = touched
            .iter()
            .map(|&i| 1 + self.ports[i as usize].policy.rule_count() as u64)
            .sum();
        let workers = sharded::effective_workers(self.tick_workers, work, self.parallel_min_work);
        self.last_parallel = workers > 1 && touched.len() > 1;
        // One shard per touched port: the port (sole owner of its
        // policy/shaper/counter state), its bucket, and its recycled
        // result slot.
        let shards = pick_mut(&mut self.ports, touched)
            .zip(pick_mut(results, touched))
            .zip(touched.iter())
            .map(|((port, result), &i)| (port, buckets[i as usize].as_slice(), result));
        if self.last_parallel {
            sharded::parallel_shards(shards.collect(), workers, |(port, offers, result)| {
                port.process_tick_into(offers, tick_end_us, tick_us, result);
            });
        } else {
            for (port, offers, result) in shards {
                port.process_tick_into(offers, tick_end_us, tick_us, result);
            }
        }
        self.last_tick()
    }

    /// The most recent tick's per-port results, read from the arena.
    pub fn last_tick(&self) -> TickView<'_> {
        TickView {
            ids: &self.ids,
            touched: &self.scratch.touched,
            results: &self.scratch.results,
        }
    }

    /// Functional per-packet path (§5.2): decodes real wire bytes,
    /// classifies them against the egress port's policy, and reports the
    /// packet's fate.
    pub fn process_packet(&self, wire: &[u8]) -> Result<PacketVerdict, stellar_net::NetError> {
        let packet = Packet::decode(wire)?;
        let key = packet.flow_key();
        let Some(&i) = self.by_mac.get(&key.dst_mac) else {
            return Ok(PacketVerdict::Unroutable);
        };
        let (pid, port) = (self.ids[i as usize], &self.ports[i as usize]);
        match port.policy.classify(&key).map(|r| r.action) {
            Some(crate::filter::Action::Drop) => Ok(PacketVerdict::Dropped),
            Some(crate::filter::Action::Shape { .. }) => Ok(PacketVerdict::Shaped(pid)),
            _ => Ok(PacketVerdict::Delivered(pid)),
        }
    }

    /// Total rules installed across all ports.
    pub fn total_rules(&self) -> usize {
        self.ports.iter().map(|p| p.policy.rule_count()).sum()
    }

    /// The cumulative `(installs, removals)` ledger published to obs.
    /// Invariant: `installs - removals == total_rules()`.
    pub fn rule_ledger(&self) -> (u64, u64) {
        (self.installs, self.removals)
    }

    /// Publishes the data-plane gauges: TCAM occupancy plus, per member
    /// port, rule/shaper population and the cumulative queue counters
    /// (forwarded, drop-rule drops, shaper passes/drops, congestion
    /// drops). Ports iterate in ascending `PortId` order, so the gauge
    /// set is stable across runs.
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        self.tcam.observe(reg);
        reg.gauge_set("dataplane.total_rules", self.total_rules() as i64);
        // Cumulative install/removal ledger: every mutation path —
        // install_rule, remove_rule, flush_port, restart — feeds these,
        // so `rule_installs - rule_removals == total_rules` always.
        reg.counter_set("dataplane.rule_installs", self.installs);
        reg.counter_set("dataplane.rule_removals", self.removals);
        self.observe_ports(reg);
    }

    /// Publishes only the per-port gauges — the multi-PoP fabric calls
    /// this per router (port ids are fabric-unique, so the gauge names
    /// cannot collide) while aggregating the router-global gauges itself.
    pub fn observe_ports(&self, reg: &mut stellar_obs::MetricsRegistry) {
        for (pid, port) in self.ports() {
            let p = format!("dataplane.port.{}", pid.0);
            reg.gauge_set(&format!("{p}.rules"), port.policy.rule_count() as i64);
            reg.gauge_set(
                &format!("{p}.shape_queues"),
                port.policy.shaper_count() as i64,
            );
            let c = &port.counters;
            reg.gauge_set(&format!("{p}.forwarded_bytes"), c.forwarded_bytes as i64);
            reg.gauge_set(&format!("{p}.dropped_bytes"), c.dropped_bytes as i64);
            reg.gauge_set(&format!("{p}.shaped_bytes"), c.shaped_bytes as i64);
            reg.gauge_set(
                &format!("{p}.shape_dropped_bytes"),
                c.shape_dropped_bytes as i64,
            );
            reg.gauge_set(
                &format!("{p}.congestion_dropped_bytes"),
                c.congestion_dropped_bytes as i64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Action, MatchSpec};
    use stellar_net::addr::Ipv4Address;
    use stellar_net::proto::IpProtocol;

    fn router_with_two_ports() -> EdgeRouter {
        let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
        er.add_port(
            PortId(1),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
        er.add_port(
            PortId(2),
            MemberPort::new(64501, MacAddr::for_member(64501, 1), 10_000_000_000),
        );
        er
    }

    fn ntp_flow(dst_member: u32, bytes: u64) -> OfferedAggregate {
        OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(64502, 1),
                dst_mac: MacAddr::for_member(dst_member, 1),
                src_ip: stellar_net::addr::IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
                dst_ip: stellar_net::addr::IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
                protocol: IpProtocol::UDP,
                src_port: 123,
                dst_port: 44444,
                ..FlowKey::default()
            },
            bytes,
            packets: bytes / 1000 + 1,
        }
    }

    #[test]
    fn traffic_routes_to_destination_port() {
        let mut er = router_with_two_ports();
        let res = er.process_tick_in_place(
            &[ntp_flow(64500, 1000), ntp_flow(64501, 2000)],
            1_000_000,
            1_000_000,
        );
        assert_eq!(forwarded(res, 1), 1000);
        assert_eq!(forwarded(res, 2), 2000);
        // Unroutable destination disappears.
        let res = er.process_tick_in_place(&[ntp_flow(9999, 500)], 2_000_000, 1_000_000);
        assert!(res.is_empty());
    }

    #[test]
    fn install_rule_charges_tcam_and_cpu() {
        let mut er = router_with_two_ports();
        let rule = FilterRule::new(
            1,
            MatchSpec::proto_src_port_to("100.10.10.10/32".parse().unwrap(), IpProtocol::UDP, 123),
            Action::Drop,
            10,
        );
        er.install_rule(PortId(1), rule.clone(), 0).unwrap();
        assert_eq!(er.tcam().l34_used(), 3);
        assert_eq!(er.total_rules(), 1);
        let res = er.process_tick_in_place(&[ntp_flow(64500, 1000)], 1_000_000, 1_000_000);
        assert_eq!(res.get(PortId(1)).unwrap().counters.dropped_bytes, 1000);
        assert!(er.remove_rule(PortId(1), 1, 2));
        assert_eq!(er.tcam().l34_used(), 0);
        let (rate, _) = er.cpu_mut().sample_window(5_000_000);
        assert!(rate > 0.0);
    }

    #[test]
    fn replacing_a_rule_does_not_leak_tcam() {
        let mut er = router_with_two_ports();
        let mk = |rate| {
            FilterRule::new(
                1,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    123,
                ),
                Action::Shape { rate_bps: rate },
                10,
            )
        };
        er.install_rule(PortId(1), mk(200_000_000), 0).unwrap();
        let used = er.tcam().l34_used();
        er.install_rule(PortId(1), mk(100_000_000), 1).unwrap();
        assert_eq!(er.tcam().l34_used(), used);
        assert_eq!(er.total_rules(), 1);
    }

    #[test]
    fn per_port_limit_is_enforced() {
        let mut er = router_with_two_ports(); // lab: 8 rules/port
        for i in 0..8u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        let extra = FilterRule::new(
            99,
            MatchSpec::to_destination("100.10.10.10/32".parse().unwrap()),
            Action::Drop,
            10,
        );
        assert_eq!(
            er.install_rule(PortId(1), extra, 0),
            Err(InstallError::PerPortLimit)
        );
    }

    #[test]
    fn tcam_exhaustion_fails_and_rolls_back() {
        let mut er = router_with_two_ports(); // lab: 64 L3-L4 criteria
        let mut installed = 0;
        // Rules with 5 L3-L4 criteria each across the two ports.
        'outer: for port in [PortId(1), PortId(2)] {
            for i in 0..8u64 {
                let rule = FilterRule::new(
                    1000 + installed as u64 * 10 + i,
                    MatchSpec {
                        src_ip: Some("203.0.113.0/24".parse().unwrap()),
                        dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                        protocol: Some(IpProtocol::UDP),
                        src_port: Some(crate::filter::PortMatch::Exact(i as u16)),
                        dst_port: Some(crate::filter::PortMatch::Exact(443)),
                        ..Default::default()
                    },
                    Action::Drop,
                    10,
                );
                match er.install_rule(port, rule, 0) {
                    Ok(()) => installed += 1,
                    Err(InstallError::Tcam(TcamVerdict::F1)) => break 'outer,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        assert_eq!(installed, 12); // 64 / 5 = 12 rules fit
        assert_eq!(er.total_rules(), 12);
        assert_eq!(er.tcam().l34_used(), 60);
    }

    #[test]
    fn flush_port_releases_everything() {
        let mut er = router_with_two_ports();
        for i in 0..4u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        assert_eq!(er.flush_port(PortId(1), 1), 4);
        assert_eq!(er.total_rules(), 0);
        assert_eq!(er.tcam().l34_used(), 0);
        assert_eq!(er.flush_port(PortId(1), 2), 0);
    }

    #[test]
    fn restart_wipes_filters_but_keeps_forwarding() {
        let mut er = router_with_two_ports();
        for i in 0..3u64 {
            let rule = FilterRule::new(
                i,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    i as u16,
                ),
                Action::Drop,
                10,
            );
            er.install_rule(PortId(1), rule, 0).unwrap();
        }
        assert_eq!(er.restart(1), 3);
        assert_eq!(er.total_rules(), 0);
        assert_eq!(er.tcam().l34_used(), 0);
        assert_eq!(er.tcam().allocation_count(), 0);
        // Ports and MAC table survive: traffic still forwards (now
        // unfiltered — the fallback-to-forwarding posture).
        let res = er.process_tick_in_place(&[ntp_flow(64500, 1000)], 1_000_000, 1_000_000);
        assert_eq!(forwarded(res, 1), 1000);
        // Rules can be reinstalled against the fresh TCAM.
        let rule = FilterRule::new(
            7,
            MatchSpec::proto_src_port_to("100.10.10.10/32".parse().unwrap(), IpProtocol::UDP, 123),
            Action::Drop,
            10,
        );
        er.install_rule(PortId(1), rule, 2).unwrap();
        assert_eq!(er.total_rules(), 1);
        // An idle restart wipes nothing.
        let mut fresh = router_with_two_ports();
        assert_eq!(fresh.restart(0), 0);
    }

    #[test]
    fn rule_ledger_survives_flush_and_restart() {
        let mut er = router_with_two_ports();
        let mk = |id: u64| {
            FilterRule::new(
                id,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    id as u16,
                ),
                Action::Drop,
                10,
            )
        };
        let agree = |er: &EdgeRouter| {
            let (installs, removals) = er.rule_ledger();
            assert_eq!(
                installs - removals,
                er.total_rules() as u64,
                "ledger drifted from live rules"
            );
            assert_eq!(
                er.tcam().allocation_count() as u64,
                installs - removals,
                "ledger drifted from TCAM occupancy"
            );
        };
        for i in 0..4u64 {
            er.install_rule(PortId(1), mk(i), 0).unwrap();
        }
        er.install_rule(PortId(2), mk(9), 0).unwrap();
        // A replacement counts once on each side of the ledger.
        er.install_rule(PortId(1), mk(2), 1).unwrap();
        agree(&er);
        assert!(er.remove_rule(PortId(1), 0, 2));
        agree(&er);
        // Fault-recovery flush: the gauges must not drift (the fix).
        assert_eq!(er.flush_port(PortId(1), 3), 3);
        agree(&er);
        assert_eq!(er.rule_ledger(), (6, 5));
        // Cold restart wipes the remaining rule on port 2.
        assert_eq!(er.restart(4), 1);
        agree(&er);
        assert_eq!(er.rule_ledger(), (6, 6));
        // And the obs snapshot carries the same numbers.
        let mut reg = stellar_obs::MetricsRegistry::new();
        er.observe(&mut reg);
        let json = serde_json::to_string(&reg.to_content()).unwrap();
        assert!(json.contains("\"dataplane.rule_installs\":6"));
        assert!(json.contains("\"dataplane.rule_removals\":6"));
    }

    fn forwarded(view: TickView<'_>, pid: u32) -> u64 {
        view.get(PortId(pid)).unwrap().counters.forwarded_bytes
    }

    #[test]
    fn in_place_tick_view_reads_the_arena() {
        let mut er = router_with_two_ports();
        let offers = [ntp_flow(64500, 1000), ntp_flow(64501, 2000)];
        let view = er.process_tick_in_place(&offers, 1_000_000, 1_000_000);
        assert_eq!(view.len(), 2);
        let got: Vec<(PortId, u64)> = view
            .iter()
            .map(|(pid, r)| (pid, r.counters.forwarded_bytes))
            .collect();
        assert_eq!(got, vec![(PortId(1), 1000), (PortId(2), 2000)]);
        assert_eq!(view.get(PortId(2)).unwrap().counters.forwarded_bytes, 2000);
        assert!(view.get(PortId(9)).is_none());
        // Second tick reuses the arena; the view reads it back.
        er.process_tick_in_place(&offers[..1], 2_000_000, 1_000_000);
        let last = er.last_tick();
        assert_eq!(last.len(), 1);
        assert_eq!(forwarded(last, 1), 1000);
        assert!(last.get(PortId(2)).is_none());
    }

    #[test]
    fn out_of_order_adds_walk_and_tick_in_id_order() {
        let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
        for (id, asn) in [(3u32, 64502u32), (1, 64500), (2, 64501)] {
            er.add_port(
                PortId(id),
                MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000),
            );
        }
        let ids = |er: &EdgeRouter| er.ports().map(|(pid, _)| pid.0).collect::<Vec<_>>();
        assert_eq!(ids(&er), vec![1, 2, 3]);
        assert_eq!(er.port(PortId(3)).map(|p| p.member_asn), Some(64502));
        let offers = [ntp_flow(64502, 300), ntp_flow(64500, 100)];
        let view = er.process_tick_in_place(&offers, 1_000_000, 1_000_000);
        let got: Vec<(u32, u64)> = view
            .iter()
            .map(|(pid, r)| (pid.0, r.counters.forwarded_bytes))
            .collect();
        assert_eq!(got, vec![(1, 100), (3, 300)]);
        assert_eq!(ids(&er), vec![1, 2, 3]);
        assert_eq!(
            er.port_of_mac(MacAddr::for_member(64501, 1)),
            Some(PortId(2))
        );
    }

    #[test]
    #[should_panic(expected = "duplicate MAC")]
    fn duplicate_mac_is_refused() {
        let mut er = router_with_two_ports();
        er.add_port(
            PortId(3),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate port id")]
    fn duplicate_id_in_an_out_of_order_batch_is_refused() {
        let mut er = router_with_two_ports();
        for (id, asn) in [(0u32, 64510u32), (2, 64511)] {
            er.add_port(
                PortId(id),
                MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000),
            );
        }
        er.process_tick_in_place(&[], 1_000_000, 1_000_000);
    }

    #[test]
    fn per_packet_path_agrees_with_policy() {
        let mut er = router_with_two_ports();
        er.install_rule(
            PortId(1),
            FilterRule::new(
                1,
                MatchSpec::proto_src_port_to(
                    "100.10.10.10/32".parse().unwrap(),
                    IpProtocol::UDP,
                    123,
                ),
                Action::Drop,
                10,
            ),
            0,
        )
        .unwrap();
        let ntp = Packet::udp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(64500, 1),
            Ipv4Address::new(203, 0, 113, 7),
            Ipv4Address::new(100, 10, 10, 10),
            123,
            44444,
            vec![0; 64],
        );
        assert_eq!(
            er.process_packet(&ntp.encode()).unwrap(),
            PacketVerdict::Dropped
        );
        let https = Packet::tcp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(64500, 1),
            Ipv4Address::new(198, 51, 100, 1),
            Ipv4Address::new(100, 10, 10, 10),
            51000,
            443,
            stellar_net::tcp::TcpFlags::SYN,
            vec![],
        );
        assert_eq!(
            er.process_packet(&https.encode()).unwrap(),
            PacketVerdict::Delivered(PortId(1))
        );
        let unroutable = Packet::udp_v4(
            MacAddr::for_member(64502, 1),
            MacAddr::for_member(7777, 1),
            Ipv4Address::new(1, 1, 1, 1),
            Ipv4Address::new(2, 2, 2, 2),
            1,
            2,
            vec![],
        );
        assert_eq!(
            er.process_packet(&unroutable.encode()).unwrap(),
            PacketVerdict::Unroutable
        );
    }
}
