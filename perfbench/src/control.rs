//! The control loop: members signal over BGP, one closed-loop caller.
//!
//! Setup builds an IXP of generic members on several PoPs, announces
//! every prefix, optionally preloads standing rules (three per member)
//! and generates the op stream as wire bytes. The measured loop then
//! cycles churn victims through announce (shape), escalate (shape→drop)
//! and withdraw; in every round a quarter of the victims signal over
//! RFC 8955 FlowSpec, the rest over Stellar extended communities. An op is
//! complete when every change it queued is applied. Optionally, once per
//! simulated second between ops, a light verification tick checks that
//! attack traffic to mitigated victims is dropped or shaped and benign
//! traffic is forwarded.

use crate::alloc;
use crate::data::{self, TickStats};
use crate::rng::{Digest, Rng};
use crate::trace::Trace;
use std::time::Instant;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{Component, FlowSpec, NumericOp};
use stellar_bgp::message::{DecodeCtx, Message};
use stellar_bgp::types::{Afi, Asn};
use stellar_bgp::update::UpdateMessage;
use stellar_core::audit::audit_batch;
use stellar_core::controller::BlackholingController;
use stellar_core::flowspec::lower_flowspec;
use stellar_core::proof::{check_lowering, LoweringProof};
use stellar_core::signal::StellarSignal;
use stellar_core::system::StellarSystem;
use stellar_dataplane::counters::PortCounters;
use stellar_dataplane::filter::Action;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::switch::{OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_net::proto::IpProtocol;
use stellar_routeserver::server::RouteServer;
use stellar_sim::topology::{generic_members, IxpTopology, MemberSpec};

/// The paper's sustainable configuration-change rate (§5.1).
pub const QUEUE_RATE_PER_S: f64 = 4.33;
const FIRST_ASN: u32 = 64500;
/// Amplification vectors (Kopp et al.): UDP source ports of DNS, NTP,
/// memcached, CLDAP, SSDP and chargen reflectors.
pub const VECTORS: [u16; 6] = [53, 123, 11211, 389, 1900, 19];
/// Bytes one attack aggregate offers per verification tick (400 Mbps).
const ATTACK_BYTES: u64 = 50_000_000;
/// Bytes one benign aggregate offers per verification tick.
const BENIGN_BYTES: u64 = 500_000;
/// Simulated time after which an op that has not completed counts as
/// failed.
const OP_DEADLINE_US: u64 = 120_000_000;
/// Standing victims checked per verification tick.
const STANDING_CHECKED: usize = 16;
const SECOND_US: u64 = 1_000_000;

/// Sizes of one control loop.
#[derive(Debug, Clone, Copy)]
pub struct ControlSpec {
    /// Generic members (one port each).
    pub members: usize,
    /// PoPs the members are round-robined over.
    pub pops: usize,
    /// Preload three standing rules for every member that is not a
    /// churn victim.
    pub standing: bool,
    /// Members whose victim cycles through announce/escalate/withdraw.
    pub churn_victims: usize,
    /// Distinct rounds of the cycle generated (then repeated).
    pub rounds: usize,
    /// Run verification ticks once per simulated second.
    pub verify: bool,
}

/// What a victim's rules do to its attack vectors.
type Mitigation = Vec<(u16, Action)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Announce,
    Escalate,
    Withdraw,
}

/// One generated op: the wire UPDATE a member sends, and what the
/// victim's mitigation must be once it completes.
#[derive(Debug, Clone)]
struct OpInput {
    member: Asn,
    victim: usize,
    kind: OpKind,
    flowspec: bool,
    wire: Vec<u8>,
    after: Option<Mitigation>,
    /// Simulated think time before the op arrives.
    gap_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct Victim {
    member: Asn,
    port: PortId,
    mac: MacAddr,
    addr: Ipv4Address,
}

/// The parts of an UPDATE the system's `member_*` calls take.
enum Call {
    Signal(Prefix, Vec<StellarSignal>),
    Withdraw(Prefix),
    FlowSpec(FlowSpec, Vec<ExtendedCommunity>),
    FlowSpecWithdraw(FlowSpec),
}

/// Route server and controller built by the same constructors and fed
/// the same decoded stream, so their cost can be timed from outside.
struct Replica {
    rs: RouteServer,
    controller: BlackholingController,
}

/// Control-loop samples from one measured window.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Per op: decode + `member_*` + the pumps that applied its changes.
    pub signal_us: Vec<f64>,
    /// Per op: simulated UPDATE receipt → last change installed.
    pub reaction_s: Vec<f64>,
    /// Σ wall time of the control loop (every pump included).
    pub loop_ns: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops refused, dead-lettered or stalled.
    pub failed: u64,
    /// Traced: heap allocations per op (decode, admit and pumps).
    pub allocs: Vec<f64>,
    /// Traced: route-server exports per community UPDATE.
    pub exports: Vec<f64>,
    /// Traced: rules in the live desired table per audit.
    pub audit_scanned: Vec<f64>,
    /// Traced: wall time (µs) of each pump that applied a change.
    pub pump_applied_us: Vec<f64>,
    /// Changes applied by pumps.
    pub applied: u64,
    /// Largest queue backlog seen right after an admission.
    pub backlog_max: usize,
    /// Queue waits (simulated µs) logged during the window.
    pub queue_wait_us: Vec<f64>,
}

/// A running control loop.
pub struct ControlLoop {
    /// The system under test.
    pub sys: StellarSystem,
    ixp_asn: Asn,
    ops: Vec<OpInput>,
    pump_steps: Vec<u64>,
    next_op: usize,
    next_step: usize,
    now_us: u64,
    victims: Vec<Victim>,
    state: Vec<Option<Mitigation>>,
    standing: Vec<(Victim, Mitigation)>,
    next_standing: usize,
    verify: bool,
    last_tick_us: u64,
    replica: Option<Replica>,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Output-check failures found so far.
    pub failures: Vec<String>,
    offers: Vec<OfferedAggregate>,
    expect: Vec<(PortId, Mitigation, PortCounters)>,
    ops_done: u64,
}

fn host(prefix: &Prefix, n: u64) -> Option<Ipv4Address> {
    match prefix {
        Prefix::V4(p) => Some(p.nth_host(n)),
        Prefix::V6(_) => None,
    }
}

fn encode(update: UpdateMessage) -> Result<Vec<u8>, String> {
    Message::Update(update)
        .encode(DecodeCtx::default())
        .map_err(|e| format!("encode UPDATE: {e:?}"))
}

/// `k` of the amplification vectors, in a seeded choice.
fn pick_vectors(rng: &mut Rng, k: usize) -> Vec<u16> {
    let mut v = VECTORS.to_vec();
    rng.shuffle(&mut v);
    v.truncate(k);
    v.sort_unstable();
    v
}

fn community_update(
    ixp: &IxpTopology,
    ixp_asn: Asn,
    member: Asn,
    victim: Prefix,
    signals: &[StellarSignal],
) -> UpdateMessage {
    let mut update = ixp.announcement(member, victim);
    let ecs: Vec<_> = signals.iter().map(|s| s.encode(ixp_asn)).collect();
    update.add_extended_communities(&ecs);
    update
}

fn flowspec_nlri(victim: Prefix, ports: &[u16], min_len: bool) -> Result<FlowSpec, String> {
    let mut components = vec![
        Component::DstPrefix(victim),
        Component::IpProtocol(vec![NumericOp::equals(17)]),
        Component::SrcPort(
            ports
                .iter()
                .map(|&p| NumericOp::equals(u64::from(p)))
                .collect(),
        ),
    ];
    if min_len {
        components.push(Component::PacketLength(vec![NumericOp::ge(400)]));
    }
    FlowSpec::new(Afi::Ipv4, components).map_err(|e| format!("flowspec NLRI: {e:?}"))
}

fn flowspec_update(member: Asn, flow: FlowSpec, rate_bps: u64) -> UpdateMessage {
    let mut update = UpdateMessage {
        withdrawn: vec![],
        attrs: vec![
            PathAttribute::AsPath(AsPath::sequence([member.0])),
            PathAttribute::MpReachFlowSpec {
                afi: Afi::Ipv4,
                nlri: vec![flow],
            },
        ],
        nlri: vec![],
    };
    update.add_extended_communities(&[ExtendedCommunity::traffic_rate(
        member.0 as u16,
        rate_bps as f32 / 8.0,
    )]);
    update
}

fn flowspec_withdraw_update(flow: FlowSpec) -> UpdateMessage {
    UpdateMessage {
        withdrawn: vec![],
        attrs: vec![PathAttribute::MpUnreachFlowSpec {
            afi: Afi::Ipv4,
            nlri: vec![flow],
        }],
        nlri: vec![],
    }
}

/// Turns a decoded UPDATE into the `member_*` call it stands for.
fn to_call(update: &UpdateMessage, ixp_asn: Asn) -> Option<Call> {
    for a in &update.attrs {
        match a {
            PathAttribute::MpReachFlowSpec { nlri, .. } => {
                let flow = nlri.first()?.clone();
                return Some(Call::FlowSpec(flow, update.extended_communities().to_vec()));
            }
            PathAttribute::MpUnreachFlowSpec { nlri, .. } => {
                return Some(Call::FlowSpecWithdraw(nlri.first()?.clone()));
            }
            _ => {}
        }
    }
    if let Some(w) = update.withdrawn.first() {
        return Some(Call::Withdraw(w.prefix));
    }
    let prefix = update.nlri.first()?.prefix;
    let signals = update
        .extended_communities()
        .iter()
        .filter_map(|ec| StellarSignal::decode(ec, ixp_asn))
        .collect();
    Some(Call::Signal(prefix, signals))
}

impl OpStats {
    /// Pools another window's samples into these.
    pub fn absorb(&mut self, o: OpStats) {
        self.signal_us.extend(o.signal_us);
        self.reaction_s.extend(o.reaction_s);
        self.loop_ns += o.loop_ns;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.allocs.extend(o.allocs);
        self.exports.extend(o.exports);
        self.audit_scanned.extend(o.audit_scanned);
        self.pump_applied_us.extend(o.pump_applied_us);
        self.applied += o.applied;
        self.backlog_max = self.backlog_max.max(o.backlog_max);
        self.queue_wait_us.extend(o.queue_wait_us);
    }
}

impl ControlLoop {
    /// Builds the IXP, preloads standing rules and generates the op
    /// stream for `seed`. With `replica`, also builds the replica route
    /// server and controller the traced run times. Instance `rep` of
    /// `reps` starts its op stream `rep/reps` of the way through (at a
    /// round boundary), so the instances of one run measure different
    /// ops; its op ids (the span ids of the traced run) start at
    /// `rep << 32`.
    pub fn setup(
        spec: ControlSpec,
        seed: u64,
        replica: bool,
        rep: usize,
        reps: usize,
    ) -> Result<Self, String> {
        let specs: Vec<MemberSpec> = generic_members(FIRST_ASN, spec.members);
        let build = || {
            let mut ixp =
                IxpTopology::build_with_pops(&specs, HardwareInfoBase::production_er(), spec.pops);
            let accepted = ixp.announce_all(0);
            (ixp, accepted)
        };
        let (ixp, accepted) = build();
        if accepted != spec.members {
            return Err(format!(
                "bring-up: {accepted} of {} prefixes accepted",
                spec.members
            ));
        }
        let ixp_asn = ixp.route_server.config().ixp_asn;
        let mut digest = Digest::default();
        let mut rng = Rng::new(seed, 0xc0de);

        // Churn victims spread evenly over the membership (and so over
        // PoPs); every other member may hold standing rules.
        let stride = (spec.members / spec.churn_victims.max(1)).max(1);
        let churn: Vec<usize> = (0..spec.churn_victims).map(|i| i * stride).collect();
        let member_victim = |i: usize, n: u64| -> Result<Victim, String> {
            let asn = Asn(FIRST_ASN + i as u32);
            let info = ixp.member(asn).ok_or("member missing")?;
            let addr = info
                .prefixes
                .first()
                .and_then(|p| host(p, n))
                .ok_or("member without a v4 prefix")?;
            Ok(Victim {
                member: asn,
                port: info.port,
                mac: info.mac,
                addr,
            })
        };
        let victims: Vec<Victim> = churn
            .iter()
            .map(|&i| member_victim(i, 20))
            .collect::<Result<_, _>>()?;

        // Standing rules: three vectors per non-churn member, each
        // dropped or shaped.
        let mut standing = Vec::new();
        let mut preload = Vec::new();
        if spec.standing {
            for i in (0..spec.members).filter(|i| !churn.contains(i)) {
                let v = member_victim(i, 10)?;
                let mut ports = VECTORS.to_vec();
                rng.shuffle(&mut ports);
                ports.truncate(3);
                ports.sort_unstable();
                let mitigation: Mitigation = ports
                    .iter()
                    .map(|&p| {
                        let action = if rng.chance(2, 3) {
                            Action::Drop
                        } else {
                            Action::Shape {
                                rate_bps: rng.range(5, 50) * 10_000_000,
                            }
                        };
                        (p, action)
                    })
                    .collect();
                let signals: Vec<StellarSignal> = mitigation
                    .iter()
                    .map(|&(p, a)| match a {
                        Action::Shape { rate_bps } => {
                            StellarSignal::shape_udp_src(p, (rate_bps / 1_000_000) as u32)
                        }
                        _ => StellarSignal::drop_udp_src(p),
                    })
                    .collect();
                let victim = Prefix::V4(Ipv4Prefix::host(v.addr));
                let update = community_update(&ixp, ixp_asn, v.member, victim, &signals);
                let wire = encode(update)?;
                digest.bytes(&wire);
                preload.push((v.member, wire));
                standing.push((v, mitigation));
            }
        }

        // The churn stream: per round, announce every victim (shape),
        // then escalate every victim (drop), then withdraw every victim,
        // each phase in a seeded order.
        let mut ops = Vec::new();
        for round in 0..spec.rounds {
            let mut plans = Vec::new();
            for (vi, v) in victims.iter().enumerate() {
                // Stratified, not drawn: every round signals exactly a
                // quarter of the victims over FlowSpec and spreads 1–4
                // vectors evenly, so the op mix (and with it the
                // reaction-time tail) does not swing with the seed.
                let flowspec = (vi + round) % 4 == 0;
                let ports = pick_vectors(&mut rng, (vi / 4 + round) % 4 + 1);
                let rate_bps = rng.range(5, 50) * 10_000_000;
                let min_len = rng.chance(1, 2);
                plans.push((vi, *v, flowspec, ports, rate_bps, min_len));
            }
            for kind in [OpKind::Announce, OpKind::Escalate, OpKind::Withdraw] {
                let mut order: Vec<usize> = (0..plans.len()).collect();
                rng.shuffle(&mut order);
                for &k in &order {
                    let (vi, v, flowspec, ref ports, rate_bps, min_len) = plans[k];
                    let victim = Prefix::V4(Ipv4Prefix::host(v.addr));
                    let shape: Mitigation = ports
                        .iter()
                        .map(|&p| (p, Action::Shape { rate_bps }))
                        .collect();
                    let drop: Mitigation = ports.iter().map(|&p| (p, Action::Drop)).collect();
                    let (update, after) = match (flowspec, kind) {
                        (false, OpKind::Announce) => {
                            let s: Vec<_> = ports
                                .iter()
                                .map(|&p| {
                                    StellarSignal::shape_udp_src(p, (rate_bps / 1_000_000) as u32)
                                })
                                .collect();
                            (
                                community_update(&ixp, ixp_asn, v.member, victim, &s),
                                Some(shape),
                            )
                        }
                        (false, OpKind::Escalate) => {
                            let s: Vec<_> = ports
                                .iter()
                                .map(|&p| StellarSignal::drop_udp_src(p))
                                .collect();
                            (
                                community_update(&ixp, ixp_asn, v.member, victim, &s),
                                Some(drop),
                            )
                        }
                        (false, OpKind::Withdraw) => (UpdateMessage::withdraw(victim), None),
                        (true, OpKind::Announce) => (
                            flowspec_update(
                                v.member,
                                flowspec_nlri(victim, ports, min_len)?,
                                rate_bps,
                            ),
                            Some(shape),
                        ),
                        (true, OpKind::Escalate) => (
                            flowspec_update(v.member, flowspec_nlri(victim, ports, min_len)?, 0),
                            Some(drop),
                        ),
                        (true, OpKind::Withdraw) => (
                            flowspec_withdraw_update(flowspec_nlri(victim, ports, min_len)?),
                            None,
                        ),
                    };
                    let wire = encode(update)?;
                    let gap_us = rng.range(0, SECOND_US);
                    digest.bytes(&wire);
                    digest.u64(gap_us);
                    ops.push(OpInput {
                        member: v.member,
                        victim: vi,
                        kind,
                        flowspec,
                        wire,
                        after,
                        gap_us,
                    });
                }
            }
        }
        // Pump cadence: seeded steps of 10–300 ms, so the simulated
        // reaction time is not locked to a pump grid or to the queue's
        // token interval (231 ms at 4.33/s).
        let pump_steps: Vec<u64> = (0..4096).map(|_| rng.range(10_000, 300_000)).collect();
        for s in &pump_steps {
            digest.u64(*s);
        }

        let replica = if replica {
            let (rtopo, _) = build();
            Some(Replica {
                rs: rtopo.route_server,
                controller: BlackholingController::new(ixp_asn),
            })
        } else {
            None
        };
        let mut cl = ControlLoop {
            sys: StellarSystem::new(ixp, QUEUE_RATE_PER_S),
            ixp_asn,
            ops,
            pump_steps,
            next_op: rep * spec.rounds / reps.max(1) * 3 * spec.churn_victims,
            next_step: rep * 4096 / reps.max(1),
            now_us: 0,
            state: vec![None; victims.len()],
            victims,
            standing,
            next_standing: 0,
            verify: spec.verify,
            last_tick_us: 0,
            replica,
            digest: digest.value(),
            failures: Vec::new(),
            offers: Vec::new(),
            expect: Vec::new(),
            ops_done: (rep as u64) << 32,
        };
        cl.preload(&preload)?;
        Ok(cl)
    }

    /// Admits the standing signals one member at a time, pumping each
    /// until its changes are installed (a steady trickle, as members
    /// would signal, rather than one burst the queue meters for minutes).
    fn preload(&mut self, preload: &[(Asn, Vec<u8>)]) -> Result<(), String> {
        for (member, wire) in preload {
            let update = match Message::decode(wire, DecodeCtx::default()) {
                Ok(Some((Message::Update(u), _))) => u,
                other => return Err(format!("preload decode: {other:?}")),
            };
            let Some(Call::Signal(prefix, signals)) = to_call(&update, self.ixp_asn) else {
                return Err("preload UPDATE is not a signal".into());
            };
            let out = self
                .sys
                .member_signal(*member, prefix, &signals, self.now_us);
            if !out.rejections.is_empty() || !out.audit_rejections.is_empty() {
                return Err(format!("preload refused for {member}: {out:?}"));
            }
            if let Some(r) = self.replica.as_mut() {
                let rs_out = r.rs.handle_update(*member, &update, self.now_us);
                for cu in &rs_out.controller_updates {
                    r.controller.process_update(cu);
                }
            }
            let mut applied = self.sys.pump(self.now_us);
            while applied < out.queued_changes {
                self.now_us += 250_000;
                applied += self.sys.pump(self.now_us);
            }
            if self.sys.queue.backlog() > 0 || !self.sys.dead_letters.is_empty() {
                return Err(format!("preload for {member} did not install cleanly"));
            }
        }
        self.last_tick_us = self.now_us;
        Ok(())
    }

    /// Simulated time of the last completed op.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Rules the system holds in hardware.
    pub fn active_rules(&self) -> usize {
        self.sys.active_rules()
    }

    /// Runs one op end to end: decode, admit, pump until applied. In
    /// the traced run, spans wrap every layer call and the replicas,
    /// audit and lowering proof are timed alongside.
    pub fn run_op(&mut self, trace: &mut Trace, stats: &mut OpStats, ticks: &mut TickStats) {
        let i = self.next_op % self.ops.len();
        self.next_op += 1;
        let op = self.ops[i].clone();
        let arrival = self.now_us + op.gap_us;
        self.maybe_verify(arrival, trace, ticks);
        let id = self.ops_done;
        self.ops_done += 1;
        let traced = trace.enabled();
        let dead_before = self.sys.dead_letters.len();
        let loop_start = Instant::now();
        let op_span = trace.begin("op", id);

        // Ingress: wire → UPDATE → the member call's arguments.
        let t = Instant::now();
        let sp = trace.begin("bgp.decode", id);
        let ((update, call), decode_allocs) = alloc::counted(traced, || {
            let update = match Message::decode(&op.wire, DecodeCtx::default()) {
                Ok(Some((Message::Update(u), _))) => Some(u),
                _ => None,
            };
            let call = update.as_ref().and_then(|u| to_call(u, self.ixp_asn));
            (update, call)
        });
        trace.end(sp);
        let decode_ns = t.elapsed().as_nanos() as u64;
        let (Some(update), Some(call)) = (update, call) else {
            self.failures
                .push(format!("op {id}: wire UPDATE did not decode"));
            stats.attempted += 1;
            stats.failed += 1;
            trace.end(op_span);
            return;
        };

        if traced {
            self.traced_pre_admission(&op, &call, id, trace, stats);
        }

        // Admission: the member call.
        let t = Instant::now();
        let sp = trace.begin("core.admit", id);
        let ((queued, refused), admit_allocs) = alloc::counted(traced, || match &call {
            Call::Signal(prefix, signals) => {
                let o = self.sys.member_signal(op.member, *prefix, signals, arrival);
                let refused = !o.rejections.is_empty() || !o.audit_rejections.is_empty();
                (o.queued_changes, refused)
            }
            Call::Withdraw(prefix) => {
                let o = self.sys.member_withdraw(op.member, *prefix, arrival);
                (o.queued_changes, !o.rejections.is_empty())
            }
            Call::FlowSpec(flow, ecs) => {
                let o = self
                    .sys
                    .member_flowspec(op.member, flow.clone(), ecs, arrival);
                let refused = !o.rejections.is_empty()
                    || o.deferred > 0
                    || !o.lowering_errors.is_empty()
                    || !o.audit_rejections.is_empty();
                (o.queued_changes, refused)
            }
            Call::FlowSpecWithdraw(flow) => {
                let o = self
                    .sys
                    .member_flowspec_withdraw(op.member, flow.clone(), arrival);
                (o.queued_changes, !o.rejections.is_empty())
            }
        });
        trace.end(sp);
        let admit_ns = t.elapsed().as_nanos() as u64;
        stats.backlog_max = stats.backlog_max.max(self.sys.queue.backlog());

        if traced {
            self.traced_replica(&update, &call, op.member, arrival, id, trace, stats);
        }

        // Pump until every queued change is applied.
        let mut now = arrival;
        let mut applied_total = 0usize;
        let mut pump_ns = 0u64;
        let mut pump_allocs = 0u64;
        let mut stalled = false;
        loop {
            let t = Instant::now();
            let sp = trace.begin("core.pump", id);
            let (applied, allocs) = alloc::counted(traced, || self.sys.pump(now));
            trace.end(sp);
            if applied > 0 {
                let ns = t.elapsed().as_nanos() as u64;
                pump_ns += ns;
                pump_allocs += allocs;
                if traced {
                    stats.pump_applied_us.push(ns as f64 / 1e3);
                }
            }
            applied_total += applied;
            if applied_total >= queued && self.sys.queue.backlog() == 0 {
                break;
            }
            if now - arrival > OP_DEADLINE_US {
                stalled = true;
                break;
            }
            now += self.pump_steps[self.next_step % self.pump_steps.len()];
            self.next_step += 1;
        }
        trace.end(op_span);
        stats.loop_ns += loop_start.elapsed().as_nanos() as u64;
        stats.applied += applied_total as u64;
        stats.attempted += 1;

        let dead = self.sys.dead_letters.len() > dead_before;
        let empty = queued == 0;
        if refused || dead || stalled || empty {
            stats.failed += 1;
            self.failures.push(format!(
                "op {id} ({:?}, flowspec={}): refused={refused} dead_lettered={dead} \
                 stalled={stalled} queued={queued}",
                op.kind, op.flowspec
            ));
        } else {
            stats
                .signal_us
                .push((decode_ns + admit_ns + pump_ns) as f64 / 1e3);
            stats.reaction_s.push((now - arrival) as f64 / 1e6);
        }
        if traced {
            stats
                .allocs
                .push((decode_allocs + admit_allocs + pump_allocs) as f64);
        }
        self.state[op.victim] = op.after;
        self.now_us = now;
    }

    /// Traced only: the audit over the live desired table and, for
    /// FlowSpec announcements, lowering plus its exactness proof.
    fn traced_pre_admission(
        &mut self,
        op: &OpInput,
        call: &Call,
        id: u64,
        trace: &mut Trace,
        stats: &mut OpStats,
    ) {
        if op.kind == OpKind::Withdraw {
            return;
        }
        let sp = trace.begin("core.audit", id);
        let mut desired = self.sys.controller.desired_rules();
        desired.extend(self.sys.flowspec.desired_rules());
        let candidates: Vec<u64> = desired
            .iter()
            .filter(|r| r.owner == op.member)
            .map(|r| r.id)
            .collect();
        let manager = &self.sys.manager;
        let audit = audit_batch(
            &self.sys.ixp.fabric,
            |a| manager.owner_port(a),
            &desired,
            &candidates,
        );
        trace.end(sp);
        stats.audit_scanned.push(desired.len() as f64);
        if !audit.rejected.is_empty() {
            self.failures.push(format!(
                "op {id}: standing rules fail the audit: {:?}",
                audit.rejected
            ));
        }
        if let Call::FlowSpec(flow, _) = call {
            let sp = trace.begin("core.lower_proof", id);
            let proof = lower_flowspec(flow).map(|specs| check_lowering(flow, &specs));
            trace.end(sp);
            match proof {
                Ok(LoweringProof::Violation { .. }) => {
                    self.failures
                        .push(format!("op {id}: lowering is not exact"));
                }
                Err(e) => self
                    .failures
                    .push(format!("op {id}: lowering failed: {e:?}")),
                Ok(_) => {}
            }
        }
    }

    /// Traced only: the replica route server and controller fed the
    /// same decoded UPDATE.
    #[allow(clippy::too_many_arguments)]
    fn traced_replica(
        &mut self,
        update: &UpdateMessage,
        call: &Call,
        member: Asn,
        now_us: u64,
        id: u64,
        trace: &mut Trace,
        stats: &mut OpStats,
    ) {
        let Some(r) = self.replica.as_mut() else {
            return;
        };
        let sp = trace.begin("routeserver.update", id);
        if matches!(call, Call::FlowSpec(..) | Call::FlowSpecWithdraw(_)) {
            r.rs.handle_flowspec_update(member, update);
            trace.end(sp);
            return;
        }
        let rs_out = r.rs.handle_update(member, update, now_us);
        trace.end(sp);
        stats.exports.push(rs_out.exports.len() as f64);
        let sp = trace.begin("core.controller", id);
        for cu in &rs_out.controller_updates {
            r.controller.process_update(cu);
        }
        trace.end(sp);
    }

    /// Between ops, once per simulated second: offers attack and benign
    /// aggregates to mitigated victims and checks every verdict.
    fn maybe_verify(&mut self, at_us: u64, trace: &mut Trace, ticks: &mut TickStats) {
        if !self.verify || at_us / SECOND_US <= self.last_tick_us / SECOND_US {
            return;
        }
        self.last_tick_us = at_us;
        self.offers.clear();
        self.expect.clear();
        let src_mac = MacAddr::for_member(65_500, 1);
        let mut checked: Vec<(Victim, Mitigation)> = self
            .victims
            .iter()
            .zip(&self.state)
            .filter_map(|(v, m)| m.clone().map(|m| (*v, m)))
            .collect();
        for _ in 0..STANDING_CHECKED.min(self.standing.len()) {
            checked.push(self.standing[self.next_standing % self.standing.len()].clone());
            self.next_standing += 1;
        }
        for (v, m) in checked {
            let key = |protocol, src_port, dst_port| FlowKey {
                src_mac,
                dst_mac: v.mac,
                src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
                dst_ip: IpAddress::V4(v.addr),
                protocol,
                src_port,
                dst_port,
                packet_len: 1400,
                ..FlowKey::default()
            };
            for &(src_port, _) in &m {
                self.offers.push(OfferedAggregate {
                    key: key(IpProtocol::UDP, src_port, 40_000),
                    bytes: ATTACK_BYTES,
                    packets: ATTACK_BYTES / 1400,
                });
            }
            self.offers.push(OfferedAggregate {
                key: key(IpProtocol::TCP, 443, 51_000),
                bytes: BENIGN_BYTES,
                packets: BENIGN_BYTES / 1400,
            });
            let before = self
                .sys
                .ixp
                .fabric
                .port(v.port)
                .map(|p| p.counters)
                .unwrap_or_default();
            self.expect.push((v.port, m, before));
        }
        let id = ticks.next_id();
        data::tick(
            &mut self.sys.ixp.fabric,
            &self.offers,
            at_us,
            id,
            trace,
            ticks,
        );
        for (port, m, before) in &self.expect {
            let after = self
                .sys
                .ixp
                .fabric
                .port(*port)
                .map(|p| p.counters)
                .unwrap_or_default();
            if let Err(e) = check_verdicts(m, before, &after) {
                self.failures
                    .push(format!("verification tick at {at_us} us, {port:?}: {e}"));
            }
        }
    }

    /// Quiesces and checks the end state: converged, reconcile clean,
    /// no dead letters, zero watchdog violations over the whole run.
    pub fn finish(&mut self) {
        let t = self.now_us + 60 * SECOND_US;
        self.sys.pump(t);
        if !self.sys.is_converged() {
            self.failures.push("not converged after quiescing".into());
        }
        let report = self.sys.reconcile(t);
        if !report.is_clean() {
            self.failures
                .push(format!("reconcile not clean after quiescing: {report:?}"));
        }
        self.sys.watchdog_check(t + SECOND_US);
        if !self.sys.watchdog.is_clean() {
            self.failures.push(format!(
                "{} watchdog violations, first: {:?}",
                self.sys.watchdog.total_violations(),
                self.sys.watchdog.violations().first()
            ));
        }
        if !self.sys.dead_letters.is_empty() {
            self.failures
                .push(format!("{} dead letters", self.sys.dead_letters.len()));
        }
        self.now_us = t + SECOND_US;
    }

    /// Queue waits (simulated µs) logged from index `from` on.
    pub fn queue_waits_since(&self, from: usize) -> Vec<f64> {
        let log = self.sys.queue.wait_log_us();
        log.get(from..)
            .unwrap_or(log)
            .iter()
            .map(|&w| w as f64)
            .collect()
    }

    /// Length of the queue's wait log.
    pub fn queue_waits_logged(&self) -> usize {
        self.sys.queue.wait_log_us().len()
    }
}

/// The verdicts one verification tick must show on a victim port: each
/// attack aggregate dropped, or shaped to at most its rate (one
/// second's refill plus the one-second burst), and the benign aggregate
/// forwarded in full.
fn check_verdicts(
    m: &Mitigation,
    before: &PortCounters,
    after: &PortCounters,
) -> Result<(), String> {
    let mut drop = 0u64;
    let mut shape = 0u64;
    let mut shape_cap = 0u64;
    for &(_, action) in m {
        match action {
            Action::Drop => drop += ATTACK_BYTES,
            Action::Shape { rate_bps } => {
                shape += ATTACK_BYTES;
                shape_cap += 2 * rate_bps / 8 + 1500;
            }
            Action::Forward => {}
        }
    }
    let d = |f: fn(&PortCounters) -> u64| f(after) - f(before);
    let dropped = d(|c| c.dropped_bytes);
    let shaped = d(|c| c.shaped_bytes);
    let shape_dropped = d(|c| c.shape_dropped_bytes);
    let forwarded = d(|c| c.forwarded_bytes);
    if dropped != drop {
        return Err(format!("dropped {dropped} B, expected {drop} B"));
    }
    if shaped + shape_dropped != shape {
        return Err(format!(
            "shaping saw {} B, expected {shape} B",
            shaped + shape_dropped
        ));
    }
    if shaped > shape_cap {
        return Err(format!("shaped {shaped} B over the {shape_cap} B rate cap"));
    }
    if forwarded != BENIGN_BYTES + shaped {
        return Err(format!(
            "forwarded {forwarded} B, expected benign {BENIGN_BYTES} B + shaped {shaped} B"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ControlSpec {
        ControlSpec {
            members: 24,
            pops: 2,
            standing: true,
            churn_victims: 4,
            rounds: 3,
            verify: true,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = ControlLoop::setup(small(), 9, false, 0, 1).expect("setup");
        let b = ControlLoop::setup(small(), 9, false, 0, 1).expect("setup");
        let c = ControlLoop::setup(small(), 10, false, 0, 1).expect("setup");
        let wires = |c: &ControlLoop| -> Vec<(Vec<u8>, u64)> {
            c.ops.iter().map(|o| (o.wire.clone(), o.gap_us)).collect()
        };
        assert_eq!(wires(&a), wires(&b));
        assert_eq!(a.pump_steps, b.pump_steps);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.ops.len(), 3 * 3 * 4);
    }

    #[test]
    fn churn_ops_complete_verify_and_quiesce_clean() {
        let mut cl = ControlLoop::setup(small(), 4, true, 0, 1).expect("setup");
        assert_eq!(cl.active_rules(), 3 * 20);
        let mut ops = OpStats::default();
        let mut ticks = TickStats::default();
        let mut trace = Trace::on();
        for _ in 0..cl.ops.len() {
            cl.run_op(&mut trace, &mut ops, &mut ticks);
        }
        cl.finish();
        assert_eq!(cl.failures, Vec::<String>::new());
        assert_eq!(ops.attempted, 36);
        assert_eq!(ops.failed, 0);
        assert_eq!(ops.signal_us.len(), 36);
        assert!(!ticks.tick_ms.is_empty() || !ticks.router_ms.is_empty());
        // Every withdraw returned its victim to the standing rules only.
        assert_eq!(cl.active_rules(), 3 * 20);
        let spans = trace.tracer().expect("traced").spans();
        assert!(spans.iter().any(|s| s.name == "routeserver.update"));
        assert!(spans.iter().any(|s| s.name == "core.audit"));
    }

    #[test]
    fn a_wrong_verdict_fails_the_verification_check() {
        let shaped: Mitigation = vec![(
            123,
            Action::Shape {
                rate_bps: 100_000_000,
            },
        )];
        let before = PortCounters::default();
        let ok = PortCounters {
            shaped_bytes: 20_000_000,
            shape_dropped_bytes: ATTACK_BYTES - 20_000_000,
            forwarded_bytes: BENIGN_BYTES + 20_000_000,
            ..Default::default()
        };
        assert_eq!(check_verdicts(&shaped, &before, &ok), Ok(()));
        // The attack went through unshaped: caught.
        let leaked = PortCounters {
            forwarded_bytes: BENIGN_BYTES + ATTACK_BYTES,
            ..Default::default()
        };
        assert!(check_verdicts(&shaped, &before, &leaked).is_err());
        // Dropped instead of shaped: caught.
        let dropped = PortCounters {
            dropped_bytes: ATTACK_BYTES,
            forwarded_bytes: BENIGN_BYTES,
            ..Default::default()
        };
        assert!(check_verdicts(&shaped, &before, &dropped).is_err());
    }
}
