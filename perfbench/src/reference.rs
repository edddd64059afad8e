//! The in-process replay: the reference every TCP run is checked against,
//! and — traced — the source of the per-layer numbers.
//!
//! A replay regenerates a phase's exact request sequence from the seed
//! and applies it to a `ShardedService` built from the same set-up,
//! encoding every merged release the way the TCP edge does, so its
//! delivery digest must equal the one the load generator received.
//!
//! The traced replay additionally drives, beside the service calls, a
//! single-threaded re-composition of the shard path out of each layer's
//! public functions — `RouteTable::lookup`, `ReorderBuffer::push_into`,
//! `IncrementalDetector::push_into`, `OnlineCore::release_window_in_place`,
//! `FlipPlan::apply_window`, `OnlineCore::answer_window`,
//! `OnlineCore::answer_merged`, `EpochLedger::charge_releases`,
//! `WalWriter::append_batch` — on the same events, with a span around
//! every call. The re-composition follows the control plane: every
//! control command and `BeginEpoch` is applied to its own control plane,
//! and each compiled epoch is activated on its shards at the same kind of
//! window boundary the service uses. Its stage times are those of the
//! re-composition, not spans inside the service (which are later work).

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pdp_cep::{ClosedWindow, IncrementalDetector, PatternId, PreparedPatternSwap};
use pdp_core::{
    Command, ControlPlane, CoreError, MergedRelease, OnlineCore, QueryAnswer, QueryStateSet,
    ReleaseSink, RouteTable, ShardRelease, ShardedService, SubjectId, WalWriter,
};
use pdp_dp::{BudgetLedger, DpRng, EpochLedger, Epsilon};
use pdp_server::frame::MergedRecord;
use pdp_server::{Frame, WireCommand};
use pdp_stream::{Event, IndicatorVector, ReorderBuffer, TimeDelta, Timestamp};

use crate::load::{into_frame, Digest};
use crate::setup::Setup;
use crate::trace::Trace;
use crate::workload::{Op, Schedule, Spec};

/// Which requests a TCP phase sent: `groups` groups of the phase's
/// schedule, then (if `tail`) the workload's tail requests.
#[derive(Debug, Clone, Copy)]
pub struct PhaseLog {
    pub phase: u64,
    pub groups: u64,
    pub tail: bool,
}

/// The delivery encoder of the TCP edge for a consumer subscribed to
/// merged releases, reproduced: every merged release becomes the frame the
/// edge would write, and its body feeds the digest.
struct EdgeSink<'a> {
    out: &'a mut Replayed,
    trace: Option<&'a mut Trace>,
}

impl<'a> EdgeSink<'a> {
    fn new(out: &'a mut Replayed) -> Self {
        EdgeSink { out, trace: None }
    }
}

impl ReleaseSink for EdgeSink<'_> {
    fn wants(&self, _query: pdp_cep::QueryId) -> bool {
        false
    }

    fn shard_release(&mut self, release: ShardRelease) {
        self.out
            .releases
            .push((release.shard, release.release.index));
    }

    fn answer(&mut self, _answer: QueryAnswer) {}

    fn merged_release(&mut self, release: MergedRelease) {
        let span = self.trace.as_mut().map(|t| t.begin("server.frame.encode"));
        let bytes = Frame::DeliverMerged {
            record: MergedRecord {
                index: release.index as u64,
                start: release.start,
                epoch: release.epoch,
                answers_any: release.answers_any.clone(),
                positive_shards: release.positive_shards.iter().map(|&n| n as u64).collect(),
                protected_any: release.protected_any.clone(),
                typed: release
                    .typed_answers()
                    .iter()
                    .map(|(q, a)| (*q, a.into()))
                    .collect(),
            },
        }
        .encode();
        if let (Some(t), Some(id)) = (self.trace.as_mut(), span) {
            t.end(id);
        }
        self.out.encoded_bytes += bytes.len() as u64;
        self.out.digest.update(&bytes[4..bytes.len() - 8]);
        self.out.deliveries += 1;
    }
}

/// What a replay produced.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub digest: Digest,
    pub deliveries: u64,
    pub events_ingested: u64,
    /// Σ duration of the service push and watermark calls, nanoseconds.
    pub calls_ns: f64,
    /// Per push, in order: its service-call duration, nanoseconds.
    pub push_ns: Vec<f64>,
    /// Shard releases seen, as `(shard, window index)`.
    releases: Vec<(usize, usize)>,
    /// Bytes of the delivery frames encoded.
    encoded_bytes: u64,
}

/// The per-layer numbers of a traced replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Σ duration of the service push and watermark calls, and Σ self
    /// time of the re-composed stages beside them, nanoseconds.
    pub whole_ns: f64,
    pub stages_ns: f64,
    /// Fewest types any epoch's flip plan protected.
    pub protected_types: usize,
}

/// Build the served service for `setup` (the WAL attached when asked).
pub fn build_service(
    spec: &Spec,
    setup: &Setup,
    wal: Option<&Path>,
) -> Result<ShardedService, String> {
    let mut service = setup
        .builder()
        .and_then(|b| b.build())
        .map_err(|e| e.to_string())?;
    if let (true, Some(path)) = (spec.wal, wal) {
        service.attach_wal(WalWriter::create(path).map_err(|e| e.to_string())?);
    }
    Ok(service)
}

/// Types the workload's epoch-0 flip plan protects (0 would mean the
/// PPM path is not exercised).
pub fn protected_types(setup: &Setup) -> Result<usize, String> {
    let plan = setup.control_plane().compile_initial().map_err(err)?;
    Ok(plan.core.pipeline().plan().n_protected())
}

/// Every op of `log`, in the order the TCP phase sent them.
pub fn ops_of(
    spec: &Spec,
    setup: &Setup,
    seed: u64,
    log: PhaseLog,
) -> impl Iterator<Item = (u64, Op)> {
    let mut schedule: Schedule = spec.schedule(setup, seed, log.phase);
    let tail = if log.tail { spec.tail() } else { Vec::new() };
    let n = log.groups;
    (0..n)
        .flat_map(move |g| schedule.next_group().ops.into_iter().map(move |op| (g, op)))
        .chain(tail.into_iter().map(move |op| (n, op)))
}

fn err(e: CoreError) -> String {
    e.to_string()
}

/// Replay `log` through a fresh service.
pub fn replay(
    spec: &Spec,
    setup: &Setup,
    seed: u64,
    log: PhaseLog,
    wal: Option<&Path>,
) -> Result<Replayed, String> {
    let mut service = build_service(spec, setup, wal)?;
    let mut out = Replayed::default();
    for (_, op) in ops_of(spec, setup, seed, log) {
        apply(&mut service, op, &mut out, None)?;
    }
    service
        .shutdown_into(&mut EdgeSink::new(&mut out))
        .map_err(err)?;
    out.events_ingested = service.events_ingested();
    Ok(out)
}

/// Apply one op the way the TCP edge's owner thread does.
fn apply(
    service: &mut ShardedService,
    op: Op,
    out: &mut Replayed,
    mut trace: Option<&mut Trace>,
) -> Result<(), String> {
    let name = match op {
        Op::Push(_) => "core.service.push",
        Op::Watermark(_) => "core.service.watermark",
        Op::Control(..) => "core.control.command",
        Op::BeginEpoch => "core.control.begin_epoch",
        Op::Checkpoint => "core.durability.checkpoint",
    };
    let span = trace.as_mut().map(|t| t.begin(name));
    let started = Instant::now();
    let is_push = matches!(op, Op::Push(_));
    apply_to(
        service,
        op,
        &mut EdgeSink {
            out: &mut *out,
            trace: trace.as_deref_mut(),
        },
    )?;
    let took = started.elapsed().as_nanos() as f64;
    if let (Some(t), Some(id)) = (trace.as_mut(), span) {
        t.end(id);
    }
    if name.starts_with("core.service") {
        out.calls_ns += took;
    }
    if is_push {
        out.push_ns.push(took);
    }
    Ok(())
}

/// Apply one op the way the TCP edge does, delivering into `sink`.
pub fn apply_to<S: ReleaseSink>(
    service: &mut ShardedService,
    op: Op,
    sink: &mut S,
) -> Result<(), String> {
    match op {
        Op::Push(events) => service.push_batch_into(events, sink).map_err(err),
        Op::Watermark(ts) => service.advance_watermark_into(ts, sink).map_err(err),
        Op::Control(command, _) => apply_command(service, command),
        Op::BeginEpoch => service.begin_epoch().map(|_| ()).map_err(err),
        Op::Checkpoint => service
            .checkpoint_into(sink)
            .map(|image| drop(image.to_bytes()))
            .map_err(err),
    }
}

/// The TCP edge's mapping of a wire command onto the service.
fn apply_command(service: &mut ShardedService, command: WireCommand) -> Result<(), String> {
    let r = match command {
        WireCommand::RegisterSubject(s) => {
            service.register_subject(s);
            Ok(())
        }
        WireCommand::RetireSubject(s) => service.retire_subject(s),
        WireCommand::RegisterPattern {
            subject,
            name,
            elements,
        } => {
            let pattern = pdp_cep::Pattern::seq(&name, elements).map_err(|e| e.to_string())?;
            service.register_private_pattern(subject, pattern);
            Ok(())
        }
        WireCommand::RevokePattern { subject, pattern } => {
            service.revoke_private_pattern(subject, PatternId(pattern))
        }
        WireCommand::AddQuery { name, elements } => {
            let pattern = pdp_cep::Pattern::seq(&name, elements).map_err(|e| e.to_string())?;
            service.add_consumer_query(&name, pattern);
            Ok(())
        }
        WireCommand::RemoveQuery(q) => service.remove_consumer_query(q),
    };
    r.map_err(err)
}

/// The same wire command as a control-plane command.
fn command_of(command: WireCommand) -> Result<Command, String> {
    let pattern = |name: &str, elements| pdp_cep::Pattern::seq(name, elements);
    Ok(match command {
        WireCommand::RegisterSubject(s) => Command::RegisterSubject(s),
        WireCommand::RetireSubject(s) => Command::RetireSubject(s),
        WireCommand::RegisterPattern {
            subject,
            name,
            elements,
        } => Command::RegisterPrivatePattern {
            subject,
            pattern: pattern(&name, elements).map_err(|e| e.to_string())?,
        },
        WireCommand::RevokePattern { subject, pattern } => Command::RevokePrivatePattern {
            subject,
            pattern: PatternId(pattern),
        },
        WireCommand::AddQuery { name, elements } => Command::AddConsumerQuery {
            pattern: pattern(&name, elements).map_err(|e| e.to_string())?,
            name,
        },
        WireCommand::RemoveQuery(q) => Command::RemoveConsumerQuery(q),
    })
}

// ---- the traced run: stage probes ------------------------------------

/// `(subject, pattern, ε)` charges of one release.
type Charges = Vec<(SubjectId, PatternId, Epsilon)>;

/// One shard of the re-composed pipeline.
struct ProbeShard {
    /// The core in force, and compiled epochs waiting for their
    /// activation window index.
    core: OnlineCore,
    staged: VecDeque<(usize, OnlineCore, Charges)>,
    reorder: ReorderBuffer,
    detector: IncrementalDetector,
    ready: Vec<Event>,
    closed: Vec<ClosedWindow>,
    ledger: BudgetLedger<PatternId>,
    states: QueryStateSet,
    rng: DpRng,
    flip_rng: DpRng,
    /// The charges of this shard's subjects under the core in force.
    charges: Charges,
    settle: EpochLedger<(SubjectId, PatternId)>,
}

impl ProbeShard {
    /// Make `core` and `charges` the ones in force.
    fn activate(&mut self, core: OnlineCore, charges: Charges) -> Result<(), String> {
        for &(s, p, eps) in &charges {
            self.settle
                .register((s, p), eps)
                .map_err(|e| e.to_string())?;
        }
        self.core = core;
        self.charges = charges;
        Ok(())
    }
}

/// Open merge accumulator of one window index.
struct MergeAcc {
    shards: usize,
    answers_any: Vec<bool>,
    protected_any: IndicatorVector,
}

/// Counters the probes accumulate.
#[derive(Default)]
struct ProbeCounts {
    events: u64,
    releases: u64,
}

struct Probes {
    control: ControlPlane,
    routes: RouteTable,
    n_shards: usize,
    n_types: usize,
    max_delay: TimeDelta,
    shards: Vec<ProbeShard>,
    merge: std::collections::BTreeMap<usize, MergeAcc>,
    merged_state: QueryStateSet,
    wal: Option<WalWriter>,
    counts: ProbeCounts,
    protected_types: usize,
}

fn shard_charges(charges: &Charges, shard: usize, n_shards: usize) -> Charges {
    charges
        .iter()
        .copied()
        .filter(|(s, _, _)| ShardedService::shard_for(*s, n_shards) == shard)
        .collect()
}

impl Probes {
    fn new(spec: &Spec, setup: &Setup, wal: Option<&Path>) -> Result<Probes, String> {
        let mut control = setup.control_plane();
        let plan = control.compile_initial().map_err(err)?;
        let n_shards = setup.n_shards;
        let window = TimeDelta::from_millis(setup.window_ms);
        let mut shards = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let mut detector = IncrementalDetector::new(
                plan.core.patterns().clone(),
                pdp_cep::Semantics::Conjunction,
                window,
                setup.n_types,
            )
            .map_err(|e| e.to_string())?;
            detector
                .advance_to(Timestamp::ZERO)
                .map_err(|e| e.to_string())?;
            let seed = setup.service_seed;
            let mut probe = ProbeShard {
                core: plan.core.clone(),
                staged: VecDeque::new(),
                reorder: ReorderBuffer::new(TimeDelta::from_millis(setup.max_delay_ms)),
                detector,
                ready: Vec::with_capacity(1024),
                closed: Vec::new(),
                ledger: BudgetLedger::unlimited(),
                states: QueryStateSet::new(),
                rng: DpRng::seed_from(seed ^ shard as u64),
                flip_rng: DpRng::seed_from(!seed ^ shard as u64),
                charges: Vec::new(),
                settle: EpochLedger::new(),
            };
            probe.activate(
                plan.core.clone(),
                shard_charges(&plan.charges, shard, n_shards),
            )?;
            shards.push(probe);
        }
        let wal = match (spec.wal, wal) {
            (true, Some(path)) => Some(WalWriter::create(path).map_err(err)?),
            _ => None,
        };
        let mut probes = Probes {
            control,
            routes: RouteTable::new(),
            n_shards,
            n_types: setup.n_types,
            max_delay: TimeDelta::from_millis(setup.max_delay_ms),
            shards,
            merge: Default::default(),
            merged_state: QueryStateSet::new(),
            wal,
            counts: ProbeCounts::default(),
            protected_types: plan.core.pipeline().plan().n_protected(),
        };
        probes.route_active();
        Ok(probes)
    }

    /// Route the control plane's active subjects, as the service does at
    /// set-up and at every epoch.
    fn route_active(&mut self) {
        self.routes.clear();
        for s in self.control.active_subjects() {
            self.routes
                .insert(s, ShardedService::shard_for(s, self.n_shards) as u32);
        }
    }

    fn command(&mut self, command: WireCommand) -> Result<(), String> {
        self.control.submit(command_of(command)?).map_err(err)?;
        Ok(())
    }

    /// Compile the staged commands and schedule the plan on every shard
    /// from the window after the furthest one any shard has released.
    fn begin_epoch(&mut self) -> Result<(), String> {
        if !self.control.has_pending() {
            return Ok(());
        }
        let plan = self.control.compile_next().map_err(err)?;
        let at = self
            .shards
            .iter()
            .map(|s| s.detector.emitted())
            .max()
            .unwrap_or(0);
        let swap = Arc::new(PreparedPatternSwap::prepare(
            plan.core.patterns().clone(),
            self.n_types,
        ));
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.detector
                .schedule_prepared_update(at, swap.clone())
                .map_err(|e| e.to_string())?;
            s.staged.push_back((
                at,
                plan.core.clone(),
                shard_charges(&plan.charges, i, self.n_shards),
            ));
        }
        self.protected_types = self
            .protected_types
            .min(plan.core.pipeline().plan().n_protected());
        self.route_active();
        Ok(())
    }

    fn push(&mut self, batch: &[pdp_core::KeyedEvent], t: &mut Trace) -> Result<(), String> {
        if let Some(wal) = self.wal.as_mut() {
            t.span("core.durability.wal_append", || wal.append_batch(batch))
                .map_err(err)?;
        }
        let n = self.n_shards;
        let mut parts: Vec<Vec<Event>> = (0..n).map(|_| Vec::with_capacity(batch.len())).collect();
        let routes = &self.routes;
        let routed = t.span("core.service.route", || {
            let mut routed = 0u64;
            for e in batch {
                if let Some(shard) = routes.lookup(e.subject) {
                    parts[shard as usize].push(e.event.clone());
                    routed += 1;
                }
            }
            routed
        });
        self.counts.events += routed;
        for (shard, part) in parts.into_iter().enumerate() {
            let s = &mut self.shards[shard];
            s.ready.clear();
            t.span("stream.reorder", || {
                for e in part {
                    s.reorder.push_into(e, &mut s.ready);
                }
            });
            self.detect(shard, t)?;
        }
        Ok(())
    }

    fn watermark(&mut self, ts: Timestamp, t: &mut Trace) -> Result<(), String> {
        let low = Timestamp::from_millis(ts.millis() - self.max_delay.millis());
        for shard in 0..self.n_shards {
            let s = &mut self.shards[shard];
            s.ready.clear();
            t.span("stream.reorder", || {
                s.reorder.heartbeat_into(ts, &mut s.ready)
            });
            self.detect(shard, t)?;
            let s = &mut self.shards[shard];
            t.span("cep.incremental", || {
                s.detector.advance_to_into(low, &mut s.closed)
            })
            .map_err(|e| e.to_string())?;
            self.release(shard, t)?;
        }
        Ok(())
    }

    fn detect(&mut self, shard: usize, t: &mut Trace) -> Result<(), String> {
        let s = &mut self.shards[shard];
        t.span("cep.incremental", || {
            for e in &s.ready {
                s.detector.push_into(e, &mut s.closed)?;
            }
            Ok::<(), pdp_cep::CepError>(())
        })
        .map_err(|e| e.to_string())?;
        self.release(shard, t)
    }

    fn release(&mut self, shard: usize, t: &mut Trace) -> Result<(), String> {
        let n_shards = self.n_shards;
        let s = &mut self.shards[shard];
        let mut closed = std::mem::take(&mut s.closed);
        for mut cw in closed.drain(..) {
            while s.staged.front().is_some_and(|(at, ..)| *at <= cw.index) {
                let (_, core, charges) = s.staged.pop_front().expect("checked non-empty");
                s.activate(core, charges)?;
            }
            self.counts.releases += 1;
            let core = &s.core;
            let mut copy = cw.presence.clone();
            t.span("core.protect.flip", || {
                core.pipeline()
                    .plan()
                    .apply_window(&mut copy, &mut s.flip_rng)
            });
            t.span("core.streaming.release", || {
                core.release_window_in_place(&mut cw.presence, &mut s.ledger, &mut s.rng)
            })
            .map_err(err)?;
            let (answers, _) = t.span("core.answer", || {
                core.answer_window(&cw.presence, &mut s.states, &mut s.rng)
            });
            let epoch = core.epoch();
            t.span("dp.budget.charge", || {
                for &(subject, pattern, eps) in &s.charges {
                    s.settle
                        .charge_releases((subject, pattern), epoch, eps, 1)?;
                }
                Ok::<(), pdp_dp::DpError>(())
            })
            .map_err(|e| e.to_string())?;
            let acc = self.merge.entry(cw.index).or_insert_with(|| MergeAcc {
                shards: 0,
                answers_any: vec![false; answers.len()],
                protected_any: IndicatorVector::empty(cw.presence.n_types()),
            });
            acc.shards += 1;
            for (any, a) in acc.answers_any.iter_mut().zip(&answers) {
                *any |= a.truthy();
            }
            acc.protected_any.union_with(&cw.presence);
            // every shard has this window's epoch in force once it closes it
            if acc.shards == n_shards {
                let acc = self.merge.remove(&cw.index).expect("present");
                let state = &mut self.merged_state;
                t.span("core.answer.merge", || {
                    core.answer_merged(&acc.answers_any, &acc.protected_any, state)
                });
            }
        }
        s.closed = closed;
        Ok(())
    }
}

/// Apply a checkpoint the way the edge does, timing the image's encode.
fn checkpoint(
    service: &mut ShardedService,
    out: &mut Replayed,
    trace: Option<&mut Trace>,
) -> Result<(f64, f64), String> {
    let image = service
        .checkpoint_into(&mut EdgeSink::new(out))
        .map_err(err)?;
    let started = Instant::now();
    let bytes = match trace {
        Some(t) => t.span("core.durability.checkpoint_encode", || image.to_bytes()),
        None => image.to_bytes(),
    };
    Ok((started.elapsed().as_nanos() as f64, bytes.len() as f64))
}

/// The traced replay of `log`: the real service calls with spans, the
/// stage probes beside them, and the per-layer numbers derived from both.
pub fn traced(
    spec: &Spec,
    setup: &Setup,
    seed: u64,
    log: PhaseLog,
    work: &Path,
    trace: &mut Trace,
) -> Result<(Replayed, Layers), String> {
    let wal_path = work.join("traced.wal");
    let probe_wal = work.join("probe.wal");
    let mut service = build_service(spec, setup, Some(&wal_path))?;
    let mut probes = Probes::new(spec, setup, Some(&probe_wal))?;
    let mut out = Replayed::default();
    let (mut frame_bytes, mut events, mut decode_ns, mut epoch_ns, mut ckpt) =
        (0u64, 0u64, 0f64, Vec::new(), Vec::new());
    let n_shards = setup.n_shards;
    let window = setup.window_ms.max(1);
    let mut fed: HashSet<(usize, usize)> = HashSet::new();
    let mut watermark_releases = 0u64;
    for (group, op) in ops_of(spec, setup, seed, log) {
        trace.set_group(group);
        let root = trace.begin("group");
        match op {
            Op::Push(batch) => {
                for e in &batch {
                    let shard = ShardedService::shard_for(e.subject, n_shards);
                    fed.insert((shard, (e.event.ts.millis() / window) as usize));
                }
                events += batch.len() as u64;
                let bytes = into_frame(Op::Push(batch), out.push_ns.len() as u64 + 1).encode();
                frame_bytes += bytes.len() as u64;
                let started = Instant::now();
                let frame = trace.span("server.frame.decode", || {
                    Frame::decode_body(&bytes[4..bytes.len() - 8])
                });
                decode_ns += started.elapsed().as_nanos() as f64;
                let Ok(Frame::PushBatch { events: batch, .. }) = frame else {
                    return Err("PushBatch did not decode".to_owned());
                };
                probes.push(&batch, trace)?;
                apply(&mut service, Op::Push(batch), &mut out, Some(trace))?;
            }
            Op::Watermark(ts) => {
                probes.watermark(ts, trace)?;
                let before = out.releases.len();
                apply(&mut service, op, &mut out, Some(trace))?;
                watermark_releases += (out.releases.len() - before) as u64;
            }
            Op::Control(command, id) => {
                probes.command(command.clone())?;
                apply(
                    &mut service,
                    Op::Control(command, id),
                    &mut out,
                    Some(trace),
                )?;
            }
            Op::BeginEpoch => {
                probes.begin_epoch()?;
                let started = Instant::now();
                apply(&mut service, op, &mut out, Some(trace))?;
                epoch_ns.push(started.elapsed().as_nanos() as f64);
            }
            Op::Checkpoint => ckpt.push(checkpoint(&mut service, &mut out, Some(trace))?),
        }
        trace.end(root);
    }
    // a checkpoint image of the final state, on every workload
    for _ in 0..3 {
        ckpt.push(checkpoint(&mut service, &mut out, None)?);
    }
    let optimize_ms = optimize_ms(&service, setup)?;
    service
        .shutdown_into(&mut EdgeSink::new(&mut out))
        .map_err(err)?;
    out.events_ingested = service.events_ingested();
    let wal_bytes = probes.wal.as_ref().map_or(0, WalWriter::offset);
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&probe_wal);

    let spans = trace.spans();
    let names = crate::trace::by_name(spans, &trace.self_times());
    let total = |name: &str| names.get(name).map_or((0.0, 0), |&(t, n)| (t, n));
    let per = |t: f64, n: u64| if n == 0 { 0.0 } else { t / n as f64 };
    let ev = probes.counts.events.max(1);
    let rel = probes.counts.releases;
    let (wal_ns, _) = total("core.durability.wal_append");
    let (route_ns, _) = total("core.service.route");
    let (reorder_ns, _) = total("stream.reorder");
    let (detect_ns, _) = total("cep.incremental");
    let (flip_ns, _) = total("core.protect.flip");
    let (release_ns, _) = total("core.streaming.release");
    let (answer_ns, _) = total("core.answer");
    let (merge_ns, merges) = total("core.answer.merge");
    let (charge_ns, _) = total("dp.budget.charge");
    let (encode_ns, encodes) = total("server.frame.encode");
    // whole service calls include their encode children
    let duration = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    };
    let push_total = duration("core.service.push");
    let watermark_total = duration("core.service.watermark");
    let whole = push_total + watermark_total;
    // flip is timed on a copy beside the release that contains it, so it
    // is not added again
    let stages = wal_ns
        + route_ns
        + reorder_ns
        + detect_ns
        + release_ns
        + answer_ns
        + merge_ns
        + charge_ns
        + encode_ns;
    let shard_releases = out.releases.len().max(1) as f64;
    let empty_share =
        out.releases.iter().filter(|r| !fed.contains(r)).count() as f64 / shard_releases;
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    let ckpt_ms: Vec<f64> = ckpt.iter().map(|c| c.0 / 1e6).collect();
    let ckpt_bytes: Vec<f64> = ckpt.iter().map(|c| c.1).collect();
    let epoch_ms: Vec<f64> = epoch_ns.iter().map(|t| t / 1e6).collect();
    let metrics = vec![
        (
            "server.frame.decode_ns_per_event",
            per(decode_ns, events),
            "ns",
        ),
        (
            "server.frame.bytes_per_event",
            frame_bytes as f64 / events.max(1) as f64,
            "bytes",
        ),
        (
            "server.frame.encode_ns_per_release",
            per(encode_ns, encodes),
            "ns",
        ),
        (
            "server.frame.bytes_per_release",
            per(out.encoded_bytes as f64, encodes),
            "bytes",
        ),
        (
            "core.durability.wal_append_ns_per_event",
            per(wal_ns, ev),
            "ns",
        ),
        (
            "core.durability.wal_bytes_per_event",
            wal_bytes as f64 / ev as f64,
            "bytes",
        ),
        ("core.durability.checkpoint_encode_ms", med(&ckpt_ms), "ms"),
        (
            "core.durability.checkpoint_bytes",
            med(&ckpt_bytes),
            "bytes",
        ),
        ("core.service.route_ns_per_event", per(route_ns, ev), "ns"),
        ("stream.reorder.ns_per_event", per(reorder_ns, ev), "ns"),
        (
            "stream.reorder.late_drops",
            probes
                .shards
                .iter()
                .map(|s| s.reorder.dropped())
                .sum::<u64>() as f64,
            "count",
        ),
        ("cep.incremental.ns_per_event", per(detect_ns, ev), "ns"),
        ("core.protect.flip_ns_per_release", per(flip_ns, rel), "ns"),
        (
            "core.protect.protected_types",
            probes.protected_types as f64,
            "count",
        ),
        (
            "core.streaming.release_ns_per_release",
            per(release_ns, rel),
            "ns",
        ),
        ("core.answer.ns_per_release", per(answer_ns, rel), "ns"),
        (
            "core.answer.merge_ns_per_window",
            per(merge_ns, merges),
            "ns",
        ),
        ("dp.budget.charge_ns_per_release", per(charge_ns, rel), "ns"),
        (
            "core.service.push_ns_per_event",
            push_total / events.max(1) as f64,
            "ns",
        ),
        (
            "core.service.watermark_ns_per_release",
            watermark_total / watermark_releases.max(1) as f64,
            "ns",
        ),
        ("core.service.empty_release_share", empty_share, "ratio"),
        ("core.control.begin_epoch_ms", med(&epoch_ms), "ms"),
        ("core.adaptive.optimize_ms", optimize_ms, "ms"),
        (
            "core.service.unattributed_share",
            (whole - stages) / whole.max(1.0),
            "ratio",
        ),
    ];
    let layers = Layers {
        metrics,
        whole_ns: whole,
        stages_ns: stages,
        protected_types: probes.protected_types,
    };
    Ok((out, layers))
}

/// Algorithm 1 (`optimize_all`) over the control plane's effective
/// history, median of three; 0 when the workload runs the uniform PPM.
fn optimize_ms(service: &ShardedService, setup: &Setup) -> Result<f64, String> {
    if !setup.adaptive {
        return Ok(0.0);
    }
    let control = service.control();
    let history = control
        .effective_history()
        .ok_or("adaptive workload without history")?;
    let patterns = control.patterns().clone();
    let private = control.active_private();
    let targets: Vec<PatternId> = setup
        .patterns
        .iter()
        .enumerate()
        .filter(|(_, p)| p.0 == crate::setup::Role::Target)
        .map(|(i, _)| PatternId(i as u32))
        .collect();
    let model = pdp_core::QualityModel::new(history, &patterns, &targets, pdp_metrics::Alpha::HALF)
        .map_err(err)?;
    let eps = Epsilon::new(crate::setup::EPS).map_err(|e| e.to_string())?;
    let mut ms = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        pdp_core::optimize_all(
            &patterns,
            &private,
            eps,
            &model,
            setup.n_types,
            &pdp_core::AdaptiveConfig::default(),
        )
        .map_err(err)?;
        ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&ms).unwrap_or(0.0))
}
