//! The workloads: their service set-up, their frame schedule and their
//! fixed load parameters.
//!
//! Everything here is a pure function of the workload seed. The set-up
//! carries a service seed mixed from it, never the seed itself: the
//! served process gets the generated inputs, not what generates the
//! request stream. A schedule is
//! a sequence of *groups*: one `PushBatch` followed by its
//! `AdvanceWatermark` and, on `churn`, the control frames due at that
//! point. The load generator paces groups; the reference replay
//! regenerates the same groups from the same seed.

use pdp_core::{KeyedEvent, SubjectId};
use pdp_dp::DpRng;
use pdp_server::{Frame, WireCommand};
use pdp_stream::{Event, EventType, Timestamp};

use crate::setup::{Role, Setup};

/// One client request of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Push(Vec<KeyedEvent>),
    Watermark(Timestamp),
    /// A control command and the id the control plane must answer with.
    Control(WireCommand, u64),
    BeginEpoch,
    Checkpoint,
}

impl Op {
    pub fn frame(&self, seq: u64) -> Frame {
        match self {
            Op::Push(events) => Frame::PushBatch {
                seq,
                events: events.clone(),
            },
            Op::Watermark(ts) => Frame::AdvanceWatermark {
                seq,
                watermark: *ts,
            },
            Op::Control(command, _) => Frame::Control {
                seq,
                command: command.clone(),
            },
            Op::BeginEpoch => Frame::BeginEpoch { seq },
            Op::Checkpoint => Frame::Checkpoint { seq },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Churn,
}

/// Groups kept in flight by the saturation (`peak_eps`) phase.
pub const PEAK_INFLIGHT: u64 = 8;

/// The fixed load parameters of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Events per `PushBatch`.
    pub batch: usize,
    /// The fixed open-loop rate of the latency cells, events/s.
    pub fixed_eps: f64,
    /// `ack_p90_us` must stay under this on a sustained ladder step.
    pub ack_limit_us: f64,
    /// The sustained-rate ladder: offered rates in events/s, ascending.
    pub ladder: Vec<f64>,
    /// Attach a write-ahead log to the served service.
    pub wal: bool,
}

/// First subject id of the idle epoch probes on `ingest`.
const PROBE_SUBJECT_BASE: u64 = 1 << 40;
/// Idle epoch probes sent after the fixed-rate phase.
const EPOCH_PROBES: u64 = 24;

/// A geometric ladder `lo · step^k` up to `hi`.
fn ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut out = vec![lo];
    while out[out.len() - 1] * step <= hi * 1.0001 {
        out.push(out[out.len() - 1] * step);
    }
    out
}

impl Spec {
    pub fn all() -> Vec<Spec> {
        [Kind::Ingest, Kind::Churn]
            .into_iter()
            .map(Spec::of)
            .collect()
    }

    pub fn by_name(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::Ingest => Spec {
                kind,
                name: "ingest",
                batch: 512,
                fixed_eps: 800_000.0,
                ack_limit_us: 20_000.0,
                ladder: ladder(400_000.0, 3_200_000.0, 1.07),
                wal: true,
            },
            Kind::Churn => Spec {
                kind,
                name: "churn",
                batch: 32,
                fixed_eps: 48_000.0,
                ack_limit_us: 100_000.0,
                ladder: ladder(12_000.0, 160_000.0, 1.07),
                wal: false,
            },
        }
    }

    /// The workload's service set-up, generated from `seed`.
    pub fn setup(&self, seed: u64) -> Setup {
        match self.kind {
            Kind::Ingest => ingest_setup(seed),
            Kind::Churn => churn_setup(seed),
        }
    }

    /// A fresh schedule generator; `phase` separates the schedules of the
    /// phases of one run.
    pub fn schedule(&self, setup: &Setup, seed: u64, phase: u64) -> Schedule {
        let rng =
            DpRng::seed_from(seed ^ 0x5eed_0000_0000 ^ phase.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let state = match self.kind {
            Kind::Ingest => Gen::Ingest {
                clock: INGEST_DELAY,
            },
            Kind::Churn => Gen::Churn(ChurnState::new(setup)),
        };
        Schedule {
            rng,
            batch: self.batch,
            window_ms: setup.window_ms,
            groups: 0,
            state,
        }
    }

    /// Requests sent one at a time after the fixed-rate phase.
    pub fn tail(&self) -> Vec<Op> {
        match self.kind {
            Kind::Churn => Vec::new(),
            Kind::Ingest => (0..EPOCH_PROBES)
                .flat_map(|k| {
                    let subject = PROBE_SUBJECT_BASE + k;
                    [
                        Op::Control(WireCommand::RegisterSubject(SubjectId(subject)), subject),
                        Op::BeginEpoch,
                    ]
                })
                .collect(),
        }
    }
}

// ---- ingest ----------------------------------------------------------

const INGEST_TYPES: usize = 32;
/// Past the 2^20 flat tier of the route table: ids above it land in the
/// hashed overflow tier.
const INGEST_SUBJECTS: u64 = (1 << 20) + (1 << 18);
const INGEST_WINDOW_MS: i64 = 8;
const INGEST_DELAY: i64 = 4;

fn ingest_setup(seed: u64) -> Setup {
    let mut rng = DpRng::seed_from(seed ^ 0x1);
    let mut patterns = Vec::new();
    for s in 0..64u64 {
        let a = rng.below(INGEST_TYPES) as u32;
        let b = (a + 1 + rng.below(INGEST_TYPES - 1) as u32) % INGEST_TYPES as u32;
        patterns.push((Role::Private(s * 16_411), format!("priv{s}"), vec![a, b]));
    }
    for q in 0..4u32 {
        patterns.push((Role::Target, format!("q{q}"), vec![q, q + 8]));
    }
    Setup {
        n_shards: 4,
        n_types: INGEST_TYPES,
        window_ms: INGEST_WINDOW_MS,
        max_delay_ms: INGEST_DELAY,
        service_seed: service_seed(seed),
        adaptive: true,
        history_window: 0,
        subjects: INGEST_SUBJECTS,
        patterns,
        history: random_history(&mut rng, INGEST_TYPES, 48, 0.6),
    }
}

/// The seed of the served service's randomness: a splitmix64 mix of the
/// workload seed, so the set-up file does not carry the seed itself.
fn service_seed(seed: u64) -> u64 {
    let mut z = (seed ^ 0x5e7f_ace5_eed0_0001).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_history(rng: &mut DpRng, n_types: usize, n_windows: usize, p: f64) -> Vec<Vec<u32>> {
    (0..n_windows)
        .map(|_| {
            (0..n_types as u32)
                .filter(|&t| rng.bernoulli(p * (0.5 + (t % 4) as f64 / 4.0)))
                .collect()
        })
        .collect()
}

// ---- churn -----------------------------------------------------------

const CHURN_TYPES: usize = 32;
const CHURN_SUBJECTS: u64 = 4096;
/// Subjects `0..CHURN_OWNERS` own private patterns and are never retired.
const CHURN_OWNERS: u64 = 16;
const CHURN_WINDOW_MS: i64 = 10;
const CHURN_DELAY: i64 = 2;
/// Event time one churn batch spans.
const CHURN_BATCH_MS: i64 = 8;
/// A control step every this many groups.
const CHURN_EPOCH_EVERY: u64 = 256;
/// A checkpoint every this many groups.
const CHURN_CHECKPOINT_EVERY: u64 = 256;

fn churn_setup(seed: u64) -> Setup {
    let mut rng = DpRng::seed_from(seed ^ 0x3);
    let mut patterns = Vec::new();
    for s in 0..CHURN_OWNERS {
        let a = rng.below(CHURN_TYPES) as u32;
        let b = (a + 1 + rng.below(CHURN_TYPES - 1) as u32) % CHURN_TYPES as u32;
        patterns.push((Role::Private(s), format!("priv{s}"), vec![a, b]));
    }
    for q in 0..8u32 {
        patterns.push((Role::Target, format!("q{q}"), vec![q * 4, q * 4 + 1]));
    }
    Setup {
        n_shards: 8,
        n_types: CHURN_TYPES,
        window_ms: CHURN_WINDOW_MS,
        max_delay_ms: CHURN_DELAY,
        service_seed: service_seed(seed),
        adaptive: true,
        history_window: 32,
        subjects: CHURN_SUBJECTS,
        patterns,
        history: random_history(&mut rng, CHURN_TYPES, 32, 0.3),
    }
}

#[derive(Debug, Clone)]
pub struct ChurnState {
    clock: i64,
    live: Vec<u64>,
    next_subject: u64,
    next_pattern: u64,
    last_churn_pattern: Option<(u64, u64)>,
    epoch: u64,
    step: u64,
}

impl ChurnState {
    fn new(setup: &Setup) -> ChurnState {
        ChurnState {
            clock: CHURN_DELAY,
            live: (0..setup.subjects).collect(),
            next_subject: setup.subjects,
            next_pattern: setup.patterns.len() as u64,
            last_churn_pattern: None,
            epoch: 0,
            step: 0,
        }
    }
}

// ---- schedule --------------------------------------------------------

#[derive(Debug, Clone)]
enum Gen {
    Ingest { clock: i64 },
    Churn(ChurnState),
}

/// A seeded, endless sequence of request groups.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: DpRng,
    batch: usize,
    window_ms: i64,
    groups: u64,
    state: Gen,
}

/// One paced group and the event-time windows its batch touches.
#[derive(Debug, Clone)]
pub struct Group {
    pub ops: Vec<Op>,
    pub events: usize,
    /// Lowest and highest window index of the batch's events.
    pub windows: (u64, u64),
}

impl Schedule {
    pub fn next_group(&mut self) -> Group {
        let g = self.groups;
        self.groups += 1;
        let rng = &mut self.rng;
        let batch_size = self.batch;
        let mut ops = Vec::with_capacity(2);
        match &mut self.state {
            Gen::Ingest { clock } => {
                let batch = (0..batch_size)
                    .map(|_| {
                        let subject = SubjectId(rng.below(INGEST_SUBJECTS as usize) as u64);
                        let ty = EventType(rng.below(INGEST_TYPES) as u32);
                        let jitter = rng.below(INGEST_DELAY as usize + 1) as i64;
                        KeyedEvent::new(
                            subject,
                            Event::new(ty, Timestamp::from_millis(*clock - jitter)),
                        )
                    })
                    .collect();
                ops.push(Op::Push(batch));
                ops.push(Op::Watermark(Timestamp::from_millis(*clock)));
                *clock += 1;
            }
            Gen::Churn(state) => {
                if g > 0 && g.is_multiple_of(CHURN_EPOCH_EVERY) {
                    churn_step(state, rng, &mut ops);
                }
                if g > 0 && g.is_multiple_of(CHURN_CHECKPOINT_EVERY) {
                    ops.push(Op::Checkpoint);
                }
                let n = batch_size as i64;
                let batch = (0..batch_size as i64)
                    .map(|i| {
                        let subject = state.live[rng.below(state.live.len())];
                        let ty = EventType(rng.below(CHURN_TYPES) as u32);
                        let jitter = rng.below(CHURN_DELAY as usize + 1) as i64;
                        let ts = state.clock + i * CHURN_BATCH_MS / n - jitter;
                        KeyedEvent::new(
                            SubjectId(subject),
                            Event::new(ty, Timestamp::from_millis(ts)),
                        )
                    })
                    .collect();
                ops.push(Op::Push(batch));
                ops.push(Op::Watermark(Timestamp::from_millis(
                    state.clock + CHURN_BATCH_MS - 1,
                )));
                state.clock += CHURN_BATCH_MS;
            }
        }
        let (mut lo, mut hi, mut events) = (u64::MAX, 0, 0);
        for op in &ops {
            if let Op::Push(batch) = op {
                events += batch.len();
                for e in batch {
                    let w = (e.event.ts.millis().max(0) / self.window_ms) as u64;
                    lo = lo.min(w);
                    hi = hi.max(w);
                }
            }
        }
        Group {
            ops,
            events,
            windows: (lo, hi),
        }
    }
}

/// One churn step: a subject joins, another retires, a tenant swaps its
/// churn pattern, and the epoch recompiles. Events stop naming the
/// retiring subject at once and name the new one only after the epoch.
fn churn_step(state: &mut ChurnState, rng: &mut DpRng, ops: &mut Vec<Op>) {
    let joining = state.next_subject;
    state.next_subject += 1;
    ops.push(Op::Control(
        WireCommand::RegisterSubject(SubjectId(joining)),
        joining,
    ));
    // retire a pattern-free live subject
    let i = CHURN_OWNERS as usize + rng.below(state.live.len() - CHURN_OWNERS as usize);
    let leaving = state.live.swap_remove(i);
    ops.push(Op::Control(
        WireCommand::RetireSubject(SubjectId(leaving)),
        leaving,
    ));
    let owner = state.step % CHURN_OWNERS;
    let a = rng.below(CHURN_TYPES) as u32;
    let b = (a + 1 + rng.below(CHURN_TYPES - 1) as u32) % CHURN_TYPES as u32;
    let pid = state.next_pattern;
    state.next_pattern += 1;
    ops.push(Op::Control(
        WireCommand::RegisterPattern {
            subject: SubjectId(owner),
            name: format!("churn{}", state.step),
            elements: vec![EventType(a), EventType(b)],
        },
        pid,
    ));
    if let Some((old_owner, old)) = state.last_churn_pattern.replace((owner, pid)) {
        ops.push(Op::Control(
            WireCommand::RevokePattern {
                subject: SubjectId(old_owner),
                pattern: old as u32,
            },
            old,
        ));
    }
    ops.push(Op::BeginEpoch);
    state.epoch += 1;
    state.step += 1;
    state.live.push(joining);
}
