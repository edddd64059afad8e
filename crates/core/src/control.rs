//! The dynamic control plane: runtime churn compiled into epoch plans.
//!
//! The paper's setup phase (§III-A) fixes subjects, private patterns and
//! consumer queries before the service phase begins. A long-running
//! multi-tenant deployment cannot: tenants join, leave and change their
//! minds mid-stream. [`ControlPlane`] is the **control plane** of that
//! deployment — the data plane (shard engines pushing events and releasing
//! windows) never re-reads mutable registration state; instead:
//!
//! 1. runtime [`Command`]s (register/retire a subject, register/revoke a
//!    private pattern, add/remove a consumer query, provide history) are
//!    **staged** on the control plane. Staging assigns stable ids
//!    immediately — the pattern/query registries are *append-only*, a
//!    revoked entry is deactivated, never deleted, so every id ever handed
//!    out stays meaningful;
//! 2. a batch of staged commands is **compiled** into an immutable
//!    [`EpochPlan`]: a fresh [`OnlineCore`] (recompiled
//!    [`FlipTable`](crate::protect::FlipTable) +
//!    [`FlipPlan`](crate::protect::FlipPlan), detector pattern set, active
//!    query list) plus the per-subject charging schedule;
//! 3. the service fans the plan out to every shard with one **activation
//!    window index** (chosen from the release frontier the global low
//!    watermark drives): all shards — and any independent engine given the
//!    same `(activation, plan)` — switch on the same window, so the
//!    bit-for-bit equivalence anchors extend to the dynamic setting.
//!
//! **Determinism contract for command schedules.** A command schedule is
//! the sequence of staged commands plus the epoch boundaries at which
//! they were compiled (each boundary's activation index is part of the
//! schedule). Two executions of the same schedule — whatever the shard
//! count, batching or thread interleaving — produce identical plans and
//! identical releases, because (a) ids are assigned by staging order, (b)
//! compilation reads only control-plane state and the deterministic
//! effective history, and (c) activation is keyed to window indexes, not
//! wall-clock or call timing. A schedule with zero commands never
//! compiles a plan and reproduces the static service exactly.
//!
//! **Adaptive PPM, online.** An epoch compile under
//! [`PpmKind::Adaptive`] runs Algorithm 1 (§V-B, [`optimize_all`]) on
//! the **effective history** (or reuses the previous result when none of
//! its inputs changed — see the transition cost model below): the
//! explicitly granted history followed by a bounded sliding window of
//! *released* (protected) population windows the
//! service feeds back via [`ControlPlane::observe_release`]. Using the
//! released view keeps the optimizer input on the public side of the
//! trust boundary (post-processing — no extra budget). §V-C correlation
//! widening can be pulled into every compile with
//! [`ControlPlane::set_correlate_widening`]. Budget spent in prior epochs
//! stays charged in the per-subject ledgers; a revoked pattern stops
//! charging but never refunds (see
//! [`EpochLedger`](pdp_dp::EpochLedger)).
//!
//! **Transition cost model.** Like the paper's setup phase, which fixes
//! subjects and private patterns once, an epoch transition costs what
//! changed, not what is registered:
//!
//! * *routing* — the plane records which subjects' active state flipped
//!   since the last compile; each plan carries that delta
//!   ([`EpochPlan::routed`] / [`EpochPlan::unrouted`]) and the service
//!   applies it to its route table, so a transition costs
//!   O(changed subjects), not O(registered subjects). Only the initial
//!   compile lists every active subject;
//! * *accounting* — the service keeps budget ledgers only for subjects
//!   some plan has charged, and installing a plan touches only the
//!   previous plan's charges plus the new plan's: O(charged subjects);
//! * *Algorithm 1* — the last [`optimize_all`]
//!   assignment is kept with its inputs (active private ids, target ids,
//!   a history generation bumped by [`ControlPlane::provide_history`] and
//!   [`ControlPlane::observe_release`], the widening setting) and reused
//!   when they are equal. Reuse is bit-for-bit the recompute (the
//!   optimizer is deterministic in those inputs); the stored assignment
//!   is derived state and is not part of a [`ControlPlaneSnapshot`], so
//!   the first compile after a restore recomputes. With a sliding history
//!   that moves every epoch, every compile recomputes;
//! * the rest is per plan, independent of the subject count: compiling
//!   the flip table and the detector pattern set, and fanning the plan
//!   out to the shards.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use pdp_cep::{Pattern, PatternId, PatternSet, QueryId};
use pdp_dp::Epsilon;
use pdp_metrics::Alpha;
use pdp_stream::{IndicatorVector, WindowedIndicators};

use crate::adaptive::{optimize_all, AdaptiveConfig};
use crate::answer::{Query, QuerySpec};
use crate::correlation::{find_correlates, widen_protection, Correlate};
use crate::distribution::BudgetDistribution;
use crate::engine::PpmKind;
use crate::error::CoreError;
use crate::protect::{Mechanism, ProtectionPipeline};
use crate::quality_model::QualityModel;
use crate::service::SubjectId;
use crate::streaming::{OnlineCore, QueryRef};

/// Construction parameters of a [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Size of the event-type universe.
    pub n_types: usize,
    /// The consumers' quality weight (Eq. 3).
    pub alpha: Alpha,
    /// The PPM every epoch plan compiles.
    pub ppm: PpmKind,
    /// Capacity of the sliding released-window history feeding the online
    /// adaptive PPM (0 disables the sliding history; explicitly granted
    /// history is never truncated).
    pub history_window: usize,
}

/// One staged reconfiguration command. The typed [`ControlPlane`] methods
/// are thin wrappers over [`ControlPlane::submit`]; the enum form makes a
/// schedule replayable as data (the equivalence tests replay schedules
/// against independent engines, and the durability WAL persists staged
/// commands as records).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A new tenant joins (no private patterns yet). Re-registering a
    /// retired subject re-activates it.
    RegisterSubject(SubjectId),
    /// A tenant leaves: their events are rejected and their patterns stop
    /// charging from the next epoch on. Spend is never refunded.
    RetireSubject(SubjectId),
    /// A tenant declares a private pattern to protect (registers the
    /// subject implicitly).
    RegisterPrivatePattern {
        /// The declaring tenant.
        subject: SubjectId,
        /// The pattern to protect.
        pattern: Pattern,
    },
    /// A tenant withdraws a private pattern: it stops being protected and
    /// charged from the next epoch on; its id stays in the registry.
    RevokePrivatePattern {
        /// The owning tenant.
        subject: SubjectId,
        /// The pattern to revoke.
        pattern: PatternId,
    },
    /// A consumer registers a named target-pattern query.
    AddConsumerQuery {
        /// Display name.
        name: String,
        /// The target pattern asked about.
        pattern: Pattern,
    },
    /// A consumer registers a named §VII extension query (count,
    /// categorical, argmax) over already-registered patterns, in spec
    /// form (what [`crate::answer::Query::spec`] compiles to).
    AddTypedQuery {
        /// Display name.
        name: String,
        /// The query's registry form.
        spec: QuerySpec,
    },
    /// A consumer withdraws a query: later windows stop answering it.
    RemoveConsumerQuery(QueryId),
    /// Grant (replace) the explicitly provided historical data the
    /// adaptive PPM optimizes against.
    ProvideHistory(WindowedIndicators),
}

/// What staging one [`Command`] produced (the ids assigned, if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandOutcome {
    /// A subject was (re-)registered.
    Subject(SubjectId),
    /// A private pattern was registered.
    Pattern(PatternId),
    /// A consumer query was added.
    Query(QueryId, PatternId),
    /// A typed (extension) consumer query was added.
    TypedQuery(QueryId),
    /// The command changed state but assigned no id.
    Done,
}

#[derive(Debug, Clone)]
struct SubjectState {
    /// Every private pattern this subject ever registered, in order
    /// (revoked ones included — ids stay meaningful for spend lookups).
    patterns: Vec<PatternId>,
    retired: bool,
}

#[derive(Debug, Clone)]
struct QueryState {
    name: String,
    spec: QuerySpec,
    active: bool,
}

/// The compiled, immutable artifact of one epoch: what the data plane
/// runs until the next transition.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// The epoch this plan belongs to (0 = the initial setup-phase build).
    pub epoch: u64,
    /// The compiled protection/answer core every shard engine switches to.
    pub core: OnlineCore,
    /// Per-release charging schedule: each release charges `subject` the
    /// pattern-level `ε` of each of *their* active patterns.
    pub charges: Vec<(SubjectId, PatternId, Epsilon)>,
    /// Per-release charging schedule of the non-boolean consumer queries
    /// (argmax draws): each shard release charges the query's dedicated
    /// `ε` to the service's query ledger.
    pub query_charges: Vec<(QueryId, Epsilon)>,
    /// Latent correlates pulled into the flip table (§V-C), when widening
    /// is enabled; empty otherwise.
    pub correlates: Vec<Correlate>,
    /// Subjects that become routable with this plan (registered or
    /// re-registered since the previous compile), in id order. The
    /// initial plan lists every active subject.
    pub routed: Vec<SubjectId>,
    /// Subjects that stop being routable with this plan (retired since
    /// the previous compile), in id order.
    pub unrouted: Vec<SubjectId>,
}

/// The last Algorithm 1 result and the inputs it was computed from (see
/// the module docs' transition cost model).
#[derive(Debug, Clone)]
struct StoredAssignment {
    private: Vec<PatternId>,
    targets: Vec<PatternId>,
    history_generation: u64,
    widening: Option<(f64, Epsilon)>,
    assignments: Vec<(PatternId, BudgetDistribution)>,
}

/// Plain-data image of a [`ControlPlane`]'s dynamic state, as captured by
/// [`ControlPlane::snapshot`]. The construction-time
/// [`ControlPlaneConfig`] is *not* part of the image — recovery re-supplies
/// it, exactly like the service rebuilds compiled artifacts from
/// configuration — so a snapshot only carries what runtime commands have
/// changed. Collections are flattened into id-ordered vectors so equal
/// control planes snapshot identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneSnapshot {
    /// Append-only pattern registry (the derived type index is rebuilt on
    /// restore).
    pub patterns: PatternSet,
    /// Private-pattern registration order across all subjects.
    pub private_order: Vec<(SubjectId, PatternId)>,
    /// Revoked pattern ids, in revocation order.
    pub revoked: Vec<PatternId>,
    /// Per-subject `(id, owned patterns, retired)` in id order. `retired`
    /// is the *staged* state.
    pub subjects: Vec<(SubjectId, Vec<PatternId>, bool)>,
    /// Subjects whose staged active state differs from the compiled
    /// (routed) one, in id order: a subject is routed iff it is active
    /// XOR listed here (and the initial compile ran). This is what tells
    /// the compiled routing set apart from staged commands.
    pub route_flips: Vec<SubjectId>,
    /// Query registry rows `(name, spec, active)`; index = stable id.
    pub queries: Vec<(String, QuerySpec, bool)>,
    /// Explicitly granted history, if any.
    pub explicit_history: Option<Vec<IndicatorVector>>,
    /// The bounded sliding history of released windows, oldest first.
    pub released_history: Vec<IndicatorVector>,
    /// §V-C widening `(threshold, per-type ε)`, if enabled.
    pub widening: Option<(f64, Epsilon)>,
    /// The current epoch.
    pub epoch: u64,
    /// Whether the initial compile already ran.
    pub compiled_initial: bool,
    /// Whether staged commands await the next compile.
    pub dirty: bool,
}

/// The control plane itself. See the module docs for the full model.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    config: ControlPlaneConfig,
    /// Append-only pattern registry (private + target + plain).
    patterns: PatternSet,
    /// Private-pattern registration order across all subjects — fixes the
    /// flip-table composition order, exactly like the static setup phase.
    private_order: Vec<(SubjectId, PatternId)>,
    revoked: Vec<PatternId>,
    subjects: BTreeMap<SubjectId, SubjectState>,
    /// Subjects whose staged active state differs from the compiled one
    /// (the routing delta of the next plan). Each flip of a subject's
    /// active state toggles its membership. Not kept before the initial
    /// compile, which routes every active subject.
    route_flips: BTreeSet<SubjectId>,
    /// Query registry; index = stable [`QueryId`].
    queries: Vec<QueryState>,
    explicit_history: Option<WindowedIndicators>,
    /// Sliding history of released (protected) population windows,
    /// bounded by `config.history_window`.
    released_history: VecDeque<IndicatorVector>,
    /// Bumped whenever the effective history changes; keys the stored
    /// Algorithm 1 result.
    history_generation: u64,
    /// The last Algorithm 1 result, reused while its inputs are equal.
    assignment: Option<StoredAssignment>,
    /// Algorithm 1 runs since this plane was built or restored.
    optimize_runs: u64,
    widening: Option<(f64, Epsilon)>,
    epoch: u64,
    compiled_initial: bool,
    dirty: bool,
}

impl ControlPlane {
    /// A fresh control plane in the (empty) setup phase.
    pub fn new(config: ControlPlaneConfig) -> Self {
        ControlPlane {
            config,
            patterns: PatternSet::new(),
            private_order: Vec::new(),
            revoked: Vec::new(),
            subjects: BTreeMap::new(),
            route_flips: BTreeSet::new(),
            queries: Vec::new(),
            explicit_history: None,
            released_history: VecDeque::new(),
            history_generation: 0,
            assignment: None,
            optimize_runs: 0,
            widening: None,
            epoch: 0,
            compiled_initial: false,
            dirty: false,
        }
    }

    /// Capture the dynamic state into a plain-data
    /// [`ControlPlaneSnapshot`]. Pair with [`ControlPlane::restore`].
    pub fn snapshot(&self) -> ControlPlaneSnapshot {
        ControlPlaneSnapshot {
            patterns: self.patterns.clone(),
            private_order: self.private_order.clone(),
            revoked: self.revoked.clone(),
            subjects: self
                .subjects
                .iter()
                .map(|(&id, s)| (id, s.patterns.clone(), s.retired))
                .collect(),
            route_flips: self.route_flips.iter().copied().collect(),
            queries: self
                .queries
                .iter()
                .map(|q| (q.name.clone(), q.spec.clone(), q.active))
                .collect(),
            explicit_history: self
                .explicit_history
                .as_ref()
                .map(|h| h.iter().cloned().collect()),
            released_history: self.released_history.iter().cloned().collect(),
            widening: self.widening,
            epoch: self.epoch,
            compiled_initial: self.compiled_initial,
            dirty: self.dirty,
        }
    }

    /// Rebuild a control plane from a snapshot plus the construction-time
    /// config. The derived pattern-type index is reindexed, so snapshots
    /// that crossed a serialization boundary restore correctly. The stored
    /// Algorithm 1 result is derived state and starts empty.
    pub fn restore(config: ControlPlaneConfig, snapshot: ControlPlaneSnapshot) -> Self {
        let mut patterns = snapshot.patterns;
        patterns.reindex();
        ControlPlane {
            config,
            patterns,
            private_order: snapshot.private_order,
            revoked: snapshot.revoked,
            subjects: snapshot
                .subjects
                .into_iter()
                .map(|(id, patterns, retired)| (id, SubjectState { patterns, retired }))
                .collect(),
            route_flips: snapshot.route_flips.into_iter().collect(),
            queries: snapshot
                .queries
                .into_iter()
                .map(|(name, spec, active)| QueryState { name, spec, active })
                .collect(),
            explicit_history: snapshot.explicit_history.map(WindowedIndicators::new),
            released_history: snapshot.released_history.into(),
            history_generation: 0,
            assignment: None,
            optimize_runs: 0,
            widening: snapshot.widening,
            epoch: snapshot.epoch,
            compiled_initial: snapshot.compiled_initial,
            dirty: snapshot.dirty,
        }
    }

    /// Stage one command; returns the ids it assigned.
    pub fn submit(&mut self, command: Command) -> Result<CommandOutcome, CoreError> {
        match command {
            Command::RegisterSubject(s) => Ok(CommandOutcome::Subject(self.register_subject(s))),
            Command::RetireSubject(s) => {
                self.retire_subject(s)?;
                Ok(CommandOutcome::Done)
            }
            Command::RegisterPrivatePattern { subject, pattern } => Ok(CommandOutcome::Pattern(
                self.register_private_pattern(subject, pattern),
            )),
            Command::RevokePrivatePattern { subject, pattern } => {
                self.revoke_private_pattern(subject, pattern)?;
                Ok(CommandOutcome::Done)
            }
            Command::AddConsumerQuery { name, pattern } => {
                let (q, p) = self.add_consumer_query(&name, pattern);
                Ok(CommandOutcome::Query(q, p))
            }
            Command::AddTypedQuery { name, spec } => {
                Ok(CommandOutcome::TypedQuery(self.add_query_spec(&name, spec)))
            }
            Command::RemoveConsumerQuery(q) => {
                self.remove_consumer_query(q)?;
                Ok(CommandOutcome::Done)
            }
            Command::ProvideHistory(windows) => {
                self.provide_history(windows);
                Ok(CommandOutcome::Done)
            }
        }
    }

    /// Stage: register a subject with no private patterns (or re-activate
    /// a retired one).
    pub fn register_subject(&mut self, subject: SubjectId) -> SubjectId {
        if let Some(state) = self.subjects.get_mut(&subject) {
            if state.retired {
                state.retired = false;
                self.dirty = true;
                self.flip_route(subject);
            }
        } else {
            self.subjects.insert(
                subject,
                SubjectState {
                    patterns: Vec::new(),
                    retired: false,
                },
            );
            self.dirty = true;
            self.flip_route(subject);
        }
        subject
    }

    /// Record that `subject`'s staged active state flipped: a second flip
    /// before the next compile cancels the first.
    fn flip_route(&mut self, subject: SubjectId) {
        if self.compiled_initial && !self.route_flips.remove(&subject) {
            self.route_flips.insert(subject);
        }
    }

    /// Stage: a tenant leaves the service.
    pub fn retire_subject(&mut self, subject: SubjectId) -> Result<(), CoreError> {
        let state = self
            .subjects
            .get_mut(&subject)
            .ok_or(CoreError::UnknownSubject(subject.0))?;
        if !state.retired {
            state.retired = true;
            self.dirty = true;
            self.flip_route(subject);
        }
        Ok(())
    }

    /// Stage: declare a private pattern for `subject` (registering the
    /// subject implicitly). The id is assigned immediately; protection
    /// starts at the next epoch.
    pub fn register_private_pattern(&mut self, subject: SubjectId, pattern: Pattern) -> PatternId {
        self.register_subject(subject);
        let id = self.patterns.insert(pattern);
        self.private_order.push((subject, id));
        self.subjects
            .get_mut(&subject)
            .expect("just registered")
            .patterns
            .push(id);
        self.dirty = true;
        id
    }

    /// Stage: withdraw one of `subject`'s private patterns. The pattern
    /// stops being protected and charged at the next epoch; spend already
    /// recorded is never refunded.
    pub fn revoke_private_pattern(
        &mut self,
        subject: SubjectId,
        pattern: PatternId,
    ) -> Result<(), CoreError> {
        let state = self
            .subjects
            .get(&subject)
            .ok_or(CoreError::UnknownSubject(subject.0))?;
        if !state.patterns.contains(&pattern) {
            return Err(CoreError::InvalidCommand(format!(
                "{subject} does not own pattern {pattern}"
            )));
        }
        if self.revoked.contains(&pattern) {
            return Err(CoreError::InvalidCommand(format!(
                "pattern {pattern} is already revoked"
            )));
        }
        self.revoked.push(pattern);
        self.dirty = true;
        Ok(())
    }

    /// Stage: register a pattern that is neither private nor queried
    /// (kept for [`PatternId`] parity with an external registry).
    pub fn register_pattern(&mut self, pattern: Pattern) -> PatternId {
        self.dirty = true;
        self.patterns.insert(pattern)
    }

    /// Stage: add a named consumer query. Answered from the next epoch on
    /// (or from epoch 0 when staged before the initial build).
    pub fn add_consumer_query(&mut self, name: &str, pattern: Pattern) -> (QueryId, PatternId) {
        let pid = self.patterns.insert(pattern);
        let qid = self.add_query_spec(name, QuerySpec::Pattern { pattern: pid });
        (qid, pid)
    }

    /// Stage: add a named §VII extension query ([`CountQuery`],
    /// [`CategoricalQuery`], [`ArgmaxQuery`] — anything implementing
    /// [`Query`]) over already-registered patterns. The query joins the
    /// same append-only registry as pattern queries: it receives the next
    /// stable [`QueryId`], compiles into every subsequent epoch plan, and
    /// is answered (typed) on the protected view inside the release path.
    /// Dangling pattern references are rejected at the next compile.
    ///
    /// [`CountQuery`]: crate::extensions::CountQuery
    /// [`CategoricalQuery`]: crate::extensions::CategoricalQuery
    /// [`ArgmaxQuery`]: crate::answer::ArgmaxQuery
    pub fn add_typed_query(&mut self, name: &str, query: &dyn Query) -> QueryId {
        self.add_query_spec(name, query.spec())
    }

    /// Append one query spec to the registry under the next stable id.
    fn add_query_spec(&mut self, name: &str, spec: QuerySpec) -> QueryId {
        let qid = QueryId(self.queries.len() as u32);
        self.queries.push(QueryState {
            name: name.to_owned(),
            spec,
            active: true,
        });
        self.dirty = true;
        qid
    }

    /// Stage: withdraw a consumer query; later windows stop answering it.
    pub fn remove_consumer_query(&mut self, query: QueryId) -> Result<(), CoreError> {
        let state = self
            .queries
            .get_mut(query.0 as usize)
            .ok_or(CoreError::UnknownQuery(query.0))?;
        if !state.active {
            return Err(CoreError::InvalidCommand(format!(
                "query {} is already removed",
                query.0
            )));
        }
        state.active = false;
        self.dirty = true;
        Ok(())
    }

    /// Stage: grant (replace) explicitly provided historical data.
    pub fn provide_history(&mut self, windows: WindowedIndicators) {
        self.explicit_history = Some(windows);
        self.history_generation += 1;
        self.dirty = true;
    }

    /// Enable (or disable, with `None`) §V-C correlation widening at every
    /// subsequent compile: event types whose historical lift against an
    /// active private pattern exceeds `threshold` receive randomized
    /// response with per-type budget `eps`, composed onto the epoch's
    /// table.
    pub fn set_correlate_widening(&mut self, widening: Option<(f64, Epsilon)>) {
        self.widening = widening;
        self.dirty = true;
    }

    /// Feed one released (protected) population window into the bounded
    /// sliding history. Called by the service per merged release; safe on
    /// the public side of the trust boundary (post-processing).
    pub fn observe_release(&mut self, window: &IndicatorVector) {
        if self.config.history_window == 0 {
            return;
        }
        if self.released_history.len() == self.config.history_window {
            self.released_history.pop_front();
        }
        self.released_history.push_back(window.clone());
        self.history_generation += 1;
    }

    /// True when staged commands await the next epoch compile.
    pub fn has_pending(&self) -> bool {
        self.dirty
    }

    /// The current epoch (0 until the first transition compiles).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many compiles ran Algorithm 1 since this plane was built or
    /// restored; compiles that reused the stored assignment (or run a
    /// non-adaptive PPM) do not count.
    pub fn optimize_runs(&self) -> u64 {
        self.optimize_runs
    }

    /// The append-only pattern registry.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The single source of truth for "protected by the next compile":
    /// `(subject, pattern)` pairs in registration order, minus
    /// revocations and retired subjects. Both the pipeline's pattern list
    /// and the charging schedule derive from this one filter, so they
    /// cannot drift apart.
    fn active_private_pairs(&self) -> impl Iterator<Item = (SubjectId, PatternId)> + '_ {
        self.private_order
            .iter()
            .filter(|(subject, pid)| {
                !self.revoked.contains(pid)
                    && self.subjects.get(subject).is_some_and(|s| !s.retired)
            })
            .copied()
    }

    /// Ids of the private patterns protected by the *next* compile:
    /// registration order, minus revocations and retired subjects.
    pub fn active_private(&self) -> Vec<PatternId> {
        self.active_private_pairs().map(|(_, pid)| pid).collect()
    }

    /// The non-retired subjects, in id order.
    pub fn active_subjects(&self) -> Vec<SubjectId> {
        self.subjects
            .iter()
            .filter(|(_, s)| !s.retired)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The subjects routable under the last compiled plan, in id order:
    /// the active subjects with every staged-but-uncompiled flip undone.
    /// Empty before the initial compile.
    pub fn routed_subjects(&self) -> impl Iterator<Item = SubjectId> + '_ {
        self.subjects
            .iter()
            // routed = active XOR flipped: an active subject is routed
            // unless its activation is staged, a retired one only while
            // its retirement is staged
            .filter(|(id, s)| self.compiled_initial && s.retired == self.route_flips.contains(id))
            .map(|(&id, _)| id)
    }

    /// True if `subject` ever registered `pattern` (revoked ones
    /// included — the spend they accrued stays queryable).
    pub fn owns_pattern(&self, subject: SubjectId, pattern: PatternId) -> bool {
        self.subjects
            .get(&subject)
            .is_some_and(|s| s.patterns.contains(&pattern))
    }

    /// True if `subject` is registered (retired or not).
    pub fn knows_subject(&self, subject: SubjectId) -> bool {
        self.subjects.contains_key(&subject)
    }

    /// The history the next adaptive compile optimizes against: the
    /// explicitly granted windows (never truncated) followed by the
    /// bounded sliding history of released windows. `None` when neither
    /// exists.
    pub fn effective_history(&self) -> Option<WindowedIndicators> {
        if self.explicit_history.is_none() && self.released_history.is_empty() {
            return None;
        }
        let mut windows: Vec<IndicatorVector> = self
            .explicit_history
            .as_ref()
            .map(|h| h.iter().cloned().collect())
            .unwrap_or_default();
        windows.extend(self.released_history.iter().cloned());
        Some(WindowedIndicators::new(windows))
    }

    /// Compile the setup phase into the epoch-0 plan (the static build).
    /// Exactly one initial compile is allowed.
    pub fn compile_initial(&mut self) -> Result<EpochPlan, CoreError> {
        if self.compiled_initial {
            return Err(CoreError::InvalidCommand(
                "the initial epoch is already compiled; use compile_next".into(),
            ));
        }
        let plan = self.compile()?;
        self.compiled_initial = true;
        self.dirty = false;
        Ok(plan)
    }

    /// Compile every staged command into the next epoch's plan. Requires
    /// the initial compile; rejects an empty transition (nothing staged).
    pub fn compile_next(&mut self) -> Result<EpochPlan, CoreError> {
        if !self.compiled_initial {
            return Err(CoreError::InvalidCommand(
                "compile_initial must run before epoch transitions".into(),
            ));
        }
        if !self.dirty {
            return Err(CoreError::InvalidCommand(
                "no staged commands to compile".into(),
            ));
        }
        self.epoch += 1;
        let plan = self.compile();
        if plan.is_err() {
            // a failed compile must not burn the epoch number
            self.epoch -= 1;
        } else {
            self.dirty = false;
        }
        plan
    }

    /// The routing delta of the next plan: `(routed, unrouted)`, each in
    /// id order. Every active subject before the initial compile; the
    /// recorded flips after it.
    fn route_delta(&self) -> (Vec<SubjectId>, Vec<SubjectId>) {
        if !self.compiled_initial {
            let routed = self
                .subjects
                .iter()
                .filter(|(_, s)| !s.retired)
                .map(|(&id, _)| id)
                .collect();
            return (routed, Vec::new());
        }
        self.route_flips
            .iter()
            .partition(|id| self.subjects.get(id).is_some_and(|s| !s.retired))
    }

    /// The Algorithm 1 assignment for `private` against `targets`: the
    /// stored one when every input is unchanged, otherwise a fresh
    /// [`optimize_all`] run on the effective history (stored for the next
    /// compile). Only the fresh run materializes the history.
    fn adaptive_assignment(
        &mut self,
        private: &[PatternId],
        targets: Vec<PatternId>,
        eps: Epsilon,
        config: &AdaptiveConfig,
    ) -> Result<Vec<(PatternId, BudgetDistribution)>, CoreError> {
        if let Some(stored) = &self.assignment {
            if stored.private == private
                && stored.targets == targets
                && stored.history_generation == self.history_generation
                && stored.widening == self.widening
            {
                return Ok(stored.assignments.clone());
            }
        }
        let history = self.effective_history().ok_or(CoreError::MissingHistory)?;
        let model = QualityModel::new(history, &self.patterns, &targets, self.config.alpha)?;
        let assignments = optimize_all(
            &self.patterns,
            private,
            eps,
            &model,
            self.config.n_types,
            config,
        )?;
        self.optimize_runs += 1;
        self.assignment = Some(StoredAssignment {
            private: private.to_vec(),
            targets,
            history_generation: self.history_generation,
            widening: self.widening,
            assignments: assignments.clone(),
        });
        Ok(assignments)
    }

    /// Compile the current state into a plan for `self.epoch`. On success
    /// the recorded route flips are consumed; on failure only the stored
    /// Algorithm 1 result may have changed (it is a pure function of its
    /// inputs, so that is harmless).
    fn compile(&mut self) -> Result<EpochPlan, CoreError> {
        let active_private = self.active_private();
        let active_queries: Vec<QueryRef> = self
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.active)
            .map(|(i, q)| QueryRef {
                id: QueryId(i as u32),
                name: q.name.clone(),
                spec: q.spec.clone(),
            })
            .collect();
        let n_types = self.config.n_types;
        let ppm = self.config.ppm.clone();
        let pipeline = match &ppm {
            PpmKind::PassThrough => ProtectionPipeline::from_assignments(
                "pass-through",
                &self.patterns,
                Vec::new(),
                n_types,
            )?,
            PpmKind::Uniform { eps } => {
                ProtectionPipeline::uniform(&self.patterns, &active_private, *eps, n_types)?
            }
            PpmKind::Adaptive { eps, config } => {
                let mut target_ids: Vec<PatternId> = Vec::new();
                for q in &active_queries {
                    for pid in q.spec.referenced_patterns() {
                        if !target_ids.contains(&pid) {
                            target_ids.push(pid);
                        }
                    }
                }
                let assignments =
                    self.adaptive_assignment(&active_private, target_ids, *eps, config)?;
                ProtectionPipeline::from_assignments(
                    "adaptive",
                    &self.patterns,
                    assignments,
                    n_types,
                )?
            }
        };
        let (pipeline, correlates) = match self.widening {
            Some((threshold, correlate_eps)) => {
                let history = self.effective_history().ok_or(CoreError::MissingHistory)?;
                let correlates =
                    find_correlates(&history, &self.patterns, &active_private, threshold)?;
                let widened = widen_protection(pipeline.flip_table(), &correlates, correlate_eps)?;
                (
                    ProtectionPipeline::from_table(
                        &format!("{}+correlates", pipeline.name()),
                        widened,
                        pipeline.assignments().to_vec(),
                    ),
                    correlates,
                )
            }
            None => (pipeline, Vec::new()),
        };
        let core =
            OnlineCore::with_queries(pipeline, self.patterns.clone(), active_queries, self.epoch)?;
        let budgets: HashMap<PatternId, Epsilon> = core.pipeline().budgets().into_iter().collect();
        let charges = self
            .active_private_pairs()
            .filter_map(|(subject, pid)| budgets.get(&pid).map(|&eps| (subject, pid, eps)))
            .collect();
        let query_charges = core.query_charges();
        let (routed, unrouted) = self.route_delta();
        self.route_flips.clear();
        Ok(EpochPlan {
            epoch: self.epoch,
            core,
            charges,
            query_charges,
            correlates,
            routed,
            unrouted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::EventType;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn plane(ppm: PpmKind) -> ControlPlane {
        ControlPlane::new(ControlPlaneConfig {
            n_types: 4,
            alpha: Alpha::HALF,
            ppm,
            history_window: 8,
        })
    }

    #[test]
    fn ids_are_stable_across_revocation_and_removal() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(1.0) });
        let p0 = cp.register_private_pattern(SubjectId(1), Pattern::single("a", t(0)));
        let (q0, qp) = cp.add_consumer_query("t2?", Pattern::single("t2", t(2)));
        let p1 = cp.register_private_pattern(SubjectId(2), Pattern::single("b", t(1)));
        assert_eq!((p0.0, qp.0, p1.0), (0, 1, 2));
        cp.compile_initial().unwrap();

        cp.revoke_private_pattern(SubjectId(1), p0).unwrap();
        cp.remove_consumer_query(q0).unwrap();
        let plan = cp.compile_next().unwrap();
        assert_eq!(plan.epoch, 1);
        // ids survive deactivation: the registry still resolves them …
        assert!(cp.patterns().get(p0).is_some());
        assert!(cp.owns_pattern(SubjectId(1), p0));
        // … but the plan no longer protects, charges or answers them
        assert_eq!(cp.active_private(), vec![p1]);
        assert!(plan.core.queries().is_empty());
        assert_eq!(plan.charges.len(), 1);
        assert_eq!(plan.charges[0].0, SubjectId(2));
        // double revocation / removal is rejected
        assert!(cp.revoke_private_pattern(SubjectId(1), p0).is_err());
        assert!(cp.remove_consumer_query(q0).is_err());
        // a later registration continues the id sequence
        let p3 = cp.register_private_pattern(SubjectId(1), Pattern::single("c", t(3)));
        assert_eq!(p3.0, 3);
    }

    #[test]
    fn retirement_drops_patterns_and_reactivation_restores_them() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(1.0) });
        let p0 = cp.register_private_pattern(SubjectId(1), Pattern::single("a", t(0)));
        cp.compile_initial().unwrap();
        cp.retire_subject(SubjectId(1)).unwrap();
        let plan = cp.compile_next().unwrap();
        assert!(plan.charges.is_empty());
        assert!(cp.active_subjects().is_empty());
        assert!(cp.knows_subject(SubjectId(1)));
        // re-registration re-activates the tenant and their patterns
        cp.register_subject(SubjectId(1));
        let plan = cp.compile_next().unwrap();
        assert_eq!(cp.active_private(), vec![p0]);
        assert_eq!(plan.charges.len(), 1);
        // retiring an unknown subject is an error
        assert!(matches!(
            cp.retire_subject(SubjectId(99)),
            Err(CoreError::UnknownSubject(99))
        ));
    }

    #[test]
    fn transitions_require_initial_compile_and_staged_commands() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(1.0) });
        cp.register_private_pattern(SubjectId(1), Pattern::single("a", t(0)));
        assert!(cp.compile_next().is_err(), "no initial compile yet");
        cp.compile_initial().unwrap();
        assert!(cp.compile_initial().is_err(), "initial compile is unique");
        assert!(!cp.has_pending());
        assert!(cp.compile_next().is_err(), "empty transition rejected");
        cp.register_subject(SubjectId(2));
        assert!(cp.has_pending());
        assert_eq!(cp.compile_next().unwrap().epoch, 1);
        assert_eq!(cp.epoch(), 1);
    }

    #[test]
    fn failed_compile_does_not_burn_the_epoch() {
        // adaptive without history fails; the epoch counter must not move
        let mut cp = plane(PpmKind::Adaptive {
            eps: eps(1.0),
            config: AdaptiveConfig::default(),
        });
        cp.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
        assert!(matches!(
            cp.compile_initial(),
            Err(CoreError::MissingHistory)
        ));
        cp.provide_history(WindowedIndicators::new(vec![
            IndicatorVector::from_present([t(0)], 4),
            IndicatorVector::empty(4),
        ]));
        cp.compile_initial().unwrap();
        assert_eq!(cp.epoch(), 0);
    }

    #[test]
    fn command_enum_replays_like_the_typed_methods() {
        let mut a = plane(PpmKind::Uniform { eps: eps(2.0) });
        let mut b = plane(PpmKind::Uniform { eps: eps(2.0) });
        let schedule = vec![
            Command::RegisterSubject(SubjectId(9)),
            Command::RegisterPrivatePattern {
                subject: SubjectId(1),
                pattern: Pattern::seq("p", vec![t(0), t(1)]).unwrap(),
            },
            Command::AddConsumerQuery {
                name: "t2?".into(),
                pattern: Pattern::single("t2", t(2)),
            },
        ];
        for cmd in &schedule {
            a.submit(cmd.clone()).unwrap();
        }
        b.register_subject(SubjectId(9));
        b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
        b.add_consumer_query("t2?", Pattern::single("t2", t(2)));
        let pa = a.compile_initial().unwrap();
        let pb = b.compile_initial().unwrap();
        assert_eq!(pa.charges, pb.charges);
        assert_eq!(
            pa.core.pipeline().flip_table().probs(),
            pb.core.pipeline().flip_table().probs()
        );
        assert_eq!(pa.core.queries(), pb.core.queries());
    }

    #[test]
    fn sliding_history_is_bounded_and_follows_explicit_grants() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(1.0) });
        assert!(cp.effective_history().is_none());
        let explicit = WindowedIndicators::new(vec![IndicatorVector::from_present([t(0)], 4); 3]);
        cp.provide_history(explicit);
        for k in 0..20 {
            cp.observe_release(&IndicatorVector::from_present([t(k % 4)], 4));
        }
        let history = cp.effective_history().unwrap();
        // 3 explicit (never truncated) + the last 8 released
        assert_eq!(history.len(), 3 + 8);
        assert!(history.window(0).get(t(0)));
        // the sliding tail holds the *latest* releases (12..=19 → types ...)
        assert!(history.window(3).get(t(12 % 4)));
        assert!(history.window(10).get(t(19 % 4)));
    }

    #[test]
    fn snapshot_round_trip_preserves_schedule_semantics() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(2.0) });
        let p0 =
            cp.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
        cp.add_consumer_query("t2?", Pattern::single("t2", t(2)));
        cp.compile_initial().unwrap();
        cp.revoke_private_pattern(SubjectId(1), p0).unwrap();
        cp.register_private_pattern(SubjectId(3), Pattern::single("q", t(3)));
        cp.provide_history(WindowedIndicators::new(vec![IndicatorVector::empty(4)]));
        for k in 0..3 {
            cp.observe_release(&IndicatorVector::from_present([t(k)], 4));
        }
        cp.set_correlate_widening(None);

        let snap = cp.snapshot();
        let mut restored = ControlPlane::restore(
            ControlPlaneConfig {
                n_types: 4,
                alpha: Alpha::HALF,
                ppm: PpmKind::Uniform { eps: eps(2.0) },
                history_window: 8,
            },
            snap.clone(),
        );
        // the snapshot is a fixed point …
        assert_eq!(restored.snapshot(), snap);
        // … and both planes compile the identical next epoch
        assert!(restored.has_pending());
        assert_eq!(restored.epoch(), cp.epoch());
        let pa = cp.compile_next().unwrap();
        let pb = restored.compile_next().unwrap();
        assert_eq!(pa.epoch, pb.epoch);
        assert_eq!(pa.charges, pb.charges);
        assert_eq!(
            pa.core.pipeline().flip_table().probs(),
            pb.core.pipeline().flip_table().probs()
        );
        // the reindexed registry still resolves type lookups
        assert_eq!(restored.patterns().containing(t(3)).len(), 1);
        // subsequent ids continue the sequence identically
        let ia = cp.register_pattern(Pattern::single("z", t(0)));
        let ib = restored.register_pattern(Pattern::single("z", t(0)));
        assert_eq!(ia, ib);
    }

    #[test]
    fn widening_pulls_correlates_into_the_epoch_table() {
        let mut cp = plane(PpmKind::Uniform { eps: eps(1.0) });
        cp.register_private_pattern(SubjectId(1), Pattern::single("p", t(0)));
        // history where t(2) rides along with t(0)
        let mut windows = Vec::new();
        for k in 0..60 {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.extend([t(0), t(2)]);
            }
            if k % 7 == 0 {
                present.push(t(2));
            }
            windows.push(IndicatorVector::from_present(present, 4));
        }
        cp.provide_history(WindowedIndicators::new(windows));
        cp.set_correlate_widening(Some((1.3, eps(1.0))));
        let plan = cp.compile_initial().unwrap();
        assert!(plan.correlates.iter().any(|c| c.ty == t(2)));
        let table = plan.core.pipeline().flip_table();
        assert!(table.prob(t(2)).value() > 0.0);
        assert!(table.prob(t(0)).value() > 0.0);
        assert_eq!(plan.core.pipeline().name(), "uniform+correlates");
    }
}
