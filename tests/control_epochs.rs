//! Acceptance tests for the epoch-based dynamic control plane:
//!
//! * the **adaptive PPM runs online** — an epoch transition with history
//!   produces exactly the distribution `optimize_all` (Algorithm 1)
//!   computes on the control plane's effective history, and it is
//!   genuinely non-uniform on skewed workloads;
//! * **budget accounting is ledger-enforced across epochs** — each
//!   release charges a pattern its registered pattern-level ε and never
//!   more, re-distribution across epochs conserves the per-release total,
//!   and revocation freezes (never refunds) spend. Property-tested over
//!   random churn schedules through the real service release path;
//! * **transitions apply deltas** — the routing table and per-shard
//!   subject counts the service patches from each plan's routing delta
//!   equal a from-scratch rebuild from the compiled subject set, and
//!   budget reads keep their unknown-key rules, over seeded schedules;
//! * **a reused Algorithm 1 result is the recompute** — an epoch that
//!   reuses the stored assignment compiles bit-for-bit what a fresh
//!   control plane compiles.

use std::collections::{BTreeMap, BTreeSet};

use pattern_dp_repro::cep::{Pattern, PatternId};
use pattern_dp_repro::core::{
    optimize_all, AdaptiveConfig, ControlPlane, ControlPlaneConfig, EpochPlan, KeyedEvent,
    Mechanism, PpmKind, QualityModel, RouteTable, ServiceBuilder, ServiceConfig, ShardedService,
    StreamingConfig, SubjectId,
};
use pattern_dp_repro::dp::{DpRng, Epsilon};
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{
    Event, EventType, IndicatorVector, TimeDelta, Timestamp, WindowedIndicators,
};
use proptest::prelude::*;

const WINDOW: TimeDelta = TimeDelta::from_millis(10);

fn t(i: u32) -> EventType {
    EventType(i)
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn config(ppm: PpmKind, history_window: usize) -> ServiceConfig {
    ServiceConfig {
        n_shards: 1,
        n_types: 3,
        alpha: Alpha::HALF,
        ppm,
        streaming: StreamingConfig::tumbling(WINDOW),
        max_delay: TimeDelta::from_millis(4),
        seed: 99,
        history_window,
    }
}

/// History where the target (types 0, 2) rides on type 0 while the
/// private-only type 1 is rare: Algorithm 1 shifts budget toward the
/// shared element 0.
fn skewed_history(n: usize) -> WindowedIndicators {
    let mut windows = Vec::new();
    for k in 0..n {
        let mut present = Vec::new();
        if k % 2 == 0 {
            present.extend([t(0), t(2)]);
        }
        if k % 5 == 0 {
            present.push(t(1));
        }
        windows.push(IndicatorVector::from_present(present, 3));
    }
    WindowedIndicators::new(windows)
}

#[test]
fn epoch_transition_runs_optimize_all_on_the_effective_history() {
    let total = eps(2.0);
    let adaptive = AdaptiveConfig::default();
    let mut b = ServiceBuilder::new(config(
        PpmKind::Adaptive {
            eps: total,
            config: adaptive,
        },
        64,
    ))
    .unwrap();
    let private =
        b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.provide_history(skewed_history(40));
    let mut svc = b.build().unwrap();

    // serve a while: releases flow into the sliding history
    svc.push_batch(vec![ke(1, 0, 2), ke(1, 2, 3)]).unwrap();
    let out = svc.advance_watermark(Timestamp::from_millis(100)).unwrap();
    assert!(!out.merged.is_empty());

    // a fresh explicit grant joins the sliding history at the transition
    svc.provide_history(skewed_history(60));
    let transition = svc.begin_epoch().unwrap().expect("history staged");
    let plan = &transition.plan;

    // the acceptance criterion: the epoch's distribution IS optimize_all
    // over the same WindowedIndicators the control plane reports
    let history = svc.control().effective_history().expect("history exists");
    assert!(
        history.len() > 60,
        "effective history includes released windows, got {}",
        history.len()
    );
    // mirror the plan compile's cross-query dedup (first-reference order)
    let mut targets: Vec<_> = Vec::new();
    for q in plan.core.queries() {
        for pid in q.spec.referenced_patterns() {
            if !targets.contains(&pid) {
                targets.push(pid);
            }
        }
    }
    let model =
        QualityModel::new(history, svc.control().patterns(), &targets, Alpha::HALF).unwrap();
    let expected = optimize_all(
        svc.control().patterns(),
        &svc.control().active_private(),
        total,
        &model,
        3,
        &adaptive,
    )
    .unwrap();
    let got = plan.core.pipeline().assignments();
    assert_eq!(got.len(), expected.len());
    for ((gid, gdist), (eid, edist)) in got.iter().zip(&expected) {
        assert_eq!(gid, eid);
        assert_eq!(gid, &private);
        for (g, e) in gdist.shares().iter().zip(edist.shares()) {
            assert!((g.value() - e.value()).abs() < 1e-12, "{g} vs {e}");
        }
    }

    // non-uniform on the skewed workload, and conserving Σεᵢ = ε
    let shares = got[0].1.shares();
    assert!(
        shares[0].value() > shares[1].value() + 1e-6,
        "expected skew toward the shared element: {shares:?}"
    );
    let sum: f64 = shares.iter().map(|s| s.value()).sum();
    assert!((sum - total.value()).abs() < 1e-9);
}

#[test]
fn sliding_history_alone_feeds_the_online_optimizer() {
    // no new explicit grant: the transition optimizes on what the service
    // itself released (initial grant + sliding tail)
    let mut b = ServiceBuilder::new(config(
        PpmKind::Adaptive {
            eps: eps(1.0),
            config: AdaptiveConfig::default(),
        },
        8,
    ))
    .unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.provide_history(skewed_history(20));
    let mut svc = b.build().unwrap();
    svc.push_batch(vec![ke(1, 0, 2)]).unwrap();
    svc.advance_watermark(Timestamp::from_millis(200)).unwrap();
    // > 8 windows released, but the sliding tail is bounded at 8
    let history = svc.control().effective_history().unwrap();
    assert_eq!(history.len(), 20 + 8);
    // stage a structural command and transition on the sliding history
    svc.register_subject(SubjectId(2));
    let transition = svc.begin_epoch().unwrap().expect("staged");
    assert_eq!(transition.plan.epoch, 1);
    assert_eq!(transition.plan.core.pipeline().assignments().len(), 1);
}

/// One uniform-PPM service driven through a churn schedule; checks the
/// ledger invariants the acceptance criteria name. Returns releases per
/// epoch for the extra per-epoch assertions.
fn run_churn_schedule(batches_before: usize, batches_after: usize, events_per_batch: usize) {
    let total = eps(1.5);
    let mut b = ServiceBuilder::new(config(PpmKind::Uniform { eps: total }, 0)).unwrap();
    let p1 = b.register_private_pattern(SubjectId(1), Pattern::seq("a", vec![t(0), t(1)]).unwrap());
    let p2 = b.register_private_pattern(SubjectId(2), Pattern::single("b", t(2)));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    let mut svc = b.build().unwrap();

    let mut clock = 0i64;
    let mut merged = Vec::new();
    let mut push = |svc: &mut pattern_dp_repro::core::ShardedService,
                    merged: &mut Vec<pattern_dp_repro::core::MergedRelease>,
                    n: usize| {
        let mut batch = Vec::new();
        for _ in 0..n {
            clock += 3;
            batch.push(ke(1 + (clock as u64 % 2), (clock % 3) as u32, clock));
        }
        merged.extend(svc.push_batch(batch).unwrap().merged);
    };
    for _ in 0..batches_before {
        push(&mut svc, &mut merged, events_per_batch);
    }
    // subject 1 revokes their pattern; subject 2 stays
    svc.revoke_private_pattern(SubjectId(1), p1).unwrap();
    let transition = svc.begin_epoch().unwrap().expect("staged");
    let boundary = transition.activation_index;
    for _ in 0..batches_after {
        push(&mut svc, &mut merged, events_per_batch);
    }
    merged.extend(svc.finish().unwrap().merged);
    // split by the activation boundary: pipelined ingestion delivers a
    // round's releases at the next call, so per-push attribution would
    // misplace the round in flight at the transition — the window index
    // is the authoritative epoch split
    let epoch0_releases = merged.iter().filter(|m| m.index < boundary).count();
    let epoch1_releases = merged.len() - epoch0_releases;

    // counted releases match the boundary split
    assert_eq!(epoch0_releases, boundary);

    // --- the ledger invariants ---
    let spent1 = svc.budget_spent(SubjectId(1), p1).unwrap().value();
    let spent2 = svc.budget_spent(SubjectId(2), p2).unwrap().value();
    // (1) every release charges exactly the registered pattern budget ε,
    // and only while the pattern was active: p1 spent ε per epoch-0
    // release and froze at revocation …
    assert!((spent1 - total.value() * epoch0_releases as f64).abs() < 1e-9);
    // … while p2 kept charging through both epochs
    assert!((spent2 - total.value() * (epoch0_releases + epoch1_releases) as f64).abs() < 1e-9);
    // (2) per-epoch spend decomposes the total and respects the
    // per-release cap (the registered pattern budget) in every epoch
    for (subject, pid) in [(SubjectId(1), p1), (SubjectId(2), p2)] {
        let mut sum = 0.0;
        for (epoch, releases) in [(0u64, epoch0_releases), (1, epoch1_releases)] {
            let in_epoch = svc
                .budget_spent_in_epoch(subject, pid, epoch)
                .unwrap()
                .value();
            sum += in_epoch;
            assert!(
                in_epoch <= total.value() * releases as f64 + 1e-9,
                "epoch {epoch} overcharged: {in_epoch}"
            );
        }
        let spent = svc.budget_spent(subject, pid).unwrap().value();
        assert!((sum - spent).abs() < 1e-9, "epoch spends must sum to total");
    }
    // (3) revoked pattern charged nothing in epoch 1
    let p1_epoch1 = svc.budget_spent_in_epoch(SubjectId(1), p1, 1).unwrap();
    assert_eq!(p1_epoch1, Epsilon::ZERO);
}

#[test]
fn churn_schedule_ledger_invariants_hold() {
    run_churn_schedule(3, 4, 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The acceptance property: across random churn schedules, total
    /// per-subject spend across epochs never exceeds the registered
    /// pattern budget × the releases the pattern was active for,
    /// per-epoch spends decompose the total, and revocation freezes
    /// spend — all enforced by the epoch ledgers through the real
    /// release path.
    #[test]
    fn ledger_invariants_hold_across_random_schedules(
        batches_before in 1usize..5,
        batches_after in 1usize..5,
        events_per_batch in 4usize..24,
    ) {
        run_churn_schedule(batches_before, batches_after, events_per_batch);
    }
}

/// The reference the delta-maintained routing must equal: the routes and
/// per-shard counts rebuilt from scratch from a compiled subject set.
fn rebuilt_routes(compiled: &BTreeSet<SubjectId>, n_shards: usize) -> (Vec<SubjectId>, Vec<usize>) {
    let mut per_shard = vec![0; n_shards];
    for &s in compiled {
        per_shard[ShardedService::shard_for(s, n_shards)] += 1;
    }
    (compiled.iter().copied().collect(), per_shard)
}

/// One seeded churn schedule: subjects join, retire and re-register in
/// both route tiers, pattern owners retire, patterns are registered and
/// revoked. After every `begin_epoch` the service's routes and per-shard
/// subject counts must equal a rebuild from the compiled set the test
/// tracks itself, and every budget read must be `Some` exactly for the
/// `(subject, pattern)` pairs some plan charged — `None` for unknown,
/// pattern-free and never-charged keys, `Some` for retired and active
/// owners alike. Returns how often each of those four kinds of subject
/// was checked: `[unknown, pattern-free, retired owner, active owner]`.
fn delta_routing_equals_rebuild(seed: u64) -> [usize; 4] {
    const N_SHARDS: usize = 3;
    let mut kinds = [0; 4];
    let pool: Vec<SubjectId> = (1..=6)
        .map(SubjectId)
        .chain((0..4).map(|k| SubjectId(RouteTable::DIRECT_CAP + k)))
        .collect();
    let mut rng = DpRng::seed_from(seed);
    let mut cfg = config(PpmKind::Uniform { eps: eps(1.0) }, 0);
    cfg.n_shards = N_SHARDS;
    let mut b = ServiceBuilder::new(cfg).unwrap();
    // staged state: subject → active; patterns: (owner, id, revoked)
    let mut active: BTreeMap<SubjectId, bool> = BTreeMap::new();
    let mut patterns: Vec<(SubjectId, PatternId, bool)> = Vec::new();
    // a pattern owner, a pattern-free subject, an owner in the overflow tier
    for (subject, ty) in [(pool[0], Some(0)), (pool[1], None), (pool[7], Some(2))] {
        match ty {
            Some(ty) => {
                let pid = b.register_private_pattern(subject, Pattern::single("p", t(ty)));
                patterns.push((subject, pid, false));
            }
            None => {
                b.register_subject(subject);
            }
        }
        active.insert(subject, true);
    }
    let mut svc = b.build().unwrap();
    let mut compiled: BTreeSet<SubjectId> = active.keys().copied().collect();
    let mut charged: BTreeSet<(SubjectId, PatternId)> =
        patterns.iter().map(|&(s, p, _)| (s, p)).collect();
    let mut clock = 0i64;

    for epoch in 1..=12u64 {
        for _ in 0..1 + rng.below(4) {
            let subject = pool[rng.below(pool.len())];
            match rng.below(5) {
                0 => {
                    svc.register_subject(subject);
                    active.insert(subject, true);
                }
                1 => {
                    let known = active.contains_key(&subject);
                    assert_eq!(svc.retire_subject(subject).is_ok(), known);
                    if known {
                        active.insert(subject, false);
                    }
                }
                2 => {
                    let ty = rng.below(3) as u32;
                    let pid = svc.register_private_pattern(subject, Pattern::single("p", t(ty)));
                    patterns.push((subject, pid, false));
                    active.insert(subject, true);
                }
                3 => {
                    let live: Vec<usize> =
                        (0..patterns.len()).filter(|&i| !patterns[i].2).collect();
                    if !live.is_empty() {
                        let i = live[rng.below(live.len())];
                        svc.revoke_private_pattern(patterns[i].0, patterns[i].1)
                            .unwrap();
                        patterns[i].2 = true;
                    }
                }
                _ => {
                    let owners: Vec<SubjectId> =
                        patterns.iter().map(|p| p.0).filter(|s| active[s]).collect();
                    if !owners.is_empty() {
                        let owner = owners[rng.below(owners.len())];
                        svc.retire_subject(owner).unwrap();
                        active.insert(owner, false);
                    }
                }
            }
        }
        // staged commands never reach routing before their epoch
        let (routes, per_shard) = rebuilt_routes(&compiled, N_SHARDS);
        assert_eq!(
            svc.subjects(),
            routes,
            "seed {seed} epoch {epoch}: staged routing"
        );
        assert_eq!(svc.subjects_per_shard(), per_shard);
        let compiled_set: Vec<SubjectId> = svc.control().routed_subjects().collect();
        assert_eq!(
            compiled_set, routes,
            "seed {seed} epoch {epoch}: compiled set"
        );

        let before = compiled.clone();
        compiled = active.iter().filter(|(_, &a)| a).map(|(&s, _)| s).collect();
        match svc.begin_epoch().unwrap() {
            Some(transition) => {
                let plan = &transition.plan;
                let routed: Vec<SubjectId> = compiled.difference(&before).copied().collect();
                let unrouted: Vec<SubjectId> = before.difference(&compiled).copied().collect();
                assert_eq!(plan.routed, routed, "seed {seed} epoch {epoch}: delta");
                assert_eq!(plan.unrouted, unrouted, "seed {seed} epoch {epoch}: delta");
                charged.extend(plan.charges.iter().map(|&(s, p, _)| (s, p)));
            }
            None => assert_eq!(compiled, before, "nothing staged, nothing changes"),
        }
        let (routes, per_shard) = rebuilt_routes(&compiled, N_SHARDS);
        assert_eq!(svc.subjects(), routes, "seed {seed} epoch {epoch}: routes");
        let compiled_set: Vec<SubjectId> = svc.control().routed_subjects().collect();
        assert_eq!(
            compiled_set, routes,
            "seed {seed} epoch {epoch}: compiled set"
        );
        assert_eq!(
            svc.subjects_per_shard(),
            per_shard,
            "seed {seed} epoch {epoch}"
        );
        for &s in &pool {
            let expected = compiled
                .contains(&s)
                .then(|| ShardedService::shard_for(s, N_SHARDS));
            assert_eq!(
                svc.subject_shard(s),
                expected,
                "seed {seed} epoch {epoch}: {s}"
            );
        }

        // serve a little so the ledgers see charges
        let senders: Vec<SubjectId> = compiled.iter().copied().collect();
        if !senders.is_empty() {
            let mut batch = Vec::new();
            for _ in 0..6 {
                clock += 2;
                let s = senders[rng.below(senders.len())];
                batch.push(ke(s.0, rng.below(3) as u32, clock));
            }
            svc.push_batch(batch).unwrap();
        }
        clock += 10;
        svc.advance_watermark(Timestamp::from_millis(clock))
            .unwrap();

        let unknown = SubjectId(999);
        for subject in pool.iter().copied().chain([unknown]) {
            let owner = charged.iter().any(|&(s, _)| s == subject);
            kinds[match (active.get(&subject), owner) {
                (None, _) => 0,
                (Some(_), false) => 1,
                (Some(false), true) => 2,
                (Some(true), true) => 3,
            }] += 1;
            for pid in (0..=patterns.len() as u32).map(PatternId) {
                let expected = charged.contains(&(subject, pid));
                assert_eq!(
                    svc.budget_spent(subject, pid).is_some(),
                    expected,
                    "seed {seed} epoch {epoch}: budget_spent({subject}, {pid:?})"
                );
                assert_eq!(
                    svc.budget_spent_in_epoch(subject, pid, epoch).is_some(),
                    expected,
                    "seed {seed} epoch {epoch}: budget_spent_in_epoch({subject}, {pid:?})"
                );
            }
        }
    }
    kinds
}

#[test]
fn delta_routing_equals_a_rebuild_from_the_compiled_set() {
    let mut kinds = [0; 4];
    for seed in 0..16 {
        let seen = delta_routing_equals_rebuild(seed);
        for (total, n) in kinds.iter_mut().zip(seen) {
            *total += n;
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every kind of subject is checked (unknown, pattern-free, retired owner, active owner): {kinds:?}"
    );
}

/// What a plan compiles to, bit for bit: flip-table probabilities, the
/// integer `FlipPlan` thresholds, the assignments, charges and correlates.
fn assert_same_compile(got: &EpochPlan, fresh: &EpochPlan, what: &str) {
    let (g, f) = (got.core.pipeline(), fresh.core.pipeline());
    assert_eq!(g.name(), f.name(), "{what}: pipeline");
    assert_eq!(
        g.flip_table().probs(),
        f.flip_table().probs(),
        "{what}: probabilities"
    );
    assert_eq!(g.plan(), f.plan(), "{what}: FlipPlan thresholds");
    assert_eq!(g.assignments(), f.assignments(), "{what}: assignments");
    assert_eq!(got.charges, fresh.charges, "{what}: charges");
    assert_eq!(
        got.query_charges, fresh.query_charges,
        "{what}: query charges"
    );
    assert_eq!(got.correlates, fresh.correlates, "{what}: correlates");
    assert_eq!(got.epoch, fresh.epoch, "{what}: epoch");
}

fn control_config(cfg: &ServiceConfig) -> ControlPlaneConfig {
    ControlPlaneConfig {
        n_types: cfg.n_types,
        alpha: cfg.alpha,
        ppm: cfg.ppm.clone(),
        history_window: cfg.history_window,
    }
}

/// Compile `plane`'s next epoch and compare it with the compile of a
/// fresh plane restored from the same state (a restored plane holds no
/// stored assignment, so it always runs Algorithm 1). Returns how many
/// times `plane` ran Algorithm 1 for this epoch, and the plan.
fn compile_matches_fresh_compile(
    plane: &mut ControlPlane,
    cfg: &ServiceConfig,
    what: &str,
) -> (u64, EpochPlan) {
    let mut fresh_plane = ControlPlane::restore(control_config(cfg), plane.snapshot());
    let fresh = fresh_plane.compile_next().unwrap();
    assert_eq!(
        fresh_plane.optimize_runs(),
        1,
        "{what}: a fresh plane optimizes"
    );
    let runs = plane.optimize_runs();
    let plan = plane.compile_next().unwrap();
    assert_same_compile(&plan, &fresh, what);
    (plane.optimize_runs() - runs, plan)
}

/// Run `begin_epoch` on `svc` and compare its plan with the compile of a
/// fresh control plane restored from the same state (a restored plane
/// holds no stored assignment, so it always runs Algorithm 1). Returns
/// how many times `svc`'s plane ran Algorithm 1 for this epoch.
fn transition_matches_fresh_compile(
    svc: &mut ShardedService,
    cfg: &ServiceConfig,
    what: &str,
) -> u64 {
    let mut fresh_plane = ControlPlane::restore(control_config(cfg), svc.control().snapshot());
    let fresh = fresh_plane.compile_next().unwrap();
    assert_eq!(
        fresh_plane.optimize_runs(),
        1,
        "{what}: a fresh plane optimizes"
    );
    let runs = svc.control().optimize_runs();
    let transition = svc.begin_epoch().unwrap().expect("staged");
    assert_same_compile(&transition.plan, &fresh, what);
    svc.control().optimize_runs() - runs
}

#[test]
fn reused_assignment_compiles_bit_for_bit_like_a_fresh_one() {
    let adaptive = PpmKind::Adaptive {
        eps: eps(2.0),
        config: AdaptiveConfig::default(),
    };
    // history_window 0: only explicit grants move the history
    let cfg = config(adaptive.clone(), 0);
    let mut b = ServiceBuilder::new(cfg.clone()).unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_private_pattern(SubjectId(2), Pattern::seq("r", vec![t(1), t(2)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.register_subject(SubjectId(3));
    b.provide_history(skewed_history(40));
    let mut svc = b.build().unwrap();
    assert_eq!(
        svc.control().optimize_runs(),
        1,
        "the initial build optimizes"
    );
    svc.push_batch(vec![ke(1, 0, 2), ke(2, 1, 3), ke(3, 2, 4)])
        .unwrap();

    // subject-only epochs reuse the stored assignment
    svc.register_subject(SubjectId(4));
    assert_eq!(transition_matches_fresh_compile(&mut svc, &cfg, "join"), 0);
    svc.retire_subject(SubjectId(3)).unwrap();
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "retire"),
        0
    );
    // a pattern change recomputes; the next subject-only epoch reuses
    let p = svc.register_private_pattern(SubjectId(4), Pattern::single("s", t(2)));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "pattern"),
        1
    );
    svc.register_subject(SubjectId(5));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "join after pattern"),
        0
    );
    // retiring a pattern owner changes the active private set
    svc.retire_subject(SubjectId(2)).unwrap();
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "owner retires"),
        1
    );
    // a new history grant recomputes
    svc.provide_history(skewed_history(60));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "history"),
        1
    );
    svc.register_subject(SubjectId(6));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "join after history"),
        0
    );
    svc.revoke_private_pattern(SubjectId(4), p).unwrap();
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "revoke"),
        1
    );

    // the stored assignment is derived state, not checkpointed: the first
    // compile after a restore recomputes, and equals the live reuse
    svc.register_subject(SubjectId(8));
    let (checkpoint, _) = svc.checkpoint().unwrap();
    let mut restored = ShardedService::restore(cfg.clone(), checkpoint).unwrap();
    assert_eq!(restored.control().optimize_runs(), 0);
    let live = svc.begin_epoch().unwrap().unwrap();
    assert_eq!(svc.control().optimize_runs(), 5, "the live service reuses");
    let after_restore = restored.begin_epoch().unwrap().unwrap();
    assert_eq!(
        restored.control().optimize_runs(),
        1,
        "the restored one recomputes"
    );
    assert_same_compile(&after_restore.plan, &live.plan, "after restore");
}

#[test]
fn released_history_invalidates_the_stored_assignment() {
    // with a sliding history, every release moves the optimizer's input
    let cfg = config(
        PpmKind::Adaptive {
            eps: eps(1.0),
            config: AdaptiveConfig::default(),
        },
        8,
    );
    let mut b = ServiceBuilder::new(cfg.clone()).unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.provide_history(skewed_history(20));
    let mut svc = b.build().unwrap();
    // no release yet: a subject-only epoch reuses
    svc.register_subject(SubjectId(2));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "no release"),
        0
    );
    svc.push_batch(vec![ke(1, 0, 2), ke(2, 2, 5)]).unwrap();
    svc.advance_watermark(Timestamp::from_millis(60)).unwrap();
    svc.register_subject(SubjectId(3));
    assert_eq!(
        transition_matches_fresh_compile(&mut svc, &cfg, "released"),
        1
    );
}

#[test]
fn widening_is_part_of_the_stored_assignment_key() {
    let cfg = config(
        PpmKind::Adaptive {
            eps: eps(2.0),
            config: AdaptiveConfig::default(),
        },
        0,
    );
    let mut plane = ControlPlane::new(control_config(&cfg));
    plane.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    plane.add_consumer_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    plane.provide_history(skewed_history(40));
    plane.compile_initial().unwrap();
    // switching widening on recomputes; correlates compile identically
    plane.set_correlate_widening(Some((1.1, eps(0.5))));
    let (runs, plan) = compile_matches_fresh_compile(&mut plane, &cfg, "widening on");
    assert_eq!(runs, 1);
    assert!(!plan.correlates.is_empty(), "the history has a correlate");
    plane.register_subject(SubjectId(2));
    let (runs, plan) = compile_matches_fresh_compile(&mut plane, &cfg, "join, widened");
    assert_eq!(runs, 0);
    assert!(!plan.correlates.is_empty());
    plane.set_correlate_widening(None);
    let (runs, plan) = compile_matches_fresh_compile(&mut plane, &cfg, "widening off");
    assert_eq!(runs, 1);
    assert!(plan.correlates.is_empty());
}
