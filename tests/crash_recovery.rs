//! The durability contract's anchor: a service killed at an arbitrary
//! batch boundary and recovered from its checkpoint + WAL tail produces
//! **bit-for-bit** the same output as one that never crashed.
//!
//! "Same output" is total: the concatenation of the deliveries made
//! before the checkpoint and the deliveries made by replay + continuation
//! equals the uninterrupted run's delivery sequence — shard releases,
//! merged windows and id-keyed answer records — and the per-subject
//! ledger spends, query-ledger spends, low watermark and epoch agree too.
//! The crash is taken mid-pipeline (a round still in flight) and the WAL
//! tail spans a full epoch transition, so recovery re-derives staged
//! commands, the transition, a watermark heartbeat and two batches.

use std::path::PathBuf;

use pattern_dp_repro::cep::{Pattern, PatternId, QueryId};
use pattern_dp_repro::core::{
    read_checkpoint, write_checkpoint, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig,
    ShardedService, StreamingConfig, SubjectId, VecSink, WalWriter,
};
use pattern_dp_repro::dp::Epsilon;
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{Event, EventType, TimeDelta, Timestamp};

fn t(i: u32) -> EventType {
    EventType(i)
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

fn config(n_shards: usize) -> ServiceConfig {
    ServiceConfig {
        n_shards,
        n_types: 5,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        max_delay: TimeDelta::from_millis(5),
        seed: 41,
        history_window: 16,
    }
}

fn builder(n_shards: usize) -> ServiceBuilder {
    let mut b = ServiceBuilder::new(config(n_shards)).unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
    b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
    b.register_subject(SubjectId(3));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    b
}

/// Unique per-test scratch directory (the suite runs tests in parallel).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdp-crash-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// The scripted input history both runs consume. Ops before the
// checkpoint boundary and after it are split so the crashed run can
// switch sinks at the boundary.
fn b1() -> Vec<KeyedEvent> {
    vec![ke(1, 0, 2), ke(2, 3, 4), ke(3, 2, 7), ke(1, 1, 8)]
}
fn b2() -> Vec<KeyedEvent> {
    vec![ke(3, 2, 26), ke(1, 0, 29), ke(2, 3, 33)]
}
fn b3() -> Vec<KeyedEvent> {
    vec![ke(1, 1, 55), ke(9, 2, 58), ke(2, 3, 61), ke(3, 4, 65)]
}
fn b4() -> Vec<KeyedEvent> {
    vec![ke(9, 4, 80), ke(1, 0, 84), ke(2, 3, 88), ke(3, 2, 92)]
}
fn b5() -> Vec<KeyedEvent> {
    vec![ke(1, 1, 141), ke(9, 4, 144), ke(3, 2, 149)]
}
fn b6() -> Vec<KeyedEvent> {
    vec![ke(2, 3, 161), ke(1, 0, 165), ke(9, 2, 168)]
}

/// Phase 1 (pre-checkpoint): two batches, then a full epoch transition
/// (new query + new tenant), then a third batch under epoch 1.
fn run_phase1<S: pattern_dp_repro::core::ReleaseSink>(svc: &mut ShardedService, sink: &mut S) {
    svc.push_batch_into(b1(), sink).unwrap();
    svc.push_batch_into(b2(), sink).unwrap();
    svc.add_consumer_query("t4?", Pattern::single("t4", t(4)));
    svc.register_subject(SubjectId(9));
    let transition = svc.begin_epoch().unwrap().expect("churn staged");
    assert_eq!(transition.plan.epoch, 1);
    svc.push_batch_into(b3(), sink).unwrap();
}

/// Phase 2 (post-checkpoint — the part a crash must not lose): a batch,
/// a second epoch transition, a heartbeat, and a final batch. In the
/// crashed run everything here lands in the WAL tail and is re-derived
/// by replay.
fn run_phase2<S: pattern_dp_repro::core::ReleaseSink>(svc: &mut ShardedService, sink: &mut S) {
    svc.push_batch_into(b4(), sink).unwrap();
    svc.register_private_pattern(SubjectId(9), Pattern::single("p9", t(4)));
    let transition = svc.begin_epoch().unwrap().expect("churn staged");
    assert_eq!(transition.plan.epoch, 2);
    svc.advance_watermark_into(Timestamp::from_millis(130), sink)
        .unwrap();
    svc.push_batch_into(b5(), sink).unwrap();
}

/// Phase 3 (post-recovery continuation): one more batch and the finish.
fn run_phase3<S: pattern_dp_repro::core::ReleaseSink>(svc: &mut ShardedService, sink: &mut S) {
    svc.push_batch_into(b6(), sink).unwrap();
    svc.finish_into(sink).unwrap();
}

fn spends(svc: &mut ShardedService) -> Vec<(u64, u32, Option<Epsilon>)> {
    let mut out = Vec::new();
    for subject in [1u64, 2, 3, 9] {
        for pattern in 0..6u32 {
            out.push((
                subject,
                pattern,
                svc.budget_spent(SubjectId(subject), PatternId(pattern)),
            ));
        }
    }
    out
}

/// The anchor, parameterized over the execution mode.
fn crash_recovery_is_bit_for_bit(parallel: bool, tag: &str) {
    let dir = scratch(tag);
    let wal_path = dir.join("service.wal");
    let ckpt_path = dir.join("service.ckpt");

    // --- run A: uninterrupted, no durability ---
    let mut a = builder(3).build().unwrap();
    a.set_parallel(parallel);
    let mut sink_a = VecSink::all();
    run_phase1(&mut a, &mut sink_a);
    run_phase2(&mut a, &mut sink_a);
    run_phase3(&mut a, &mut sink_a);

    // --- run B: WAL on, checkpoint after phase 1, killed mid-phase 2 ---
    let mut b = builder(3).build().unwrap();
    b.set_parallel(parallel);
    b.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink_b1 = VecSink::all();
    run_phase1(&mut b, &mut sink_b1);
    let checkpoint = b.checkpoint_into(&mut sink_b1).unwrap();
    assert!(checkpoint.wal_offset > 0, "the phase-1 records are logged");
    // the image survives its own file format round trip
    write_checkpoint(&ckpt_path, &checkpoint).unwrap();
    assert_eq!(read_checkpoint(&ckpt_path).unwrap(), checkpoint);

    // phase 2 happens, but the process dies before delivering it: the
    // crash sink's deliveries are lost with the process, and the final
    // batch's round is still in flight when the service drops
    {
        let mut crash_sink = VecSink::all();
        run_phase2(&mut b, &mut crash_sink);
        drop(b); // the kill — in-flight work, outbox and sink all vanish
    }

    // --- recovery: checkpoint + WAL tail replay, then continue ---
    let mut sink_b2 = VecSink::all();
    let recovered = read_checkpoint(&ckpt_path).unwrap();
    let mut b =
        ShardedService::recover_into(config(3), recovered, &wal_path, &mut sink_b2).unwrap();
    assert_eq!(
        b.is_parallel(),
        parallel && config(3).n_shards > 1,
        "recovery restores the recorded execution mode"
    );
    run_phase3(&mut b, &mut sink_b2);

    // --- equivalence: B's two delivery segments concatenate to A's ---
    let releases_b: Vec<_> = sink_b1
        .shard_releases
        .iter()
        .chain(&sink_b2.shard_releases)
        .cloned()
        .collect();
    assert_eq!(releases_b, sink_a.shard_releases, "shard releases differ");
    let merged_b: Vec<_> = sink_b1
        .merged
        .iter()
        .chain(&sink_b2.merged)
        .cloned()
        .collect();
    assert_eq!(merged_b, sink_a.merged, "merged windows differ");
    let answers_b: Vec<_> = sink_b1
        .answers
        .iter()
        .chain(&sink_b2.answers)
        .cloned()
        .collect();
    assert_eq!(answers_b, sink_a.answers, "answer records differ");

    assert_eq!(spends(&mut b), spends(&mut a), "ledger spends differ");
    assert_eq!(
        b.query_budget_spent(QueryId(0)),
        a.query_budget_spent(QueryId(0))
    );
    assert_eq!(b.low_watermark(), a.low_watermark());
    assert_eq!(b.events_ingested(), a.events_ingested());
    assert_eq!(b.epoch(), a.epoch());
    assert_eq!(b.dropped(), a.dropped());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_is_bit_for_bit_inline() {
    crash_recovery_is_bit_for_bit(false, "inline");
}

#[test]
fn crash_recovery_is_bit_for_bit_parallel() {
    crash_recovery_is_bit_for_bit(true, "parallel");
}

/// Restoring a plain checkpoint (no WAL) equals cloning: the restored
/// service continues bit-for-bit from the image.
#[test]
fn checkpoint_restore_continues_identically() {
    let mut original = builder(2).build().unwrap();
    let mut sink = VecSink::all();
    original.push_batch_into(b1(), &mut sink).unwrap();
    original.push_batch_into(b2(), &mut sink).unwrap();
    let (checkpoint, _drained) = original.checkpoint().unwrap();
    let mut restored = ShardedService::restore(config(2), checkpoint).unwrap();

    let out_a = original
        .advance_watermark(Timestamp::from_millis(70))
        .unwrap();
    let out_b = restored
        .advance_watermark(Timestamp::from_millis(70))
        .unwrap();
    assert_eq!(out_a, out_b, "restored RNG streams resume mid-sequence");
    assert_eq!(original.finish().unwrap(), restored.finish().unwrap());
}

/// A checkpoint cannot be restored into a service with a different shard
/// count — routing is shard-count dependent, so this must be a hard
/// error, not a silent misroute.
#[test]
fn restore_rejects_shard_count_mismatch() {
    let mut svc = builder(2).build().unwrap();
    let (checkpoint, _) = svc.checkpoint().unwrap();
    let err = ShardedService::restore(config(3), checkpoint).unwrap_err();
    assert!(matches!(
        err,
        pattern_dp_repro::core::CoreError::Durability(_)
    ));
}

/// Commands the control plane rejected are in the log too (write-ahead);
/// their replay must re-fail silently instead of aborting recovery.
#[test]
fn rejected_commands_replay_harmlessly() {
    let dir = scratch("rejected-commands");
    let wal_path = dir.join("service.wal");
    let mut svc = builder(1).build().unwrap();
    svc.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink = VecSink::all();
    let (checkpoint, _) = svc.checkpoint().unwrap();
    // logged, then rejected: subject 3 owns no pattern 0
    assert!(svc
        .revoke_private_pattern(SubjectId(3), PatternId(0))
        .is_err());
    svc.push_batch_into(b1(), &mut sink).unwrap();
    svc.finish_into(&mut sink).unwrap();
    drop(svc);

    let mut replay_sink = VecSink::all();
    let recovered =
        ShardedService::recover_into(config(1), checkpoint, &wal_path, &mut replay_sink);
    let mut recovered = recovered.expect("rejected command must not abort recovery");
    assert_eq!(recovered.events_ingested(), b1().len() as u64);
    assert_eq!(
        replay_sink.shard_releases, sink.shard_releases,
        "replay re-derives the finished run"
    );
    assert_eq!(recovered.dropped(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// What one service observably does with routing around the epoch that
/// compiles a staged registration (77) and a staged retirement (3): the
/// routed set, the per-shard subject counts, which subject's events are
/// rejected, the low watermark, the routing delta, and the deliveries.
fn staged_routing_trace(svc: &mut ShardedService) -> (Vec<String>, VecSink) {
    let mut sink = VecSink::all();
    let mut trace = Vec::new();
    let observe = |svc: &mut ShardedService, trace: &mut Vec<String>, sink: &mut VecSink| {
        trace.push(format!(
            "subjects {:?} per shard {:?} watermark {:?}",
            svc.subjects(),
            svc.subjects_per_shard(),
            svc.low_watermark()
        ));
        for (subject, ty) in [(77u64, 4u32), (3, 2)] {
            let ts = 40 + trace.len() as i64;
            let outcome = svc.push_batch_into(vec![ke(subject, ty, ts)], sink);
            trace.push(format!("push {subject}: {outcome:?}"));
        }
    };
    observe(svc, &mut trace, &mut sink);
    let transition = svc.begin_epoch().unwrap().expect("staged commands");
    trace.push(format!(
        "epoch {} routed {:?} unrouted {:?}",
        transition.plan.epoch, transition.plan.routed, transition.plan.unrouted
    ));
    observe(svc, &mut trace, &mut sink);
    svc.push_batch_into(vec![ke(77, 4, 90), ke(1, 0, 91), ke(2, 3, 95)], &mut sink)
        .unwrap();
    svc.finish_into(&mut sink).unwrap();
    trace.push(format!("spends {:?}", spends(svc)));
    (trace, sink)
}

/// Subject commands staged but not compiled when a checkpoint is taken
/// stay staged in the restored and the recovered service: both route
/// exactly like the live one until the next epoch compiles them, and
/// identically after it.
fn staged_subject_commands_stay_staged(parallel: bool, tag: &str) {
    let dir = scratch(tag);
    let wal_path = dir.join("service.wal");
    let mut live = builder(3).build().unwrap();
    live.set_parallel(parallel);
    live.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink = VecSink::all();
    live.push_batch_into(b1(), &mut sink).unwrap();
    live.register_subject(SubjectId(77));
    live.retire_subject(SubjectId(3)).unwrap();
    let checkpoint = live.checkpoint_into(&mut sink).unwrap();
    // a WAL tail for recovery to replay: subject 3 is still routed
    let mut live_tail = VecSink::all();
    live.push_batch_into(b2(), &mut live_tail).unwrap();
    live.detach_wal();

    let mut restored = ShardedService::restore(config(3), checkpoint.clone()).unwrap();
    let mut restored_tail = VecSink::all();
    restored.push_batch_into(b2(), &mut restored_tail).unwrap();
    let mut recovered_tail = VecSink::all();
    let mut recovered =
        ShardedService::recover_into(config(3), checkpoint, &wal_path, &mut recovered_tail)
            .unwrap();
    recovered.detach_wal();
    for svc in [&restored, &recovered] {
        assert_eq!(svc.is_parallel(), parallel, "recorded mode restored");
    }

    let (live_trace, live_out) = staged_routing_trace(&mut live);
    assert!(
        live_trace[1].contains("UnknownSubject(77)") && live_trace[2].ends_with("Ok(())"),
        "before the epoch, 77 is rejected and 3 accepted: {live_trace:?}"
    );
    assert!(
        live_trace[5].ends_with("Ok(())") && live_trace[6].contains("UnknownSubject(3)"),
        "after the epoch, 77 is accepted and 3 rejected: {live_trace:?}"
    );
    let delivered = |tail: &VecSink, out: &VecSink| {
        (
            [&tail.shard_releases[..], &out.shard_releases[..]].concat(),
            [&tail.merged[..], &out.merged[..]].concat(),
            [&tail.answers[..], &out.answers[..]].concat(),
        )
    };
    let live_delivered = delivered(&live_tail, &live_out);
    assert!(!live_delivered.0.is_empty());
    for (name, svc, tail) in [
        ("restored", &mut restored, restored_tail),
        ("recovered", &mut recovered, recovered_tail),
    ] {
        let (trace, out) = staged_routing_trace(svc);
        assert_eq!(trace, live_trace, "{name} service routes differently");
        assert!(
            delivered(&tail, &out) == live_delivered,
            "{name} service delivers differently"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_subject_commands_stay_staged_inline() {
    staged_subject_commands_stay_staged(false, "staged-inline");
}

#[test]
fn staged_subject_commands_stay_staged_parallel() {
    staged_subject_commands_stay_staged(true, "staged-parallel");
}
