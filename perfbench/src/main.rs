//! The benchmark command.
//!
//! ```text
//! perfbench --workload ingest|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the workload through the real TCP edge — served
//! by `perfbench-sut` processes, loaded open-loop by this process —
//! checks every server's deliveries against an in-process replay, and
//! prints the end-to-end metrics. `--trace 1` runs one fixed-rate TCP
//! phase and the traced in-process replay of it, and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pdp_core::CountingSink;
use pdp_experiments::alloc_meter::{self, CountingAlloc};
use perfbench::load::{Closed, Conn, Pace, Sent};
use perfbench::reference::{self, PhaseLog};
use perfbench::setup::Setup;
use perfbench::stats::{median, quantile, Quantile};
use perfbench::trace::Trace;
use perfbench::workload::{Op, Spec, PEAK_INFLIGHT};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One served process.
struct Sut {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    spawned: Instant,
}

impl Sut {
    fn spawn(bin: &Path, setup: &Path, wal: Option<&Path>) -> Result<Sut, String> {
        let spawned = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--setup").arg(setup).stdout(Stdio::piped());
        if let Some(wal) = wal {
            cmd.arg("--wal").arg(wal);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = match line.trim().strip_prefix("listening ").map(str::parse) {
            Some(Ok(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("system under test did not start: {line:?}"));
            }
        };
        Ok(Sut {
            child,
            stdout,
            addr,
            spawned,
        })
    }

    /// The process's peak resident set so far (`VmHWM`), MB.
    fn vmhwm_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_owned())
    }

    /// Wait for the process to exit after `Shutdown`.
    fn finish(mut self) -> Result<(), String> {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("system under test exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Everything one run shares.
struct Ctx {
    spec: Spec,
    setup: Setup,
    seed: u64,
    seconds: f64,
    work: PathBuf,
    sut_bin: PathBuf,
    setup_file: PathBuf,
    /// Correctness failures, one line each.
    faults: Vec<String>,
    /// Extra lines for the printed report.
    notes: Vec<String>,
    /// Requests sent and requests that failed.
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
}

/// A served phase in progress.
struct Phase {
    sut: Sut,
    conn: Conn,
    id: u64,
}

impl Ctx {
    fn wal_path(&self, phase: u64) -> Option<PathBuf> {
        self.spec
            .wal
            .then(|| self.work.join(format!("phase{phase}.wal")))
    }

    fn open(&mut self, id: u64) -> Result<Phase, String> {
        let wal = self.wal_path(id);
        let sut = Sut::spawn(&self.sut_bin, &self.setup_file, wal.as_deref())?;
        let conn = Conn::connect(sut.addr, true)?;
        self.setup_s.push(sut.spawned.elapsed().as_secs_f64());
        Ok(Phase { sut, conn, id })
    }

    /// Shut the phase down and check it against its in-process replay.
    fn close(
        &mut self,
        phase: Phase,
        log: PhaseLog,
        reference: Option<&reference::Replayed>,
    ) -> Result<Closed, String> {
        let sent = phase.conn.events_sent();
        let requests = phase.conn.requests_sent();
        let closed = phase.conn.shutdown()?;
        phase.sut.finish()?;
        if let Some(wal) = self.wal_path(phase.id) {
            let _ = std::fs::remove_file(wal);
        }
        let owned;
        let reference = match reference {
            Some(r) => r,
            None => {
                owned = reference::replay(&self.spec, &self.setup, self.seed, log, None)?;
                &owned
            }
        };
        self.attempted += requests + reference.deliveries;
        self.failed += closed.errors;
        let mut check = |ok: bool, what: String| {
            if !ok {
                self.faults.push(format!("phase {}: {what}", phase.id));
            }
        };
        check(
            closed.events_ingested == sent,
            format!(
                "ShutdownAck counted {} events, {sent} were sent",
                closed.events_ingested
            ),
        );
        check(
            reference.events_ingested == sent,
            format!(
                "the replay ingested {}, {sent} were sent",
                reference.events_ingested
            ),
        );
        check(
            closed.digest == reference.digest && closed.deliveries == reference.deliveries,
            format!(
                "deliveries differ from the replay: {} received (digest {:016x}), {} replayed (digest {:016x})",
                closed.deliveries, closed.digest.0, reference.deliveries, reference.digest.0
            ),
        );
        check(
            closed.errors == 0,
            format!("{} requests failed", closed.errors),
        );
        if closed.deliveries != reference.deliveries {
            self.failed += closed.deliveries.abs_diff(reference.deliveries);
        } else if closed.digest != reference.digest {
            self.failed += 1;
        }
        Ok(closed)
    }
}

fn groups_per_s(spec: &Spec, eps: f64) -> f64 {
    eps / spec.batch as f64
}

/// Groups in a ladder step and in a fixed-rate segment, at least: enough
/// acks for a p99 with a margin.
const STEP_GROUPS: u64 = 1100;
const NO_PROTECTION: &str = "the flip plan protects no type: the PPM path was not exercised";
/// Events sent at saturation before the fixed-rate phase is measured.
const WARM_EVENTS: u64 = 250_000;
/// Sub-runs of the saturation phase, and segments the fixed-rate phase
/// counts.
const SEGMENTS: usize = 9;
/// Most segments the fixed-rate phase runs while it waits for quiet ones.
const MAX_SEGMENTS: usize = 24;
/// Attempts of a ladder step that keeps failing while the host is noisy.
const MAX_ATTEMPTS: usize = 3;
/// The largest share of the machine's CPU time the hypervisor may take
/// during an interval for the interval to count as quiet.
const QUIET_STEAL: f64 = 0.02;
/// `USER_HZ`: the unit of the tick counts in `/proc/stat`.
const TICKS_PER_S: f64 = 100.0;

/// A reading of the host's steal time: CPU time the hypervisor gave to
/// something else while this machine's CPUs wanted to run (`steal` in
/// `/proc/stat`). It is the host's doing, not the served process's, so
/// it tells a disturbed interval from a slow server.
struct Steal {
    ticks: u64,
    at: Instant,
}

impl Steal {
    fn now() -> Steal {
        let ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
            .unwrap_or(0);
        Steal {
            ticks,
            at: Instant::now(),
        }
    }

    /// Share of the machine's CPU time stolen since this reading (0 where
    /// the kernel does not report steal).
    fn share_since(&self) -> f64 {
        let now = Steal::now();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let ticks = now.ticks.saturating_sub(self.ticks) as f64;
        ticks / (TICKS_PER_S * cpus * now.at.duration_since(self.at).as_secs_f64())
    }
}

fn us(q: Option<Quantile>) -> Option<Quantile> {
    q.map(|q| Quantile {
        value: q.value / 1e3,
        ..q
    })
}

fn ms(q: Option<Quantile>) -> Option<Quantile> {
    q.map(|q| Quantile {
        value: q.value / 1e6,
        ..q
    })
}

/// True unless the groups outstanding in the last quarter of a step are
/// well above those of the first quarter (a queue that keeps growing).
fn backlog_steady(sent: &Sent) -> bool {
    let n = sent.backlog.len();
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    mean(&sent.backlog[n - n / 4..]) <= 2.0 * mean(&sent.backlog[..n / 4]) + 16.0
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn quantile_metric(
    name: &'static str,
    q: Option<Quantile>,
    unit: &'static str,
) -> Result<Metric, String> {
    let q = q.ok_or_else(|| format!("{name}: fewer than 10 samples beyond the percentile"))?;
    Ok(Metric {
        name,
        value: q.value,
        unit,
        samples: Some(q.samples),
    })
}

/// The median over the fixed-rate segments of a per-segment percentile;
/// its sample count is that of one segment.
fn segment_median(name: &'static str, per_segment: &[Quantile], unit: &'static str) -> Metric {
    let values: Vec<f64> = per_segment.iter().map(|q| q.value).collect();
    Metric {
        name,
        value: median(&values).unwrap_or(0.0),
        unit,
        samples: per_segment.iter().map(|q| q.samples).min(),
    }
}

fn end_to_end(ctx: &mut Ctx) -> Result<Vec<Metric>, String> {
    let spec = ctx.spec.clone();
    let s = ctx.seconds;

    // one server carries the saturation and ladder phases in turn; the
    // schedule continues across them
    let mut p = ctx.open(1)?;
    let mut sched = spec.schedule(&ctx.setup, ctx.seed, 1);
    let mut next = || sched.next_group();
    let mut groups = 0;

    // phase 1: saturation, in several equal sub-runs
    let inflight = PEAK_INFLIGHT;
    let mut rates = Vec::new();
    for i in 0..=SEGMENTS {
        let steal = Steal::now();
        let sent = p.conn.run(
            &mut next,
            Pace::InFlight {
                inflight,
                duration: Duration::from_secs_f64(0.02 * s),
                groups: u64::MAX,
            },
        )?;
        groups += sent.groups;
        // the first sub-run warms the server up
        if i > 0 {
            let rate = sent.events as f64 / sent.elapsed.as_secs_f64();
            rates.push((rate, steal.share_since()));
        }
    }
    p.conn.take();
    // the upper quartile of the quiet sub-runs (all of them if none is
    // quiet): saturation throughput while the host lets the server run
    let quiet_rates: Vec<f64> = rates
        .iter()
        .filter(|r| r.1 <= QUIET_STEAL)
        .map(|r| r.0)
        .collect();
    let mut counted = if quiet_rates.is_empty() {
        rates.iter().map(|r| r.0).collect()
    } else {
        quiet_rates
    };
    counted.sort_by(f64::total_cmp);
    let peak_eps = counted[counted.len() * 3 / 4];
    eprintln!(
        "perfbench: peak {peak_eps:.0} events/s at {inflight} groups in flight, {} of {} sub-runs counted, (events/s, steal) {:?}",
        counted.len(),
        rates.len(),
        rates
            .iter()
            .map(|r| (r.0.round(), (r.1 * 1e3).round() / 1e3))
            .collect::<Vec<_>>()
    );

    // phase 2: the sustained-rate ladder, searched by bisection; a step
    // that fails is tried once more, and again (at most MAX_ATTEMPTS in
    // all) while it fails with the host stealing CPU time, so one stall or
    // a noisy host is not taken for the knee
    let (mut pass, mut fail) = (None::<f64>, spec.ladder.len());
    let mut lo = 0usize;
    while lo < fail {
        let mid = (lo + fail) / 2;
        let rate = spec.ladder[mid];
        let per_s = groups_per_s(&spec, rate);
        let n = STEP_GROUPS.max((per_s * 0.04 * s) as u64);
        let mut achieved = None;
        for attempt in 0..MAX_ATTEMPTS {
            let steal = Steal::now();
            let sent = p.conn.run(&mut next, Pace::Rate { per_s, groups: n })?;
            let stolen = steal.share_since();
            groups += sent.groups;
            let obs = p.conn.take();
            let p90 = us(quantile(&obs.ack_ns, 0.9)).map(|q| q.value);
            let steady = backlog_steady(&sent);
            let ok = obs.errors == 0 && p90.is_some_and(|v| v < spec.ack_limit_us) && steady;
            eprintln!(
                "perfbench: ladder {rate:.0} events/s: ack p90 {:.0} us, backlog max {}{}, steal {stolen:.3} -> {}",
                p90.unwrap_or(f64::NAN),
                sent.backlog_max,
                if steady { "" } else { " and growing" },
                if ok { "pass" } else { "fail" }
            );
            if ok {
                achieved = Some(sent.events as f64 / sent.elapsed.as_secs_f64());
            }
            if ok || (attempt > 0 && stolen <= QUIET_STEAL) {
                break;
            }
        }
        if achieved.is_some() {
            pass = achieved;
            lo = mid + 1;
        } else {
            fail = mid;
        }
    }
    let sustained = pass.unwrap_or(0.0);
    // the idle epoch probes run on both servers, half a run apart, so a
    // slow spell of the host does not set the whole sample
    p.conn.one_by_one(spec.tail())?;
    let mut epoch_ns = p.conn.take().epoch_ns;
    ctx.close(
        p,
        PhaseLog {
            phase: 1,
            groups,
            tail: true,
        },
        None,
    )?;

    // phase 3, on a fresh server: a warm-up of a fixed number of events
    // at saturation (so every run starts the measured part from the same
    // service state, on a connection whose throughput has settled), then
    // the fixed open-loop rate in equal segments, then the idle epoch
    // probes. A segment is quiet when the hypervisor stole at most
    // QUIET_STEAL of the machine's CPU time during it; more segments run
    // (up to MAX_SEGMENTS) until SEGMENTS of them are quiet, and the
    // SEGMENTS with the least steal count. On a quiet host that is all of
    // them. Steal is not work the served process does, so a server that
    // gets slow under load is not filtered out.
    let mut p = ctx.open(3)?;
    let mut sched = spec.schedule(&ctx.setup, ctx.seed, 3);
    let mut next = || sched.next_group();
    let warm = p.conn.run(
        &mut next,
        Pace::InFlight {
            inflight: PEAK_INFLIGHT,
            duration: Duration::MAX,
            groups: WARM_EVENTS / spec.batch as u64,
        },
    )?;
    p.conn.take();
    let mut groups = warm.groups;
    let per_s = groups_per_s(&spec, spec.fixed_eps);
    let n = STEP_GROUPS.max((per_s * 0.05 * s) as u64);
    let mut segments = Vec::new();
    let mut rss_mb = 0.0;
    let quiet =
        |segments: &Vec<(Sent, _, f64)>| segments.iter().filter(|s| s.2 <= QUIET_STEAL).count();
    while segments.len() < SEGMENTS
        || (quiet(&segments) < SEGMENTS && segments.len() < MAX_SEGMENTS)
    {
        let steal = Steal::now();
        let sent = p.conn.run(&mut next, Pace::Rate { per_s, groups: n })?;
        groups += sent.groups;
        segments.push((sent, p.conn.take(), steal.share_since()));
        // the peak RSS after the same work on every run, before any
        // segment a noisy host adds
        if segments.len() == SEGMENTS {
            rss_mb = p.sut.vmhwm_mb()?;
        }
    }
    p.conn.one_by_one(spec.tail())?;
    epoch_ns.extend(p.conn.take().epoch_ns);
    ctx.close(
        p,
        PhaseLog {
            phase: 3,
            groups,
            tail: true,
        },
        None,
    )?;
    let mut kept: Vec<_> = segments.iter().collect();
    kept.sort_by(|a, b| a.2.total_cmp(&b.2));
    kept.truncate(SEGMENTS);
    let (mut ack_p50, mut ack_p90, mut ack_ns, mut fresh_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (_, obs, _) in &kept {
        ack_p50.push(us(quantile(&obs.ack_ns, 0.5)).ok_or("too few acks for a median")?);
        ack_p90.push(us(quantile(&obs.ack_ns, 0.9)).ok_or("too few acks for a p90")?);
        ack_ns.extend_from_slice(&obs.ack_ns);
        fresh_ns.extend_from_slice(&obs.fresh_ns);
        epoch_ns.extend_from_slice(&obs.epoch_ns);
    }
    eprintln!(
        "perfbench: fixed rate {:.0} events/s: backlog max {}; per segment steal {:?}, send lag p99 {:?} us, ack p90 {:?} us",
        spec.fixed_eps,
        segments.iter().map(|s| s.0.backlog_max).max().unwrap_or(0),
        segments.iter().map(|s| (s.2 * 1e3).round() / 1e3).collect::<Vec<_>>(),
        segments
            .iter()
            .map(|s| us(quantile(&s.0.lag_ns, 0.99)).map_or(f64::NAN, |q| q.value.round()))
            .collect::<Vec<_>>(),
        segments
            .iter()
            .map(|s| us(quantile(&s.1.ack_ns, 0.9)).map_or(f64::NAN, |q| q.value.round()))
            .collect::<Vec<_>>(),
    );
    ctx.notes.push(format!(
        "fixed-rate segments: {} of {} quiet (host steal at most {QUIET_STEAL} of CPU time); the {SEGMENTS} with the least steal counted",
        quiet(&segments),
        segments.len(),
    ));
    // the tails are printed, not bounded: on the 2-vCPU host the
    // benchmark was defined on, disturbances that steal does not show move
    // them by up to 20x between runs of the same code
    let p90s: Vec<f64> = ack_p90.iter().map(|q| q.value).collect();
    let tails = [
        (
            "ack_p90_us",
            median(&p90s).map(|value| Quantile {
                value,
                samples: ack_p90.iter().map(|q| q.samples).min().unwrap_or(0),
            }),
            "us; median over the counted segments",
        ),
        (
            "ack_p99_us",
            us(quantile(&ack_ns, 0.99)),
            "us; counted segments pooled",
        ),
        (
            "fresh_p90_ms",
            ms(quantile(&fresh_ns, 0.9)),
            "ms; counted segments pooled",
        ),
    ];
    for (name, q, how) in tails {
        if let Some(q) = q {
            ctx.notes.push(format!(
                "{name:<40} {:>16.6} {how} ({} samples; printed, not bounded)",
                q.value, q.samples
            ));
        }
    }
    // the throughput figures are printed, not bounded either: the host's
    // speed changes by 20-25 % from run to run without any steal, which
    // spread peak_eps by up to 0.26 and sustained_eps by up to 0.34 over
    // ten runs
    ctx.notes.push(format!(
        "{:<40} {peak_eps:>16.6} events/s; upper quartile of the quiet sub-runs (printed, not bounded)",
        "peak_eps"
    ));
    ctx.notes.push(format!(
        "{:<40} {sustained:>16.6} events/s; highest passing ladder step (printed, not bounded)",
        "sustained_eps"
    ));
    // more set-ups, each served and shut down at once: at least five in
    // all, then more until the run has spent about three seconds setting
    // up (at most 25)
    while ctx.setup_s.len() < 5 || (ctx.setup_s.len() < 25 && ctx.setup_s.iter().sum::<f64>() < 3.0)
    {
        let p = ctx.open(0)?;
        let closed = p.conn.shutdown()?;
        p.sut.finish()?;
        if let Some(wal) = ctx.wal_path(0) {
            let _ = std::fs::remove_file(wal);
        }
        if closed.events_ingested != 0 || closed.errors != 0 {
            ctx.faults
                .push("an idle set-up probe ingested or failed something".to_owned());
        }
    }
    if reference::protected_types(&ctx.setup)? == 0 {
        ctx.faults.push(NO_PROTECTION.to_owned());
    }
    let setup_s = median(&ctx.setup_s).unwrap_or(0.0);
    Ok(vec![
        Metric {
            samples: Some(ctx.setup_s.len()),
            ..metric("setup_s", setup_s, "s")
        },
        segment_median("ack_p50_us", &ack_p50, "us"),
        quantile_metric("fresh_p50_ms", ms(quantile(&fresh_ns, 0.5)), "ms")?,
        quantile_metric("epoch_p50_ms", ms(quantile(&epoch_ns, 0.5)), "ms")?,
        metric("rss_peak_mb", rss_mb, "MB"),
    ])
}

/// Events/s of the same job on a 1-shard service, in process, inline:
/// time spent in push and watermark calls only.
fn inline_1shard_eps(ctx: &Ctx, log: PhaseLog) -> Result<f64, String> {
    let mut service = ctx
        .setup
        .builder_with_shards(1)
        .and_then(|b| b.build())
        .map_err(|e| e.to_string())?;
    let mut sink = CountingSink::default();
    let (mut events, mut busy) = (0u64, Duration::ZERO);
    for (_, op) in reference::ops_of(&ctx.spec, &ctx.setup, ctx.seed, log) {
        let data = matches!(op, Op::Push(_) | Op::Watermark(_));
        if let Op::Push(batch) = &op {
            events += batch.len() as u64;
        }
        let started = Instant::now();
        reference::apply_to(&mut service, op, &mut sink)?;
        if data {
            busy += started.elapsed();
        }
    }
    Ok(events as f64 / busy.as_secs_f64())
}

/// Heap allocations per event of warmed service push and watermark calls
/// (the second half of the requests; the first half warms up).
fn allocs_per_event(ctx: &Ctx, log: PhaseLog) -> Result<f64, String> {
    let mut service = reference::build_service(&ctx.spec, &ctx.setup, ctx.wal_path(9).as_deref())?;
    let mut sink = CountingSink::default();
    let (mut events, mut allocs) = (0u64, 0u64);
    for (group, op) in reference::ops_of(&ctx.spec, &ctx.setup, ctx.seed, log) {
        let counted = group >= log.groups / 2 && matches!(op, Op::Push(_) | Op::Watermark(_));
        if let (true, Op::Push(batch)) = (counted, &op) {
            events += batch.len() as u64;
        }
        let before = alloc_meter::counters();
        reference::apply_to(&mut service, op, &mut sink)?;
        if counted {
            allocs += alloc_meter::counters().since(before).allocs;
        }
    }
    drop(service);
    if let Some(wal) = ctx.wal_path(9) {
        let _ = std::fs::remove_file(wal);
    }
    Ok(allocs as f64 / events.max(1) as f64)
}

fn per_layer(ctx: &mut Ctx) -> Result<Vec<Metric>, String> {
    let spec = ctx.spec.clone();
    let s = ctx.seconds;
    // the fixed-rate phase once more, then groups one at a time
    let mut p = ctx.open(4)?;
    let mut sched = spec.schedule(&ctx.setup, ctx.seed, 4);
    let per_s = groups_per_s(&spec, spec.fixed_eps);
    let n = STEP_GROUPS.max((per_s * 0.2 * s) as u64);
    let sent = p
        .conn
        .run(&mut || sched.next_group(), Pace::Rate { per_s, groups: n })?;
    p.conn.take();
    const ONE_BY_ONE: u64 = 200;
    let mut edge_tcp = Vec::new();
    for _ in 0..ONE_BY_ONE {
        for op in sched.next_group().ops {
            let push = matches!(op, Op::Push(_));
            p.conn.one_by_one(vec![op])?;
            if push {
                edge_tcp.extend(p.conn.take().ack_ns);
            }
        }
    }
    p.conn.one_by_one(spec.tail())?;
    p.conn.take();
    let log = PhaseLog {
        phase: 4,
        groups: n + ONE_BY_ONE,
        tail: true,
    };

    let mut trace = Trace::new();
    let (traced, layers) =
        reference::traced(&spec, &ctx.setup, ctx.seed, log, &ctx.work, &mut trace)?;
    ctx.close(p, log, Some(&traced))?;
    let untraced = reference::replay(&spec, &ctx.setup, ctx.seed, log, ctx.wal_path(8).as_deref())?;
    if let Some(wal) = ctx.wal_path(8) {
        let _ = std::fs::remove_file(wal);
    }
    let trace_file = ctx
        .work
        .join(format!("trace-{}-{}.jsonl", spec.name, ctx.seed));
    trace.write_jsonl(&trace_file).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: {} spans written to {}",
        trace.spans().len(),
        trace_file.display()
    );

    if layers.protected_types == 0 {
        ctx.faults.push(NO_PROTECTION.to_owned());
    }
    // unattributed is defined as the difference, so this is a breakdown,
    // not a check: the stages are the beside-run re-composition
    eprintln!(
        "perfbench: whole service calls {:.3} ms = Σ re-composed stage self time {:.3} ms + unattributed {:.3} ms",
        layers.whole_ns / 1e6,
        layers.stages_ns / 1e6,
        (layers.whole_ns - layers.stages_ns) / 1e6
    );
    // per batch: TCP ack at one in flight minus the in-process call
    let edge: Vec<f64> = edge_tcp
        .iter()
        .zip(&traced.push_ns[traced.push_ns.len() - edge_tcp.len()..])
        .map(|(tcp, local)| (tcp - local) / 1e3)
        .collect();
    let mut metrics: Vec<Metric> = layers
        .metrics
        .iter()
        .map(|&(n, v, u)| metric(n, v, u))
        .collect();
    metrics.push(Metric {
        samples: Some(edge.len()),
        ..metric(
            "server.edge_us_per_batch",
            median(&edge).unwrap_or(0.0),
            "us",
        )
    });
    metrics.push(metric(
        "core.service.inline_1shard_eps",
        inline_1shard_eps(ctx, log)?,
        "events/s",
    ));
    metrics.push(metric(
        "core.service.allocs_per_event",
        allocs_per_event(ctx, log)?,
        "count",
    ));
    metrics.push(quantile_metric(
        "load.send_lag_p99_us",
        us(quantile(&sent.lag_ns, 0.99)),
        "us",
    )?);
    metrics.push(metric(
        "load.backlog_max_batches",
        sent.backlog_max as f64,
        "count",
    ));
    metrics.push(metric(
        "trace.overhead_share",
        (traced.calls_ns - untraced.calls_ns) / untraced.calls_ns.max(1.0),
        "ratio",
    ));
    Ok(metrics)
}

fn provenance() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_owned());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("git_rev", rev),
        ("rustc", rustc),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec = Spec::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let build = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let work = build.join("perfbench-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sut_bin = exe.with_file_name("perfbench-sut");
    let started = Instant::now();
    let setup = spec.setup(args.seed);
    eprintln!(
        "perfbench: {} set-up generated in {:.2} s",
        spec.name,
        started.elapsed().as_secs_f64()
    );
    let setup_file = work.join(format!("setup-{}-{}.bin", spec.name, args.seed));
    setup.write(&setup_file)?;
    let mut ctx = Ctx {
        spec,
        setup,
        seed: args.seed,
        seconds: args.seconds,
        work,
        sut_bin,
        setup_file,
        faults: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
    };
    let metrics = if args.trace {
        per_layer(&mut ctx)?
    } else {
        end_to_end(&mut ctx)?
    };
    let _ = std::fs::remove_file(&ctx.setup_file);

    let prov = provenance();
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &prov {
        println!("{k}: {v}");
    }
    if !args.trace {
        println!(
            "open loop: producer and consumer connections, 2 threads; fixed rate {:.0} events/s; ack p90 limit {:.0} us",
            ctx.spec.fixed_eps, ctx.spec.ack_limit_us
        );
        println!(
            "{:<40} {:>16.6} ratio ({} failed of {} attempted)",
            "error_rate",
            ctx.failed as f64 / ctx.attempted.max(1) as f64,
            ctx.failed,
            ctx.attempted
        );
    }
    for note in &ctx.notes {
        println!("{note}");
    }
    for m in &metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!(" ({n} samples)"));
        println!("{:<40} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
    for f in &ctx.faults {
        println!("CHECK FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{:?},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.faults.is_empty(),
        ctx.attempted.max(1),
        ctx.failed,
        body.join(",")
    );
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"provenance\":{{{}}},\"result\":{result}}}\n",
        json_str(ctx.spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prov_json.join(",")
    );
    let record_file = ctx.work.join(format!(
        "result-{}-{}-{}.json",
        ctx.spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_file, record).map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
