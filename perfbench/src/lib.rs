//! The repository benchmark: open-loop TCP workloads against the
//! pattern-level-DP service, checked against an in-process replay, with a
//! traced replay for the per-layer breakdown.
//!
//! * [`workload`] — the `ingest` and `churn` set-ups and schedules
//! * [`setup`] — a workload's service set-up as plain data (what the
//!   served wrapper receives)
//! * [`load`] — the open-loop load generator
//! * [`reference`] — the in-process replay and the traced stage probes
//! * [`trace`] — in-memory spans and self-time accounting
//! * [`stats`] — percentiles with the sample-support rule

pub mod load;
pub mod reference;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;
