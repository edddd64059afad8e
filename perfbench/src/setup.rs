//! A workload's service set-up, as plain data, and its byte form.
//!
//! The orchestrator generates a [`Setup`] from the workload seed and
//! writes it to a file; the served wrapper (`perfbench-sut`) reads the
//! file and builds its `ServiceBuilder` from it, so the process under
//! test receives only the generated inputs: the workload seed stays in
//! the orchestrator, and the service's randomness comes from
//! `service_seed`, a mix of it. The in-process reference replay builds its
//! service from the same value.

use std::path::Path;

use pdp_cep::{Pattern, PatternId};
use pdp_core::{
    AdaptiveConfig, ControlPlane, ControlPlaneConfig, CoreError, PpmKind, ServiceBuilder,
    ServiceConfig, StreamingConfig, SubjectId,
};
use pdp_dp::Epsilon;
use pdp_metrics::Alpha;
use pdp_stream::{EventType, IndicatorVector, TimeDelta, WindowedIndicators};

/// What a registered pattern is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A data subject's private pattern.
    Private(u64),
    /// A consumer's target query.
    Target,
}

/// Everything the served wrapper needs to build the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    pub n_shards: usize,
    pub n_types: usize,
    pub window_ms: i64,
    pub max_delay_ms: i64,
    /// Seeds the service's randomness (never the workload seed).
    pub service_seed: u64,
    /// Adaptive PPM (Algorithm 1 over `history`) instead of uniform.
    pub adaptive: bool,
    pub history_window: usize,
    /// Subjects `0..subjects` are registered.
    pub subjects: u64,
    /// Patterns in id order.
    pub patterns: Vec<(Role, String, Vec<u32>)>,
    /// Granted history: per window, the present types.
    pub history: Vec<Vec<u32>>,
}

pub const EPS: f64 = 1.0;

impl Setup {
    fn ppm(&self) -> PpmKind {
        let eps = Epsilon::new(EPS).expect("valid epsilon");
        if self.adaptive {
            PpmKind::Adaptive {
                eps,
                config: AdaptiveConfig::default(),
            }
        } else {
            PpmKind::Uniform { eps }
        }
    }

    fn pattern(name: &str, elements: &[u32]) -> Pattern {
        Pattern::seq(name, elements.iter().map(|&t| EventType(t)).collect())
            .expect("non-empty pattern")
    }

    fn history_windows(&self) -> WindowedIndicators {
        WindowedIndicators::new(
            self.history
                .iter()
                .map(|w| {
                    IndicatorVector::from_present(w.iter().map(|&t| EventType(t)), self.n_types)
                })
                .collect(),
        )
    }

    /// The builder the served wrapper serves (and the reference replays).
    pub fn builder(&self) -> Result<ServiceBuilder, CoreError> {
        self.builder_with_shards(self.n_shards)
    }

    /// [`Setup::builder`] at another shard count (the 1-shard baseline).
    pub fn builder_with_shards(&self, n_shards: usize) -> Result<ServiceBuilder, CoreError> {
        let mut builder = ServiceBuilder::new(ServiceConfig {
            n_shards,
            n_types: self.n_types,
            alpha: Alpha::HALF,
            ppm: self.ppm(),
            streaming: StreamingConfig::tumbling(TimeDelta::from_millis(self.window_ms)),
            max_delay: TimeDelta::from_millis(self.max_delay_ms),
            seed: self.service_seed,
            history_window: self.history_window,
        })?;
        for s in 0..self.subjects {
            builder.register_subject(SubjectId(s));
        }
        for (i, (role, name, elements)) in self.patterns.iter().enumerate() {
            let pattern = Self::pattern(name, elements);
            let id = match role {
                Role::Private(subject) => {
                    builder.register_private_pattern(SubjectId(*subject), pattern)
                }
                Role::Target => builder.register_target_query(name, pattern).1,
            };
            assert_eq!(id, PatternId(i as u32), "set-up pattern ids are dense");
        }
        if self.adaptive {
            builder.provide_history(self.history_windows());
        }
        Ok(builder)
    }

    /// A stand-alone control plane with the same registrations (the
    /// per-layer probes compile their `OnlineCore` from it).
    pub fn control_plane(&self) -> ControlPlane {
        let mut control = ControlPlane::new(ControlPlaneConfig {
            n_types: self.n_types,
            alpha: Alpha::HALF,
            ppm: self.ppm(),
            history_window: self.history_window,
        });
        for s in 0..self.subjects {
            control.register_subject(SubjectId(s));
        }
        for (role, name, elements) in &self.patterns {
            let pattern = Self::pattern(name, elements);
            match role {
                Role::Private(subject) => {
                    control.register_private_pattern(SubjectId(*subject), pattern);
                }
                Role::Target => {
                    control.add_consumer_query(name, pattern);
                }
            }
        }
        if self.adaptive {
            control.provide_history(self.history_windows());
        }
        control
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        for v in [
            self.n_shards as u64,
            self.n_types as u64,
            self.window_ms as u64,
            self.max_delay_ms as u64,
            self.service_seed,
            u64::from(self.adaptive),
            self.history_window as u64,
            self.subjects,
            self.patterns.len() as u64,
        ] {
            w.u64(v);
        }
        for (role, name, elements) in &self.patterns {
            match role {
                Role::Private(s) => {
                    w.u64(0);
                    w.u64(*s);
                }
                Role::Target => w.u64(1),
            }
            w.bytes(name.as_bytes());
            w.u32s(elements);
        }
        w.u64(self.history.len() as u64);
        for window in &self.history {
            w.u32s(window);
        }
        w.0
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Setup, String> {
        let mut r = Reader { bytes, at: 0 };
        let n_shards = r.u64()? as usize;
        let n_types = r.u64()? as usize;
        let window_ms = r.u64()? as i64;
        let max_delay_ms = r.u64()? as i64;
        let service_seed = r.u64()?;
        let adaptive = r.u64()? != 0;
        let history_window = r.u64()? as usize;
        let subjects = r.u64()?;
        let n_patterns = r.u64()?;
        let mut patterns = Vec::new();
        for _ in 0..n_patterns {
            let role = match r.u64()? {
                0 => Role::Private(r.u64()?),
                1 => Role::Target,
                other => return Err(format!("bad pattern role {other}")),
            };
            let name = String::from_utf8(r.bytes()?.to_vec()).map_err(|e| e.to_string())?;
            patterns.push((role, name, r.u32s()?));
        }
        let n_history = r.u64()?;
        let mut history = Vec::new();
        for _ in 0..n_history {
            history.push(r.u32s()?);
        }
        if r.at != bytes.len() {
            return Err("trailing bytes in set-up file".to_owned());
        }
        Ok(Setup {
            n_shards,
            n_types,
            window_ms,
            max_delay_ms,
            service_seed,
            adaptive,
            history_window,
            subjects,
            patterns,
            history,
        })
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Result<Setup, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Setup::from_bytes(&bytes)
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| "truncated set-up file".to_owned())?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bytes(&mut self) -> Result<&[u8], String> {
        let n = self.u64()? as usize;
        self.take(n)
    }
    fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or("bad length")?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}
