//! Deterministic flight-recorder tracing for LACeS (DESIGN.md §13).
//!
//! `laces-obs` aggregates — its counters can say *that* replies were lost,
//! never *which* probe died *where*. This crate records the causal chain of
//! individual probes: order issued → order-channel fault → worker send →
//! wire fate → capture-fabric drop/dup → capture (with CHAOS identity) →
//! classification contribution, plus GCD chunk/overlap-test and census
//! stage-span events.
//!
//! Three properties make the recorder safe on the measurement hot path and
//! compatible with the §10 determinism contract:
//!
//! * **Off by default, zero-cost when off.** A [`Tracer`] is an
//!   `Option<Arc<_>>`; the disabled recorder is `None` and every record
//!   call is a single branch — events are built lazily behind a closure,
//!   so nothing allocates.
//! * **Seeded, target-keyed sampling.** Whether a target is traced is a
//!   pure function of `(seed, sample_per_mille, prefix)` — never of
//!   arrival order, shard count, thread interleaving or wall clock — so the
//!   same targets are traced on every rerun ([`prefix_sampled`]).
//! * **Bounded, order-independent buffers.** Each component writes into
//!   its own buffer capped at `cap_per_component` events; overflow retains
//!   the *canonically smallest* `cap` events (sort + truncate at 2×cap),
//!   so the retained set — and therefore every export — is a function of
//!   the event *multiset*, not of the order threads happened to interleave
//!   in. [`TraceReport`] exports are bit-identical across reruns and
//!   across shard counts.
//!
//! On top of the event store sit [`Trace::explain`] (the causal chain
//! justifying a target's verdict, including fault-attributed probe loss)
//! and two exporters: a JSONL sidecar ([`TraceReport::to_jsonl`]) and the
//! Chrome trace-event format ([`TraceReport::to_chrome_json`]) for
//! flamegraph viewing of the span tree on the `SimClock`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod explain;
pub mod export;
pub mod report;

use std::sync::{Arc, Mutex, MutexGuard};

use laces_packet::PrefixKey;
use serde::{Deserialize, Serialize};

pub use event::{FabricFaultKind, OrderFaultCause, TraceEvent, UnansweredCause, WireFate};
pub use explain::{Explanation, ProbeFate, ProbeOutcome};
pub use report::{Trace, TraceReport, TraceSection};

/// Flight-recorder configuration, carried by measurement / GCD / pipeline
/// specs. The default is disabled: tracing is strictly opt-in and the
/// disabled path costs one branch per hook.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch. When false the tracer records nothing and allocates
    /// nothing.
    pub enabled: bool,
    /// Sampling seed. Which targets are traced is a pure function of
    /// `(seed, sample_per_mille, prefix)`, so reruns trace the same set.
    pub seed: u64,
    /// Per-mille of targets to trace (0..=1000; 1000 traces every target).
    pub sample_per_mille: u16,
    /// Event cap per [`Component`] buffer. Overflow deterministically
    /// retains the canonically smallest `cap` events and counts the rest
    /// as dropped.
    pub cap_per_component: usize,
    /// Record [`TraceEvent::ShardSpan`] events for the sharded hitlist
    /// stream. Off by default: the shard layout depends on `spec.shards`,
    /// so shard spans are the one event class excluded from the
    /// cross-shard-count trace invariance and must be asked for.
    pub shard_spans: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            seed: 0,
            sample_per_mille: 1000,
            cap_per_component: 65_536,
            shard_spans: false,
        }
    }
}

impl TraceConfig {
    /// An enabled config tracing every target.
    pub fn all(seed: u64) -> Self {
        TraceConfig {
            enabled: true,
            seed,
            ..TraceConfig::default()
        }
    }

    /// An enabled config tracing `sample_per_mille`‰ of targets.
    pub fn sampled(seed: u64, sample_per_mille: u16) -> Self {
        TraceConfig {
            enabled: true,
            seed,
            sample_per_mille,
            ..TraceConfig::default()
        }
    }

    /// The same config with shard-span events enabled.
    pub fn with_shard_spans(mut self) -> Self {
        self.shard_spans = true;
        self
    }
}

/// The pipeline components that own flight-recorder buffers. Separate
/// buffers keep a chatty component (the wire) from evicting rare,
/// high-value events (worker faults) under the shared cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Rare control-plane context: worker faults, stage spans, GCD chunk
    /// markers. Isolated from every per-target stream so a chatty order
    /// or probe buffer can never evict the events that explain a loss.
    Control,
    /// Order streaming (per-target order events).
    Orchestrator,
    /// Probe transmission.
    Worker,
    /// Wire resolution (delivery or attributed loss).
    Wire,
    /// Capture-fabric fault verdicts (drop / dup).
    Fabric,
    /// Reply capture and parsing.
    Capture,
    /// Classification contributions and verdicts.
    Classify,
    /// GCD campaign events.
    Gcd,
    /// Census stage spans.
    Census,
}

impl Component {
    /// Every component, in buffer-index order.
    pub const ALL: [Component; 9] = [
        Component::Control,
        Component::Orchestrator,
        Component::Worker,
        Component::Wire,
        Component::Fabric,
        Component::Capture,
        Component::Classify,
        Component::Gcd,
        Component::Census,
    ];

    /// Stable name used as the `dropped`-map key in exports.
    pub fn name(self) -> &'static str {
        match self {
            Component::Control => "control",
            Component::Orchestrator => "orchestrator",
            Component::Worker => "worker",
            Component::Wire => "wire",
            Component::Fabric => "fabric",
            Component::Capture => "capture",
            Component::Classify => "classify",
            Component::Gcd => "gcd",
            Component::Census => "census",
        }
    }
}

/// Deterministic target-keyed sampling decision: a pure function of the
/// seed and the prefix's network bits (splitmix64 finalizer), independent
/// of arrival order, shard count and thread interleaving.
pub fn prefix_sampled(seed: u64, sample_per_mille: u16, prefix: PrefixKey) -> bool {
    if sample_per_mille >= 1000 {
        return true;
    }
    if sample_per_mille == 0 {
        return false;
    }
    let (tag, net): (u64, u128) = match prefix {
        PrefixKey::V4(p) => (4, u128::from(p.network())),
        PrefixKey::V6(p) => (6, p.network()),
    };
    let mut h = seed ^ tag.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    for limb in [net as u64, (net >> 64) as u64] {
        h = splitmix64(h ^ limb);
    }
    h % 1000 < u64::from(sample_per_mille)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Buffer {
    events: Vec<TraceEvent>,
    seen: u64,
}

struct TraceInner {
    cfg: TraceConfig,
    buffers: [Mutex<Buffer>; Component::ALL.len()],
}

/// A handle to the flight recorder. Cloning is cheap (an `Arc` bump); the
/// disabled tracer is `None` inside and every operation on it is a single
/// branch with no allocation — the measurement hot path holds one per
/// worker / session.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TraceInner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => write!(f, "Tracer(enabled, seed {:#x})", inner.cfg.seed),
        }
    }
}

fn lock(m: &Mutex<Buffer>) -> MutexGuard<'_, Buffer> {
    // A poisoned buffer still holds a valid event multiset; recover it
    // rather than propagating the panic into the measurement path.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Tracer {
    /// The disabled recorder: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Build a tracer from a config; a disabled config yields the
    /// no-allocation disabled tracer.
    pub fn new(cfg: TraceConfig) -> Self {
        if !cfg.enabled {
            return Tracer(None);
        }
        let cap = cfg.cap_per_component.max(1);
        let cfg = TraceConfig {
            cap_per_component: cap,
            ..cfg
        };
        Tracer(Some(Arc::new(TraceInner {
            cfg,
            buffers: std::array::from_fn(|_| {
                Mutex::new(Buffer {
                    events: Vec::new(),
                    seen: 0,
                })
            }),
        })))
    }

    /// Whether the recorder is live.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether `prefix` is in the traced sample. Always false when
    /// disabled.
    pub fn sampled(&self, prefix: PrefixKey) -> bool {
        match &self.0 {
            Some(inner) => prefix_sampled(inner.cfg.seed, inner.cfg.sample_per_mille, prefix),
            None => false,
        }
    }

    /// Record a target-scoped event. The closure runs only when the
    /// recorder is live *and* `prefix` is sampled, so the disabled / out-
    /// of-sample paths never build (or allocate inside) the event.
    pub fn record_for(
        &self,
        component: Component,
        prefix: PrefixKey,
        event: impl FnOnce() -> TraceEvent,
    ) {
        if let Some(inner) = &self.0 {
            if prefix_sampled(inner.cfg.seed, inner.cfg.sample_per_mille, prefix) {
                inner.push(component, event());
            }
        }
    }

    /// Record an unconditional (non-target-scoped) event — worker faults,
    /// GCD chunks, stage spans. The closure runs only when live.
    pub fn record(&self, component: Component, event: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.0 {
            inner.push(component, event());
        }
    }

    /// Snapshot the recorded events into a report with a single section
    /// named `scope`. Events are merged across components in canonical
    /// order; the per-component overflow counts land in the section's
    /// `dropped` map. Non-destructive: the recorder keeps its events.
    pub fn snapshot(&self, scope: &str) -> TraceReport {
        let inner = match &self.0 {
            Some(inner) => inner,
            None => return TraceReport::default(),
        };
        let mut events = Vec::new();
        let mut dropped = std::collections::BTreeMap::new();
        for component in Component::ALL {
            let mut buf = lock(&inner.buffers[component as usize]);
            buf.events.sort_unstable();
            buf.events.truncate(inner.cfg.cap_per_component);
            let retained = buf.events.len() as u64;
            if buf.seen > retained {
                dropped.insert(component.name().to_string(), buf.seen - retained);
            }
            events.extend_from_slice(&buf.events);
        }
        events.sort_unstable();
        TraceReport {
            enabled: true,
            seed: inner.cfg.seed,
            sample_per_mille: inner.cfg.sample_per_mille,
            sections: vec![TraceSection {
                scope: scope.to_string(),
                events,
                dropped,
            }],
        }
    }
}

impl TraceInner {
    fn push(&self, component: Component, event: TraceEvent) {
        let mut buf = lock(&self.buffers[component as usize]);
        buf.seen += 1;
        buf.events.push(event);
        if buf.events.len() >= self.cfg.cap_per_component.saturating_mul(2) {
            // Keep the canonically smallest `cap` events. Repeated
            // compaction at 2×cap retains exactly the cap smallest of the
            // whole stream, independent of arrival order.
            buf.events.sort_unstable();
            buf.events.truncate(self.cfg.cap_per_component);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laces_packet::Prefix24;

    fn p(net: u32) -> PrefixKey {
        PrefixKey::V4(Prefix24::from_network(net << 8))
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_prefix() {
        let picks: Vec<bool> = (0..1000)
            .map(|i| prefix_sampled(0x5EED, 250, p(i)))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|i| prefix_sampled(0x5EED, 250, p(i)))
            .collect();
        assert_eq!(picks, again);
        let n = picks.iter().filter(|&&b| b).count();
        // ~250 of 1000 at 250‰; allow generous slack, but not degenerate.
        assert!((100..400).contains(&n), "sampled {n} of 1000 at 250‰");
        // A different seed picks a different set.
        let other: Vec<bool> = (0..1000)
            .map(|i| prefix_sampled(0xBEEF, 250, p(i)))
            .collect();
        assert_ne!(picks, other);
        // Edges.
        assert!(prefix_sampled(1, 1000, p(7)));
        assert!(!prefix_sampled(1, 0, p(7)));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_runs_the_closure() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sampled(p(1)));
        t.record_for(Component::Wire, p(1), || panic!("closure must not run"));
        t.record(Component::Census, || panic!("closure must not run"));
        let report = t.snapshot("x");
        assert!(!report.enabled);
        assert!(report.sections.is_empty());
    }

    #[test]
    fn out_of_sample_prefix_skips_the_closure() {
        let cfg = TraceConfig::sampled(0x5EED, 250);
        let miss = (0..1000)
            .map(p)
            .find(|&k| !prefix_sampled(cfg.seed, cfg.sample_per_mille, k))
            .expect("some prefix out of sample");
        let t = Tracer::new(cfg);
        t.record_for(Component::Wire, miss, || panic!("unsampled closure ran"));
        assert_eq!(t.snapshot("s").sections[0].events.len(), 0);
    }

    #[test]
    fn overflow_keeps_the_canonically_smallest_events_order_independently() {
        let cfg = TraceConfig {
            cap_per_component: 8,
            ..TraceConfig::all(1)
        };
        let event = |i: u32| TraceEvent::OrderIssued {
            prefix: p(i),
            worker: 0,
            window_start_ms: 0,
        };
        let forward = Tracer::new(cfg);
        for i in 0..100 {
            forward.record(Component::Orchestrator, || event(i));
        }
        let backward = Tracer::new(cfg);
        for i in (0..100).rev() {
            backward.record(Component::Orchestrator, || event(i));
        }
        let f = forward.snapshot("s");
        let b = backward.snapshot("s");
        assert_eq!(f, b);
        let kept = &f.sections[0].events;
        assert_eq!(kept.len(), 8);
        assert_eq!(kept, &(0..8).map(event).collect::<Vec<_>>());
        assert_eq!(f.sections[0].dropped.get("orchestrator"), Some(&92));
    }

    #[test]
    fn snapshot_merges_components_in_canonical_order() {
        let t = Tracer::new(TraceConfig::all(1));
        t.record(Component::Census, || TraceEvent::StageSpan {
            name: "day".into(),
            start_ms: 0,
            sim_ms: 5,
        });
        t.record(Component::Worker, || TraceEvent::ProbeSent {
            prefix: p(3),
            worker: 1,
            tx_time_ms: 10,
        });
        t.record(Component::Orchestrator, || TraceEvent::OrderIssued {
            prefix: p(3),
            worker: 1,
            window_start_ms: 0,
        });
        let r = t.snapshot("m");
        let events = &r.sections[0].events;
        let mut sorted = events.clone();
        sorted.sort_unstable();
        assert_eq!(events, &sorted);
        assert!(matches!(events[0], TraceEvent::OrderIssued { .. }));
    }
}
