//! Anycast-based classification (the MAnycast² methodology, rebuilt).
//!
//! For each probed prefix, count the distinct workers that captured
//! responses: one worker → unicast; more than one → anycast candidate;
//! none → unresponsive. The census publishes this verdict *independently*
//! of the GCD verdict (R1: results convey per-methodology confidence), and
//! the VP count itself is the key confidence signal — Table 3 shows
//! 2-VP candidates are mostly false positives while 5+-VP candidates are
//! almost all real.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;

use laces_packet::PrefixKey;
use laces_trace::{Component, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

use crate::results::{Accumulate, MeasurementOutcome, ProbeRecord};

/// Verdict of the anycast-based stage for one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Class {
    /// Responses arrived at `n_vps` (>1) distinct workers.
    Anycast {
        /// Number of distinct receiving workers.
        n_vps: usize,
    },
    /// All responses arrived at a single worker.
    Unicast,
    /// No responses captured.
    Unresponsive,
}

impl Class {
    /// Whether the verdict is an anycast candidate.
    pub fn is_anycast(self) -> bool {
        matches!(self, Class::Anycast { .. })
    }
}

/// Per-prefix observation detail.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixObservation {
    /// Workers that captured at least one response.
    pub rx_workers: BTreeSet<u16>,
    /// Total responses captured.
    pub n_responses: u32,
    /// Distinct CHAOS identities observed (CHAOS measurements only).
    pub chaos_values: BTreeSet<String>,
}

impl PrefixObservation {
    fn add_chaos(&mut self, identity: &str) {
        if !self.chaos_values.contains(identity) {
            self.chaos_values.insert(identity.to_string());
        }
    }
}

/// The census path's capture accumulator: one shard's classification
/// state, indexed by hitlist position within the shard's slice. Each
/// target keeps the mask of workers that captured a reply from it (worker
/// counts are validated to 1..=64, so a `u64` holds every worker) and its
/// response count; CHAOS identities are kept only for the replies that
/// carry one. Shard tables cover disjoint slices and fold into the
/// per-prefix classification once, at seal, in
/// [`AnycastClassification::from_tables`].
#[derive(Debug)]
pub(crate) struct ClassTable {
    lo: usize,
    rx_masks: Vec<u64>,
    responses: Vec<u32>,
    chaos: Vec<(usize, Arc<str>)>,
    tracer: Tracer,
}

impl ClassTable {
    /// An empty table for the hitlist slice `[lo, hi)`; each folded reply
    /// records its classification contribution into `tracer`.
    pub(crate) fn new(lo: usize, hi: usize, tracer: Tracer) -> Self {
        ClassTable {
            lo,
            rx_masks: vec![0; hi - lo],
            responses: vec![0; hi - lo],
            chaos: Vec::new(),
            tracer,
        }
    }
}

impl Accumulate for ClassTable {
    #[inline]
    fn fold(&mut self, pos: usize, record: ProbeRecord) {
        let ProbeRecord {
            prefix,
            rx_worker,
            chaos_identity,
            ..
        } = record;
        self.tracer.record_for(Component::Classify, prefix, || {
            TraceEvent::ClassContribution { prefix, rx_worker }
        });
        let k = pos - self.lo;
        // Captures come only from workers below the validated count (≤ 64).
        self.rx_masks[k] |= 1u64 << rx_worker;
        self.responses[k] += 1;
        if let Some(c) = chaos_identity {
            self.chaos.push((pos, c));
        }
    }
}

/// The anycast-based classification of one measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnycastClassification {
    /// Per-prefix observations (only prefixes that responded appear).
    pub observations: BTreeMap<PrefixKey, PrefixObservation>,
    /// Number of probed targets.
    pub n_targets: usize,
}

impl AnycastClassification {
    /// Aggregate a measurement outcome.
    pub fn from_outcome(outcome: &MeasurementOutcome) -> Self {
        Self::from_outcome_traced(outcome, &Tracer::disabled())
    }

    /// Aggregate a measurement outcome, recording each record's
    /// contribution and the per-prefix verdict into `tracer`. The records
    /// are walked in the outcome's canonical order and verdicts come from
    /// a `BTreeMap` walk, so the recorded events are deterministic.
    pub fn from_outcome_traced(outcome: &MeasurementOutcome, tracer: &Tracer) -> Self {
        let mut observations: BTreeMap<PrefixKey, PrefixObservation> = BTreeMap::new();
        for r in &outcome.records {
            tracer.record_for(Component::Classify, r.prefix, || {
                TraceEvent::ClassContribution {
                    prefix: r.prefix,
                    rx_worker: r.rx_worker,
                }
            });
            let o = observations.entry(r.prefix).or_default();
            o.rx_workers.insert(r.rx_worker);
            o.n_responses += 1;
            if let Some(c) = &r.chaos_identity {
                o.add_chaos(c);
            }
        }
        Self::sealed(observations, outcome.n_targets, tracer)
    }

    /// Fold the shards' capture tables of one pass over `targets` by
    /// prefix, exactly as [`from_outcome_traced`](Self::from_outcome_traced)
    /// folds the pass's records: receiving workers unite, response counts
    /// add, CHAOS identities unite. All three commute, so the order of
    /// `tables` cannot show. Contributions were recorded into `tracer` at
    /// capture; the verdicts are recorded here.
    pub(crate) fn from_tables(tables: &[ClassTable], targets: &[IpAddr], tracer: &Tracer) -> Self {
        let mut observations: BTreeMap<PrefixKey, PrefixObservation> = BTreeMap::new();
        for t in tables {
            for (k, (&mask, &n)) in t.rx_masks.iter().zip(&t.responses).enumerate() {
                if n == 0 {
                    continue;
                }
                let o = observations
                    .entry(PrefixKey::of(targets[t.lo + k]))
                    .or_default();
                let mut rest = mask;
                while rest != 0 {
                    // `trailing_zeros` of a nonzero u64 is below 64.
                    o.rx_workers
                        .insert(u16::try_from(rest.trailing_zeros()).unwrap_or(u16::MAX));
                    rest &= rest - 1;
                }
                o.n_responses += n;
            }
            for (pos, c) in &t.chaos {
                observations
                    .entry(PrefixKey::of(targets[*pos]))
                    .or_default()
                    .add_chaos(c);
            }
        }
        Self::sealed(observations, targets.len(), tracer)
    }

    /// The finished classification, with one verdict event per responsive
    /// prefix recorded into `tracer` (a `BTreeMap` walk, so deterministic).
    fn sealed(
        observations: BTreeMap<PrefixKey, PrefixObservation>,
        n_targets: usize,
        tracer: &Tracer,
    ) -> Self {
        if tracer.is_enabled() {
            for (prefix, o) in &observations {
                let verdict = if o.rx_workers.len() > 1 {
                    "anycast"
                } else {
                    "unicast"
                };
                tracer.record_for(Component::Classify, *prefix, || TraceEvent::ClassVerdict {
                    prefix: *prefix,
                    n_vps: o.rx_workers.len(),
                    verdict: verdict.to_string(),
                });
            }
        }
        AnycastClassification {
            observations,
            n_targets,
        }
    }

    /// Verdict for a prefix that was in the hitlist.
    pub fn class_of(&self, prefix: PrefixKey) -> Class {
        match self.observations.get(&prefix) {
            None => Class::Unresponsive,
            Some(o) if o.rx_workers.len() > 1 => Class::Anycast {
                n_vps: o.rx_workers.len(),
            },
            Some(_) => Class::Unicast,
        }
    }

    /// All anycast candidates (the paper's "anycast targets", AT).
    pub fn anycast_targets(&self) -> Vec<PrefixKey> {
        self.observations
            .iter()
            .filter(|(_, o)| o.rx_workers.len() > 1)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Candidates bucketed by receiving-VP count (Table 3's rows).
    pub fn vp_count_histogram(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for o in self.observations.values() {
            if o.rx_workers.len() > 1 {
                *h.entry(o.rx_workers.len()).or_insert(0) += 1;
            }
        }
        h
    }

    /// Count of responsive prefixes.
    pub fn n_responsive(&self) -> usize {
        self.observations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::ProbeRecord;
    use laces_netsim::PlatformId;
    use laces_packet::Protocol;

    fn record(prefix: &str, rx: u16) -> ProbeRecord {
        ProbeRecord {
            prefix: PrefixKey::of(prefix.parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: rx,
            tx_worker: Some(rx),
            tx_time_ms: Some(0),
            rx_time_ms: 10,
            chaos_identity: None,
        }
    }

    fn outcome(records: Vec<ProbeRecord>) -> MeasurementOutcome {
        MeasurementOutcome {
            measurement_id: 1,
            platform: PlatformId(0),
            protocol: Protocol::Icmp,
            n_workers: 32,
            probes_sent: 96,
            n_targets: 3,
            records,
            failed_workers: vec![],
            worker_health: vec![],
            telemetry: laces_obs::RunReport::new(),
            shard_report: Default::default(),
            trace_report: laces_trace::TraceReport::default(),
        }
    }

    #[test]
    fn classifies_by_distinct_receivers() {
        let o = outcome(vec![
            record("10.0.0.1", 0),
            record("10.0.0.2", 0),
            record("10.0.0.2", 0), // duplicate receiver, still unicast
            record("10.0.1.1", 0),
            record("10.0.1.1", 5),
            record("10.0.1.1", 9),
        ]);
        let c = AnycastClassification::from_outcome(&o);
        assert_eq!(
            c.class_of(PrefixKey::of("10.0.0.2".parse().unwrap())),
            Class::Unicast
        );
        assert_eq!(
            c.class_of(PrefixKey::of("10.0.1.99".parse().unwrap())),
            Class::Anycast { n_vps: 3 },
            "same /24 aggregates"
        );
        assert_eq!(
            c.class_of(PrefixKey::of("10.9.9.9".parse().unwrap())),
            Class::Unresponsive
        );
        assert_eq!(c.anycast_targets().len(), 1);
    }

    #[test]
    fn histogram_buckets_by_vp_count() {
        let o = outcome(vec![
            record("10.0.0.1", 0),
            record("10.0.0.1", 1),
            record("10.0.1.1", 0),
            record("10.0.1.1", 1),
            record("10.0.2.1", 0),
            record("10.0.2.1", 1),
            record("10.0.2.1", 2),
        ]);
        let c = AnycastClassification::from_outcome(&o);
        let h = c.vp_count_histogram();
        assert_eq!(h.get(&2), Some(&2));
        assert_eq!(h.get(&3), Some(&1));
    }

    #[test]
    fn chaos_values_deduplicate() {
        let mut r1 = record("10.0.0.1", 0);
        r1.chaos_identity = Some("auth1".into());
        let mut r2 = record("10.0.0.1", 1);
        r2.chaos_identity = Some("auth1".into());
        let mut r3 = record("10.0.0.1", 2);
        r3.chaos_identity = Some("ams01".into());
        let c = AnycastClassification::from_outcome(&outcome(vec![r1, r2, r3]));
        let o = &c.observations[&PrefixKey::of("10.0.0.1".parse().unwrap())];
        assert_eq!(o.chaos_values.len(), 2);
    }

    #[test]
    fn is_anycast_helper() {
        assert!(Class::Anycast { n_vps: 2 }.is_anycast());
        assert!(!Class::Unicast.is_anycast());
        assert!(!Class::Unresponsive.is_anycast());
    }
}
