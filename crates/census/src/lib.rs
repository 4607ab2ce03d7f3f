//! The LACeS census layer: the daily pipeline and every analysis the
//! paper's evaluation performs on its output.
//!
//! * [`pipeline`] — the two-stage daily census (anycast-based pass over the
//!   full hitlists → GCD confirmation over the anycast targets), with the
//!   AT feedback loop ([`atlist`]) that keeps covering the anycast-based
//!   stage's false negatives.
//! * [`record`] — the published per-prefix census records (both verdicts
//!   listed independently, per R1) and their JSON-lines serialisation.
//! * [`analysis`] — Tables 2 and 3 and the protocol-intersection regions
//!   of Figs. 6 and 7.
//! * [`longitudinal`] — presence matrices and stability statistics over a
//!   run of days (§5.1.6).
//! * [`partial`] — the /32-granularity partial-anycast scan (§5.6).
//! * [`external`] — IPInfo- and BGPTools-style dataset comparisons (§5.7,
//!   Table 7).
//! * [`groundtruth`] — operator validation and ipranges-style views
//!   (§5.8, Table 6 colouring).
//! * [`asn_ranking`] — Table 6's origin-AS ranking.
//! * [`chaos`] — the CHAOS/anycast-based/GCD three-way comparison
//!   (Appendix C, Fig. 10).
//!
//! Beyond the paper's evaluation, the §6 future-work directions are
//! implemented too: [`store`] (the public-repository persistence layer,
//! with per-day query-index sidecars and atomic publishes), [`query`] (the
//! indexed, handle-based read path — `laces-query` re-exported), [`health`]
//! (`laces-health` re-exported, plus the health view over the store's
//! archive), [`canary`] (platform outage self-monitoring), [`trigger`]
//! (BGP-feed-triggered verification of temporary anycast and hijacks), and
//! [`hijack`] (longitudinal one-day-anomaly detection).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod asn_ranking;
pub mod atlist;
pub mod canary;
pub mod chaos;
pub mod diff;
pub mod external;
pub mod geoloc;
pub mod groundtruth;
pub mod health;
pub mod hijack;
pub mod longitudinal;
pub mod partial;
pub mod pipeline;
pub mod record;
mod service;
pub mod store;
pub mod trace_enum;
pub mod trigger;

/// The indexed census read path (`laces-query`): per-day binary index
/// sidecars plus the lazily-loading [`query::QueryService`] handle.
pub use laces_query as query;

pub use atlist::{AtList, AtSource};
pub use canary::{detect_outages, CanarySnapshot, OutageAlarm};
pub use diff::{diff, CensusDiff, FootprintChange};
pub use geoloc::{score_geolocation, score_report, GeolocScore};
pub use hijack::{detect_hijacks, DayEvidence, HijackSuspect};
pub use pipeline::{CensusPipeline, DayOutput, PipelineConfig};
pub use query::{PrefixPoint, QueryError, QueryService};
pub use record::{CensusRecord, CensusStats, DailyCensus, GcdSummary};
pub use store::{CensusStore, StoreError};
pub use trace_enum::{trace_enumerate, trace_enumerate_all, TraceEnumeration};
pub use trigger::{run_triggered_verification, TriggerReport, TriggerVerdict};
