//! Indexed, handle-based read path over the published census store.
//!
//! The census is published daily as JSON-lines (R2/R7: an open dataset);
//! serving it to downstream consumers is a *read-heavy, longitudinal,
//! skewed* workload — repeated lookups of a few hot anycast prefixes
//! across weeks of snapshots. Deserialising whole days per query (the
//! deprecated `CensusQuery` pattern) cannot get to sub-millisecond point
//! lookups; this crate can, because `CensusStore::save` writes a compact
//! versioned binary index sidecar next to each day and [`QueryService`]
//! answers every query kind from the touched index sections alone.
//!
//! * [`archive`] — what every reader of a store shares: the per-day
//!   file-name table ([`Artifact`]), strict day discovery ([`discover`])
//!   and the byte-budgeted LRU of decoded sections ([`Archive`]) that
//!   this crate's query service and the census crate's health service
//!   are views over.
//! * [`idx`] — the `census-day-NNNNN.idx` sidecar format v1: fingerprinted
//!   header, sorted prefix→record-span table, per-AS and per-site
//!   postings, day summary.
//! * [`service`] — the [`QueryService`] handle: builder-opened, lazy
//!   section reads through the archive, typed [`QueryError`] results.
//! * [`ranking`] — the Table 6 [`AsnRank`] shape shared with the eager
//!   census-side ranking.
//! * [`diff_types`] — the [`CensusDiff`]/[`FootprintChange`] shapes shared
//!   with the eager census-side diff.
//!
//! Re-exported by the census crate as `laces_census::query`.

#![forbid(unsafe_code)]

pub mod archive;
pub mod diff_types;
pub mod error;
pub mod idx;
pub mod ranking;
pub mod service;

pub use archive::{discover, Archive, Artifact, CacheNames};
pub use diff_types::{CensusDiff, FootprintChange};
pub use error::{QueryError, INDEX_VERSION};
pub use idx::{build_index, DaySummary, IndexRecord, SummaryInput};
pub use ranking::{rank_from_counts, top_k_share, AsnRank};
pub use service::{
    DayArtifacts, PrefixPoint, QueryService, QueryServiceBuilder, DEFAULT_CACHE_BUDGET,
};
