//! The handle-based census query service.
//!
//! [`QueryService`] answers the consumer-side query kinds — point lookup,
//! prefix history, AS ranking, day-over-day diff, per-site AT lists, day
//! summaries — from the per-day index sidecars, reading only the touched
//! sections of the touched days plus the one record span a full-record
//! fetch needs. It is a view over an [`Archive`] of the index sidecars,
//! whose LRU day cache (bounded by [`cache_budget`]) keeps hot days
//! resident; answers are byte-identical regardless of cache state, open
//! order, or day-visit order, because every answer is a pure function of
//! the on-disk sidecars.
//!
//! [`cache_budget`]: QueryServiceBuilder::cache_budget

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use laces_obs::{fnv1a, names, RunReport};
use laces_packet::PrefixKey;

use crate::archive::{Archive, Artifact, CacheNames};
use crate::diff_types::{CensusDiff, FootprintChange};
use crate::error::QueryError;
use crate::idx::{
    decode_as_postings, decode_city_ids, decode_city_postings, decode_city_strs, decode_header,
    decode_prefixes, decode_summary, encode_key, DaySummary, Entry, Header, FLAG_ANYCAST_BASED,
    FLAG_GCD_CONFIRMED, FLAG_HAS_GCD, FLAG_PARTIAL, HEADER_LEN, N_SECTIONS, SEC_AS_POSTINGS,
    SEC_CITY_IDS, SEC_CITY_POSTINGS, SEC_CITY_STRS, SEC_PREFIXES, SEC_SUMMARY,
};
use crate::ranking::{rank_from_counts, AsnRank};

/// Default cache budget: 64 MiB of resident index sections.
pub const DEFAULT_CACHE_BUDGET: u64 = 64 << 20;

/// Everything the index knows about one prefix on one day, without
/// touching the day's JSONL. [`QueryService::record_json`] fetches the
/// full published record when the point answer is not enough.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixPoint {
    /// The day.
    pub day: u32,
    /// The prefix.
    pub prefix: PrefixKey,
    /// Any anycast-based protocol verdict is anycast.
    pub anycast_based_positive: bool,
    /// GCD confirmed anycast.
    pub gcd_confirmed: bool,
    /// The record carries a GCD summary.
    pub has_gcd: bool,
    /// Partial-anycast flag.
    pub partial: bool,
    /// Maximum receiving-VP count across protocols.
    pub max_vps: usize,
    /// iGreedy-enumerated site count.
    pub n_sites: usize,
    /// Origin AS, when the announcement tables resolved one.
    pub origin_asn: Option<u32>,
    /// Geolocated site cities, in record order.
    pub cities: Vec<String>,
    /// Byte span of the full record in the day's JSONL.
    pub record_offset: u64,
    /// Length of that span (excluding the newline).
    pub record_len: u32,
}

/// Builder for [`QueryService`] — `QueryService::open(store).days(..).cache_budget(..).build()?`.
#[derive(Debug, Clone)]
pub struct QueryServiceBuilder {
    dir: PathBuf,
    days: Option<Vec<u32>>,
    cache_budget: u64,
}

impl QueryServiceBuilder {
    /// Restrict the service to these days (default: every indexed day in
    /// the store). The service's day order is always ascending.
    pub fn days(mut self, days: impl IntoIterator<Item = u32>) -> Self {
        self.days = Some(days.into_iter().collect());
        self
    }

    /// Bound the resident index-section cache, in bytes. Loading a day
    /// past the budget evicts least-recently-touched days; the most
    /// recently touched day is never evicted, so a single oversized day
    /// still works. Budget only affects I/O volume, never answers.
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Open the service: enumerate the store's index sidecars and validate
    /// the requested day set. No index bytes are read yet — headers and
    /// sections load lazily on first touch.
    pub fn build(self) -> Result<QueryService, QueryError> {
        let archive = Archive::open(
            self.dir,
            Artifact::Index,
            self.days,
            self.cache_budget,
            CACHE_NAMES,
        )?;
        Ok(QueryService { archive })
    }
}

/// The query view's cache metrics.
const CACHE_NAMES: CacheNames = CacheNames {
    hits: names::query::CACHE_HITS,
    misses: names::query::CACHE_MISSES,
    evictions: names::query::CACHE_EVICTIONS,
    days_opened: names::query::DAYS_OPENED,
    resident_bytes: names::query::RESIDENT_BYTES,
    resident_days: names::query::RESIDENT_DAYS,
};

/// The archive slot of the index header; section `SEC_*` has slot `SEC_*`.
const HEADER_SLOT: usize = N_SECTIONS;

/// One day's on-disk artifact map plus its degraded flag — the
/// operational "what does this day carry" answer, from
/// [`QueryService::day_artifacts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayArtifacts {
    /// The day.
    pub day: u32,
    /// The day ran degraded (from the index summary; equals
    /// `!store.load_telemetry(day).degraded_reasons().is_empty()`).
    pub degraded: bool,
    /// The published records (`census-day-NNNNN.jsonl`).
    pub records: PathBuf,
    /// The binary query index sidecar.
    pub index: PathBuf,
    /// The stats sidecar, when present.
    pub stats: Option<PathBuf>,
    /// The greppable telemetry JSONL sidecar, when present.
    pub telemetry: Option<PathBuf>,
    /// The flight-recorder event log, when the day ran with tracing.
    pub trace: Option<PathBuf>,
    /// The Chrome trace-event file, when the day ran with tracing.
    pub chrome_trace: Option<PathBuf>,
    /// The longitudinal health point (`laces-health` sidecar), when
    /// present.
    pub health_series: Option<PathBuf>,
}

/// The indexed census read handle. All methods take `&mut self` (the
/// cache mutates); answers are pure functions of the sidecar files.
#[derive(Debug)]
pub struct QueryService {
    archive: Archive,
}

impl QueryService {
    /// Start building a service over a store directory. Accepts anything
    /// path-like — in particular `&CensusStore` via its `AsRef<Path>`.
    pub fn open(store: impl AsRef<Path>) -> QueryServiceBuilder {
        QueryServiceBuilder {
            dir: store.as_ref().to_path_buf(),
            days: None,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }

    /// The days this service answers for, ascending.
    pub fn days(&self) -> &[u32] {
        self.archive.days()
    }

    /// The store directory.
    pub fn path(&self) -> &Path {
        self.archive.dir()
    }

    /// Query-side telemetry: lookup and cache counters plus residency
    /// gauges, in the workspace's standard [`RunReport`] shape.
    pub fn telemetry(&self) -> &RunReport {
        self.archive.telemetry()
    }

    /// Drop every resident section (the cache, not the service). Answers
    /// after a clear are identical to answers before it.
    pub fn clear_cache(&mut self) {
        self.archive.clear();
    }

    fn pos_of(&self, day: u32) -> Result<usize, QueryError> {
        self.archive
            .position(day)
            .ok_or(QueryError::UnknownDay { day })
    }

    /// Index section `sec` of the day at `pos`, decoded and cached; the
    /// header it is decoded against is one more cached section.
    fn section<T: Any + Send + Sync>(
        &mut self,
        pos: usize,
        sec: usize,
        decode: fn(&[u8], &Header) -> Result<T, QueryError>,
    ) -> Result<Arc<T>, QueryError> {
        let day = self.archive.days()[pos];
        self.archive.get(pos, sec, |archive| {
            let h = archive.get(pos, HEADER_SLOT, |archive| {
                let bytes = archive.read_at(Artifact::Index, day, 0, HEADER_LEN)?;
                let h = decode_header(&bytes, day)?;
                archive.inc(names::query::INDEX_BYTES_READ, HEADER_LEN as u64);
                Ok((h, HEADER_LEN as u64))
            })?;
            let (offset, len, fp) = h.sections[sec];
            let bytes = archive.read_at(Artifact::Index, day, offset, len as usize)?;
            if fnv1a(&bytes) != fp {
                return Err(QueryError::Corrupt {
                    day,
                    detail: format!("section {sec} fingerprint mismatch"),
                });
            }
            archive.inc(names::query::SECTIONS_LOADED, 1);
            archive.inc(names::query::INDEX_BYTES_READ, len);
            Ok((decode(&bytes, &h)?, len))
        })
    }

    fn entry_of(
        &mut self,
        pos: usize,
        prefix: PrefixKey,
    ) -> Result<Option<(usize, Entry)>, QueryError> {
        let entries = self.section(pos, SEC_PREFIXES, decode_prefixes)?;
        let key = encode_key(prefix);
        match entries.binary_search_by_key(&key, |e| (e.key_tag, e.key_net)) {
            Ok(i) => Ok(Some((i, entries[i]))),
            Err(_) => Ok(None),
        }
    }

    fn point_of_entry(&mut self, pos: usize, e: Entry) -> Result<PrefixPoint, QueryError> {
        let day = self.archive.days()[pos];
        let cities = if e.city_count == 0 {
            Vec::new()
        } else {
            let names = self.section(pos, SEC_CITY_STRS, decode_city_strs)?;
            let ids = self.section(pos, SEC_CITY_IDS, decode_city_ids)?;
            let start = e.city_first as usize;
            let end = start + usize::from(e.city_count);
            let span = ids.get(start..end).ok_or_else(|| QueryError::Corrupt {
                day,
                detail: format!("city span {start}..{end} out of range"),
            })?;
            let mut out = Vec::with_capacity(span.len());
            for id in span {
                let name = names.get(*id as usize).ok_or_else(|| QueryError::Corrupt {
                    day,
                    detail: format!("city id {id} out of range"),
                })?;
                out.push(name.clone());
            }
            out
        };
        Ok(PrefixPoint {
            day,
            prefix: e.prefix(day)?,
            anycast_based_positive: e.flags & FLAG_ANYCAST_BASED != 0,
            gcd_confirmed: e.flags & FLAG_GCD_CONFIRMED != 0,
            has_gcd: e.flags & FLAG_HAS_GCD != 0,
            partial: e.flags & FLAG_PARTIAL != 0,
            max_vps: e.max_vps as usize,
            n_sites: e.n_sites as usize,
            origin_asn: e.origin_asn(),
            cities,
            record_offset: e.offset,
            record_len: e.len,
        })
    }

    // -- query kinds --------------------------------------------------------

    /// Point lookup: one prefix on one day, from the index alone.
    /// `Ok(None)` means the day published no record for the prefix.
    pub fn point(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<Option<PrefixPoint>, QueryError> {
        let pos = self.pos_of(day)?;
        self.archive.inc(names::query::POINT_LOOKUPS, 1);
        match self.entry_of(pos, prefix)? {
            Some((_, e)) => Ok(Some(self.point_of_entry(pos, e)?)),
            None => Ok(None),
        }
    }

    /// Fetch the full published JSONL record for one prefix on one day —
    /// the only query that touches the day file, and it reads exactly the
    /// record's byte span.
    pub fn record_json(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<Option<String>, QueryError> {
        let pos = self.pos_of(day)?;
        let Some((_, e)) = self.entry_of(pos, prefix)? else {
            return Ok(None);
        };
        let bytes = self
            .archive
            .read_at(Artifact::Records, day, e.offset, e.len as usize)?;
        self.archive
            .inc(names::query::RECORD_BYTES_READ, u64::from(e.len));
        let s = String::from_utf8(bytes).map_err(|err| QueryError::Corrupt {
            day,
            detail: format!("record span not utf-8: {err}"),
        })?;
        Ok(Some(s))
    }

    /// The history of one prefix over every selected day:
    /// `(day, anycast_based?, gcd_confirmed?)`, answered from prefix
    /// tables only.
    pub fn history(&mut self, prefix: PrefixKey) -> Result<Vec<(u32, bool, bool)>, QueryError> {
        self.history_between(prefix, 0, u32::MAX)
    }

    /// [`history`](Self::history) restricted to `lo..=hi`.
    pub fn history_between(
        &mut self,
        prefix: PrefixKey,
        lo: u32,
        hi: u32,
    ) -> Result<Vec<(u32, bool, bool)>, QueryError> {
        let days: Vec<u32> = self
            .archive
            .days()
            .iter()
            .copied()
            .filter(|d| (lo..=hi).contains(d))
            .collect();
        let mut out = Vec::with_capacity(days.len());
        for day in days {
            out.push(self.day_presence(day, prefix)?);
        }
        Ok(out)
    }

    fn day_presence(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<(u32, bool, bool), QueryError> {
        let pos = self.pos_of(day)?;
        self.archive.inc(names::query::POINT_LOOKUPS, 1);
        Ok(match self.entry_of(pos, prefix)? {
            Some((_, e)) => (
                day,
                e.flags & FLAG_ANYCAST_BASED != 0,
                e.flags & FLAG_GCD_CONFIRMED != 0,
            ),
            None => (day, false, false),
        })
    }

    /// Per-day GCD-confirmed counts over every selected day, answered
    /// from day summaries only.
    pub fn daily_confirmed_counts(&mut self) -> Result<BTreeMap<u32, usize>, QueryError> {
        let days = self.archive.days().to_vec();
        let mut out = BTreeMap::new();
        for day in days {
            let s = self.summary(day)?;
            out.insert(day, s.n_gcd_confirmed as usize);
        }
        Ok(out)
    }

    /// One day's aggregates, from the summary section only.
    pub fn summary(&mut self, day: u32) -> Result<DaySummary, QueryError> {
        let pos = self.pos_of(day)?;
        Ok((*self.section(pos, SEC_SUMMARY, decode_summary)?).clone())
    }

    /// One day's artifact map: the degraded flag from the summary
    /// section plus the paths of every sidecar the store publishes for
    /// the day. The records and index paths always exist for a served
    /// day; the optional sidecars (telemetry, stats, trace,
    /// health series) are reported only when present on disk, so a
    /// monitoring consumer can see at a glance which observability
    /// surfaces the day carries.
    pub fn day_artifacts(&mut self, day: u32) -> Result<DayArtifacts, QueryError> {
        // laces-lint: allow(degraded-bypass) — carrying the already-derived summary flag; it was read through the Degraded trait at save time
        let degraded = self.summary(day)?.degraded;
        let optional = |artifact| {
            let path = self.archive.file(artifact, day);
            path.exists().then_some(path)
        };
        Ok(DayArtifacts {
            day,
            degraded,
            records: self.archive.file(Artifact::Records, day),
            index: self.archive.file(Artifact::Index, day),
            stats: optional(Artifact::Stats),
            telemetry: optional(Artifact::Telemetry),
            trace: optional(Artifact::Trace),
            chrome_trace: optional(Artifact::ChromeTrace),
            health_series: optional(Artifact::HealthSeries),
        })
    }

    /// Table 6: origin ASes ranked by anycast prefixes originated on one
    /// day, from the AS postings only. A record counts toward its origin
    /// AS when either methodology saw anycast.
    pub fn asn_ranking(&mut self, day: u32) -> Result<Vec<AsnRank>, QueryError> {
        let pos = self.pos_of(day)?;
        let postings = self.section(pos, SEC_AS_POSTINGS, decode_as_postings)?;
        let mut counts: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for a in &postings.0 {
            counts.insert(a.asn, (a.v4 as usize, a.v6 as usize));
        }
        Ok(rank_from_counts(counts))
    }

    /// Day-over-day diff (GCD view), identical to the eager
    /// `laces-census` `diff(before, after)` on the same two days.
    pub fn diff(&mut self, before: u32, after: u32) -> Result<CensusDiff, QueryError> {
        let b = self.confirmed_footprints(before)?;
        let a = self.confirmed_footprints(after)?;
        let b_keys: BTreeSet<PrefixKey> = b.keys().copied().collect();
        let a_keys: BTreeSet<PrefixKey> = a.keys().copied().collect();
        let mut out = CensusDiff {
            appeared: a_keys.difference(&b_keys).copied().collect(),
            disappeared: b_keys.difference(&a_keys).copied().collect(),
            footprint_changes: Vec::new(),
        };
        for p in b_keys.intersection(&a_keys) {
            let (Some((sites_b, cities_b)), Some((sites_a, cities_a))) = (b.get(p), a.get(p))
            else {
                continue;
            };
            let set_b: BTreeSet<&String> = cities_b.iter().collect();
            let set_a: BTreeSet<&String> = cities_a.iter().collect();
            if sites_b != sites_a || set_b != set_a {
                out.footprint_changes.push(FootprintChange {
                    prefix: *p,
                    sites_before: *sites_b,
                    sites_after: *sites_a,
                    cities_gained: set_a.difference(&set_b).map(|s| (*s).clone()).collect(),
                    cities_lost: set_b.difference(&set_a).map(|s| (*s).clone()).collect(),
                });
            }
        }
        out.footprint_changes.sort_by_key(|c| c.prefix);
        Ok(out)
    }

    /// GCD-confirmed prefixes of one day with `(n_sites, cities)`.
    fn confirmed_footprints(
        &mut self,
        day: u32,
    ) -> Result<BTreeMap<PrefixKey, (usize, Vec<String>)>, QueryError> {
        let pos = self.pos_of(day)?;
        let entries = self.section(pos, SEC_PREFIXES, decode_prefixes)?;
        let confirmed: Vec<Entry> = entries
            .iter()
            .filter(|e| e.flags & FLAG_GCD_CONFIRMED != 0 && e.flags & FLAG_HAS_GCD != 0)
            .copied()
            .collect();
        let mut out = BTreeMap::new();
        for e in confirmed {
            let point = self.point_of_entry(pos, e)?;
            out.insert(point.prefix, (point.n_sites, point.cities));
        }
        Ok(out)
    }

    /// The sites (geolocated cities) one day's census enumerated, with the
    /// number of distinct prefixes served from each: `(city, n_prefixes)`,
    /// sorted by city name.
    pub fn sites(&mut self, day: u32) -> Result<Vec<(String, usize)>, QueryError> {
        let pos = self.pos_of(day)?;
        let names = self.section(pos, SEC_CITY_STRS, decode_city_strs)?;
        let postings = self.section(pos, SEC_CITY_POSTINGS, decode_city_postings)?;
        let mut out = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            out.push((name.clone(), postings.records_of(i, day)?.len()));
        }
        Ok(out)
    }

    /// The per-site AT list: every prefix a day's census geolocated to
    /// `city`, ascending. Unknown cities answer an empty list.
    pub fn site_prefixes(&mut self, day: u32, city: &str) -> Result<Vec<PrefixKey>, QueryError> {
        let pos = self.pos_of(day)?;
        let names = self.section(pos, SEC_CITY_STRS, decode_city_strs)?;
        let Ok(city_idx) = names.binary_search_by(|n| n.as_str().cmp(city)) else {
            return Ok(Vec::new());
        };
        let postings = self.section(pos, SEC_CITY_POSTINGS, decode_city_postings)?;
        let entries = self.section(pos, SEC_PREFIXES, decode_prefixes)?;
        let recs = postings.records_of(city_idx, day)?;
        let mut out = Vec::with_capacity(recs.len());
        for r in recs {
            let e = entries
                .get(*r as usize)
                .ok_or_else(|| QueryError::Corrupt {
                    day,
                    detail: format!("posting record {r} out of range"),
                })?;
            out.push(e.prefix(day)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idx::{build_index, IndexRecord, SummaryInput};
    use laces_packet::{Prefix24, Prefix48};

    fn v4(i: u32) -> PrefixKey {
        PrefixKey::V4(Prefix24::from_network(i << 8))
    }

    fn v6(i: u128) -> PrefixKey {
        PrefixKey::V6(Prefix48::from_network(i << 80))
    }

    /// Shorthand for the error half of the Result-returning tests below:
    /// query, io and index-build errors all propagate via `?`.
    type AnyError = Box<dyn std::error::Error>;

    /// Write a synthetic day: JSONL lines (one fake record per prefix) and
    /// the matching sidecar with real offsets.
    type FakeRow<'a> = (PrefixKey, bool, bool, &'a [&'a str], Option<u32>);

    fn write_day(dir: &Path, day: u32, prefixes: &[FakeRow]) -> Result<(), AnyError> {
        let mut sorted = prefixes.to_vec();
        sorted.sort_by_key(|p| p.0);
        let mut jsonl = String::new();
        let mut records = Vec::new();
        for (prefix, anycast, confirmed, cities, asn) in sorted {
            let line = format!("{{\"prefix\":\"{prefix:?}\",\"day\":{day}}}");
            let offset = jsonl.len() as u64;
            let len = line.len() as u32;
            jsonl.push_str(&line);
            jsonl.push('\n');
            records.push(IndexRecord {
                prefix,
                offset,
                len,
                anycast_based_positive: anycast,
                gcd_confirmed: confirmed,
                has_gcd: confirmed,
                partial: false,
                max_vps: 4,
                n_sites: cities.len(),
                origin_asn: asn,
                cities: cities.iter().map(|s| s.to_string()).collect(),
            });
        }
        let bytes = build_index(
            day,
            &records,
            SummaryInput {
                anycast_probes: 10,
                gcd_probes: 5,
                gcd_target_count: records.len() as u64,
                degraded: false,
            },
        )?;
        std::fs::write(dir.join(format!("census-day-{day:05}.jsonl")), jsonl)?;
        std::fs::write(dir.join(Artifact::Index.file_name(day)), bytes)?;
        Ok(())
    }

    fn tmpdir(tag: &str) -> Result<PathBuf, std::io::Error> {
        let d = std::env::temp_dir().join(format!("laces-query-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }

    fn two_day_store(tag: &str) -> Result<PathBuf, AnyError> {
        let dir = tmpdir(tag)?;
        write_day(
            &dir,
            1,
            &[
                (v4(1), true, true, &["Tokyo", "Paris"], Some(100)),
                (v4(2), true, false, &[], Some(100)),
                (v6(1), false, true, &["Lima"], Some(200)),
            ],
        )?;
        write_day(
            &dir,
            2,
            &[
                (v4(1), true, true, &["Tokyo", "Paris", "Sydney"], Some(100)),
                (v4(3), true, true, &["Lima"], None),
            ],
        )?;
        Ok(dir)
    }

    #[test]
    fn point_and_history_and_counts() -> Result<(), AnyError> {
        let dir = two_day_store("point")?;
        let mut q = QueryService::open(&dir).build()?;
        assert_eq!(q.days(), &[1, 2]);

        let p = q.point(1, v4(1))?.expect("v4(1) is indexed on day 1");
        assert!(p.anycast_based_positive && p.gcd_confirmed);
        assert_eq!(p.cities, vec!["Tokyo".to_string(), "Paris".to_string()]);
        assert_eq!(p.origin_asn, Some(100));
        assert!(q.point(1, v4(9))?.is_none());

        assert_eq!(q.history(v4(3))?, vec![(1, false, false), (2, true, true)]);
        assert_eq!(q.history_between(v4(1), 2, 2)?.len(), 1);

        let counts = q.daily_confirmed_counts()?;
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 2);
        Ok(())
    }

    #[test]
    fn record_json_reads_exact_span() -> Result<(), AnyError> {
        let dir = two_day_store("span")?;
        let mut q = QueryService::open(&dir).build()?;
        let line = q.record_json(2, v4(3))?.expect("v4(3) is indexed on day 2");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"day\":2"));
        assert!(q.record_json(2, v4(9))?.is_none());
        // Only the record's bytes were read from the day file.
        assert_eq!(
            q.telemetry().counter("query.record_bytes_read"),
            line.len() as u64
        );
        Ok(())
    }

    #[test]
    fn ranking_sites_and_diff() -> Result<(), AnyError> {
        let dir = two_day_store("rank")?;
        let mut q = QueryService::open(&dir).build()?;
        let ranks = q.asn_ranking(1)?;
        // AS 100: v4(1) + v4(2); AS 200: v6(1).
        assert_eq!(
            ranks[0],
            AsnRank {
                asn: 100,
                v4: 2,
                v6: 0
            }
        );
        assert_eq!(
            ranks[1],
            AsnRank {
                asn: 200,
                v4: 0,
                v6: 1
            }
        );

        let sites = q.sites(1)?;
        assert_eq!(
            sites,
            vec![
                ("Lima".to_string(), 1),
                ("Paris".to_string(), 1),
                ("Tokyo".to_string(), 1)
            ]
        );
        assert_eq!(q.site_prefixes(1, "Lima")?, vec![v6(1)]);
        assert!(q.site_prefixes(1, "Atlantis")?.is_empty());

        let d = q.diff(1, 2)?;
        assert_eq!(d.appeared, [v4(3)].into_iter().collect());
        assert_eq!(d.disappeared, [v6(1)].into_iter().collect());
        assert_eq!(d.footprint_changes.len(), 1);
        assert_eq!(
            d.footprint_changes[0].cities_gained,
            vec!["Sydney".to_string()]
        );
        Ok(())
    }

    #[test]
    fn answers_invariant_under_cache_budget_and_visit_order() -> Result<(), AnyError> {
        let dir = two_day_store("inv")?;
        // Tiny budget: every touch evicts the other day.
        let mut tight = QueryService::open(&dir).cache_budget(1).build()?;
        // Huge budget, and visit day 2 first.
        let mut roomy = QueryService::open(&dir).cache_budget(u64::MAX).build()?;
        let _ = roomy.point(2, v4(1))?;

        for q in [&mut tight, &mut roomy] {
            assert_eq!(q.history(v4(1))?, vec![(1, true, true), (2, true, true)]);
            assert_eq!(q.diff(1, 2)?.footprint_changes.len(), 1);
        }
        let a = tight.asn_ranking(2)?;
        let b = roomy.asn_ranking(2)?;
        assert_eq!(a, b);
        assert!(tight.telemetry().counter("query.cache_evictions") > 0);

        // Clearing the cache never changes answers.
        let before = roomy.daily_confirmed_counts()?;
        roomy.clear_cache();
        assert_eq!(roomy.daily_confirmed_counts()?, before);
        Ok(())
    }

    #[test]
    fn builder_validates_day_set() -> Result<(), AnyError> {
        let dir = two_day_store("dayset")?;
        assert!(matches!(
            QueryService::open(&dir).days([1, 7]).build(),
            Err(QueryError::MissingIndex { day: 7, .. })
        ));
        let mut q = QueryService::open(&dir).days([2]).build()?;
        assert_eq!(q.days(), &[2]);
        assert!(matches!(
            q.point(1, v4(1)),
            Err(QueryError::UnknownDay { day: 1 })
        ));
        let empty = tmpdir("empty")?;
        assert!(matches!(
            QueryService::open(&empty).build(),
            Err(QueryError::NoDays)
        ));
        Ok(())
    }

    #[test]
    fn foreign_files_are_not_indexed_days() -> Result<(), AnyError> {
        let dir = tmpdir("foreign")?;
        write_day(&dir, 3, &[(v4(1), true, false, &[], None)])?;
        for name in [
            "census-day-00004.idx.tmp",
            "census-day-abc.idx",
            "census-day-+0005.idx",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"junk")?;
        }
        std::fs::create_dir_all(dir.join("census-day-00006.idx"))?;
        let q = QueryService::open(&dir).build()?;
        assert_eq!(q.days(), &[3]);
        Ok(())
    }

    /// Only a missing index is `MissingIndex`: a missing record file is
    /// an i/o error on that file, and the index still answers.
    #[test]
    fn missing_record_file_is_an_io_error() -> Result<(), AnyError> {
        let dir = two_day_store("no-jsonl")?;
        let jsonl = dir.join("census-day-00002.jsonl");
        std::fs::remove_file(&jsonl)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(q.point(2, v4(3))?.is_some());
        match q.record_json(2, v4(3)) {
            Err(QueryError::Io { path, source }) => {
                assert_eq!(path, jsonl);
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("expected Io on the record file, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn corrupt_sidecar_is_reported_with_day() -> Result<(), AnyError> {
        let dir = tmpdir("corrupt")?;
        write_day(&dir, 9, &[(v4(1), true, true, &["Oslo"], Some(1))])?;
        let path = dir.join(Artifact::Index.file_name(9));
        let mut bytes = std::fs::read(&path)?;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a summary byte → section fp mismatch
        std::fs::write(&path, bytes)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(q.point(9, v4(1))?.is_some(), "prefix table intact");
        assert!(matches!(
            q.summary(9),
            Err(QueryError::Corrupt { day: 9, .. })
        ));
        Ok(())
    }
}
