//! On-disk census store: the public-repository layer.
//!
//! The paper publishes each day's census to a public Git repository as
//! structured records. This store writes one JSON-lines file per day plus
//! sidecars — a stats file, greppable JSONL telemetry, optional
//! flight-recorder traces, and the binary query index
//! (`census-day-NNNNN.idx`, see `laces_query::idx`) that the
//! [`QueryService`](laces_query::QueryService) read path is built on.
//!
//! Every artifact is written atomically (tempfile + fsync + rename), so a
//! crashed publish can never leave a half-written day for the query
//! service to index. Every failure is a structured [`StoreError`] carrying
//! the path and day involved, not a context-free `io::Error`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use laces_obs::{DegradedReason, HistogramSnapshot, RunReport, StageReport};
use laces_query::{build_index, discover, Artifact, IndexRecord, QueryError, SummaryInput};
use serde::{Deserialize, Value};

use crate::record::{CensusRecord, CensusStats, DailyCensus};

/// A failure on the store's read or write path, with the file and day it
/// concerns attached.
#[derive(Debug)]
pub enum StoreError {
    /// The OS-level operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The day involved, when the operation was day-scoped.
        day: Option<u32>,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A stored artifact failed to parse.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The day involved.
        day: u32,
        /// What was wrong.
        detail: String,
    },
    /// Building or validating the day's query index failed.
    Index(QueryError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, day, source } => match day {
                Some(day) => write!(f, "day {day}: i/o error on {}: {source}", path.display()),
                None => write!(f, "i/o error on {}: {source}", path.display()),
            },
            StoreError::Parse { path, day, detail } => {
                write!(f, "day {day}: cannot parse {}: {detail}", path.display())
            }
            StoreError::Index(e) => write!(f, "query index: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Index(e) => Some(e),
            StoreError::Parse { .. } => None,
        }
    }
}

impl From<QueryError> for StoreError {
    fn from(e: QueryError) -> Self {
        StoreError::Index(e)
    }
}

/// A directory of daily censuses.
#[derive(Debug, Clone)]
pub struct CensusStore {
    dir: PathBuf,
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, fsync it,
/// then rename over the destination. Readers (and the query service)
/// either see the old complete file or the new complete file, never a
/// torn write.
fn write_atomic(path: &Path, bytes: &[u8], day: u32) -> Result<(), StoreError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let io_err = |p: &Path, source: std::io::Error| StoreError::Io {
        path: p.to_path_buf(),
        day: Some(day),
        source,
    };
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// What the day's index needs to know about one record, given its byte
/// span in the JSONL.
fn index_record(r: &CensusRecord, offset: u64, len: u32) -> IndexRecord {
    IndexRecord {
        prefix: r.prefix,
        offset,
        len,
        anycast_based_positive: r.anycast_based_positive(),
        gcd_confirmed: r.gcd_confirmed(),
        has_gcd: r.gcd.is_some(),
        partial: r.partial,
        max_vps: r.max_vps(),
        n_sites: r.gcd.as_ref().map(|g| g.n_sites).unwrap_or(0),
        origin_asn: r.origin_asn,
        cities: r.gcd.as_ref().map(|g| g.cities.clone()).unwrap_or_default(),
    }
}

impl CensusStore {
    /// Open (creating the directory if needed).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            day: None,
            source,
        })?;
        Ok(CensusStore { dir })
    }

    fn path_of(&self, artifact: Artifact, day: u32) -> PathBuf {
        self.dir.join(artifact.file_name(day))
    }

    /// Persist one day's census: the records, the query-index sidecar
    /// (built from the exact byte spans just serialised), the stats
    /// sidecar, the day's telemetry as JSON lines (one metric, stage or
    /// degradation event per line — greppable without parsing the whole
    /// stats file), and — when the day ran with tracing enabled — the
    /// flight-recorder sidecars (JSONL event log plus a Chrome trace-event
    /// file for flamegraph viewers). Each artifact is written atomically.
    pub fn save(&self, census: &DailyCensus) -> Result<(), StoreError> {
        let day = census.day;
        let (jsonl, spans) = census.to_jsonl_with_spans();
        let index_records: Vec<IndexRecord> = census
            .records
            .values()
            .zip(&spans)
            .map(|(r, (_, offset, len))| index_record(r, *offset, *len))
            .collect();
        let idx = build_index(
            day,
            &index_records,
            SummaryInput {
                anycast_probes: census.stats.anycast_probes,
                gcd_probes: census.stats.gcd_probes,
                gcd_target_count: census.stats.gcd_target_count as u64,
                degraded: census.degraded(),
            },
        )?;
        write_atomic(&self.path_of(Artifact::Records, day), jsonl.as_bytes(), day)?;
        write_atomic(&self.path_of(Artifact::Index, day), &idx, day)?;
        let stats = serde_json::to_string_pretty(&census.stats).map_err(|e| StoreError::Parse {
            path: self.path_of(Artifact::Stats, day),
            day,
            detail: format!("stats do not serialise: {e}"),
        })?;
        write_atomic(&self.path_of(Artifact::Stats, day), stats.as_bytes(), day)?;
        write_atomic(
            &self.path_of(Artifact::Telemetry, day),
            census.stats.telemetry.to_jsonl().as_bytes(),
            day,
        )?;
        if census.stats.trace_report.enabled {
            write_atomic(
                &self.path_of(Artifact::Trace, day),
                census.stats.trace_report.to_jsonl().as_bytes(),
                day,
            )?;
            write_atomic(
                &self.path_of(Artifact::ChromeTrace, day),
                census.stats.trace_report.to_chrome_json().as_bytes(),
                day,
            )?;
        }
        let series = laces_health::DaySeries::derive(
            day,
            &census.stats.telemetry,
            &census.stats.trace_report,
            &laces_health::SeriesInput {
                anycast_probes: census.stats.anycast_probes,
                gcd_probes: census.stats.gcd_probes,
                ats_per_protocol: census
                    .stats
                    .ats_per_protocol
                    .iter()
                    .map(|(k, v)| (k.clone(), *v as u64))
                    .collect(),
                gcd_target_count: census.stats.gcd_target_count as u64,
                published: census.records.len() as u64,
            },
        );
        write_atomic(
            &self.path_of(Artifact::HealthSeries, day),
            series.encode().as_bytes(),
            day,
        )?;
        Ok(())
    }

    /// Rebuild the query-index sidecar for an already-stored day — the
    /// migration path for stores written before the index existed (or by
    /// an older index version). Reads the day's JSONL, recovers each
    /// record's byte span, and writes a fresh sidecar atomically.
    pub fn reindex(&self, day: u32) -> Result<(), StoreError> {
        let path = self.path_of(Artifact::Records, day);
        let body = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            day: Some(day),
            source,
        })?;
        let mut by_prefix: BTreeMap<laces_packet::PrefixKey, IndexRecord> = BTreeMap::new();
        let mut offset = 0u64;
        for line in body.split_inclusive('\n') {
            let record = line.trim_end_matches('\n');
            if !record.trim().is_empty() {
                let r: CensusRecord =
                    serde_json::from_str(record).map_err(|e| StoreError::Parse {
                        path: path.clone(),
                        day,
                        detail: format!("record at byte {offset}: {e}"),
                    })?;
                by_prefix.insert(r.prefix, index_record(&r, offset, record.len() as u32));
            }
            offset += line.len() as u64;
        }
        let records: Vec<IndexRecord> = by_prefix.into_values().collect();
        // Without a stats sidecar the summary's probe counters are zero
        // but the per-record sections are exact.
        let stats = self.read_stats(day)?.unwrap_or_default();
        let degraded = !stats.telemetry.degraded_reasons().is_empty();
        let idx = build_index(
            day,
            &records,
            SummaryInput {
                anycast_probes: stats.anycast_probes,
                gcd_probes: stats.gcd_probes,
                gcd_target_count: stats.gcd_target_count as u64,
                degraded,
            },
        )?;
        write_atomic(&self.path_of(Artifact::Index, day), &idx, day)
    }

    /// Start building a [`QueryService`](laces_query::QueryService) over
    /// this store: `store.query().days(..).cache_budget(..).build()?`.
    pub fn query(&self) -> laces_query::QueryServiceBuilder {
        laces_query::QueryService::open(&self.dir)
    }

    /// Start building a [`HealthService`](crate::health::HealthService)
    /// over this store's `health.series` sidecars:
    /// `store.health().days(..).cache_budget(..).build()?`.
    pub fn health(&self) -> crate::health::HealthServiceBuilder {
        crate::health::HealthService::open(&self.dir)
    }

    /// Read one day's `health.series` sidecar directly — the light-weight
    /// path when a [`HealthService`](crate::health::HealthService) handle
    /// is not needed.
    pub fn load_health(&self, day: u32) -> Result<laces_health::DaySeries, StoreError> {
        let path = self.path_of(Artifact::HealthSeries, day);
        let text = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            day: Some(day),
            source,
        })?;
        laces_health::DaySeries::decode(&text).map_err(|detail| StoreError::Parse {
            path,
            day,
            detail,
        })
    }

    /// Read a day's telemetry sidecar back into a [`RunReport`] — the
    /// consumer-side pairing of the writer in [`save`](Self::save). The
    /// sidecar is the DESIGN.md §10 JSONL schema: one object per line with
    /// a `kind` discriminator of `counter`, `gauge`, `histogram`, `stage`
    /// or `degraded`. Unknown kinds are rejected so schema drift fails
    /// loudly instead of silently dropping metrics.
    pub fn load_telemetry(&self, day: u32) -> Result<RunReport, StoreError> {
        let path = self.path_of(Artifact::Telemetry, day);
        let body = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            day: Some(day),
            source,
        })?;
        let bad = |msg: String| StoreError::Parse {
            path: path.clone(),
            day,
            detail: msg,
        };
        let mut report = RunReport::new();
        for (lineno, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| bad(format!("telemetry line {}: {e}", lineno + 1)))?;
            let field = |key: &str| {
                v.get(key)
                    .ok_or_else(|| bad(format!("telemetry line {}: missing `{key}`", lineno + 1)))
            };
            let name = |key: &str| -> Result<String, StoreError> {
                match field(key)? {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(bad(format!(
                        "telemetry line {}: `{key}` is not a string: {other:?}",
                        lineno + 1
                    ))),
                }
            };
            let metric = |key: &str| -> Result<u64, StoreError> {
                match field(key)? {
                    Value::UInt(n) => Ok(*n as u64),
                    other => Err(bad(format!(
                        "telemetry line {}: `{key}` is not an unsigned integer: {other:?}",
                        lineno + 1
                    ))),
                }
            };
            match name("kind")?.as_str() {
                "counter" => {
                    report.counters.insert(name("name")?, metric("value")?);
                }
                "gauge" => {
                    report.gauges.insert(name("name")?, metric("value")?);
                }
                "histogram" => {
                    let snapshot = HistogramSnapshot::from_value(field("snapshot")?)
                        .map_err(|e| bad(format!("telemetry line {}: {e}", lineno + 1)))?;
                    report.histograms.insert(name("name")?, snapshot);
                }
                "stage" => {
                    let stage = StageReport::from_value(field("stage")?)
                        .map_err(|e| bad(format!("telemetry line {}: {e}", lineno + 1)))?;
                    report.stages.push(stage);
                }
                "degraded" => {
                    let reason = DegradedReason::from_value(field("reason")?)
                        .map_err(|e| bad(format!("telemetry line {}: {e}", lineno + 1)))?;
                    // add_degraded keeps the sorted+dedup invariant the
                    // writer relied on, so the round trip is exact.
                    report.add_degraded(reason);
                }
                other => {
                    return Err(bad(format!(
                        "telemetry line {}: unknown kind `{other}`",
                        lineno + 1
                    )));
                }
            }
        }
        Ok(report)
    }

    /// Load one day. Without a stats sidecar the day loads with default
    /// stats; a sidecar that cannot be read or parsed is an error.
    pub fn load(&self, day: u32) -> Result<DailyCensus, StoreError> {
        let path = self.path_of(Artifact::Records, day);
        let body = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            day: Some(day),
            source,
        })?;
        let mut census = DailyCensus::from_jsonl(day, &body).map_err(|e| StoreError::Parse {
            path: path.clone(),
            day,
            detail: e.to_string(),
        })?;
        if let Some(stats) = self.read_stats(day)? {
            census.stats = stats;
        }
        Ok(census)
    }

    /// The day's stats sidecar, or `None` when there is none. The sidecar
    /// is optional, but one that exists and cannot be read or parsed is an
    /// error: reading it as absent would make a degraded day look clean.
    fn read_stats(&self, day: u32) -> Result<Option<CensusStats>, StoreError> {
        let path = self.path_of(Artifact::Stats, day);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(source) => {
                return Err(StoreError::Io {
                    path,
                    day: Some(day),
                    source,
                })
            }
        };
        serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| StoreError::Parse {
                path,
                day,
                detail: e.to_string(),
            })
    }

    /// Days present in the store, ascending: the regular files named
    /// exactly `census-day-NNNNN.jsonl` ([`discover`] over
    /// [`Artifact::Records`]), so the store's own sidecars, in-flight
    /// `*.tmp` files from [`save`](Self::save), subdirectories and foreign
    /// files never invent or hide days.
    pub fn days(&self) -> Result<Vec<u32>, StoreError> {
        discover(&self.dir, Artifact::Records).map_err(|source| StoreError::Io {
            path: self.dir.clone(),
            day: None,
            source,
        })
    }

    /// Directory backing the store.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl AsRef<Path> for CensusStore {
    fn as_ref(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CensusRecord, GcdSummary};
    use laces_core::classify::Class;
    use laces_gcd::GcdClass;
    use laces_obs::fnv1a;
    use laces_packet::{PrefixKey, Protocol};
    use std::collections::BTreeMap as Map;

    fn sample_census(day: u32, n: u32) -> DailyCensus {
        let mut records = Map::new();
        for i in 0..n {
            let prefix = PrefixKey::V4(laces_packet::Prefix24::from_network((i + 1) << 8));
            let mut anycast_based = Map::new();
            anycast_based.insert(
                Protocol::Icmp,
                Class::Anycast {
                    n_vps: 3 + i as usize,
                },
            );
            records.insert(
                prefix,
                CensusRecord {
                    prefix,
                    anycast_based,
                    gcd: Some(GcdSummary {
                        class: if i % 2 == 0 {
                            GcdClass::Anycast
                        } else {
                            GcdClass::Unicast
                        },
                        n_sites: 2,
                        cities: vec!["Tokyo".into()],
                    }),
                    partial: false,
                    origin_asn: Some(64_500 + i % 2),
                },
            );
        }
        DailyCensus {
            day,
            records,
            stats: CensusStats::default(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("laces-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Shorthand for the error half of the Result-returning tests below:
    /// store, io and serde errors all propagate via `?`.
    type AnyError = Box<dyn std::error::Error>;

    #[test]
    fn save_load_roundtrip() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("roundtrip"))?;
        let mut census = sample_census(3, 5);
        census.stats.telemetry.inc("census.test_counter", 7);
        store.save(&census)?;
        let back = store.load(3)?;
        assert_eq!(back.records, census.records);
        assert_eq!(back.day, 3);
        assert_eq!(back.stats.telemetry.counter("census.test_counter"), 7);
        // The telemetry sidecar is written alongside the records.
        let telemetry =
            std::fs::read_to_string(store.path().join("census-day-00003.telemetry.jsonl"))?;
        assert!(telemetry.contains("census.test_counter"));
        for line in telemetry.lines() {
            serde_json::from_str::<serde::Value>(line)?;
        }
        Ok(())
    }

    /// `save` writes the query-index sidecar, and the indexed answers
    /// match the records just saved.
    #[test]
    fn save_writes_queryable_index() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("idx"))?;
        let census = sample_census(2, 4);
        store.save(&census)?;
        assert!(store.path().join("census-day-00002.idx").exists());
        let mut q = store.query().build()?;
        assert_eq!(q.days(), &[2]);
        for r in census.records.values() {
            let p = q.point(2, r.prefix)?.expect("saved prefix is indexed");
            assert_eq!(p.anycast_based_positive, r.anycast_based_positive());
            assert_eq!(p.gcd_confirmed, r.gcd_confirmed());
            assert_eq!(p.origin_asn, r.origin_asn);
            let line = q
                .record_json(2, r.prefix)?
                .expect("saved prefix has a record line");
            let back: CensusRecord = serde_json::from_str(&line)?;
            assert_eq!(&back, r);
        }
        Ok(())
    }

    /// `reindex` rebuilds a deleted sidecar byte-identically to the one
    /// `save` wrote (minus summary fields the stats sidecar supplies).
    #[test]
    fn reindex_rebuilds_identical_sidecar() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("reindex"))?;
        let census = sample_census(6, 3);
        store.save(&census)?;
        let idx_path = store.path().join("census-day-00006.idx");
        let original = std::fs::read(&idx_path)?;
        std::fs::remove_file(&idx_path)?;
        store.reindex(6)?;
        assert_eq!(std::fs::read(&idx_path)?, original);
        Ok(())
    }

    /// Pins the DESIGN.md §10 telemetry sidecar schema: every line kind the
    /// writer emits (`counter`, `gauge`, `histogram`, `stage`, `degraded`)
    /// must survive a save→`load_telemetry` round trip bit-for-bit.
    #[test]
    fn telemetry_save_load_roundtrip() -> Result<(), AnyError> {
        use laces_obs::{DegradedReason, Histogram, StageReport};

        let store = CensusStore::open(tmpdir("telemetry-roundtrip"))?;
        let mut census = sample_census(7, 2);
        let t = &mut census.stats.telemetry;
        t.inc("orchestrator.orders_streamed", 128);
        t.inc("worker.000.probes_sent", 64);
        t.set_gauge("gcd.n_vps", 9);
        let mut h = Histogram::new(&[10, 100]);
        h.observe(4);
        h.observe(40);
        h.observe(400);
        t.record_histogram("fabric.rtt_ms", h.snapshot());
        t.push_stage(StageReport {
            name: "anycast:ICMPv4".to_string(),
            start_ms: 0,
            sim_ms: 1_250,
            counters: [("targets".to_string(), 120u64)].into_iter().collect(),
            children: vec![StageReport {
                name: "classify".to_string(),
                start_ms: 1_200,
                sim_ms: 50,
                counters: Map::new(),
                children: Vec::new(),
            }],
        });
        t.add_degraded(DegradedReason::WorkerCrashed { worker: 3 });
        t.add_degraded(DegradedReason::GcdChunkLost { targets: 17 });

        store.save(&census)?;
        let back = store.load_telemetry(7)?;
        assert_eq!(back, census.stats.telemetry);

        // Schema drift fails loudly rather than dropping lines.
        std::fs::write(
            store.path().join("census-day-00007.telemetry.jsonl"),
            "{\"kind\":\"surprise\",\"name\":\"x\"}\n",
        )?;
        let err = store.load_telemetry(7).unwrap_err();
        assert!(matches!(err, StoreError::Parse { day: 7, .. }));
        assert!(err.to_string().contains("unknown kind"));
        assert!(err.to_string().contains("census-day-00007.telemetry.jsonl"));
        Ok(())
    }

    /// A damaged stats sidecar must not read as a clean day: `load` and
    /// `reindex` reject it with a `Parse` error naming the file. Only a
    /// missing sidecar is optional.
    #[test]
    fn damaged_stats_sidecar_is_an_error_and_a_missing_one_is_not() -> Result<(), AnyError> {
        use laces_obs::DegradedReason;

        let store = CensusStore::open(tmpdir("stats-damaged"))?;
        let mut census = sample_census(4, 3);
        census
            .stats
            .telemetry
            .add_degraded(DegradedReason::WorkerCrashed { worker: 3 });
        store.save(&census)?;
        assert!(store.load(4)?.degraded());

        let stats_path = store.path().join("census-day-00004.stats.json");
        let idx_path = store.path().join("census-day-00004.idx");
        std::fs::write(&stats_path, "{")?;
        std::fs::remove_file(&idx_path)?;
        for err in [store.load(4).unwrap_err(), store.reindex(4).unwrap_err()] {
            assert!(matches!(err, StoreError::Parse { day: 4, .. }), "{err}");
            assert!(err.to_string().contains("census-day-00004.stats.json"));
        }
        assert!(!idx_path.exists(), "a failed reindex writes no index");

        std::fs::remove_file(&stats_path)?;
        assert!(!store.load(4)?.degraded());
        store.reindex(4)?;
        assert!(idx_path.exists());
        Ok(())
    }

    #[test]
    fn missing_telemetry_sidecar_errors() -> Result<(), StoreError> {
        let store = CensusStore::open(tmpdir("telemetry-missing"))?;
        let err = store.load_telemetry(42).unwrap_err();
        assert!(matches!(err, StoreError::Io { day: Some(42), .. }));
        Ok(())
    }

    #[test]
    fn trace_sidecars_written_only_when_enabled() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("trace-sidecar"))?;
        let mut census = sample_census(4, 1);
        store.save(&census)?;
        assert!(!store.path().join("census-day-00004.trace.jsonl").exists());

        census.stats.trace_report.enabled = true;
        census.stats.trace_report.seed = 0xC0FFEE;
        store.save(&census)?;
        let jsonl = std::fs::read_to_string(store.path().join("census-day-00004.trace.jsonl"))?;
        assert!(jsonl.contains("\"kind\":\"trace\""));
        let chrome =
            std::fs::read_to_string(store.path().join("census-day-00004.trace.chrome.json"))?;
        serde_json::from_str::<serde::Value>(&chrome)?;
        Ok(())
    }

    #[test]
    fn days_and_load_all_are_ordered() -> Result<(), StoreError> {
        let store = CensusStore::open(tmpdir("ordered"))?;
        for day in [5u32, 1, 3] {
            store.save(&sample_census(day, 2))?;
        }
        assert_eq!(store.days()?, vec![1, 3, 5]);
        for day in store.days()? {
            assert_eq!(store.load(day)?.day, day);
        }
        Ok(())
    }

    /// Regression: the store's own sidecars, in-flight tempfiles,
    /// subdirectories and foreign files must never parse as days.
    #[test]
    fn days_skips_foreign_and_partial_files() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("polluted"))?;
        store.save(&sample_census(1, 2))?;
        store.save(&sample_census(12345, 1))?;
        for name in [
            "census-day-00002.jsonl.tmp", // torn write left behind
            "census-day-abc.jsonl",       // non-numeric
            "census-day-+0003.jsonl",     // `parse` would accept "+0003"
            "census-day-4.jsonl",         // too few digits
            "census-day-00005.jsonl.bak", // wrong suffix
            "readme.txt",                 // foreign
        ] {
            std::fs::write(store.path().join(name), b"junk")?;
        }
        // A subdirectory whose *name* matches the day pattern.
        std::fs::create_dir_all(store.path().join("census-day-00009.jsonl"))?;
        assert_eq!(store.days()?, vec![1, 12345]);
        Ok(())
    }

    /// A simulated torn write: the `.tmp` stays, the final file is either
    /// absent or the previous complete version, and `days()`/`save` are
    /// unaffected.
    #[test]
    fn torn_write_leaves_no_half_day() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("torn"))?;
        let census = sample_census(5, 3);
        // Crash mid-publish: only the tempfile made it to disk.
        let (jsonl, _) = census.to_jsonl_with_spans();
        let half = &jsonl.as_bytes()[..jsonl.len() / 2];
        std::fs::write(store.path().join("census-day-00005.jsonl.tmp"), half)?;
        assert_eq!(store.days()?, Vec::<u32>::new());
        assert!(store.query().build().is_err(), "nothing indexed yet");

        // A later successful publish replaces the tempfile cleanly.
        store.save(&census)?;
        assert_eq!(store.days()?, vec![5]);
        for entry in std::fs::read_dir(store.path())? {
            let name = entry?.file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "tempfile {name:?} left behind"
            );
        }
        let back = store.load(5)?;
        assert_eq!(back.records, census.records);
        Ok(())
    }

    #[test]
    fn missing_day_errors_with_context() -> Result<(), StoreError> {
        let store = CensusStore::open(tmpdir("missing"))?;
        let err = store.load(99).unwrap_err();
        assert!(matches!(err, StoreError::Io { day: Some(99), .. }));
        assert!(err.to_string().contains("census-day-00099.jsonl"));
        Ok(())
    }

    #[test]
    fn parse_error_names_the_file() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("parse-err"))?;
        std::fs::write(store.path().join("census-day-00008.jsonl"), "not json\n")?;
        let err = store.load(8).unwrap_err();
        assert!(matches!(err, StoreError::Parse { day: 8, .. }));
        assert!(err.to_string().contains("census-day-00008.jsonl"));
        Ok(())
    }

    /// The read path's cache trajectory, frozen: a seeded mix of every
    /// query and health call over six saved days of different sizes,
    /// under budgets that force both services to evict. The answers'
    /// FNV-1a and every `query.*` and `health.*` counter and gauge must
    /// stay as recorded, so a change to the day cache's hit, miss,
    /// eviction or residency rules shows here.
    #[test]
    fn read_path_cache_trajectory_is_frozen() -> Result<(), AnyError> {
        let store = CensusStore::open(tmpdir("trajectory"))?;
        let days = [1u32, 2, 3, 5, 8, 13];
        for (day, n) in days.into_iter().zip([3u32, 12, 30, 7, 48, 20]) {
            let mut census = sample_census(day, n);
            let t = &mut census.stats.telemetry;
            t.inc("ICMPv4.fabric.replies_delivered", 900 + u64::from(day));
            if day == 8 {
                t.inc("ICMPv4.fabric.dropped", 60);
                t.add_degraded(DegradedReason::WorkerCrashed { worker: 2 });
            }
            store.save(&census)?;
        }
        let size = |day: u32, ext: &str| -> Result<u64, std::io::Error> {
            let path = store.path().join(format!("census-day-{day:05}.{ext}"));
            Ok(std::fs::metadata(path)?.len())
        };
        let mut index_bytes = 0;
        let mut series_max = 0;
        for day in days {
            index_bytes += size(day, "idx")?;
            series_max = series_max.max(size(day, "health.series")?);
        }
        let mut qs = store.query().cache_budget(index_bytes / 3).build()?;
        let mut hs = store.health().cache_budget(2 * series_max).build()?;
        let detectors = crate::health::DetectorConfig::standard(7);
        let metrics = ["published", "replies", "loss_permille", "attributed_loss"];

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut answers = String::new();
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let day = days[(state % 6) as usize];
            let prefix = PrefixKey::V4(laces_packet::Prefix24::from_network(
                ((state >> 8) % 50 + 1) as u32 * 256,
            ));
            let answer = match (state >> 32) % 10 {
                0 => format!("{:?}", qs.point(day, prefix)?),
                1 => format!("{:?}", qs.record_json(day, prefix)?),
                2 => format!("{:?}", qs.history(prefix)?),
                3 => format!("{:?}", qs.sites(day)?),
                4 => {
                    let i = (state >> 16) as usize % (days.len() - 1);
                    format!("{:?}", qs.diff(days[i], days[i + 1])?)
                }
                5 => format!("{:?}", qs.asn_ranking(day)?),
                6 => format!("{:?}", qs.summary(day)?),
                7 => {
                    let metric = metrics[(state >> 40) as usize % metrics.len()];
                    format!("{:?}", hs.metric_history(metric)?)
                }
                8 => format!("{:?}", hs.series(day)?),
                _ => format!("{:?}", hs.findings(&detectors)?),
            };
            answers.push_str(&answer);
            answers.push('\n');
        }

        let mut observed = vec![format!("answers={:#018x}", fnv1a(answers.as_bytes()))];
        for report in [qs.telemetry(), hs.telemetry()] {
            for (name, value) in report.counters.iter().chain(&report.gauges) {
                observed.push(format!("{name}={value}"));
            }
        }
        let frozen = [
            "answers=0x4d388a06dc918b38",
            "query.cache_evictions=396",
            // One hit fewer per section loaded than the per-service caches
            // this replaced: they looked the header up again after each
            // section load.
            "query.cache_hits=1707",
            "query.cache_misses=1071",
            "query.days_opened=399",
            "query.index_bytes_read=451962",
            "query.point_lookups=314",
            "query.record_bytes_read=1964",
            "query.sections_loaded=672",
            "query.resident_bytes=2653",
            "query.resident_days=3",
            "health.cache_evictions=455",
            "health.cache_hits=23",
            "health.cache_misses=457",
            "health.days_opened=457",
            "health.queries_served=74",
            "health.series_bytes_read=166503",
            "health.resident_bytes=799",
            "health.resident_days=2",
        ];
        assert_eq!(observed, frozen);
        Ok(())
    }
}
