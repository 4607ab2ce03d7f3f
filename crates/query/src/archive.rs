//! The census archive, shared by every reader of a store: the per-day
//! file names ([`Artifact`]), the one rule for which days exist
//! ([`discover`]), and a byte-budgeted LRU of decoded sections
//! ([`Archive`]). [`QueryService`](crate::QueryService) is a view over the
//! index sidecars, the census crate's health service a view over the
//! `health.series` sidecars, and `CensusStore::days()` lists the records.

use std::any::Any;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use laces_obs::RunReport;

use crate::error::QueryError;
use crate::idx::N_SECTIONS;

/// One of the per-day files a census store publishes, each named
/// `census-day-NNNNN.<suffix>` with at least five digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The published records, one JSON line each.
    Records,
    /// The binary query index sidecar (see [`idx`](crate::idx)).
    Index,
    /// The census stats sidecar.
    Stats,
    /// The day's telemetry as JSON lines.
    Telemetry,
    /// The flight-recorder event log, written when the day ran traced.
    Trace,
    /// The Chrome trace-event file, written when the day ran traced.
    ChromeTrace,
    /// The longitudinal health point (`laces-health`'s `DaySeries`).
    HealthSeries,
}

impl Artifact {
    fn suffix(self) -> &'static str {
        match self {
            Artifact::Records => "jsonl",
            Artifact::Index => "idx",
            Artifact::Stats => "stats.json",
            Artifact::Telemetry => "telemetry.jsonl",
            Artifact::Trace => "trace.jsonl",
            Artifact::ChromeTrace => "trace.chrome.json",
            Artifact::HealthSeries => "health.series",
        }
    }

    /// The artifact's file name for `day`.
    pub fn file_name(self, day: u32) -> String {
        format!("census-day-{day:05}.{}", self.suffix())
    }

    /// The day a file name belongs to, when it is exactly this artifact's
    /// name: `census-day-`, five or more ASCII digits, `.`, the suffix.
    /// Temp files, other artifacts and foreign names never parse.
    fn day_of(self, name: &str) -> Option<u32> {
        let digits = name
            .strip_prefix("census-day-")?
            .strip_suffix(self.suffix())?
            .strip_suffix('.')?;
        if digits.len() < 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }
}

/// The days of `dir` that have `artifact`, ascending: only regular files
/// with the artifact's exact name count, so subdirectories, in-flight
/// `*.tmp` files and foreign files never invent or hide a day.
pub fn discover(dir: &Path, artifact: Artifact) -> std::io::Result<Vec<u32>> {
    let mut days = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type().is_ok_and(|t| t.is_file()) {
            continue;
        }
        if let Some(day) = artifact.day_of(&entry.file_name().to_string_lossy()) {
            days.push(day);
        }
    }
    days.sort_unstable();
    days.dedup();
    Ok(days)
}

/// The metric names an archive records its cache behaviour under. Each
/// view passes its own registered names (`laces_obs::names`).
#[derive(Debug, Clone, Copy)]
pub struct CacheNames {
    /// Counter: a section was served from the cache.
    pub hits: &'static str,
    /// Counter: a section had to be loaded.
    pub misses: &'static str,
    /// Counter: a day was evicted to stay under budget.
    pub evictions: &'static str,
    /// Counter: a day went from holding nothing to holding a section.
    pub days_opened: &'static str,
    /// Gauge: bytes of sections resident.
    pub resident_bytes: &'static str,
    /// Gauge: days holding at least one section.
    pub resident_days: &'static str,
}

/// Section slots per day: the index's sections plus its header, the most
/// any view caches for one day.
const SLOTS: usize = N_SECTIONS + 1;

/// One day's cached sections. A slot always holds the type the view that
/// names it stores there.
#[derive(Debug, Default)]
struct DayCache {
    slots: [Option<Arc<dyn Any + Send + Sync>>; SLOTS],
    resident: u64,
    last_touch: u64,
}

/// One view's days over a store directory, with a byte-budgeted LRU of
/// decoded sections keyed by (day, section). Sections load lazily; the
/// budget changes how much is read, never an answer.
#[derive(Debug)]
pub struct Archive {
    dir: PathBuf,
    days: Vec<u32>,
    cache: Vec<DayCache>,
    budget: u64,
    resident_bytes: u64,
    clock: u64,
    names: CacheNames,
    telemetry: RunReport,
}

impl Archive {
    /// Open the days of `dir` that have `artifact`: all of them, or the
    /// `select`ed ones, each of which must exist (else
    /// [`QueryError::MissingIndex`] for the first absent day). An empty
    /// selection is [`QueryError::NoDays`]. Nothing is read yet.
    pub fn open(
        dir: PathBuf,
        artifact: Artifact,
        select: Option<Vec<u32>>,
        budget: u64,
        names: CacheNames,
    ) -> Result<Archive, QueryError> {
        let available = discover(&dir, artifact).map_err(|source| QueryError::Io {
            path: dir.clone(),
            source,
        })?;
        let days = match select {
            Some(mut requested) => {
                requested.sort_unstable();
                requested.dedup();
                if let Some(&day) = requested
                    .iter()
                    .find(|d| available.binary_search(d).is_err())
                {
                    return Err(QueryError::MissingIndex {
                        day,
                        path: dir.join(artifact.file_name(day)),
                    });
                }
                requested
            }
            None => available,
        };
        if days.is_empty() {
            return Err(QueryError::NoDays);
        }
        Ok(Archive {
            dir,
            cache: days.iter().map(|_| DayCache::default()).collect(),
            days,
            budget,
            resident_bytes: 0,
            clock: 0,
            names,
            telemetry: RunReport::new(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The selected days, ascending.
    pub fn days(&self) -> &[u32] {
        &self.days
    }

    /// Where `day` sits in [`days`](Self::days), when selected.
    pub fn position(&self, day: u32) -> Option<usize> {
        self.days.binary_search(&day).ok()
    }

    /// The path of one of a day's files.
    pub fn file(&self, artifact: Artifact, day: u32) -> PathBuf {
        self.dir.join(artifact.file_name(day))
    }

    /// The view's telemetry: the cache's counters and gauges plus
    /// whatever the view counts through [`inc`](Self::inc).
    pub fn telemetry(&self) -> &RunReport {
        &self.telemetry
    }

    /// Add `n` to one of the view's counters.
    pub fn inc(&mut self, name: &'static str, n: u64) {
        self.telemetry.inc(name, n);
    }

    /// Section `section` of the day at `pos` (from
    /// [`position`](Self::position)): the cached value, or what `load`
    /// returns (the value and its size in bytes), which is then cached
    /// under the budget. A day has one slot per index section plus one
    /// for the header. `load` gets the archive, so it can fetch other
    /// sections of the same day, such as a header, through `get`.
    pub fn get<T, E>(
        &mut self,
        pos: usize,
        section: usize,
        load: impl FnOnce(&mut Archive) -> Result<(T, u64), E>,
    ) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
    {
        self.clock += 1;
        self.cache[pos].last_touch = self.clock;
        let cached = self.cache[pos].slots[section].clone();
        if let Some(hit) = cached.and_then(|s| s.downcast::<T>().ok()) {
            self.telemetry.inc(self.names.hits, 1);
            return Ok(hit);
        }
        self.telemetry.inc(self.names.misses, 1);
        let (value, bytes) = load(self)?;
        let value = Arc::new(value);
        let day = &mut self.cache[pos];
        if day.resident == 0 {
            self.telemetry.inc(self.names.days_opened, 1);
        }
        day.slots[section] = Some(Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        day.resident += bytes;
        self.resident_bytes += bytes;
        self.evict_over_budget(pos);
        Ok(value)
    }

    /// Evict whole days, least recently touched first, until the budget
    /// holds. The day at `protect` (the one being served) stays, so a
    /// single day larger than the budget still works.
    fn evict_over_budget(&mut self, protect: usize) {
        while self.resident_bytes > self.budget {
            let victim = self
                .cache
                .iter()
                .enumerate()
                .filter(|(i, d)| *i != protect && d.resident > 0)
                .min_by_key(|(_, d)| d.last_touch)
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            self.resident_bytes -= std::mem::take(&mut self.cache[v]).resident;
            self.telemetry.inc(self.names.evictions, 1);
        }
        self.update_gauges();
    }

    /// Drop every cached section (the cache, not the day set).
    pub fn clear(&mut self) {
        self.cache.fill_with(DayCache::default);
        self.resident_bytes = 0;
        self.update_gauges();
    }

    fn update_gauges(&mut self) {
        self.telemetry
            .set_gauge(self.names.resident_bytes, self.resident_bytes);
        let resident_days = self.cache.iter().filter(|d| d.resident > 0).count();
        self.telemetry
            .set_gauge(self.names.resident_days, resident_days as u64);
    }

    /// Read `len` bytes at `offset` of one of a day's files: the read
    /// path's only partial file access, so nothing reads a whole day
    /// file. A missing index is [`QueryError::MissingIndex`]; any other
    /// failure to open is [`QueryError::Io`] on that file, and a short
    /// read is [`QueryError::Corrupt`].
    pub fn read_at(
        &self,
        artifact: Artifact,
        day: u32,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, QueryError> {
        let path = self.file(artifact, day);
        let map_io = |source: std::io::Error| {
            if artifact == Artifact::Index && source.kind() == std::io::ErrorKind::NotFound {
                QueryError::MissingIndex {
                    day,
                    path: path.clone(),
                }
            } else {
                QueryError::Io {
                    path: path.clone(),
                    source,
                }
            }
        };
        let mut f = std::fs::File::open(&path).map_err(map_io)?;
        f.seek(SeekFrom::Start(offset)).map_err(map_io)?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)
            .map_err(|source| QueryError::Corrupt {
                day,
                detail: format!(
                    "short read at {offset}+{len} of {}: {source}",
                    path.display()
                ),
            })?;
        Ok(buf)
    }
}
