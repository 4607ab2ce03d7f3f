//! The per-day binary index sidecar (`census-day-NNNNN.idx`).
//!
//! Written next to each day's JSONL at `CensusStore::save` time, the
//! sidecar lets a reader answer point lookups, histories, rankings, diffs
//! and per-site AT lists without deserialising the day — the JSONL is only
//! touched when a caller asks for a full record body, and then only the
//! one record's byte span is read.
//!
//! # Format, version 1 (all integers little-endian)
//!
//! ```text
//! header (184 bytes):
//!   0   magic            b"LACESIDX"
//!   8   version          u32   (see [`INDEX_VERSION`])
//!   12  day              u32
//!   16  n_records        u32
//!   20  n_cities         u32
//!   24  n_city_ids       u32
//!   28  n_asns           u32
//!   32  header_fp        u64   FNV-1a over the header with this field zeroed
//!   40  6 × section descriptor: offset u64, len u64, fp u64
//! sections, in file order:
//!   0 PREFIXES      n_records × 48-byte entries, strictly ascending by key
//!   1 CITY_STRS     sorted unique city names: u32 n, then (u32 len, utf8)*
//!   2 CITY_IDS      flat u32 array; each entry's city list is a span here
//!   3 CITY_POSTINGS n_cities × (u32 start, u32 count), u32 flat_len, flat u32*
//!   4 AS_POSTINGS   u32 n, n × (asn, v4, v6, start, count), u32 flat_len, flat u32*
//!   5 SUMMARY       day-level aggregates (see [`DaySummary`])
//! ```
//!
//! Each prefix entry is `(tag u8, net u128, offset u64, len u32, flags u8,
//! max_vps u32, n_sites u32, asn u32, city_first u32, city_count u16)`;
//! `tag` is 4 for a v4 `/24` and 6 for a v6 `/48`, so `(tag, net)` order is
//! exactly `PrefixKey`'s derived order. `offset`/`len` locate the record's
//! line in the day's JSONL (len excludes the trailing newline). Versioning
//! rule: any layout change bumps [`INDEX_VERSION`] and readers reject
//! other versions — sidecars are cheap to rebuild from the JSONL
//! (`CensusStore::reindex`), so there is no cross-version migration.

use std::collections::BTreeMap;

use laces_obs::fnv1a;
use laces_packet::{Prefix24, Prefix48, PrefixKey};

use crate::error::{QueryError, INDEX_VERSION};

/// Magic bytes opening every sidecar.
pub const INDEX_MAGIC: [u8; 8] = *b"LACESIDX";
/// Header size in bytes.
pub const HEADER_LEN: usize = 184;
/// One prefix-table entry's size in bytes.
pub const ENTRY_LEN: usize = 48;
/// Number of sections.
pub const N_SECTIONS: usize = 6;

/// Section indices into the header's descriptor table.
pub(crate) const SEC_PREFIXES: usize = 0;
pub(crate) const SEC_CITY_STRS: usize = 1;
pub(crate) const SEC_CITY_IDS: usize = 2;
pub(crate) const SEC_CITY_POSTINGS: usize = 3;
pub(crate) const SEC_AS_POSTINGS: usize = 4;
pub(crate) const SEC_SUMMARY: usize = 5;

/// Entry flag bits.
pub(crate) const FLAG_ANYCAST_BASED: u8 = 1 << 0;
pub(crate) const FLAG_GCD_CONFIRMED: u8 = 1 << 1;
pub(crate) const FLAG_HAS_GCD: u8 = 1 << 2;
pub(crate) const FLAG_PARTIAL: u8 = 1 << 3;
pub(crate) const FLAG_HAS_ASN: u8 = 1 << 4;

/// What the index needs to know about one published record. The census
/// store derives these while serialising the day's JSONL (offsets fall out
/// of the writer); tests build them by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRecord {
    /// The record's prefix.
    pub prefix: PrefixKey,
    /// Byte offset of the record's line in the day's JSONL.
    pub offset: u64,
    /// Line length in bytes, excluding the trailing newline.
    pub len: u32,
    /// Any anycast-based protocol verdict is anycast.
    pub anycast_based_positive: bool,
    /// GCD confirmed anycast.
    pub gcd_confirmed: bool,
    /// The record carries a GCD summary at all.
    pub has_gcd: bool,
    /// Partial-anycast flag.
    pub partial: bool,
    /// Maximum receiving-VP count across protocols.
    pub max_vps: usize,
    /// iGreedy-enumerated site count (0 without a GCD summary).
    pub n_sites: usize,
    /// Origin AS, when resolvable from the announcement tables.
    pub origin_asn: Option<u32>,
    /// Geolocated site cities, in record order.
    pub cities: Vec<String>,
}

/// Day-level aggregates embedded in the sidecar, so summary queries never
/// touch the JSONL or the full prefix table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaySummary {
    /// The day.
    pub day: u32,
    /// Published records.
    pub n_records: u64,
    /// Records with a positive anycast-based verdict.
    pub n_anycast_based: u64,
    /// Records confirmed anycast by GCD.
    pub n_gcd_confirmed: u64,
    /// Records flagged partial-anycast.
    pub n_partial: u64,
    /// Probes transmitted by the anycast-based stage.
    pub anycast_probes: u64,
    /// Probes transmitted by the GCD stage.
    pub gcd_probes: u64,
    /// Size of the GCD target set after AT feedback.
    pub gcd_target_count: u64,
    /// The day ran degraded (longitudinal consumers must not read
    /// absences on a degraded day as withdrawals).
    pub degraded: bool,
}

/// Day-level inputs the builder cannot derive from the records.
#[derive(Debug, Clone, Copy, Default)]
pub struct SummaryInput {
    /// Probes transmitted by the anycast-based stage.
    pub anycast_probes: u64,
    /// Probes transmitted by the GCD stage.
    pub gcd_probes: u64,
    /// Size of the GCD target set after AT feedback.
    pub gcd_target_count: u64,
    /// The day ran degraded.
    pub degraded: bool,
}

/// One decoded prefix-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub key_tag: u8,
    pub key_net: u128,
    pub offset: u64,
    pub len: u32,
    pub flags: u8,
    pub max_vps: u32,
    pub n_sites: u32,
    pub asn: u32,
    pub city_first: u32,
    pub city_count: u16,
}

impl Entry {
    pub(crate) fn prefix(&self, day: u32) -> Result<PrefixKey, QueryError> {
        match self.key_tag {
            4 => {
                let net = u32::try_from(self.key_net).map_err(|_| QueryError::Corrupt {
                    day,
                    detail: format!("v4 entry network {:#x} exceeds 32 bits", self.key_net),
                })?;
                Ok(PrefixKey::V4(Prefix24::from_network(net)))
            }
            6 => Ok(PrefixKey::V6(Prefix48::from_network(self.key_net))),
            other => Err(QueryError::Corrupt {
                day,
                detail: format!("unknown prefix tag {other}"),
            }),
        }
    }

    pub(crate) fn origin_asn(&self) -> Option<u32> {
        if self.flags & FLAG_HAS_ASN != 0 {
            Some(self.asn)
        } else {
            None
        }
    }
}

/// Encode a key as the index's `(tag, net)` pair. Tag 4 < tag 6 and nets
/// ascend within a family, so byte order equals `PrefixKey`'s `Ord`.
pub(crate) fn encode_key(key: PrefixKey) -> (u8, u128) {
    match key {
        PrefixKey::V4(p) => (4, u128::from(p.network())),
        PrefixKey::V6(p) => (6, p.network()),
    }
}

/// Decoded postings with per-key spans into a shared flat array.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    /// Per-key `(start, count)` spans into `flat`.
    pub spans: Vec<(u32, u32)>,
    /// Record indices, grouped by key.
    pub flat: Vec<u32>,
}

impl Postings {
    pub(crate) fn records_of(&self, key_idx: usize, day: u32) -> Result<&[u32], QueryError> {
        let (start, count) = *self.spans.get(key_idx).ok_or_else(|| QueryError::Corrupt {
            day,
            detail: format!("postings key {key_idx} out of range"),
        })?;
        let start = start as usize;
        let end = start + count as usize;
        self.flat
            .get(start..end)
            .ok_or_else(|| QueryError::Corrupt {
                day,
                detail: format!("postings span {start}..{end} exceeds flat array"),
            })
    }
}

/// One decoded per-AS posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AsPosting {
    pub asn: u32,
    pub v4: u32,
    pub v6: u32,
    pub start: u32,
    pub count: u32,
}

/// Decoded header: counts plus the section descriptor table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub day: u32,
    pub n_records: u32,
    pub n_cities: u32,
    pub n_city_ids: u32,
    pub n_asns: u32,
    /// `(offset, len, fingerprint)` per section.
    pub sections: [(u64, u64, u64); N_SECTIONS],
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn narrow_u32(v: usize, what: &str, day: u32) -> Result<u32, QueryError> {
    u32::try_from(v).map_err(|_| QueryError::Build {
        day,
        detail: format!("{what} ({v}) exceeds u32"),
    })
}

/// Build a version-1 sidecar from a day's records (which must arrive
/// strictly ascending by prefix — `BTreeMap` iteration order) plus the
/// day-level summary inputs. Returns the complete file contents.
pub fn build_index(
    day: u32,
    records: &[IndexRecord],
    summary: SummaryInput,
) -> Result<Vec<u8>, QueryError> {
    for w in records.windows(2) {
        if encode_key(w[0].prefix) >= encode_key(w[1].prefix) {
            return Err(QueryError::Build {
                day,
                detail: format!(
                    "records not strictly ascending by prefix at {:?} → {:?}",
                    w[0].prefix, w[1].prefix
                ),
            });
        }
    }
    let n_records = narrow_u32(records.len(), "record count", day)?;

    // City string table: sorted unique names → dense ids.
    let mut city_id: BTreeMap<&str, u32> = BTreeMap::new();
    for r in records {
        for c in &r.cities {
            let next = narrow_u32(city_id.len(), "city count", day)?;
            city_id.entry(c.as_str()).or_insert(next);
        }
    }
    // BTreeMap insertion order is arrival order for the ids; remap so ids
    // follow the sorted name order (stable regardless of record order).
    let names: Vec<&str> = city_id.keys().copied().collect();
    for (i, name) in names.iter().enumerate() {
        let id = narrow_u32(i, "city id", day)?;
        city_id.insert(name, id);
    }
    let n_cities = narrow_u32(names.len(), "city count", day)?;

    // Per-record city-id spans into the flat CITY_IDS array, and the
    // per-city postings (distinct records mentioning the city, ascending).
    let mut city_ids_flat: Vec<u32> = Vec::new();
    let mut city_recs: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
    let mut entries: Vec<u8> = Vec::with_capacity(records.len() * ENTRY_LEN);
    let mut as_counts: BTreeMap<u32, (u32, u32, Vec<u32>)> = BTreeMap::new();
    let mut summary_out = DaySummary {
        day,
        n_records: records.len() as u64,
        anycast_probes: summary.anycast_probes,
        gcd_probes: summary.gcd_probes,
        gcd_target_count: summary.gcd_target_count,
        // laces-lint: allow(degraded-bypass) — carrying the already-derived flag into the serialized summary; the value was read through the Degraded trait at save time
        degraded: summary.degraded,
        ..DaySummary::default()
    };

    for (rec_idx, r) in records.iter().enumerate() {
        let rec_idx = narrow_u32(rec_idx, "record index", day)?;
        let city_first = narrow_u32(city_ids_flat.len(), "city-id array", day)?;
        for c in &r.cities {
            // Every city was interned above.
            let id = city_id.get(c.as_str()).copied().ok_or(QueryError::Build {
                day,
                detail: "city interning desynchronised".to_string(),
            })?;
            city_ids_flat.push(id);
            let bucket = &mut city_recs[id as usize];
            if bucket.last() != Some(&rec_idx) {
                bucket.push(rec_idx);
            }
        }
        let city_count = u16::try_from(r.cities.len()).map_err(|_| QueryError::Build {
            day,
            detail: format!(
                "record {:?} lists {} cities (max 65535)",
                r.prefix,
                r.cities.len()
            ),
        })?;

        let mut flags = 0u8;
        if r.anycast_based_positive {
            flags |= FLAG_ANYCAST_BASED;
            summary_out.n_anycast_based += 1;
        }
        if r.gcd_confirmed {
            flags |= FLAG_GCD_CONFIRMED;
            summary_out.n_gcd_confirmed += 1;
        }
        if r.has_gcd {
            flags |= FLAG_HAS_GCD;
        }
        if r.partial {
            flags |= FLAG_PARTIAL;
            summary_out.n_partial += 1;
        }
        let asn_field = match r.origin_asn {
            Some(a) => {
                flags |= FLAG_HAS_ASN;
                a
            }
            None => 0,
        };
        if let Some(a) = r.origin_asn {
            if r.anycast_based_positive || r.gcd_confirmed {
                let slot = as_counts.entry(a).or_default();
                if r.prefix.is_v4() {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
                slot.2.push(rec_idx);
            }
        }

        let (tag, net) = encode_key(r.prefix);
        entries.push(tag);
        push_u128(&mut entries, net);
        push_u64(&mut entries, r.offset);
        push_u32(&mut entries, r.len);
        entries.push(flags);
        push_u32(&mut entries, narrow_u32(r.max_vps, "max_vps", day)?);
        push_u32(&mut entries, narrow_u32(r.n_sites, "n_sites", day)?);
        push_u32(&mut entries, asn_field);
        push_u32(&mut entries, city_first);
        push_u16(&mut entries, city_count);
    }
    let n_city_ids = narrow_u32(city_ids_flat.len(), "city-id array", day)?;

    // CITY_STRS section.
    let mut city_strs: Vec<u8> = Vec::new();
    push_u32(&mut city_strs, n_cities);
    for name in &names {
        push_u32(
            &mut city_strs,
            narrow_u32(name.len(), "city name length", day)?,
        );
        city_strs.extend_from_slice(name.as_bytes());
    }

    // CITY_IDS section.
    let mut city_ids_sec: Vec<u8> = Vec::with_capacity(city_ids_flat.len() * 4);
    for id in &city_ids_flat {
        push_u32(&mut city_ids_sec, *id);
    }

    // CITY_POSTINGS section.
    let mut city_post: Vec<u8> = Vec::new();
    let mut flat: Vec<u32> = Vec::new();
    for recs in &city_recs {
        let start = narrow_u32(flat.len(), "city postings", day)?;
        push_u32(&mut city_post, start);
        push_u32(
            &mut city_post,
            narrow_u32(recs.len(), "city postings", day)?,
        );
        flat.extend_from_slice(recs);
    }
    push_u32(
        &mut city_post,
        narrow_u32(flat.len(), "city postings", day)?,
    );
    for r in &flat {
        push_u32(&mut city_post, *r);
    }

    // AS_POSTINGS section.
    let n_asns = narrow_u32(as_counts.len(), "AS count", day)?;
    let mut as_post: Vec<u8> = Vec::new();
    push_u32(&mut as_post, n_asns);
    let mut as_flat: Vec<u32> = Vec::new();
    for (asn, (v4, v6, recs)) in &as_counts {
        push_u32(&mut as_post, *asn);
        push_u32(&mut as_post, *v4);
        push_u32(&mut as_post, *v6);
        push_u32(&mut as_post, narrow_u32(as_flat.len(), "AS postings", day)?);
        push_u32(&mut as_post, narrow_u32(recs.len(), "AS postings", day)?);
        as_flat.extend_from_slice(recs);
    }
    push_u32(&mut as_post, narrow_u32(as_flat.len(), "AS postings", day)?);
    for r in &as_flat {
        push_u32(&mut as_post, *r);
    }

    // SUMMARY section.
    let mut sum: Vec<u8> = Vec::new();
    push_u32(&mut sum, summary_out.day);
    push_u64(&mut sum, summary_out.n_records);
    push_u64(&mut sum, summary_out.n_anycast_based);
    push_u64(&mut sum, summary_out.n_gcd_confirmed);
    push_u64(&mut sum, summary_out.n_partial);
    push_u64(&mut sum, summary_out.anycast_probes);
    push_u64(&mut sum, summary_out.gcd_probes);
    push_u64(&mut sum, summary_out.gcd_target_count);
    // laces-lint: allow(degraded-bypass) — encoding the serialized summary flag, not reading live degradation state
    sum.push(u8::from(summary_out.degraded));

    // Assemble: header + sections, fingerprinting each section and then
    // the header itself (with its fp field zeroed).
    let sections: [&[u8]; N_SECTIONS] = [
        &entries,
        &city_strs,
        &city_ids_sec,
        &city_post,
        &as_post,
        &sum,
    ];
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&INDEX_MAGIC);
    push_u32(&mut header, INDEX_VERSION);
    push_u32(&mut header, day);
    push_u32(&mut header, n_records);
    push_u32(&mut header, n_cities);
    push_u32(&mut header, n_city_ids);
    push_u32(&mut header, n_asns);
    push_u64(&mut header, 0); // header_fp placeholder
    let mut offset = HEADER_LEN as u64;
    for sec in sections {
        push_u64(&mut header, offset);
        push_u64(&mut header, sec.len() as u64);
        push_u64(&mut header, fnv1a(sec));
        offset += sec.len() as u64;
    }
    let fp = fnv1a(&header);
    header[32..40].copy_from_slice(&fp.to_le_bytes());

    let mut out = header;
    for sec in sections {
        out.extend_from_slice(sec);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    day: u32,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], day: u32) -> Self {
        Cursor { bytes, pos: 0, day }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], QueryError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(slice)
    }

    fn truncated(&self) -> QueryError {
        QueryError::Corrupt {
            day: self.day,
            detail: format!("truncated at byte {} of {}", self.pos, self.bytes.len()),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, QueryError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, QueryError> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, QueryError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, QueryError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, QueryError> {
        let mut b = [0u8; 16];
        b.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(b))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode and validate a header. `expect_day` is the day implied by the
/// file name; a mismatching embedded day is corruption.
pub(crate) fn decode_header(bytes: &[u8], expect_day: u32) -> Result<Header, QueryError> {
    if bytes.len() < HEADER_LEN {
        return Err(QueryError::Corrupt {
            day: expect_day,
            detail: format!("header is {} bytes, need {HEADER_LEN}", bytes.len()),
        });
    }
    let mut c = Cursor::new(&bytes[..HEADER_LEN], expect_day);
    let magic = c.take(8)?;
    if magic != INDEX_MAGIC {
        return Err(QueryError::Corrupt {
            day: expect_day,
            detail: format!("bad magic {magic:?}"),
        });
    }
    let version = c.u32()?;
    if version != INDEX_VERSION {
        return Err(QueryError::Version {
            day: expect_day,
            found: version,
            supported: INDEX_VERSION,
        });
    }
    let day = c.u32()?;
    if day != expect_day {
        return Err(QueryError::Corrupt {
            day: expect_day,
            detail: format!("header says day {day}"),
        });
    }
    let n_records = c.u32()?;
    let n_cities = c.u32()?;
    let n_city_ids = c.u32()?;
    let n_asns = c.u32()?;
    let stored_fp = c.u64()?;
    let mut sections = [(0u64, 0u64, 0u64); N_SECTIONS];
    for slot in &mut sections {
        *slot = (c.u64()?, c.u64()?, c.u64()?);
    }
    let mut zeroed = bytes[..HEADER_LEN].to_vec();
    zeroed[32..40].fill(0);
    let actual = fnv1a(&zeroed);
    if actual != stored_fp {
        return Err(QueryError::Corrupt {
            day: expect_day,
            detail: format!(
                "header fingerprint mismatch: stored {stored_fp:#x}, actual {actual:#x}"
            ),
        });
    }
    Ok(Header {
        day,
        n_records,
        n_cities,
        n_city_ids,
        n_asns,
        sections,
    })
}

/// Decode the prefix table, enforcing strict key order.
pub(crate) fn decode_prefixes(bytes: &[u8], h: &Header) -> Result<Vec<Entry>, QueryError> {
    let day = h.day;
    if bytes.len() != h.n_records as usize * ENTRY_LEN {
        return Err(QueryError::Corrupt {
            day,
            detail: format!(
                "prefix section is {} bytes for {} records",
                bytes.len(),
                h.n_records
            ),
        });
    }
    let mut c = Cursor::new(bytes, day);
    let mut out = Vec::with_capacity(h.n_records as usize);
    let mut prev: Option<(u8, u128)> = None;
    for _ in 0..h.n_records {
        let e = Entry {
            key_tag: c.u8()?,
            key_net: c.u128()?,
            offset: c.u64()?,
            len: c.u32()?,
            flags: c.u8()?,
            max_vps: c.u32()?,
            n_sites: c.u32()?,
            asn: c.u32()?,
            city_first: c.u32()?,
            city_count: c.u16()?,
        };
        let key = (e.key_tag, e.key_net);
        if prev.is_some_and(|p| p >= key) {
            return Err(QueryError::Corrupt {
                day,
                detail: "prefix table not strictly ascending".to_string(),
            });
        }
        let span_end = e.city_first as u64 + u64::from(e.city_count);
        if span_end > u64::from(h.n_city_ids) {
            return Err(QueryError::Corrupt {
                day,
                detail: format!("city span ends at {span_end} of {}", h.n_city_ids),
            });
        }
        prev = Some(key);
        out.push(e);
    }
    Ok(out)
}

/// Decode the sorted unique city string table.
pub(crate) fn decode_city_strs(bytes: &[u8], h: &Header) -> Result<Vec<String>, QueryError> {
    let day = h.day;
    let mut c = Cursor::new(bytes, day);
    let n = c.u32()?;
    if n != h.n_cities {
        return Err(QueryError::Corrupt {
            day,
            detail: format!("city table says {n} cities, header says {}", h.n_cities),
        });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|e| QueryError::Corrupt {
            day,
            detail: format!("city name not utf-8: {e}"),
        })?;
        out.push(s.to_string());
    }
    if !c.done() {
        return Err(QueryError::Corrupt {
            day,
            detail: "trailing bytes after city table".to_string(),
        });
    }
    Ok(out)
}

/// Decode the flat per-record city-id array.
pub(crate) fn decode_city_ids(bytes: &[u8], h: &Header) -> Result<Vec<u32>, QueryError> {
    let day = h.day;
    if bytes.len() != h.n_city_ids as usize * 4 {
        return Err(QueryError::Corrupt {
            day,
            detail: format!(
                "city-id section is {} bytes for {} ids",
                bytes.len(),
                h.n_city_ids
            ),
        });
    }
    let mut c = Cursor::new(bytes, day);
    let mut out = Vec::with_capacity(h.n_city_ids as usize);
    for _ in 0..h.n_city_ids {
        let id = c.u32()?;
        if id >= h.n_cities {
            return Err(QueryError::Corrupt {
                day,
                detail: format!("city id {id} out of range ({} cities)", h.n_cities),
            });
        }
        out.push(id);
    }
    Ok(out)
}

/// Decode the per-city postings.
pub(crate) fn decode_city_postings(bytes: &[u8], h: &Header) -> Result<Postings, QueryError> {
    let day = h.day;
    let mut c = Cursor::new(bytes, day);
    let mut spans = Vec::with_capacity(h.n_cities as usize);
    for _ in 0..h.n_cities {
        spans.push((c.u32()?, c.u32()?));
    }
    let flat_len = c.u32()?;
    let mut flat = Vec::with_capacity(flat_len as usize);
    for _ in 0..flat_len {
        let idx = c.u32()?;
        if idx >= h.n_records {
            return Err(QueryError::Corrupt {
                day,
                detail: format!(
                    "posting record {idx} out of range ({} records)",
                    h.n_records
                ),
            });
        }
        flat.push(idx);
    }
    if !c.done() {
        return Err(QueryError::Corrupt {
            day,
            detail: "trailing bytes after city postings".to_string(),
        });
    }
    let p = Postings { spans, flat };
    for i in 0..p.spans.len() {
        p.records_of(i, day)?;
    }
    Ok(p)
}

/// Decode the per-AS postings, sorted ascending by ASN.
pub(crate) fn decode_as_postings(
    bytes: &[u8],
    h: &Header,
) -> Result<(Vec<AsPosting>, Vec<u32>), QueryError> {
    let day = h.day;
    let mut c = Cursor::new(bytes, day);
    let n = c.u32()?;
    if n != h.n_asns {
        return Err(QueryError::Corrupt {
            day,
            detail: format!("AS table says {n} ASes, header says {}", h.n_asns),
        });
    }
    let mut ases = Vec::with_capacity(n as usize);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let a = AsPosting {
            asn: c.u32()?,
            v4: c.u32()?,
            v6: c.u32()?,
            start: c.u32()?,
            count: c.u32()?,
        };
        if prev.is_some_and(|p| p >= a.asn) {
            return Err(QueryError::Corrupt {
                day,
                detail: "AS postings not strictly ascending by ASN".to_string(),
            });
        }
        prev = Some(a.asn);
        ases.push(a);
    }
    let flat_len = c.u32()?;
    let mut flat = Vec::with_capacity(flat_len as usize);
    for _ in 0..flat_len {
        let idx = c.u32()?;
        if idx >= h.n_records {
            return Err(QueryError::Corrupt {
                day,
                detail: format!("AS posting record {idx} out of range"),
            });
        }
        flat.push(idx);
    }
    if !c.done() {
        return Err(QueryError::Corrupt {
            day,
            detail: "trailing bytes after AS postings".to_string(),
        });
    }
    for a in &ases {
        let start = a.start as usize;
        let end = start + a.count as usize;
        if flat.get(start..end).is_none() {
            return Err(QueryError::Corrupt {
                day,
                detail: format!("AS {} span {start}..{end} exceeds flat array", a.asn),
            });
        }
    }
    Ok((ases, flat))
}

/// Decode the day summary.
pub(crate) fn decode_summary(bytes: &[u8], h: &Header) -> Result<DaySummary, QueryError> {
    let day = h.day;
    let mut c = Cursor::new(bytes, day);
    let s = DaySummary {
        day: c.u32()?,
        n_records: c.u64()?,
        n_anycast_based: c.u64()?,
        n_gcd_confirmed: c.u64()?,
        n_partial: c.u64()?,
        anycast_probes: c.u64()?,
        gcd_probes: c.u64()?,
        gcd_target_count: c.u64()?,
        degraded: c.u8()? != 0,
    };
    if !c.done() {
        return Err(QueryError::Corrupt {
            day,
            detail: "trailing bytes after summary".to_string(),
        });
    }
    if s.day != day {
        return Err(QueryError::Corrupt {
            day,
            detail: format!("summary says day {}", s.day),
        });
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32, cities: &[&str]) -> IndexRecord {
        IndexRecord {
            prefix: PrefixKey::V4(Prefix24::from_network(i << 8)),
            offset: u64::from(i) * 100,
            len: 90,
            anycast_based_positive: i.is_multiple_of(2),
            gcd_confirmed: i.is_multiple_of(3),
            has_gcd: true,
            partial: false,
            max_vps: 3 + i as usize,
            n_sites: 2,
            origin_asn: Some(64_500 + i % 3),
            cities: cities.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn build_then_decode_roundtrips() {
        let records: Vec<IndexRecord> = (1..=9).map(|i| rec(i, &["Tokyo", "Paris"])).collect();
        let bytes = build_index(
            5,
            &records,
            SummaryInput {
                anycast_probes: 111,
                gcd_probes: 22,
                gcd_target_count: 9,
                degraded: true,
            },
        )
        .unwrap();
        let h = decode_header(&bytes, 5).unwrap();
        assert_eq!(h.n_records, 9);
        assert_eq!(h.n_cities, 2);
        let sec = |i: usize| {
            let (off, len, fp) = h.sections[i];
            let s = &bytes[off as usize..(off + len) as usize];
            assert_eq!(fnv1a(s), fp, "section {i} fingerprint");
            s
        };
        let entries = decode_prefixes(sec(SEC_PREFIXES), &h).unwrap();
        assert_eq!(entries.len(), 9);
        assert_eq!(entries[0].prefix(5).unwrap(), records[0].prefix);
        assert_eq!(entries[0].origin_asn(), Some(64_501));
        let cities = decode_city_strs(sec(SEC_CITY_STRS), &h).unwrap();
        assert_eq!(cities, vec!["Paris".to_string(), "Tokyo".to_string()]);
        let ids = decode_city_ids(sec(SEC_CITY_IDS), &h).unwrap();
        assert_eq!(ids.len(), 18);
        let posts = decode_city_postings(sec(SEC_CITY_POSTINGS), &h).unwrap();
        // Every record mentions both cities.
        assert_eq!(posts.records_of(0, 5).unwrap().len(), 9);
        let (ases, _flat) = decode_as_postings(sec(SEC_AS_POSTINGS), &h).unwrap();
        assert_eq!(ases.len(), 3);
        let sum = decode_summary(sec(SEC_SUMMARY), &h).unwrap();
        assert_eq!(sum.n_records, 9);
        assert_eq!(sum.anycast_probes, 111);
        assert!(sum.degraded);
        // anycast-based: even i in 1..=9 → 4; gcd-confirmed: i % 3 == 0 → 3.
        assert_eq!(sum.n_anycast_based, 4);
        assert_eq!(sum.n_gcd_confirmed, 3);
    }

    #[test]
    fn build_is_deterministic() {
        let records: Vec<IndexRecord> = (1..=5).map(|i| rec(i, &["Lima", "Oslo"])).collect();
        let a = build_index(2, &records, SummaryInput::default()).unwrap();
        let b = build_index(2, &records, SummaryInput::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let records = vec![rec(2, &[]), rec(1, &[])];
        assert!(matches!(
            build_index(0, &records, SummaryInput::default()),
            Err(QueryError::Build { .. })
        ));
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let bytes = build_index(1, &[rec(1, &["Rome"])], SummaryInput::default()).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_header(&bad, 1),
            Err(QueryError::Corrupt { .. })
        ));
        let mut flipped = bytes.clone();
        flipped[20] ^= 0xFF; // header field → fingerprint mismatch
        assert!(matches!(
            decode_header(&flipped, 1),
            Err(QueryError::Corrupt { .. })
        ));
        let mut vers = bytes;
        vers[8] = 99;
        assert!(matches!(
            decode_header(&vers, 1),
            Err(QueryError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn wrong_day_is_rejected() {
        let bytes = build_index(1, &[rec(1, &[])], SummaryInput::default()).unwrap();
        assert!(matches!(
            decode_header(&bytes, 2),
            Err(QueryError::Corrupt { .. })
        ));
    }

    #[test]
    fn key_encoding_preserves_prefixkey_order() {
        let keys = [
            PrefixKey::V4(Prefix24::from_network(0)),
            PrefixKey::V4(Prefix24::from_network(0xFFFF_FF00)),
            PrefixKey::V6(Prefix48::from_network(0)),
            PrefixKey::V6(Prefix48::from_network(1 << 80)),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(encode_key(w[0]) < encode_key(w[1]));
        }
    }
}
