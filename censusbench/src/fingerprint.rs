//! Work fingerprints: the deterministic counts and FNV-1a hashes that
//! prove two runs did the same work and produced the same artifacts.
//!
//! Every operation of a run yields a [`Fingerprint`]. It must equal the
//! run's first one (the work is repeated, so it must repeat exactly), and,
//! for the (workload, scale, seed) triples listed in `expected.txt`, the
//! committed values. Any mismatch counts the operation as failed.

use std::collections::BTreeMap;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// An FNV-1a stream over several pieces (each piece length-prefixed, so
/// `["ab", "c"]` and `["a", "bc"]` hash apart).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one piece in.
    pub fn add(&mut self, piece: &[u8]) {
        for b in (piece.len() as u64).to_le_bytes().iter().chain(piece) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Named deterministic values of one operation (counts and hashes).
pub type Fingerprint = BTreeMap<&'static str, u64>;

/// One value as `expected.txt` writes it: hashes (`h_*`) in hex, counts
/// in decimal.
pub fn value_str(key: &str, value: u64) -> String {
    if key.starts_with("h_") {
        format!("{value:#018x}")
    } else {
        value.to_string()
    }
}

/// Render a fingerprint as `key=value` pairs.
pub fn render(fp: &Fingerprint) -> String {
    fp.iter()
        .map(|(k, v)| format!("{k}={}", value_str(k, *v)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Committed fingerprints, keyed by `(workload, scale, seed)`.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    entries: BTreeMap<(String, String, u64), BTreeMap<String, u64>>,
}

/// The committed fingerprints of `expected.txt`.
pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

impl Expected {
    /// Parse lines of `workload scale seed key value`; `#` starts a
    /// comment. Values may be decimal or `0x` hex.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, scale, seed, key, value] = f[..] else {
                return Err(format!("expected.txt:{}: want 5 fields", n + 1));
            };
            let num = |s: &str| match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            let seed = num(seed).map_err(|e| format!("expected.txt:{}: seed: {e}", n + 1))?;
            let value = num(value).map_err(|e| format!("expected.txt:{}: value: {e}", n + 1))?;
            out.entries
                .entry((workload.to_string(), scale.to_string(), seed))
                .or_default()
                .insert(key.to_string(), value);
        }
        Ok(out)
    }

    /// The committed default.
    pub fn committed() -> Expected {
        Expected::parse(EXPECTED_TXT).expect("expected.txt parses")
    }

    /// Whether values are committed for this triple.
    pub fn has(&self, workload: &str, scale: &str, seed: u64) -> bool {
        self.entries
            .contains_key(&(workload.to_string(), scale.to_string(), seed))
    }

    /// Overwrite one committed value (the self-test tampers with it).
    pub fn set(&mut self, workload: &str, scale: &str, seed: u64, key: &str, value: u64) {
        self.entries
            .entry((workload.to_string(), scale.to_string(), seed))
            .or_default()
            .insert(key.to_string(), value);
    }

    /// The keys where `fp` disagrees with the committed values for this
    /// triple (none when nothing is committed for it).
    pub fn mismatches(
        &self,
        workload: &str,
        scale: &str,
        seed: u64,
        fp: &Fingerprint,
    ) -> Vec<String> {
        let Some(want) = self
            .entries
            .get(&(workload.to_string(), scale.to_string(), seed))
        else {
            return Vec::new();
        };
        want.iter()
            .filter(|(k, v)| fp.get(k.as_str()) != Some(v))
            .map(|(k, v)| format!("{k}: want {v}, got {:?}", fp.get(k.as_str())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_separates_piece_boundaries() {
        let mut a = Fnv::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Fnv::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn expected_parses_and_flags_mismatches() {
        let e = Expected::parse("# c\ncensus-day tiny 0 published 7\ncensus-day tiny 0 h_x 0x10\n")
            .expect("parses");
        let mut fp = Fingerprint::new();
        fp.insert("published", 7);
        fp.insert("h_x", 16);
        assert!(e.mismatches("census-day", "tiny", 0, &fp).is_empty());
        fp.insert("h_x", 17);
        assert_eq!(e.mismatches("census-day", "tiny", 0, &fp).len(), 1);
        assert!(e.mismatches("census-day", "tiny", 1, &fp).is_empty());
        assert!(Expected::parse("a b c d").is_err());
    }
}
