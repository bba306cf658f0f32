//! Secret seeding and tracing.
//!
//! Following the paper's `Fill_Enc_Mem()` design, every seeded secret is a
//! *hash of the memory address where it is stored*, so any value the checker
//! finds in the simulation log can be traced back to the exact enclave
//! location it escaped from (paper §4.2).
//!
//! The checker probes the catalog for every value the simulation traces,
//! so the value-keyed maps and sets here and in [`stream`](crate::stream)
//! hash with `MulShift`, one multiply and one rotate, instead of
//! SipHash. SipHash's keyed randomization defends a map against keys an
//! adversary chooses. No key here comes from outside the program: each is
//! a secret the program derived from an address with [`secret_for`], or a
//! value the simulator produced while running generated programs. And no
//! output depends on the maps' iteration order, which SipHash's random
//! keys already changed from run to run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use teesec_uarch::trace::Domain;

/// The mixing salt (any odd constant works; fixed for reproducibility).
const SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The secret value stored at `addr` (splitmix64 of the salted address —
/// high entropy, so verbatim matches in the log are conclusive).
pub fn secret_for(addr: u64) -> u64 {
    let mut z = addr ^ SALT;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiply-shift hashing for 64-bit values: multiply by an odd constant,
/// then rotate the well-mixed high half of the product down to the low
/// bits a hash table indexes with. Safe only for keys no adversary picks
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MulShiftHasher(u64);

impl Hasher for MulShiftHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of the checker's
/// value-keyed maps and sets.
pub(crate) type MulShift = BuildHasherDefault<MulShiftHasher>;

/// A map keyed by traced 64-bit values.
pub(crate) type ValueMap<V> = HashMap<u64, V, MulShift>;

/// A set of traced 64-bit values.
pub(crate) type ValueSet = HashSet<u64, MulShift>;

/// One cataloged secret: where it lives and whose it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretRecord {
    /// Physical address the secret was seeded at.
    pub addr: u64,
    /// The 64-bit secret value.
    pub value: u64,
    /// Owning domain (whose confidentiality it is).
    pub owner: Domain,
}

/// The catalog of every secret seeded into a test image.
///
/// The checker consults it to classify raw values found in the trace.
///
/// ```
/// use teesec::secret::{secret_for, SecretCatalog};
/// use teesec_uarch::trace::Domain;
///
/// let mut catalog = SecretCatalog::new();
/// catalog.seed(0x8040_2000, Domain::Enclave(0));
/// let hit = catalog.identify(secret_for(0x8040_2000)).expect("cataloged");
/// assert_eq!(hit.addr, 0x8040_2000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretCatalog {
    records: Vec<SecretRecord>,
    /// Value → index of the last record seeded with that value.
    #[serde(skip)]
    by_value: ValueMap<usize>,
}

impl SecretCatalog {
    /// Creates an empty catalog.
    pub fn new() -> SecretCatalog {
        SecretCatalog::default()
    }

    /// Seeds one address-derived secret and records it.
    pub fn seed(&mut self, addr: u64, owner: Domain) -> SecretRecord {
        let rec = SecretRecord {
            addr,
            value: secret_for(addr),
            owner,
        };
        self.by_value.insert(rec.value, self.records.len());
        self.records.push(rec);
        rec
    }

    /// Seeds a whole region at 8-byte stride.
    pub fn seed_region(&mut self, base: u64, len: u64, owner: Domain) {
        let mut a = base;
        while a + 8 <= base + len {
            self.seed(a, owner);
            a += 8;
        }
    }

    /// Looks up a 64-bit value; returns the record if it is a cataloged
    /// secret. A value seeded more than once resolves to its last record.
    pub fn identify(&self, value: u64) -> Option<SecretRecord> {
        self.locate(value).map(|i| self.records[i])
    }

    /// The index in [`SecretCatalog::records`] that
    /// [`SecretCatalog::identify`] resolves `value` to.
    pub(crate) fn locate(&self, value: u64) -> Option<usize> {
        if value == 0 {
            return None;
        }
        self.by_value.get(&value).copied()
    }

    /// Scans a byte buffer for any cataloged secret at every 8-byte-aligned
    /// window, returning (offset, record) pairs.
    pub fn scan_bytes(&self, data: &[u8]) -> Vec<(usize, SecretRecord)> {
        self.hits(data)
            .map(|(off, i)| (off, self.records[i]))
            .collect()
    }

    /// [`SecretCatalog::scan_bytes`] as (offset, record index) pairs,
    /// without collecting them.
    pub(crate) fn hits<'a>(&'a self, data: &'a [u8]) -> impl Iterator<Item = (usize, usize)> + 'a {
        data.chunks_exact(8).enumerate().filter_map(|(k, word)| {
            let v = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            self.locate(v).map(|i| (k * 8, i))
        })
    }

    /// All records.
    pub fn records(&self) -> &[SecretRecord] {
        &self.records
    }

    /// Number of seeded secrets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was seeded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A copy of this catalog with its value index built once from the
    /// records (the source's own index, if any, is not copied).
    pub fn indexed(&self) -> SecretCatalog {
        let mut copy = SecretCatalog {
            records: self.records.clone(),
            by_value: ValueMap::default(),
        };
        copy.reindex();
        copy
    }

    /// Rebuilds the value index (after deserialization).
    pub fn reindex(&mut self) {
        self.by_value = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.value, i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secrets_are_address_unique() {
        let a = secret_for(0x8040_0000);
        let b = secret_for(0x8040_0008);
        assert_ne!(a, b);
        assert_eq!(a, secret_for(0x8040_0000), "deterministic");
        assert_ne!(a, 0);
    }

    #[test]
    fn catalog_identifies_and_traces_back() {
        let mut c = SecretCatalog::new();
        c.seed_region(0x8040_2000, 64, Domain::Enclave(0));
        assert_eq!(c.len(), 8);
        let rec = c.identify(secret_for(0x8040_2018)).expect("known secret");
        assert_eq!(rec.addr, 0x8040_2018);
        assert_eq!(rec.owner, Domain::Enclave(0));
        assert_eq!(c.identify(0x1234), None);
        assert_eq!(c.identify(0), None);
    }

    #[test]
    fn scan_bytes_finds_embedded_secret() {
        let mut c = SecretCatalog::new();
        let rec = c.seed(0x8040_2000, Domain::Enclave(1));
        let mut line = vec![0u8; 64];
        line[24..32].copy_from_slice(&rec.value.to_le_bytes());
        let hits = c.scan_bytes(&line);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 24);
        assert_eq!(hits[0].1.addr, 0x8040_2000);
    }

    #[test]
    fn reindex_restores_lookup() {
        let mut c = SecretCatalog::new();
        c.seed(0x8040_2000, Domain::SecurityMonitor);
        let json = serde_json::to_string(&c).expect("serialize");
        let mut back: SecretCatalog = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(
            back.identify(secret_for(0x8040_2000)),
            None,
            "index skipped"
        );
        back.reindex();
        assert!(back.identify(secret_for(0x8040_2000)).is_some());
    }
}
