//! Versioned binary snapshots of mid-election count-engine executions.
//!
//! [`CountSimulation::snapshot`](crate::CountSimulation::snapshot) serializes
//! a complete mid-election execution — interned state table and seen-state
//! map, per-state counts, compiled pair cache, tier-controller state, and
//! RNG words — into a self-describing byte buffer;
//! [`CountSimulation::resume`](crate::CountSimulation::resume) rebuilds the
//! simulation from those bytes. The format is hand-rolled (the workspace has
//! no serialization dependency, by policy) and versioned: a magic prefix,
//! [`SNAPSHOT_VERSION`], tagged length-prefixed sections, and an FNV-1a
//! checksum footer.
//!
//! # The bit-identical-resume contract
//!
//! A snapshot is a **transparent pause**: inserting
//! `snapshot → serialize → resume` between two driver calls leaves the rest
//! of the execution *bit-identical* to the same call sequence without the
//! pause, on every tier — the resumed simulation draws the same RNG words,
//! executes the same interactions at the same step counts, and reaches the
//! same configurations. This sits alongside (and is guaranteed by) the
//! engine's existing determinism contracts: the cached/uncached per-step
//! tiers are bit-identical to each other, and the jump/batch tiers are
//! distribution-exact but consume the RNG stream differently.
//!
//! The contract is about *pausing between calls*, not about re-segmenting
//! work: on the jump and batch tiers, `run(a); run(b)` is already not
//! bit-identical to `run(a + b)` without any snapshot, because a budget cap
//! can truncate an episode and discard its draws. Snapshot/resume inserted
//! at any call boundary preserves whatever segmentation the caller uses.
//!
//! What makes the pause transparent is the split between serialized and
//! recomputed state. Serialized exactly: counts and live-slot order, the
//! pair cache's entries *and geometry* (its stride decides which pairs are
//! addressable, hence which compile and consume RNG), the tier pin, tier
//! engage flags and the review schedule, step counters, the RNG words, and
//! the per-step tiers' agent array (its arrangement decides which states
//! the next drawn positions hold). Recomputed on
//! resume, because they are deterministic functions of the serialized state:
//! state outputs, the sampler tree (its shape is a pure function of the
//! weights vector), the jump scheduler's null ledger (reseeded from the
//! cache's null entries and re-synced against the counts before its next
//! draw), and role-tracking priming (idempotently re-applied by
//! [`run_until_single_leader`](crate::CountSimulation::run_until_single_leader),
//! which also retrofits every cached leader delta).
//!
//! # Format versioning policy
//!
//! Any change to the byte layout bumps [`SNAPSHOT_VERSION`]; readers reject
//! other versions with [`SnapshotError::UnsupportedVersion`] rather than
//! guessing. Corrupt or truncated input yields a typed [`SnapshotError`] —
//! deserialization never panics. A canary test pins the serialized bytes of
//! a reference execution so layout drift without a version bump fails CI.

use std::fmt;

/// Version tag written after the magic; bump on any byte-layout change.
/// Version 2 appended the round-law mode to the config section and the
/// contingency/segment counters to the tier section. Version 3 appended
/// the per-tier interaction usage counters to the tier section so resumed
/// runs keep attributing past work in [`metrics`](crate::CountSimulation::metrics).
/// Version 4 dropped the round-law mode and the segment counter again:
/// the batch tier has a single round law. Version 5 dropped the
/// engine-config section (the tier thresholds are constants), replaced the
/// tier section's enabled/forced toggles with the tier pin, and dropped the
/// cache-activity flag (the reference pin implies it). Version 6 appended
/// the agent-array section: the per-step tiers draw positions, so the
/// arrangement of agents is trajectory state.
pub const SNAPSHOT_VERSION: u32 = 6;

/// 8-byte magic prefix identifying count-engine snapshots.
pub(crate) const MAGIC: [u8; 8] = *b"PPENGSNP";

/// Section tags, in the order sections appear in the buffer.
pub(crate) const TAG_POPULATION: u16 = 2;
pub(crate) const TAG_CACHE: u16 = 3;
pub(crate) const TAG_TIERS: u16 = 4;
pub(crate) const TAG_RNG: u16 = 5;
pub(crate) const TAG_AGENTS: u16 = 6;

/// Why a snapshot buffer could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The buffer ends before the data it promises.
    Truncated,
    /// The magic prefix is not a count-engine snapshot's.
    BadMagic,
    /// The snapshot was written by an unknown (likely future) format
    /// version.
    UnsupportedVersion {
        /// The version tag found in the buffer.
        found: u32,
    },
    /// The FNV-1a footer does not match the buffer contents.
    ChecksumMismatch,
    /// A section header promises more bytes than the buffer holds.
    BadSectionLength {
        /// Tag of the offending section.
        tag: u16,
    },
    /// The bytes decoded, but describe an inconsistent simulation (count
    /// mismatches, out-of-range ids, duplicate states, invalid RNG state…).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => f.write_str("snapshot buffer is truncated"),
            SnapshotError::BadMagic => f.write_str("not a count-engine snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            SnapshotError::BadSectionLength { tag } => {
                write!(f, "snapshot section {tag} has a corrupted length")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash — the snapshot footer's integrity check (and the
/// canary test's layout fingerprint). Not cryptographic; it guards against
/// truncation and accidental corruption, not tampering.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Self-delimiting binary codec for a protocol's state type, used by the
/// engine snapshot format to persist the interned state table.
///
/// Implementations must roundtrip exactly (`decode(encode(s)) == s`) and
/// [`decode`](Self::decode) must *never panic* on arbitrary bytes — return
/// `None` for anything that is not a valid encoding (snapshot buffers can be
/// truncated or corrupted). Little-endian fixed-width encodings are provided
/// for the primitive integer types and `bool`.
pub trait SnapshotState: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `bytes`, advancing the slice past
    /// it; `None` if the bytes are not a valid encoding.
    fn decode(bytes: &mut &[u8]) -> Option<Self>;
}

macro_rules! snapshot_state_int {
    ($($t:ty),*) => {$(
        impl SnapshotState for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                const W: usize = std::mem::size_of::<$t>();
                if bytes.len() < W {
                    return None;
                }
                let (head, rest) = bytes.split_at(W);
                *bytes = rest;
                Some(<$t>::from_le_bytes(head.try_into().expect("length checked")))
            }
        }
    )*};
}

snapshot_state_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl SnapshotState for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        match u8::decode(bytes)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Append-only buffer builder for the snapshot format: magic + version up
/// front, tagged length-prefixed sections, checksum footer at
/// [`finish`](Self::finish).
pub(crate) struct SnapshotWriter {
    buf: Vec<u8>,
    /// Offset of the open section's length field, if a section is open.
    open_len_at: Option<usize>,
}

impl SnapshotWriter {
    pub(crate) fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        Self {
            buf,
            open_len_at: None,
        }
    }

    /// Opens a section: writes the tag and a length placeholder that
    /// [`end_section`](Self::end_section) patches.
    pub(crate) fn begin_section(&mut self, tag: u16) {
        debug_assert!(self.open_len_at.is_none(), "sections do not nest");
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.open_len_at = Some(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    pub(crate) fn end_section(&mut self) {
        let at = self.open_len_at.take().expect("a section is open");
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_state<S: SnapshotState>(&mut self, s: &S) {
        s.encode(&mut self.buf);
    }

    pub(crate) fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends the checksum footer and returns the finished buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        debug_assert!(self.open_len_at.is_none(), "unclosed section");
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Bounded cursor over a validated snapshot buffer (or one of its sections).
#[derive(Debug)]
pub(crate) struct SnapshotReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope — length, magic, version, checksum — and
    /// returns a reader positioned at the first section.
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        // magic + version + checksum is the smallest conceivable snapshot.
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(
            bytes[MAGIC.len()..MAGIC.len() + 4]
                .try_into()
                .expect("length checked"),
        );
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let body_end = bytes.len() - 8;
        let footer = u64::from_le_bytes(bytes[body_end..].try_into().expect("length checked"));
        if fnv1a64(&bytes[..body_end]) != footer {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(Self {
            buf: &bytes[MAGIC.len() + 4..body_end],
        })
    }

    /// Reads the next section header, requiring `tag`, and returns a reader
    /// over exactly that section's payload.
    pub(crate) fn section(&mut self, tag: u16) -> Result<SnapshotReader<'a>, SnapshotError> {
        let found = self.get_u16()?;
        if found != tag {
            return Err(SnapshotError::Corrupt("unexpected section tag"));
        }
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::BadSectionLength { tag })?;
        if len > self.buf.len() {
            return Err(SnapshotError::BadSectionLength { tag });
        }
        let (payload, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(SnapshotReader { buf: payload })
    }

    /// Fails with `Corrupt(what)` unless every byte was consumed — catches
    /// section lengths that are too long for their content.
    pub(crate) fn expect_end(&self, what: &'static str) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("boolean flag out of range")),
        }
    }

    pub(crate) fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn get_state<S: SnapshotState>(&mut self) -> Result<S, SnapshotError> {
        let mut cursor = self.buf;
        let state =
            S::decode(&mut cursor).ok_or(SnapshotError::Corrupt("undecodable interned state"))?;
        let consumed = self.buf.len() - cursor.len();
        self.buf = &self.buf[consumed..];
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_codecs_roundtrip() {
        fn roundtrip<S: SnapshotState + PartialEq + std::fmt::Debug>(v: S) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(S::decode(&mut cursor), Some(v));
            assert!(cursor.is_empty());
        }
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xABu8);
        roundtrip(0xAB_CDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX - 3);
        roundtrip(-7i8);
        roundtrip(-12_345i16);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN + 1);
    }

    #[test]
    fn bool_decode_rejects_junk() {
        let mut cursor: &[u8] = &[2];
        assert_eq!(bool::decode(&mut cursor), None);
        let mut empty: &[u8] = &[];
        assert_eq!(bool::decode(&mut empty), None);
        assert_eq!(u32::decode(&mut [1u8, 2].as_slice()), None);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.begin_section(TAG_POPULATION);
        w.put_u64(99);
        w.put_bool(true);
        w.put_u8(3);
        w.end_section();
        w.begin_section(TAG_CACHE);
        w.put_u16(7);
        w.put_u32(1234);
        w.end_section();
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s1 = r.section(TAG_POPULATION).unwrap();
        assert_eq!(s1.get_u64().unwrap(), 99);
        assert!(s1.get_bool().unwrap());
        assert_eq!(s1.get_u8().unwrap(), 3);
        s1.expect_end("population").unwrap();
        let mut s2 = r.section(TAG_CACHE).unwrap();
        assert_eq!(s2.get_u16().unwrap(), 7);
        assert_eq!(s2.get_u32().unwrap(), 1234);
        s2.expect_end("cache").unwrap();
        r.expect_end("snapshot").unwrap();
    }

    #[test]
    fn open_rejects_bad_envelopes() {
        assert_eq!(
            SnapshotReader::open(&[]).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            SnapshotReader::open(&[0u8; 12]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut not_magic = SnapshotWriter::new().finish();
        not_magic[0] ^= 0xFF;
        // Restore the checksum so the magic check is what fires.
        let end = not_magic.len() - 8;
        let sum = fnv1a64(&not_magic[..end]).to_le_bytes();
        not_magic[end..].copy_from_slice(&sum);
        assert_eq!(
            SnapshotReader::open(&not_magic).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn open_rejects_future_version() {
        let mut bytes = SnapshotWriter::new().finish();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        assert_eq!(
            SnapshotReader::open(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );
    }

    #[test]
    fn single_byte_flips_trip_the_checksum_or_magic() {
        let mut w = SnapshotWriter::new();
        w.begin_section(TAG_RNG);
        w.put_u64(42);
        w.end_section();
        let bytes = w.finish();
        assert!(SnapshotReader::open(&bytes).is_ok());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(SnapshotReader::open(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn corrupted_section_length_is_typed() {
        let mut w = SnapshotWriter::new();
        w.begin_section(TAG_CACHE);
        w.put_u32(5);
        w.end_section();
        let mut bytes = w.finish();
        // The section length field sits right after magic+version+tag;
        // inflate it past the buffer and re-seal the checksum so the length
        // check (not the checksum) is what fires.
        let len_at = MAGIC.len() + 4 + 2;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            r.section(TAG_CACHE).unwrap_err(),
            SnapshotError::BadSectionLength { tag: TAG_CACHE }
        );
    }

    #[test]
    fn wrong_section_tag_is_corrupt() {
        let mut w = SnapshotWriter::new();
        w.begin_section(TAG_TIERS);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.section(TAG_POPULATION).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn errors_display_and_propagate() {
        let e: Box<dyn std::error::Error> =
            Box::new(SnapshotError::UnsupportedVersion { found: 9 });
        assert!(e.to_string().contains("version 9"));
        assert!(SnapshotError::BadSectionLength { tag: 3 }
            .to_string()
            .contains("section 3"));
    }
}
