//! Log records: checksummed, length-prefixed, kind-tagged byte payloads.

use std::fmt;

use bytes::{Buf, BufMut};

use crate::error::LogError;

/// Magic bytes opening every encoded record.
const MAGIC: u16 = 0xA5C7;
/// Fixed header size: magic (2) + kind (4) + lsn (8) + payload len (4).
pub(crate) const HEADER_LEN: usize = 2 + 4 + 8 + 4;
/// Trailing checksum size.
const CRC_LEN: usize = 4;

/// A log sequence number: dense, starting at 1, strictly increasing per log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(u64);

impl Lsn {
    /// Wrap a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        Lsn(raw)
    }

    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The next sequence number.
    #[must_use]
    pub const fn next(self) -> Self {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One durable record: a caller-defined `kind` discriminant plus an opaque
/// payload, stamped with the [`Lsn`] the log assigned on append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number assigned by the log.
    pub lsn: Lsn,
    /// Caller-defined record kind (the `ots` and `activity-service` crates
    /// each define their own kind spaces).
    pub kind: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl LogRecord {
    /// Build a record; normally the log itself assigns the [`Lsn`].
    pub fn new(lsn: Lsn, kind: u32, payload: impl Into<Vec<u8>>) -> Self {
        LogRecord { lsn, kind, payload: payload.into() }
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + CRC_LEN
    }

    /// Encode to the on-disk format:
    /// `magic u16 | kind u32 | lsn u64 | len u32 | payload | crc32`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoded record to `buf` without allocating.
    ///
    /// `buf` is not cleared: callers batching several records into one
    /// write buffer call this repeatedly, and hot paths keep one reused
    /// buffer per log (clear + encode_into) instead of a fresh `Vec` per
    /// append.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_parts(self.lsn, self.kind, &self.payload, buf);
    }

    /// Decode one record from the front of `input`, returning the record and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// As [`LogRecord::decode_into`].
    pub fn decode(input: &[u8]) -> Result<(LogRecord, usize), LogError> {
        let mut record = LogRecord::new(Lsn::new(0), 0, Vec::new());
        let used = record.decode_into(input)?;
        Ok((record, used))
    }

    /// Decode one record from the front of `input` into `self`, reusing its
    /// payload buffer, and return the number of bytes consumed: how a log
    /// streaming from its file decodes every record into one `LogRecord`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Corrupt`] for truncated input, a bad magic, or a
    /// checksum mismatch, leaving `self` as it was. Truncation errors carry
    /// `lsn == Lsn::new(0)` when the header itself is incomplete.
    pub fn decode_into(&mut self, input: &[u8]) -> Result<usize, LogError> {
        if input.len() < HEADER_LEN {
            return Err(LogError::Corrupt {
                lsn: Lsn::new(0),
                reason: format!("truncated header: {} bytes", input.len()),
            });
        }
        let mut cursor = input;
        let magic = cursor.get_u16();
        if magic != MAGIC {
            return Err(LogError::Corrupt {
                lsn: Lsn::new(0),
                reason: format!("bad magic {magic:#06x}"),
            });
        }
        let kind = cursor.get_u32();
        let lsn = Lsn::new(cursor.get_u64());
        let len = cursor.get_u32() as usize;
        let total = HEADER_LEN + len + CRC_LEN;
        if input.len() < total {
            return Err(LogError::Corrupt {
                lsn,
                reason: format!("truncated body: need {total} bytes, have {}", input.len()),
            });
        }
        let stored_crc = u32::from_be_bytes(input[total - CRC_LEN..total].try_into().unwrap());
        let actual_crc = crc32(&input[..HEADER_LEN + len]);
        if stored_crc != actual_crc {
            return Err(LogError::Corrupt {
                lsn,
                reason: format!("crc mismatch: stored {stored_crc:#010x}, actual {actual_crc:#010x}"),
            });
        }
        self.lsn = lsn;
        self.kind = kind;
        self.payload.clear();
        self.payload.extend_from_slice(&cursor[..len]);
        Ok(total)
    }
}

/// Append the encoding of record `(lsn, kind, payload)` to `buf`: what
/// [`LogRecord::encode_into`] writes, for a log that has no `LogRecord`.
pub(crate) fn encode_parts(lsn: Lsn, kind: u32, payload: &[u8], buf: &mut Vec<u8>) {
    buf.reserve(HEADER_LEN + payload.len() + CRC_LEN);
    let start = buf.len();
    buf.put_u16(MAGIC);
    buf.put_u32(kind);
    buf.put_u64(lsn.raw());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    let crc = crc32(&buf[start..]);
    buf.put_u32(crc);
}

/// The encoded length of the record whose header opens `input`, or `None`
/// while `input` is shorter than a header. Read before the record is whole,
/// so a streaming reader knows how much to fetch; nothing is validated.
pub(crate) fn encoded_len_at(input: &[u8]) -> Option<usize> {
    let len = input.get(HEADER_LEN - 4..HEADER_LEN)?;
    Some(HEADER_LEN + u32::from_be_bytes(len.try_into().unwrap()) as usize + CRC_LEN)
}

/// The [`Lsn`] in the header opening `input` (at least a header long).
pub(crate) fn lsn_at(input: &[u8]) -> Lsn {
    Lsn::new(u64::from_be_bytes(input[6..14].try_into().unwrap()))
}

/// The slicing-by-8 tables of [`crc32`], built at compile time: `T[0]` is
/// the classic bytewise table, `T[k][b]` the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold in with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Standard CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`),
/// eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_next() {
        assert!(Lsn::new(1) < Lsn::new(2));
        assert_eq!(Lsn::new(1).next(), Lsn::new(2));
        assert_eq!(Lsn::default().raw(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = LogRecord::new(Lsn::new(42), 7, b"hello".to_vec());
        let encoded = r.encode();
        assert_eq!(encoded.len(), r.encoded_len());
        let (decoded, consumed) = LogRecord::decode(&encoded).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let r = LogRecord::new(Lsn::new(1), 0, Vec::new());
        let (decoded, _) = LogRecord::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn decode_consumes_only_one_record() {
        let a = LogRecord::new(Lsn::new(1), 1, b"a".to_vec());
        let b = LogRecord::new(Lsn::new(2), 2, b"bb".to_vec());
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (first, used) = LogRecord::decode(&stream).unwrap();
        assert_eq!(first, a);
        let (second, _) = LogRecord::decode(&stream[used..]).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let a = LogRecord::new(Lsn::new(1), 1, b"a".to_vec());
        let b = LogRecord::new(Lsn::new(2), 2, b"bb".to_vec());
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let mut expected = a.encode();
        expected.extend_from_slice(&b.encode());
        assert_eq!(buf, expected, "batched encode_into must byte-match per-record encode");
        let (first, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(first, a);
        let (second, _) = LogRecord::decode(&buf[used..]).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut encoded = LogRecord::new(Lsn::new(1), 1, b"data".to_vec()).encode();
        let last = encoded.len() - 1;
        encoded[last] ^= 0xFF;
        assert!(matches!(LogRecord::decode(&encoded), Err(LogError::Corrupt { .. })));
    }

    #[test]
    fn flipped_payload_bit_detected() {
        let mut encoded = LogRecord::new(Lsn::new(1), 1, b"data".to_vec()).encode();
        encoded[20] ^= 0x01; // inside the payload
        assert!(matches!(LogRecord::decode(&encoded), Err(LogError::Corrupt { .. })));
    }

    #[test]
    fn truncations_detected() {
        let encoded = LogRecord::new(Lsn::new(9), 3, b"payload".to_vec()).encode();
        for cut in 0..encoded.len() {
            assert!(
                LogRecord::decode(&encoded[..cut]).is_err(),
                "prefix {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut encoded = LogRecord::new(Lsn::new(1), 1, b"x".to_vec()).encode();
        encoded[0] = 0;
        assert!(matches!(
            LogRecord::decode(&encoded),
            Err(LogError::Corrupt { reason, .. }) if reason.contains("magic")
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &byte in data {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..265u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn decode_into_reuses_the_record_and_matches_decode() {
        let a = LogRecord::new(Lsn::new(1), 1, b"a longer payload".to_vec());
        let b = LogRecord::new(Lsn::new(2), 2, b"bb".to_vec());
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let mut record = LogRecord::new(Lsn::new(0), 0, Vec::new());
        let used = record.decode_into(&stream).unwrap();
        assert_eq!((&record, used), (&a, a.encoded_len()));
        assert_eq!(encoded_len_at(&stream), Some(used));
        assert_eq!(lsn_at(&stream[used..]), Lsn::new(2));
        let capacity = record.payload.capacity();
        record.decode_into(&stream[used..]).unwrap();
        assert_eq!(record, b);
        assert_eq!(record.payload.capacity(), capacity, "the payload buffer was reused");
        assert!(record.decode_into(&stream[used + 1..]).is_err());
        assert_eq!(encoded_len_at(&stream[..HEADER_LEN - 1]), None);
    }
}
