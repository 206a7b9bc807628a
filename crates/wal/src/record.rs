//! The on-media log record format.

use serde::{Deserialize, Serialize};
use twob_sim::crc32_update;

/// A log sequence number: records are totally ordered by `Lsn`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Lsn(pub u64);

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// One WAL record: an LSN plus an opaque payload, protected by CRC-32.
///
/// Encoding (little-endian):
/// `len(u32) ∥ lsn(u64) ∥ crc32(lsn ∥ payload)(u32) ∥ payload`.
/// A `len` of zero (erased media reads as zeroes) or a CRC mismatch marks
/// the torn tail of a log.
///
/// # Example
///
/// ```rust
/// use twob_wal::{LogRecord, Lsn};
///
/// let rec = LogRecord::new(Lsn(7), b"UPDATE accounts".to_vec());
/// let bytes = rec.encode();
/// let (decoded, used) = LogRecord::decode(&bytes).expect("clean record");
/// assert_eq!(decoded, rec);
/// assert_eq!(used, bytes.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// The record's sequence number.
    pub lsn: Lsn,
    /// The record body.
    pub payload: Vec<u8>,
}

/// Fixed bytes of the record header (`len + lsn + crc`).
pub const RECORD_HEADER_BYTES: usize = 4 + 8 + 4;

impl LogRecord {
    /// Creates a record.
    pub fn new(lsn: Lsn, payload: Vec<u8>) -> Self {
        LogRecord { lsn, payload }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER_BYTES + self.payload.len()
    }

    /// `crc32(lsn ∥ payload)`, streamed without joining the two.
    fn body_crc(lsn: Lsn, payload: &[u8]) -> u32 {
        let state = crc32_update(!0, &lsn.0.to_le_bytes());
        crc32_update(state, payload) ^ !0
    }

    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.lsn, &self.payload)
    }

    /// Serializes a record straight from its parts, so an append path need
    /// not copy the payload into a `LogRecord` first.
    pub(crate) fn encode_parts(lsn: Lsn, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&lsn.0.to_le_bytes());
        out.extend_from_slice(&Self::body_crc(lsn, payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Attempts to decode one record from the head of `bytes`. Returns the
    /// record and the bytes consumed, or `None` for an absent/torn record
    /// (zero length, truncation, or CRC mismatch).
    pub fn decode(bytes: &[u8]) -> Option<(LogRecord, usize)> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return None;
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        if len == 0 || RECORD_HEADER_BYTES + len > bytes.len() {
            return None;
        }
        let lsn = Lsn(u64::from_le_bytes(bytes[4..12].try_into().ok()?));
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
        let payload = &bytes[16..16 + len];
        if Self::body_crc(lsn, payload) != stored_crc {
            return None;
        }
        Some((
            LogRecord {
                lsn,
                payload: payload.to_vec(),
            },
            RECORD_HEADER_BYTES + len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for payload in [vec![], vec![1u8], vec![0xAB; 1000]] {
            // Empty payloads are rejected by decode (len 0 marks erased
            // media), so only non-empty payloads round-trip.
            let rec = LogRecord::new(Lsn(42), payload.clone());
            let bytes = rec.encode();
            match LogRecord::decode(&bytes) {
                Some((decoded, used)) => {
                    assert_eq!(decoded, rec);
                    assert_eq!(used, bytes.len());
                }
                None => assert!(payload.is_empty()),
            }
        }
    }

    #[test]
    fn encoding_is_pinned() {
        // The CRC covers `lsn ∥ payload` in that order: 0xD511_8C48 is
        // zlib's crc32 of those 23 bytes.
        let mut want = vec![15, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0x48, 0x8C, 0x11, 0xD5];
        want.extend_from_slice(b"UPDATE accounts");
        assert_eq!(
            LogRecord::new(Lsn(7), b"UPDATE accounts".to_vec()).encode(),
            want
        );
    }

    #[test]
    fn zero_bytes_decode_as_torn() {
        assert!(LogRecord::decode(&[0u8; 64]).is_none());
        assert!(LogRecord::decode(&[]).is_none());
    }

    #[test]
    fn truncated_record_is_torn() {
        let rec = LogRecord::new(Lsn(1), vec![9u8; 100]);
        let bytes = rec.encode();
        assert!(LogRecord::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn corrupted_payload_is_torn() {
        let rec = LogRecord::new(Lsn(1), vec![9u8; 100]);
        let mut bytes = rec.encode();
        bytes[40] ^= 0x80;
        assert!(LogRecord::decode(&bytes).is_none());
    }

    #[test]
    fn corrupted_lsn_is_torn() {
        let rec = LogRecord::new(Lsn(1), vec![9u8; 16]);
        let mut bytes = rec.encode();
        bytes[5] ^= 1;
        assert!(LogRecord::decode(&bytes).is_none());
    }
}
