//! Log replay with torn-tail detection.

use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::{LogRecord, WalError};

/// The result of replaying a log region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Records recovered, in log order.
    pub records: Vec<LogRecord>,
    /// Byte offset (within the scanned stream) where decoding stopped —
    /// the torn tail, or the end of valid data.
    pub torn_at_byte: usize,
}

/// Decodes consecutive records from a byte stream, stopping at the first
/// absent or torn record.
pub fn decode_stream(bytes: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut cursor = 0usize;
    while let Some((record, used)) = LogRecord::decode(&bytes[cursor..]) {
        records.push(record);
        cursor += used;
    }
    ReplayOutcome {
        records,
        torn_at_byte: cursor,
    }
}

/// Reads `pages` pages starting at `base_lba` from `dev` and decodes the
/// record stream. Unwritten pages terminate the scan (they read as absent).
///
/// # Errors
///
/// Propagates device errors other than "unmapped", which simply ends the
/// scan.
pub fn replay<D: BlockDevice>(
    dev: &mut D,
    now: SimTime,
    base_lba: u64,
    pages: u32,
) -> Result<ReplayOutcome, WalError> {
    let (stream, _) = crate::logcore::scan_region(dev, now, base_lba, u64::from(pages))?;
    Ok(decode_stream(&stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;

    #[test]
    fn decodes_back_to_back_records() {
        let mut stream = Vec::new();
        for i in 0..5u64 {
            stream.extend_from_slice(&LogRecord::new(Lsn(i), vec![i as u8; 33]).encode());
        }
        let tail = stream.len();
        stream.extend_from_slice(&[0u8; 500]); // erased tail
        let out = decode_stream(&stream);
        assert_eq!(out.records.len(), 5);
        assert_eq!(out.torn_at_byte, tail);
    }

    #[test]
    fn stops_at_corruption() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&LogRecord::new(Lsn(0), vec![1; 40]).encode());
        let second_start = stream.len();
        stream.extend_from_slice(&LogRecord::new(Lsn(1), vec![2; 40]).encode());
        stream[second_start + 20] ^= 0xFF; // corrupt second record
        stream.extend_from_slice(&LogRecord::new(Lsn(2), vec![3; 40]).encode());
        let out = decode_stream(&stream);
        // Only the first record survives; the rest is unreachable behind
        // the torn one (exactly how WAL replay must behave).
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.torn_at_byte, second_start);
    }

    #[test]
    fn empty_stream_is_empty() {
        let out = decode_stream(&[]);
        assert!(out.records.is_empty());
        assert_eq!(out.torn_at_byte, 0);
    }
}
