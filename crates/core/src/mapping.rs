//! The BA-buffer mapping table (paper §III-A2, Fig 2).

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};
use twob_ftl::Lba;

use crate::TwoBError;

/// Identifier of one mapping-table entry (the paper's `EID`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EntryId(pub u8);

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eid:{}", self.0)
    }
}

/// One BA-buffer mapping entry: `(entry_id, start_offset, start_LBA,
/// length)` exactly as Fig 2 of the paper draws the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingEntry {
    /// The entry ID.
    pub eid: EntryId,
    /// Byte offset of the pinned window within the BA-buffer
    /// (page-aligned).
    pub buffer_offset: u64,
    /// First pinned LBA.
    pub start_lba: Lba,
    /// Pinned length in 4 KiB pages.
    pub pages: u32,
}

impl MappingEntry {
    /// Pinned length in bytes.
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.pages) * 4096
    }

    /// End of the buffer window (exclusive byte offset).
    pub fn buffer_end(&self) -> u64 {
        self.buffer_offset + self.len_bytes()
    }

    /// Returns `true` if `[offset, offset+len)` (relative to the buffer
    /// start) overlaps this entry's window.
    pub fn buffer_overlaps(&self, offset: u64, len: u64) -> bool {
        offset < self.buffer_end() && self.buffer_offset < offset + len
    }

    /// Returns `true` if the LBA range `[lba, lba+pages)` overlaps this
    /// entry's pinned range.
    pub fn lba_overlaps(&self, lba: Lba, pages: u32) -> bool {
        let (a, b) = (lba.0, lba.0 + u64::from(pages));
        let (s, e) = (self.start_lba.0, self.start_lba.0 + u64::from(self.pages));
        a < e && s < b
    }
}

/// The fixed-capacity mapping table of the BA-buffer manager.
///
/// # Example
///
/// ```rust
/// use twob_core::{EntryId, MappingTable};
/// use twob_ftl::Lba;
///
/// let mut table = MappingTable::new(8, 8 << 20);
/// table.insert(EntryId(0), 0, Lba(100), 4)?;
/// assert!(table.get(EntryId(0)).is_some());
/// table.remove(EntryId(0))?;
/// # Ok::<(), twob_core::TwoBError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingTable {
    entries: Vec<Option<MappingEntry>>,
    buffer_bytes: u64,
}

impl MappingTable {
    /// Creates an empty table with `max_entries` slots over a BA-buffer of
    /// `buffer_bytes`.
    pub fn new(max_entries: usize, buffer_bytes: u64) -> Self {
        MappingTable {
            entries: vec![None; max_entries],
            buffer_bytes,
        }
    }

    /// Capacity in entries.
    pub fn max_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Returns `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up an entry (the `BA_GET_ENTRY_INFO` backend).
    pub fn get(&self, eid: EntryId) -> Option<&MappingEntry> {
        self.entries
            .get(usize::from(eid.0))
            .and_then(Option::as_ref)
    }

    /// Iterates over live entries in EID order.
    pub fn iter(&self) -> impl Iterator<Item = &MappingEntry> {
        self.entries.iter().flatten()
    }

    /// Validates and inserts an entry.
    ///
    /// # Errors
    ///
    /// - [`TwoBError::EntryIdOutOfRange`] / [`TwoBError::EntryInUse`] for a
    ///   bad slot.
    /// - [`TwoBError::Unaligned`] if `buffer_offset` is not page-aligned.
    /// - [`TwoBError::EmptyRequest`] for zero pages.
    /// - [`TwoBError::BufferOutOfRange`] if the window exceeds the buffer.
    /// - [`TwoBError::BufferOverlap`] / [`TwoBError::LbaOverlap`] if the
    ///   window collides with a live entry (both address spaces must stay
    ///   disjoint, or the byte and block views would diverge).
    pub fn insert(
        &mut self,
        eid: EntryId,
        buffer_offset: u64,
        start_lba: Lba,
        pages: u32,
    ) -> Result<MappingEntry, TwoBError> {
        let slot = usize::from(eid.0);
        if slot >= self.entries.len() {
            return Err(TwoBError::EntryIdOutOfRange {
                eid,
                max_entries: self.entries.len(),
            });
        }
        if self.entries[slot].is_some() {
            return Err(TwoBError::EntryInUse(eid));
        }
        if pages == 0 {
            return Err(TwoBError::EmptyRequest);
        }
        if !buffer_offset.is_multiple_of(4096) {
            return Err(TwoBError::Unaligned {
                value: buffer_offset,
            });
        }
        let len = u64::from(pages) * 4096;
        if buffer_offset + len > self.buffer_bytes {
            return Err(TwoBError::BufferOutOfRange {
                offset: buffer_offset,
                len,
                capacity: self.buffer_bytes,
            });
        }
        let candidate = MappingEntry {
            eid,
            buffer_offset,
            start_lba,
            pages,
        };
        for live in self.iter() {
            if live.buffer_overlaps(buffer_offset, len) {
                return Err(TwoBError::BufferOverlap(live.eid));
            }
            if live.lba_overlaps(start_lba, pages) {
                return Err(TwoBError::LbaOverlap(live.eid));
            }
        }
        self.entries[slot] = Some(candidate);
        Ok(candidate)
    }

    /// Removes an entry, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`TwoBError::EntryNotFound`] for a dead slot.
    pub fn remove(&mut self, eid: EntryId) -> Result<MappingEntry, TwoBError> {
        let slot = usize::from(eid.0);
        if slot >= self.entries.len() {
            return Err(TwoBError::EntryIdOutOfRange {
                eid,
                max_entries: self.entries.len(),
            });
        }
        self.entries[slot]
            .take()
            .ok_or(TwoBError::EntryNotFound(eid))
    }

    /// Finds the lowest free entry ID, if any.
    pub fn free_eid(&self) -> Option<EntryId> {
        self.entries
            .iter()
            .position(Option::is_none)
            .map(|i| EntryId(i as u8))
    }

    /// Finds the lowest page-aligned offset in the byte range `within` with
    /// room for `pages` — the one first-fit allocator: the device passes
    /// the whole buffer, the pin table one tenant's share. Only windows
    /// that reach into `within` are sorted, so a search stays linear in
    /// the table.
    pub fn free_buffer_offset(&self, within: Range<u64>, pages: u32) -> Option<u64> {
        let len = u64::from(pages) * 4096;
        let mut windows: Vec<(u64, u64)> = self
            .iter()
            .filter(|e| e.buffer_overlaps(within.start, within.end - within.start))
            .map(|e| (e.buffer_offset, e.buffer_end()))
            .collect();
        windows.sort_unstable();
        let mut cursor = within.start;
        for (start, end) in windows {
            if cursor + len <= start {
                return Some(cursor);
            }
            cursor = cursor.max(end);
        }
        (cursor + len <= within.end).then_some(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MappingTable {
        MappingTable::new(8, 64 << 10)
    }

    #[test]
    fn insert_get_remove() {
        let mut t = table();
        t.insert(EntryId(2), 4096, Lba(10), 2).unwrap();
        let e = t.get(EntryId(2)).unwrap();
        assert_eq!(e.start_lba, Lba(10));
        assert_eq!(e.len_bytes(), 8192);
        assert_eq!(t.len(), 1);
        t.remove(EntryId(2)).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn rejects_double_insert_and_missing_remove() {
        let mut t = table();
        t.insert(EntryId(0), 0, Lba(0), 1).unwrap();
        assert_eq!(
            t.insert(EntryId(0), 8192, Lba(50), 1).unwrap_err(),
            TwoBError::EntryInUse(EntryId(0))
        );
        assert_eq!(
            t.remove(EntryId(5)).unwrap_err(),
            TwoBError::EntryNotFound(EntryId(5))
        );
    }

    #[test]
    fn rejects_eid_beyond_capacity() {
        let mut t = table();
        assert!(matches!(
            t.insert(EntryId(8), 0, Lba(0), 1),
            Err(TwoBError::EntryIdOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_overlapping_buffer_windows() {
        let mut t = table();
        t.insert(EntryId(0), 0, Lba(0), 2).unwrap();
        assert_eq!(
            t.insert(EntryId(1), 4096, Lba(100), 1).unwrap_err(),
            TwoBError::BufferOverlap(EntryId(0))
        );
    }

    #[test]
    fn rejects_overlapping_lba_ranges() {
        let mut t = table();
        t.insert(EntryId(0), 0, Lba(10), 4).unwrap();
        assert_eq!(
            t.insert(EntryId(1), 32768, Lba(13), 1).unwrap_err(),
            TwoBError::LbaOverlap(EntryId(0))
        );
    }

    #[test]
    fn rejects_unaligned_and_oversized() {
        let mut t = table();
        assert!(matches!(
            t.insert(EntryId(0), 100, Lba(0), 1),
            Err(TwoBError::Unaligned { .. })
        ));
        assert!(matches!(
            t.insert(EntryId(0), 0, Lba(0), 17),
            Err(TwoBError::BufferOutOfRange { .. })
        ));
        assert!(matches!(
            t.insert(EntryId(0), 0, Lba(0), 0),
            Err(TwoBError::EmptyRequest)
        ));
    }

    #[test]
    fn free_eid_and_offset_allocate_first_fit() {
        let mut t = table();
        assert_eq!(t.free_eid(), Some(EntryId(0)));
        t.insert(EntryId(0), 0, Lba(0), 2).unwrap();
        t.insert(EntryId(1), 12288, Lba(10), 1).unwrap();
        assert_eq!(t.free_eid(), Some(EntryId(2)));
        // Hole between entry 0 (ends 8192) and entry 1 (starts 12288).
        assert_eq!(t.free_buffer_offset(0..64 << 10, 1), Some(8192));
        // Two pages do not fit in the hole; first fit lands after entry 1.
        assert_eq!(t.free_buffer_offset(0..64 << 10, 2), Some(16384));
        // Too big for the remaining space.
        assert_eq!(t.free_buffer_offset(0..64 << 10, 16), None);
        // A range starts its search at its own start, past any window that
        // reaches into it, and ends at its own end.
        assert_eq!(t.free_buffer_offset(4096..64 << 10, 1), Some(8192));
        assert_eq!(t.free_buffer_offset(12288..32768, 1), Some(16384));
        assert_eq!(t.free_buffer_offset(12288..32768, 5), None);
    }

    #[test]
    fn full_table_has_no_free_eid() {
        let mut t = MappingTable::new(2, 64 << 10);
        t.insert(EntryId(0), 0, Lba(0), 1).unwrap();
        t.insert(EntryId(1), 4096, Lba(10), 1).unwrap();
        assert_eq!(t.free_eid(), None);
    }
}
