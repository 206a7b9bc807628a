//! Inodes: fixed-size on-disk file records.

use serde::{Deserialize, Serialize};

/// Direct block pointers per inode (no indirection: max file =
/// 12 × 4 KiB = 48 KiB, plenty for the journaling experiments).
pub const INODE_DIRECT_BLOCKS: usize = 12;

/// Encoded inode size; 16 per 4 KiB page.
pub const INODE_SIZE: usize = 256;

/// Longest file name an inode stores.
pub const NAME_MAX: usize = 120;

/// One file's metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inode {
    /// File name (flat namespace).
    pub name: String,
    /// File size in bytes.
    pub size: u64,
    /// Direct data-page pointers (absolute page numbers); `u64::MAX`
    /// marks an unallocated slot.
    pub blocks: [u64; INODE_DIRECT_BLOCKS],
}

impl Inode {
    /// A fresh, empty file.
    pub fn empty(name: &str) -> Self {
        Inode {
            name: name.to_string(),
            size: 0,
            blocks: [u64::MAX; INODE_DIRECT_BLOCKS],
        }
    }

    /// Maximum file size in bytes.
    pub const fn max_size() -> u64 {
        (INODE_DIRECT_BLOCKS * crate::layout::PAGE) as u64
    }

    /// Serializes into exactly `INODE_SIZE` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds `NAME_MAX` (validated at create time).
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.name.len() <= NAME_MAX, "name validated at create");
        let mut out = Vec::with_capacity(INODE_SIZE);
        out.push(1); // used marker
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        out.resize(2 + NAME_MAX, 0);
        out.extend_from_slice(&self.size.to_le_bytes());
        for block in &self.blocks {
            out.extend_from_slice(&block.to_le_bytes());
        }
        out.resize(INODE_SIZE, 0);
        out
    }

    /// Decodes an inode slot; `None` for a free slot or garbage.
    pub fn decode(bytes: &[u8]) -> Option<Inode> {
        if bytes.len() < INODE_SIZE || bytes[0] != 1 {
            return None;
        }
        let name_len = bytes[1] as usize;
        if name_len > NAME_MAX {
            return None;
        }
        let name = String::from_utf8(bytes[2..2 + name_len].to_vec()).ok()?;
        let base = 2 + NAME_MAX;
        let size = u64::from_le_bytes(bytes[base..base + 8].try_into().ok()?);
        let mut blocks = [u64::MAX; INODE_DIRECT_BLOCKS];
        for (i, slot) in blocks.iter_mut().enumerate() {
            let off = base + 8 + i * 8;
            *slot = u64::from_le_bytes(bytes[off..off + 8].try_into().ok()?);
        }
        Some(Inode { name, size, blocks })
    }

    /// Serializes a free (unused) slot.
    pub fn encode_free() -> Vec<u8> {
        vec![0; INODE_SIZE]
    }

    /// The allocated page numbers.
    pub fn allocated_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().copied().filter(|&b| b != u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let mut inode = Inode::empty("log/segment-000.journal");
        inode.size = 12345;
        inode.blocks[0] = 77;
        inode.blocks[3] = 99;
        let bytes = inode.encode();
        assert_eq!(bytes.len(), INODE_SIZE);
        assert_eq!(Inode::decode(&bytes), Some(inode));
    }

    #[test]
    fn free_slot_decodes_to_none() {
        assert_eq!(Inode::decode(&Inode::encode_free()), None);
        assert_eq!(Inode::decode(&[]), None);
    }

    #[test]
    fn sixteen_inodes_fit_a_page() {
        assert_eq!(crate::layout::PAGE / INODE_SIZE, 16);
    }

    #[test]
    fn max_size_is_48k() {
        assert_eq!(Inode::max_size(), 48 * 1024);
    }
}
