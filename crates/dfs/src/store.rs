//! The [`BlockStore`] trait: the storage boundary of the DFS.
//!
//! A store moves bytes; it keeps no books for anyone else. What the
//! namespace needs to know about its blocks — which server holds which,
//! and how many each holds, for placement balance — [`Dfs`](crate::Dfs)
//! records itself as it puts and deletes them. Three implementations:
//!
//! * [`MemStore`] — the deterministic in-memory backend the chaos
//!   suite and fsck tests run against;
//! * [`DiskStore`] — one block per file under a root directory, with
//!   the CRC stamped into a small header, used by `galloper daemon`;
//! * `RemoteStore` (in `galloper-net`) — a TCP client speaking the
//!   length-prefixed frame protocol to a remote daemon.
//!
//! The contract, shared by all three:
//!
//! * [`BlockStore::put_block`] computes and durably records a CRC-32
//!   alongside the bytes;
//! * [`BlockStore::get_block`] re-verifies that CRC on every read and
//!   reports a mismatch as [`BlockGet::Corrupt`] — never returning the
//!   damaged bytes — so the DFS can route around silent corruption
//!   exactly like a lost block. It is also the only way to ask whether
//!   an entry exists: anything but [`BlockGet::Missing`] means one does;
//! * [`BlockStore::delete_block`] reports whether an entry existed,
//!   which is what lets the namespace keep its count exact;
//! * [`BlockStore::scan_blocks`] lists every key held, intact or not
//!   (a directory read on disk, one RPC remotely);
//! * [`BlockStore::probe`] sizes the store for the stats plane
//!   (`Request::Probe`, `galloper stat`). It costs a scan plus a `stat`
//!   per block on disk, so nothing on the data path calls it;
//! * [`BlockStore::wipe`] drops everything, as a machine loss does;
//! * transport or I/O failures surface as [`StoreError`], which the
//!   read path treats as an erasure (the parallelism-aware code's
//!   whole point is tolerating exactly that).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use galloper_erasure::stream::write_all_vectored;

use crate::crc::crc32;

/// Identifies one coded block: the file it belongs to, its coding
/// group, and its block index within the group. The fixed-width fields
/// make the key directly portable over the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// The owning file's dense id (see [`crate::FileId`]).
    pub file: u64,
    /// Coding-group index within the file.
    pub group: u32,
    /// Block index within the group.
    pub block: u32,
}

impl BlockKey {
    /// Builds a key from the DFS's native `(file, group, block)` triple.
    pub fn new(file: u64, group: usize, block: usize) -> BlockKey {
        BlockKey {
            file,
            group: group as u32,
            block: block as u32,
        }
    }
}

impl fmt::Display for BlockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}g{}b{}", self.file, self.group, self.block)
    }
}

/// The three-way result of a block read: the boundary distinguishes
/// "never stored / deleted" from "stored but failing its checksum",
/// because the repair scanner accounts for the two differently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockGet {
    /// The block, checksum verified.
    Ok(Vec<u8>),
    /// An entry exists but its bytes no longer match the recorded
    /// CRC-32 — silent corruption, detected at the storage boundary.
    Corrupt,
    /// No such block.
    Missing,
}

/// A store-level failure: the operation could not be carried out at
/// all (as opposed to a clean [`BlockGet::Missing`]). The DFS read
/// path treats this as an erasure and decodes around it.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A local filesystem failure.
    Io(std::io::Error),
    /// The store is unreachable (daemon down, connection refused,
    /// timeout). Carries a human-readable cause.
    Unreachable(String),
    /// The store answered, but with something the caller cannot use
    /// (wire-protocol violation, unexpected response type).
    Backend(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o failure: {e}"),
            StoreError::Unreachable(why) => write!(f, "store unreachable: {why}"),
            StoreError::Backend(why) => write!(f, "store backend failure: {why}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What a [`BlockStore::probe`] reports: occupancy for the stats
/// plane, and implicitly liveness (an unreachable store errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreHealth {
    /// Blocks currently held.
    pub blocks: u64,
    /// Payload bytes currently held (excluding store metadata).
    pub bytes: u64,
}

/// Put/get/delete/scan/probe/wipe of coded blocks — the storage
/// boundary [`Dfs`](crate::Dfs) runs on. See the [module docs](self)
/// for the contract.
pub trait BlockStore {
    /// Stores (or overwrites) one block, recording its CRC-32.
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads one block back, verifying its CRC-32.
    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError>;

    /// Deletes one block; returns whether an entry existed.
    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError>;

    /// Every key currently stored (intact or corrupt), in unspecified
    /// order.
    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError>;

    /// Drops every block — what a machine loss does to its disk.
    fn wipe(&mut self);

    /// Occupancy probe for the stats plane. Errors double as a
    /// liveness signal.
    fn probe(&self) -> Result<StoreHealth, StoreError>;

    /// Fault injection: flips one payload byte of `key` *without*
    /// updating the recorded CRC (silent corruption, as a failing disk
    /// would produce it). Returns whether a byte was flipped. Stores
    /// that cannot inject faults return `false`.
    fn flip_byte(&mut self, key: BlockKey, pos: usize) -> bool {
        let _ = (key, pos);
        false
    }
}

/// One stored block plus the checksum computed when it was written.
#[derive(Debug, Clone)]
struct StoredBlock {
    bytes: Vec<u8>,
    crc: u32,
}

/// The deterministic in-memory backend. Supports byte-level fault
/// injection, which is what the chaos suite drives.
#[derive(Debug, Default)]
pub struct MemStore {
    blocks: HashMap<BlockKey, StoredBlock>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl BlockStore for MemStore {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        self.blocks.insert(
            key,
            StoredBlock {
                bytes: bytes.to_vec(),
                crc: crc32(bytes),
            },
        );
        Ok(())
    }

    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        Ok(match self.blocks.get(&key) {
            Some(sb) if crc32(&sb.bytes) == sb.crc => BlockGet::Ok(sb.bytes.clone()),
            Some(_) => BlockGet::Corrupt,
            None => BlockGet::Missing,
        })
    }

    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError> {
        Ok(self.blocks.remove(&key).is_some())
    }

    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError> {
        Ok(self.blocks.keys().copied().collect())
    }

    fn wipe(&mut self) {
        self.blocks.clear();
    }

    fn probe(&self) -> Result<StoreHealth, StoreError> {
        Ok(StoreHealth {
            blocks: self.blocks.len() as u64,
            bytes: self.blocks.values().map(|b| b.bytes.len() as u64).sum(),
        })
    }

    fn flip_byte(&mut self, key: BlockKey, pos: usize) -> bool {
        match self.blocks.get_mut(&key) {
            Some(sb) if !sb.bytes.is_empty() => {
                let pos = pos % sb.bytes.len();
                sb.bytes[pos] ^= 0xA5;
                true
            }
            _ => false,
        }
    }
}

/// Magic bytes opening every block file, so a stray file in the root
/// is rejected instead of misparsed.
const DISK_MAGIC: [u8; 4] = *b"GBLK";
/// Header: magic (4) + CRC-32 of the payload (4, little-endian).
const DISK_HEADER: usize = 8;

/// One-block-per-file local-disk backend: what a `galloper daemon`
/// serves. Layout: `<root>/f<file>_g<group>_b<block>.blk`, each file a
/// `GBLK` magic + CRC-32 header followed by the payload. Writes go
/// through a temp file + rename so a crashed daemon never leaves a
/// torn block behind (a torn temp file is ignored by the scan).
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskStore { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: BlockKey) -> PathBuf {
        self.root
            .join(format!("f{}_g{}_b{}.blk", key.file, key.group, key.block))
    }

    /// Parses `f<file>_g<group>_b<block>.blk` back into a key.
    fn parse_name(name: &str) -> Option<BlockKey> {
        let stem = name.strip_suffix(".blk")?;
        let rest = stem.strip_prefix('f')?;
        let (file, rest) = rest.split_once("_g")?;
        let (group, block) = rest.split_once("_b")?;
        Some(BlockKey {
            file: file.parse().ok()?,
            group: group.parse().ok()?,
            block: block.parse().ok()?,
        })
    }
}

impl BlockStore for DiskStore {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.path_of(key);
        let tmp = self.root.join(format!(".tmp-{key}"));
        {
            let mut f = fs::File::create(&tmp)?;
            // Header and payload leave in one vectored syscall: this
            // store adds no staging copy of the payload. A networked
            // put has already been copied once before it lands here —
            // the daemon's `Request::decode` copies the block out of
            // its frame (`Reader::bytes`).
            let mut header = [0u8; DISK_HEADER];
            header[..4].copy_from_slice(&DISK_MAGIC);
            header[4..].copy_from_slice(&crc32(bytes).to_le_bytes());
            let mut slices = [IoSlice::new(&header), IoSlice::new(bytes)];
            write_all_vectored(&mut f, &mut slices)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        let mut f = match fs::File::open(self.path_of(key)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BlockGet::Missing),
            Err(e) => return Err(e.into()),
        };
        let mut header = [0u8; DISK_HEADER];
        if f.read_exact(&mut header).is_err() || header[..4] != DISK_MAGIC {
            // Torn or foreign file: an entry exists but is unusable.
            return Ok(BlockGet::Corrupt);
        }
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        if crc32(&bytes) == crc {
            Ok(BlockGet::Ok(bytes))
        } else {
            Ok(BlockGet::Corrupt)
        }
    }

    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError> {
        match fs::remove_file(self.path_of(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(key) = entry.file_name().to_str().and_then(Self::parse_name) {
                keys.push(key);
            }
        }
        Ok(keys)
    }

    fn wipe(&mut self) {
        if let Ok(keys) = self.scan_blocks() {
            for key in keys {
                let _ = fs::remove_file(self.path_of(key));
            }
        }
    }

    fn probe(&self) -> Result<StoreHealth, StoreError> {
        let mut health = StoreHealth::default();
        for key in self.scan_blocks()? {
            health.blocks += 1;
            let len = fs::metadata(self.path_of(key))?.len();
            health.bytes += len.saturating_sub(DISK_HEADER as u64);
        }
        Ok(health)
    }

    fn flip_byte(&mut self, key: BlockKey, pos: usize) -> bool {
        let path = self.path_of(key);
        let Ok(mut f) = fs::OpenOptions::new().read(true).write(true).open(&path) else {
            return false;
        };
        let Ok(len) = f.metadata().map(|m| m.len()) else {
            return false;
        };
        if len <= DISK_HEADER as u64 {
            return false;
        }
        let payload = len - DISK_HEADER as u64;
        let off = DISK_HEADER as u64 + (pos as u64 % payload);
        let mut byte = [0u8; 1];
        if f.seek(SeekFrom::Start(off)).is_err() || f.read_exact(&mut byte).is_err() {
            return false;
        }
        byte[0] ^= 0xA5;
        f.seek(SeekFrom::Start(off)).is_ok() && f.write_all(&byte).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("galloper_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn roundtrip(store: &mut dyn BlockStore) {
        let key = BlockKey::new(1, 2, 3);
        assert_eq!(store.get_block(key).unwrap(), BlockGet::Missing);
        assert_eq!(store.scan_blocks().unwrap(), Vec::new());
        store.put_block(key, b"hello blocks").unwrap();
        assert_eq!(
            store.get_block(key).unwrap(),
            BlockGet::Ok(b"hello blocks".to_vec())
        );
        let health = store.probe().unwrap();
        assert_eq!(health.blocks, 1);
        assert_eq!(health.bytes, 12);
        assert_eq!(store.scan_blocks().unwrap(), vec![key]);
        // Overwriting replaces the entry; it does not add one.
        store.put_block(key, b"hello again").unwrap();
        assert_eq!(store.scan_blocks().unwrap(), vec![key]);
        assert_eq!(store.probe().unwrap().bytes, 11);
        assert!(store.delete_block(key).unwrap());
        assert!(!store.delete_block(key).unwrap());
        assert_eq!(store.scan_blocks().unwrap(), Vec::new());
        assert_eq!(store.probe().unwrap(), StoreHealth::default());
    }

    fn corruption_detected(store: &mut dyn BlockStore) {
        let key = BlockKey::new(7, 0, 1);
        store.put_block(key, &[9u8; 64]).unwrap();
        assert!(store.flip_byte(key, 17));
        assert_eq!(store.get_block(key).unwrap(), BlockGet::Corrupt);
        // Corrupt entries still exist (repair accounting depends on it).
        assert_eq!(store.scan_blocks().unwrap(), vec![key]);
        assert_eq!(store.probe().unwrap().blocks, 1);
        // Overwriting heals.
        store.put_block(key, &[4u8; 8]).unwrap();
        assert_eq!(store.get_block(key).unwrap(), BlockGet::Ok(vec![4u8; 8]));
    }

    #[test]
    fn memstore_roundtrip_and_corruption() {
        roundtrip(&mut MemStore::new());
        corruption_detected(&mut MemStore::new());
    }

    #[test]
    fn diskstore_roundtrip_and_corruption() {
        let dir = tempdir("rt");
        roundtrip(&mut DiskStore::open(&dir).unwrap());
        corruption_detected(&mut DiskStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diskstore_reopen_rescans() {
        let dir = tempdir("reopen");
        {
            let mut store = DiskStore::open(&dir).unwrap();
            store.put_block(BlockKey::new(0, 0, 0), b"a").unwrap();
            store.put_block(BlockKey::new(0, 0, 1), b"bb").unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        let mut keys = store.scan_blocks().unwrap();
        keys.sort_unstable();
        assert_eq!(keys, [BlockKey::new(0, 0, 0), BlockKey::new(0, 0, 1)]);
        let health = store.probe().unwrap();
        assert_eq!((health.blocks, health.bytes), (2, 3));
        assert_eq!(
            store.get_block(BlockKey::new(0, 0, 1)).unwrap(),
            BlockGet::Ok(b"bb".to_vec())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diskstore_rejects_foreign_and_torn_files() {
        let dir = tempdir("foreign");
        let mut store = DiskStore::open(&dir).unwrap();
        // A foreign file that parses as a key but has no header.
        fs::write(dir.join("f9_g0_b0.blk"), b"xx").unwrap();
        assert_eq!(
            store.get_block(BlockKey::new(9, 0, 0)).unwrap(),
            BlockGet::Corrupt
        );
        // Non-block files are not scanned.
        fs::write(dir.join("notes.txt"), b"hi").unwrap();
        store.put_block(BlockKey::new(1, 0, 0), b"real").unwrap();
        let keys = store.scan_blocks().unwrap();
        assert!(keys.contains(&BlockKey::new(1, 0, 0)));
        assert_eq!(keys.len(), 2); // the real block + the foreign .blk
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wipe_empties_both_backends() {
        let mut mem = MemStore::new();
        mem.put_block(BlockKey::new(0, 0, 0), b"x").unwrap();
        mem.wipe();
        assert_eq!(mem.scan_blocks().unwrap(), Vec::new());
        assert_eq!(mem.probe().unwrap(), StoreHealth::default());

        let dir = tempdir("wipe");
        let mut disk = DiskStore::open(&dir).unwrap();
        disk.put_block(BlockKey::new(0, 0, 0), b"x").unwrap();
        disk.wipe();
        assert_eq!(disk.scan_blocks().unwrap(), Vec::new());
        assert_eq!(disk.probe().unwrap(), StoreHealth::default());
        fs::remove_dir_all(&dir).unwrap();
    }
}
