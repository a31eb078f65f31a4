//! Durable, crash-consistent dataset storage.
//!
//! A [`Store`] is a [`Dataset`](crate::Dataset) backed by two files:
//! a checksummed binary **snapshot** (the last checkpoint, see
//! [`mod@format`]) and an append-only **write-ahead log** of mutations since
//! (see [`wal`]). Mutations are logged before they are applied; opening a
//! store replays the log over the snapshot and truncates any torn tail,
//! recovering exactly the state at some committed prefix of the mutation
//! history — never a torn or corrupted in-between.
//!
//! All I/O goes through the [`vfs::Vfs`] trait; [`vfs::StdVfs`] talks to
//! the real file system and [`vfs::MemVfs`] is an in-memory disk with
//! deterministic fault injection (torn writes, `ENOSPC`, short reads, bit
//! flips) that the recovery test-suite drives crashes through.
//!
//! Every failure mode is a typed [`StorageError`]; no input — torn,
//! truncated, or bit-flipped — causes a panic.

pub mod format;
pub mod store;
pub mod vfs;
pub mod wal;

pub use store::{RecoveryReport, Store, StoreStats, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE, WAL_FILE};
pub use vfs::{FaultPlan, MemVfs, StdVfs, Vfs};
pub use wal::WalRecord;

/// Everything that can go wrong in the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// Which operation (`"read"`, `"append"`, ...).
        op: &'static str,
        /// OS error description.
        detail: String,
    },
    /// The device is out of space (`ENOSPC`); retriable once space frees.
    NoSpace,
    /// The (simulated) machine has crashed: every subsequent operation on
    /// this VFS fails until it is reopened.
    Crashed,
    /// Persisted bytes fail validation: checksum mismatch, impossible
    /// counts, out-of-range ids, bad magic.
    Corrupt {
        /// Which part of the file was being decoded.
        section: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The snapshot was written by a format revision this build does not
    /// read.
    UnsupportedVersion(u64),
    /// A mutation targeted a graph the dataset does not contain.
    UnknownGraph(String),
    /// A failed commit could not be rolled back; the store refuses
    /// further mutations (reopen to recover).
    Poisoned,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { op, detail } => write!(f, "i/o error during {op}: {detail}"),
            StorageError::NoSpace => write!(f, "no space left on device"),
            StorageError::Crashed => write!(f, "storage crashed (simulated power loss)"),
            StorageError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
            StorageError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            StorageError::UnknownGraph(uri) => write!(f, "unknown graph: {uri}"),
            StorageError::Poisoned => {
                write!(f, "store poisoned by an unrolled-back commit failure")
            }
        }
    }
}

impl std::error::Error for StorageError {}
