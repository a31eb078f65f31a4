//! Virtual file system: the narrow I/O surface the storage layer runs on.
//!
//! Two implementations ship:
//!
//! - [`StdVfs`] — real files under a root directory, with `sync_all` after
//!   every mutation so a completed call is durable.
//! - [`MemVfs`] — an in-memory disk with scripted fault injection, the
//!   file-system analogue of the endpoint layer's `FaultyEndpoint`: torn
//!   writes via a crash byte-budget, `ENOSPC`, short reads, and bit flips
//!   at rest. Crash semantics are byte-exact: when the write budget runs
//!   out mid-call, exactly the prefix that "reached the platter" is
//!   applied, and every subsequent operation fails with
//!   [`StorageError::Crashed`] — the surviving disk image is what a real
//!   power cut would leave. Tests reopen it with [`MemVfs::reopen_from`]
//!   (a clean VFS over the surviving image) to drive recovery.
//!
//! The trait is deliberately whole-file + append oriented (no offsets, no
//! handles): that is all the snapshot/WAL design needs, and it keeps every
//! fault point enumerable — each mutating call is one atomic-or-torn unit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use super::StorageError;

/// The I/O operations the storage layer performs. All paths are flat file
/// names relative to the store root; implementations never interpret them.
pub trait Vfs: Send + Sync {
    /// Read a whole file. `Ok(None)` when the file does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Create-or-truncate a file and write `data`, durably.
    fn write(&self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Append `data` to a file (created if absent), durably.
    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Atomically rename `from` onto `to` (replacing `to` if it exists).
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError>;

    /// Shrink a file to `len` bytes (no-op when already shorter).
    fn truncate(&self, name: &str, len: u64) -> Result<(), StorageError>;

    /// Remove a file; succeeds silently when it does not exist.
    fn remove(&self, name: &str) -> Result<(), StorageError>;

    /// Current length of a file, `Ok(None)` when absent.
    fn len(&self, name: &str) -> Result<Option<u64>, StorageError>;
}

fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    // ENOSPC surfaces as its own typed error so callers can distinguish
    // "disk full" (retriable after freeing space) from everything else.
    if e.raw_os_error() == Some(28) {
        return StorageError::NoSpace;
    }
    StorageError::Io {
        op,
        detail: e.to_string(),
    }
}

/// Real files under a root directory (created on construction).
pub struct StdVfs {
    root: PathBuf,
}

impl StdVfs {
    /// VFS rooted at `dir`, creating the directory if needed.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| io_err("create_dir", e))?;
        Ok(StdVfs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Vfs for StdVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn write(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut f = std::fs::File::create(self.path(name)).map_err(|e| io_err("write", e))?;
        f.write_all(data).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("write", e))
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))
            .map_err(|e| io_err("append", e))?;
        f.write_all(data).map_err(|e| io_err("append", e))?;
        f.sync_all().map_err(|e| io_err("append", e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| io_err("rename", e))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StorageError> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| io_err("truncate", e))?;
        f.set_len(len).map_err(|e| io_err("truncate", e))?;
        f.sync_all().map_err(|e| io_err("truncate", e))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", e)),
        }
    }

    fn len(&self, name: &str) -> Result<Option<u64>, StorageError> {
        match std::fs::metadata(self.path(name)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("len", e)),
        }
    }
}

/// Scripted faults for [`MemVfs`]. All budgets count *bytes applied to the
/// disk image* across every mutating call, so a fault plan pins the exact
/// torn-write point deterministically.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// After this many written bytes the process "loses power": the write
    /// in flight keeps only its prefix and every later operation fails
    /// with [`StorageError::Crashed`].
    pub crash_after_bytes: Option<u64>,
    /// After this many written bytes the disk is "full": the write in
    /// flight keeps only its prefix and fails with
    /// [`StorageError::NoSpace`]; the process keeps running and reads
    /// still work.
    pub enospc_after_bytes: Option<u64>,
    /// The next `read` returns at most this many bytes (a short read),
    /// then the limit disarms.
    pub short_read_next: Option<usize>,
}

impl FaultPlan {
    /// No faults — a clean in-memory disk.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

type Disk = Arc<Mutex<BTreeMap<String, Vec<u8>>>>;

struct FaultState {
    write_budget: Option<u64>,
    enospc_budget: Option<u64>,
    short_read_next: Option<usize>,
    crashed: bool,
    bytes_written: u64,
}

/// In-memory VFS with deterministic fault injection (see the module docs).
pub struct MemVfs {
    disk: Disk,
    state: Mutex<FaultState>,
}

impl Default for MemVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemVfs {
    /// Clean in-memory disk, no faults.
    pub fn new() -> Self {
        Self::faulty(FaultPlan::none())
    }

    /// In-memory disk executing a fault plan.
    pub fn faulty(plan: FaultPlan) -> Self {
        MemVfs {
            disk: Arc::new(Mutex::new(BTreeMap::new())),
            state: Mutex::new(FaultState {
                write_budget: plan.crash_after_bytes,
                enospc_budget: plan.enospc_after_bytes,
                short_read_next: plan.short_read_next,
                crashed: false,
                bytes_written: 0,
            }),
        }
    }

    /// A clean VFS over a *copy* of another VFS's surviving disk image —
    /// "the machine rebooted": the old faults are gone, the torn bytes are
    /// not.
    pub fn reopen_from(other: &MemVfs) -> Self {
        let fresh = MemVfs::new();
        *fresh.disk() = other.disk().clone();
        fresh
    }

    /// Arm (or replace) the fault plan on a live VFS — lets a test build
    /// clean state first and inject faults only for the phase under test.
    /// Budgets count from this call onward; a disk that already crashed
    /// stays crashed.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut st = self.state();
        st.write_budget = plan.crash_after_bytes;
        st.enospc_budget = plan.enospc_after_bytes;
        st.short_read_next = plan.short_read_next;
    }

    /// Total bytes applied to the disk image so far (fault-free dry runs
    /// use this to enumerate every possible crash point).
    pub fn bytes_written(&self) -> u64 {
        self.state().bytes_written
    }

    /// Did the crash budget trip?
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// Flip one bit of a file at rest (corruption-at-rest injection;
    /// bypasses fault accounting). Returns `false` when the file is absent
    /// or shorter than `byte`.
    pub fn flip_bit(&self, name: &str, byte: usize, bit: u8) -> bool {
        let mut disk = self.disk();
        match disk.get_mut(name).and_then(|f| f.get_mut(byte)) {
            Some(b) => {
                *b ^= 1 << (bit % 8);
                true
            }
            None => false,
        }
    }

    /// Snapshot of the current disk image (file name → contents).
    pub fn disk_image(&self) -> BTreeMap<String, Vec<u8>> {
        self.disk().clone()
    }

    /// The disk image, recovering poison: a holder that panicked left at
    /// worst a torn file, which is the state recovery is built to read.
    fn disk(&self) -> MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.disk.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The fault state, recovering poison: its fields are independent
    /// counters and flags, each valid on its own whatever a holder left.
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Charge `want` bytes against the fault budgets. Returns how many
    /// bytes actually reach the disk plus the error to surface (if any).
    fn charge(&self, want: usize) -> (usize, Option<StorageError>) {
        let mut st = self.state();
        if st.crashed {
            return (0, Some(StorageError::Crashed));
        }
        let want64 = want as u64;
        if let Some(budget) = st.write_budget {
            if budget < want64 {
                st.write_budget = Some(0);
                st.crashed = true;
                st.bytes_written += budget;
                return (budget as usize, Some(StorageError::Crashed));
            }
            st.write_budget = Some(budget - want64);
        }
        if let Some(budget) = st.enospc_budget {
            if budget < want64 {
                st.enospc_budget = Some(0);
                st.bytes_written += budget;
                return (budget as usize, Some(StorageError::NoSpace));
            }
            st.enospc_budget = Some(budget - want64);
        }
        st.bytes_written += want64;
        (want, None)
    }

    fn check_alive(&self) -> Result<(), StorageError> {
        if self.state().crashed {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.check_alive()?;
        let limit = self.state().short_read_next.take();
        let disk = self.disk();
        Ok(disk.get(name).map(|f| match limit {
            Some(n) => f[..n.min(f.len())].to_vec(),
            None => f.clone(),
        }))
    }

    fn write(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let (applied, err) = self.charge(data.len());
        if applied > 0 || err.is_none() {
            // Create-or-truncate happens before the torn payload lands —
            // exactly the worst case a crash mid-rewrite produces.
            let mut disk = self.disk();
            disk.insert(name.to_string(), data[..applied].to_vec());
        }
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let (applied, err) = self.charge(data.len());
        if applied > 0 || err.is_none() {
            let mut disk = self.disk();
            disk.entry(name.to_string())
                .or_default()
                .extend_from_slice(&data[..applied]);
        }
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        // Atomic: either it happened or it did not — no torn middle state.
        self.check_alive()?;
        let mut disk = self.disk();
        match disk.remove(from) {
            Some(contents) => {
                disk.insert(to.to_string(), contents);
                Ok(())
            }
            None => Err(StorageError::Io {
                op: "rename",
                detail: format!("no such file: {from}"),
            }),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StorageError> {
        self.check_alive()?;
        let mut disk = self.disk();
        match disk.get_mut(name) {
            Some(f) => {
                f.truncate(len as usize);
                Ok(())
            }
            None => Err(StorageError::Io {
                op: "truncate",
                detail: format!("no such file: {name}"),
            }),
        }
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.check_alive()?;
        self.disk().remove(name);
        Ok(())
    }

    fn len(&self, name: &str) -> Result<Option<u64>, StorageError> {
        self.check_alive()?;
        let disk = self.disk();
        Ok(disk.get(name).map(|f| f.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_basics() {
        let vfs = MemVfs::new();
        assert_eq!(vfs.read("a").unwrap(), None);
        vfs.write("a", b"hello").unwrap();
        vfs.append("a", b" world").unwrap();
        assert_eq!(vfs.read("a").unwrap().unwrap(), b"hello world");
        assert_eq!(vfs.len("a").unwrap(), Some(11));
        vfs.truncate("a", 5).unwrap();
        assert_eq!(vfs.read("a").unwrap().unwrap(), b"hello");
        vfs.rename("a", "b").unwrap();
        assert_eq!(vfs.read("a").unwrap(), None);
        assert_eq!(vfs.read("b").unwrap().unwrap(), b"hello");
        vfs.remove("b").unwrap();
        vfs.remove("b").unwrap(); // idempotent
        assert_eq!(vfs.bytes_written(), 11);
    }

    #[test]
    fn crash_budget_tears_the_write_in_flight() {
        let vfs = MemVfs::faulty(FaultPlan {
            crash_after_bytes: Some(7),
            ..FaultPlan::none()
        });
        vfs.write("a", b"12345").unwrap();
        // 2 bytes of budget left: the append tears after its prefix.
        assert!(matches!(
            vfs.append("a", b"6789"),
            Err(StorageError::Crashed)
        ));
        assert!(vfs.crashed());
        // Everything afterwards is dead.
        assert!(matches!(vfs.read("a"), Err(StorageError::Crashed)));
        assert!(matches!(vfs.write("b", b"x"), Err(StorageError::Crashed)));
        assert!(matches!(vfs.rename("a", "b"), Err(StorageError::Crashed)));
        // The reopened image holds exactly the applied prefix.
        let after = MemVfs::reopen_from(&vfs);
        assert_eq!(after.read("a").unwrap().unwrap(), b"1234567");
        assert!(!after.crashed());
    }

    #[test]
    fn enospc_is_typed_and_nonfatal() {
        let vfs = MemVfs::faulty(FaultPlan {
            enospc_after_bytes: Some(4),
            ..FaultPlan::none()
        });
        assert!(matches!(
            vfs.write("a", b"123456"),
            Err(StorageError::NoSpace)
        ));
        // Process continues: reads work, the torn prefix is visible.
        assert_eq!(vfs.read("a").unwrap().unwrap(), b"1234");
        assert!(!vfs.crashed());
    }

    #[test]
    fn short_read_disarms_after_one_use() {
        let vfs = MemVfs::faulty(FaultPlan {
            short_read_next: Some(3),
            ..FaultPlan::none()
        });
        vfs.write("a", b"123456").unwrap();
        assert_eq!(vfs.read("a").unwrap().unwrap(), b"123");
        assert_eq!(vfs.read("a").unwrap().unwrap(), b"123456");
    }

    #[test]
    fn bit_flip_corrupts_at_rest() {
        let vfs = MemVfs::new();
        vfs.write("a", b"\x00").unwrap();
        assert!(vfs.flip_bit("a", 0, 3));
        assert_eq!(vfs.read("a").unwrap().unwrap(), vec![0b1000]);
        assert!(!vfs.flip_bit("a", 9, 0));
        assert!(!vfs.flip_bit("missing", 0, 0));
    }
}
