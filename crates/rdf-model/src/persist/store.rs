//! The durable store: a [`Dataset`] whose mutations are write-ahead
//! logged and whose state can be checkpointed into a snapshot.
//!
//! # Files
//!
//! | file           | contents                                   |
//! |----------------|--------------------------------------------|
//! | `snapshot.rds` | last checkpoint ([`super::format`] layout) |
//! | `snapshot.tmp` | checkpoint in flight (never read)          |
//! | `wal.log`      | mutations since the checkpoint             |
//!
//! # Protocols
//!
//! **Commit** (insert/append): encode the mutation as a [`WalRecord`],
//! append its frame to `wal.log` (write-ahead), and only then apply it to
//! the in-memory dataset. If the append fails, the in-memory state is
//! untouched and the possibly-torn frame is truncated away; if even that
//! cleanup fails (the "disk" is gone), the store poisons itself and
//! refuses further mutations rather than let memory and log diverge.
//!
//! **Checkpoint**: serialize the dataset to `snapshot.tmp`, atomically
//! rename over `snapshot.rds`, then reset `wal.log` to an empty log. A
//! crash before the rename leaves the old snapshot + full WAL (nothing
//! lost); after the rename, the new snapshot covers every WAL record and
//! replay skips them by generation (replay is idempotent).
//!
//! **Recovery** ([`Store::open`]): load the snapshot if present (absent or
//! zero-length ⇒ fresh dataset), scan the WAL, replay every record whose
//! generation the snapshot does not already cover, truncate any torn
//! tail, and clear a leftover `snapshot.tmp`. The result is exactly the
//! state at some committed prefix of the mutation history — the
//! crash-consistency contract the fault-injection suite enforces.
//!
//! # Canonical mutation order
//!
//! [`Store::insert_graph`] does *not* install the caller's graph object;
//! it logs the graph's triples in canonical (`iter_triples`, SPO) order,
//! then applies *the record* — rebuilding the graph by inserting in logged
//! order and installing it through [`Dataset::insert_graph`]. Live state is
//! therefore always byte-identical to replayed state (same interning order,
//! and the same three slabs, which are a function of the contents), which
//! is what lets the recovery tests demand exact equality — down to
//! scan-cost counters — rather than mere set-equality.

use std::sync::Arc;

use crate::dataset::Dataset;
use crate::graph::Graph;
use crate::term::Triple;

use super::format::{decode_dataset, encode_dataset};
use super::vfs::{StdVfs, Vfs};
use super::wal::{self, WalRecord, WAL_MAGIC};
use super::StorageError;

/// Snapshot file name within the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.rds";
/// In-flight checkpoint file name (write-temp-then-rename).
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";
/// Write-ahead log file name.
pub const WAL_FILE: &str = "wal.log";

/// What [`Store::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot was present and decoded.
    pub snapshot_loaded: bool,
    /// WAL records applied on top of the snapshot.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covered their
    /// generation (normal after a crash between checkpoint-rename and
    /// WAL reset).
    pub skipped: usize,
    /// Bytes of torn WAL tail truncated away.
    pub torn_bytes_truncated: u64,
}

/// Cumulative durability telemetry over a store's open-to-drop lifetime.
///
/// Counters start at what [`Store::open`] observed (`recoveries`,
/// recovery-time `wal_bytes_truncated`) and grow with use; they are *not*
/// persisted, so a reopened store starts fresh. The serving layer surfaces
/// them so an operator can see the write-path cost (commits vs
/// checkpoints) and whether crashes ever tore the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Mutations durably committed through the WAL (append succeeded).
    pub commits: u64,
    /// Checkpoints completed end-to-end (snapshot renamed *and* WAL reset).
    pub checkpoints: u64,
    /// Bytes of WAL discarded as invalid: torn tails cut at recovery plus
    /// torn frames rolled back after a failed commit append.
    pub wal_bytes_truncated: u64,
    /// 1 when [`Store::open`] found prior state to recover (a snapshot, WAL
    /// records to replay or skip, or a torn tail); 0 for a fresh directory.
    pub recoveries: u64,
}

/// A durable, crash-consistent [`Dataset`].
pub struct Store {
    vfs: Arc<dyn Vfs>,
    dataset: Dataset,
    recovery: RecoveryReport,
    stats: StoreStats,
    /// Length of the valid (whole-frame) WAL prefix on disk.
    wal_len: u64,
    /// Set when a failed commit could not be rolled back; all further
    /// mutations refuse with [`StorageError::Poisoned`].
    poisoned: bool,
}

impl Store {
    /// Open (or create) a store in `dir` on the real file system.
    pub fn open_path(dir: impl AsRef<std::path::Path>) -> Result<Store, StorageError> {
        Store::open(Arc::new(StdVfs::new(dir)?))
    }

    /// Open (or create) a store over an arbitrary [`Vfs`], running
    /// recovery: snapshot load, WAL replay, torn-tail truncation.
    pub fn open(vfs: Arc<dyn Vfs>) -> Result<Store, StorageError> {
        let mut recovery = RecoveryReport::default();
        let mut dataset = match vfs.read(SNAPSHOT_FILE)? {
            Some(bytes) if !bytes.is_empty() => {
                let ds = decode_dataset(&bytes)?;
                recovery.snapshot_loaded = true;
                ds
            }
            // Absent or zero-length (torn at the worst moment): fresh.
            _ => Dataset::new(),
        };
        let wal_len = match vfs.read(WAL_FILE)? {
            None => {
                vfs.write(WAL_FILE, WAL_MAGIC)?;
                WAL_MAGIC.len() as u64
            }
            Some(bytes) => {
                let scan = wal::scan(&bytes)?;
                for rec in scan.records {
                    if rec.gen() <= dataset.stats_generation() {
                        recovery.skipped += 1;
                        continue;
                    }
                    Self::apply(&mut dataset, rec)?;
                    recovery.replayed += 1;
                }
                recovery.torn_bytes_truncated = scan.torn_bytes;
                if scan.valid_len == 0 {
                    // The header itself was torn: no frame ever existed,
                    // start the log over.
                    vfs.write(WAL_FILE, WAL_MAGIC)?;
                    WAL_MAGIC.len() as u64
                } else {
                    if scan.torn_bytes > 0 {
                        vfs.truncate(WAL_FILE, scan.valid_len)?;
                    }
                    scan.valid_len
                }
            }
        };
        // A leftover snapshot.tmp is a checkpoint that died before its
        // rename; it was never authoritative.
        vfs.remove(SNAPSHOT_TMP_FILE)?;
        let recovered = recovery.snapshot_loaded
            || recovery.replayed > 0
            || recovery.skipped > 0
            || recovery.torn_bytes_truncated > 0;
        let stats = StoreStats {
            wal_bytes_truncated: recovery.torn_bytes_truncated,
            recoveries: u64::from(recovered),
            ..StoreStats::default()
        };
        Ok(Store {
            vfs,
            dataset,
            recovery,
            stats,
            wal_len,
            poisoned: false,
        })
    }

    /// Apply a WAL record to the dataset — the single mutation path shared
    /// by live commits and recovery replay (see the module docs on
    /// canonical mutation order).
    fn apply(dataset: &mut Dataset, rec: WalRecord) -> Result<(), StorageError> {
        match rec {
            WalRecord::AppendTriples { gen, uri, triples } => {
                if dataset.append_triples(&uri, triples).is_none() {
                    return Err(StorageError::UnknownGraph(uri));
                }
                dataset.set_stats_generation(gen);
            }
            WalRecord::InsertGraph { gen, uri, triples } => {
                let mut graph = Graph::new();
                for t in &triples {
                    graph.insert(t);
                }
                dataset.insert_graph(uri, graph);
                dataset.set_stats_generation(gen);
            }
        }
        Ok(())
    }

    /// Write-ahead commit: log the record durably, then apply it. On a
    /// failed append the in-memory dataset is untouched and the torn frame
    /// is truncated away; if the truncate also fails the store poisons.
    fn commit(&mut self, rec: WalRecord) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        let frame = rec.encode_frame();
        match self.vfs.append(WAL_FILE, &frame) {
            Ok(()) => {
                self.wal_len += frame.len() as u64;
                self.stats.commits += 1;
                Self::apply(&mut self.dataset, rec)
            }
            Err(e) => {
                if self.vfs.truncate(WAL_FILE, self.wal_len).is_err() {
                    self.poisoned = true;
                } else {
                    // The torn frame (up to `frame.len()` bytes of it) is
                    // gone from the log.
                    self.stats.wal_bytes_truncated += frame.len() as u64;
                }
                Err(e)
            }
        }
    }

    /// Durably insert (or replace) a named graph. The graph's triples are
    /// logged in canonical SPO order; the installed graph is rebuilt from
    /// the log record.
    pub fn insert_graph(&mut self, uri: &str, graph: &Graph) -> Result<(), StorageError> {
        let rec = WalRecord::InsertGraph {
            gen: self.dataset.stats_generation() + 1,
            uri: uri.to_string(),
            triples: graph.iter_triples().collect(),
        };
        self.commit(rec)
    }

    /// Durably append a batch of triples to an existing graph. Fails with
    /// [`StorageError::UnknownGraph`] — before anything is logged — when
    /// the graph does not exist.
    pub fn append_triples(&mut self, uri: &str, triples: Vec<Triple>) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        if self.dataset.graph(uri).is_none() {
            return Err(StorageError::UnknownGraph(uri.to_string()));
        }
        let rec = WalRecord::AppendTriples {
            gen: self.dataset.stats_generation() + 1,
            uri: uri.to_string(),
            triples,
        };
        self.commit(rec)
    }

    /// Checkpoint: serialize the dataset, atomically swap it in as the
    /// snapshot, then reset the WAL. Crash-safe at every step — see the
    /// module docs for the failure analysis.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        let bytes = encode_dataset(&self.dataset);
        self.vfs.write(SNAPSHOT_TMP_FILE, &bytes)?;
        self.vfs.rename(SNAPSHOT_TMP_FILE, SNAPSHOT_FILE)?;
        // From here the snapshot covers every WAL record (replay would skip
        // them all), but the log must be reset before further commits: a
        // torn half-written header with frames appended after it would not
        // scan. If the reset fails, poison rather than risk that state.
        match self.vfs.write(WAL_FILE, WAL_MAGIC) {
            Ok(()) => {
                self.wal_len = WAL_MAGIC.len() as u64;
                self.stats.checkpoints += 1;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The live dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// A shareable clone of the live dataset (e.g. to hand to an engine).
    pub fn shared_dataset(&self) -> Arc<Dataset> {
        Arc::new(self.dataset.clone())
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Durability telemetry accumulated since this store was opened.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Length of the valid WAL prefix on disk (magic + whole frames).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// True when a failed commit could not be rolled back and the store
    /// now refuses mutations.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::vfs::{FaultPlan, MemVfs};
    use crate::term::Term;

    fn triple(i: i64) -> Triple {
        Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::integer(i),
        )
    }

    fn small_graph(n: i64) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(&triple(i));
        }
        g
    }

    #[test]
    fn fresh_open_is_empty_and_usable() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        assert!(store.dataset().is_empty());
        assert!(!store.recovery().snapshot_loaded);
        store.insert_graph("http://g", &small_graph(3)).unwrap();
        assert_eq!(store.dataset().graph("http://g").unwrap().len(), 3);
        // Reopen picks the mutation up from the WAL alone.
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        assert_eq!(store2.recovery().replayed, 1);
        assert_eq!(store2.dataset().graph("http://g").unwrap().len(), 3);
        assert_eq!(
            store2.dataset().stats_generation(),
            store.dataset().stats_generation()
        );
    }

    #[test]
    fn checkpoint_then_reopen_replays_nothing() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        store.insert_graph("http://g", &small_graph(5)).unwrap();
        store.append_triples("http://g", vec![triple(10)]).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.wal_len(), WAL_MAGIC.len() as u64);
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        assert!(store2.recovery().snapshot_loaded);
        assert_eq!(store2.recovery().replayed, 0);
        assert_eq!(store2.dataset().graph("http://g").unwrap().len(), 6);
        assert_eq!(
            store2.dataset().stats_generation(),
            store.dataset().stats_generation()
        );
    }

    #[test]
    fn live_state_equals_replayed_state_exactly() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        store.insert_graph("http://g", &small_graph(20)).unwrap();
        // Two appends, the second interning in reverse and repeating one
        // triple: replay must intern alike and build the same slabs.
        store
            .append_triples("http://g", (20..30).map(triple).collect())
            .unwrap();
        store
            .append_triples("http://g", (29..2000).rev().map(triple).collect())
            .unwrap();
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        let a = store.dataset().graph("http://g").unwrap();
        let b = store2.dataset().graph("http://g").unwrap();
        assert_eq!(a.len(), 2000);
        assert_eq!(a, b, "all three slabs");
        assert_eq!(
            store.dataset().graph_stats("http://g"),
            store2.dataset().graph_stats("http://g")
        );
        let (ia, ib) = (store.dataset().interner(), store2.dataset().interner());
        assert!(ia.iter().eq(ib.iter()), "same terms under the same ids");
    }

    #[test]
    fn append_to_unknown_graph_is_typed_and_unlogged() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        let before = store.wal_len();
        let err = store.append_triples("http://nope", vec![triple(1)]);
        assert!(matches!(err, Err(StorageError::UnknownGraph(_))));
        assert_eq!(store.wal_len(), before);
    }

    #[test]
    fn failed_append_rolls_the_log_back() {
        // Budget lets open() write the magic, then the first commit tears.
        let vfs = Arc::new(MemVfs::faulty(FaultPlan {
            enospc_after_bytes: Some(WAL_MAGIC.len() as u64 + 10),
            ..FaultPlan::none()
        }));
        let mut store = Store::open(vfs.clone()).unwrap();
        let err = store.insert_graph("http://g", &small_graph(3));
        assert!(matches!(err, Err(StorageError::NoSpace)));
        // Memory untouched, log truncated back to whole frames.
        assert!(store.dataset().is_empty());
        assert!(!store.is_poisoned());
        assert_eq!(store.stats().commits, 0);
        assert!(store.stats().wal_bytes_truncated > 0);
        assert_eq!(
            vfs.len(WAL_FILE).unwrap(),
            Some(WAL_MAGIC.len() as u64),
            "torn frame must be truncated away"
        );
        // The store keeps working once space is back (budget exhausted ⇒
        // further writes tear at 0 bytes... so reopen instead).
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        assert!(store2.dataset().is_empty());
    }

    #[test]
    fn crash_mid_commit_poisons_and_reopen_recovers() {
        let vfs = Arc::new(MemVfs::faulty(FaultPlan {
            crash_after_bytes: Some(WAL_MAGIC.len() as u64 + 10),
            ..FaultPlan::none()
        }));
        let mut store = Store::open(vfs.clone()).unwrap();
        let err = store.insert_graph("http://g", &small_graph(3));
        assert!(matches!(err, Err(StorageError::Crashed)));
        // Rollback truncate also crashed: store is poisoned.
        assert!(store.is_poisoned());
        assert!(matches!(
            store.append_triples("http://g", vec![triple(1)]),
            Err(StorageError::Poisoned)
        ));
        // The torn frame is on disk; recovery cuts it away.
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        assert!(store2.dataset().is_empty());
        assert!(store2.recovery().torn_bytes_truncated > 0);
        assert_eq!(store2.stats().recoveries, 1);
        assert_eq!(
            store2.stats().wal_bytes_truncated,
            store2.recovery().torn_bytes_truncated
        );
    }

    #[test]
    fn store_stats_account_commits_checkpoints_and_recoveries() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        assert_eq!(store.stats(), StoreStats::default());
        store.insert_graph("http://g", &small_graph(3)).unwrap();
        store.append_triples("http://g", vec![triple(10)]).unwrap();
        assert_eq!(store.stats().commits, 2);
        assert_eq!(store.stats().checkpoints, 0);
        store.checkpoint().unwrap();
        let s = store.stats();
        assert_eq!(s.checkpoints, 1);
        assert!(s.checkpoints <= s.commits);
        assert_eq!(s.recoveries, 0, "a fresh directory is not a recovery");
        // Counters are per-lifetime: a reopen observes one recovery and
        // starts the mutation counters over.
        let store2 = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        let s2 = store2.stats();
        assert_eq!(s2.recoveries, 1);
        assert_eq!(s2.commits, 0);
        assert_eq!(s2.checkpoints, 0);
    }

    #[test]
    fn leftover_tmp_snapshot_is_discarded() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        store.insert_graph("http://g", &small_graph(2)).unwrap();
        store.checkpoint().unwrap();
        // Simulate a later checkpoint dying after the tmp write.
        vfs.write(SNAPSHOT_TMP_FILE, b"half a snapshot").unwrap();
        let reopened_vfs = Arc::new(MemVfs::reopen_from(&vfs));
        let store2 = Store::open(reopened_vfs.clone()).unwrap();
        assert_eq!(store2.dataset().graph("http://g").unwrap().len(), 2);
        assert_eq!(reopened_vfs.read(SNAPSHOT_TMP_FILE).unwrap(), None);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let vfs = Arc::new(MemVfs::new());
        let mut store = Store::open(vfs.clone()).unwrap();
        store.insert_graph("http://g", &small_graph(4)).unwrap();
        store.checkpoint().unwrap();
        assert!(vfs.flip_bit(SNAPSHOT_FILE, 40, 2));
        let err = Store::open(Arc::new(MemVfs::reopen_from(&vfs)));
        assert!(matches!(err, Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn zero_length_snapshot_opens_fresh() {
        let vfs = Arc::new(MemVfs::new());
        vfs.write(SNAPSHOT_FILE, b"").unwrap();
        let store = Store::open(vfs).unwrap();
        assert!(store.dataset().is_empty());
        assert!(!store.recovery().snapshot_loaded);
    }
}
