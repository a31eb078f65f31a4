//! Snapshot round-trip properties: for arbitrary datasets — graphs built by
//! appends, graphs installed whole, empty graphs, huge literals —
//! `decode(encode(ds))` reproduces the three slabs, interner, and
//! generation counters exactly, and a snapshot of the snapshot is
//! byte-identical. Plus the `Dataset::open` contract on real directories:
//! absent and empty paths yield fresh, usable stores.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest};
use rdf_model::persist::format::{decode_dataset, encode_dataset};
use rdf_model::{Dataset, Graph, Term, Triple};

/// Deterministic term from a small index; `kind` selects the shape.
fn term(kind: u8, idx: u32) -> Term {
    match kind % 6 {
        0 => Term::iri(format!("http://example.org/resource/{idx}")),
        1 => Term::blank(format!("b{idx}")),
        2 => Term::string(format!("plain value {idx}")),
        3 => Term::from(rdf_model::Literal::lang_string(
            format!("wert {idx}"),
            if idx.is_multiple_of(2) { "de" } else { "en-GB" },
        )),
        4 => Term::integer(i64::from(idx)),
        // Huge literal: forces multi-kilobyte strings through the codec.
        _ => Term::string(format!(
            "huge {idx} {}",
            "x".repeat(4096 + idx as usize % 4096)
        )),
    }
}

fn triple(s: u32, p: u32, o: u32, kind: u8) -> Triple {
    Triple::new(
        Term::iri(format!("http://example.org/s/{s}")),
        Term::iri(format!("http://example.org/p/{p}")),
        term(kind, o),
    )
}

/// Logical + physical equality of two datasets, as a `prop_assert`-able
/// result.
fn assert_datasets_identical(a: &Dataset, b: &Dataset) -> Result<(), String> {
    if a.stats_generation() != b.stats_generation() {
        return Err(format!(
            "stats_generation {} != {}",
            a.stats_generation(),
            b.stats_generation()
        ));
    }
    let uris: Vec<&str> = a.graph_uris().collect();
    if uris != b.graph_uris().collect::<Vec<_>>() {
        return Err("graph uri sets differ".into());
    }
    for uri in uris {
        let (ga, gb) = (a.graph(uri).unwrap(), b.graph(uri).unwrap());
        if ga != gb {
            return Err(format!("{uri}: slabs differ"));
        }
    }
    // One dictionary, compared term by term under its ids.
    if !a.interner().iter().eq(b.interner().iter()) {
        return Err("interners differ".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig {
        cases: 64,
        ..proptest::test_runner::ProptestConfig::default()
    })]

    #[test]
    fn snapshot_roundtrip_preserves_everything(
        base in vec((0u32..40, 0u32..6, 0u32..60, 0u8..6), 0..120),
        appends in vec((0u32..40, 0u32..6, 0u32..60, 0u8..6), 0..40),
        split in 0usize..48,
        graph_count in 1usize..4,
    ) {
        let mut ds = Dataset::new();
        for g in 0..graph_count {
            let uri = format!("http://graphs/{g}");
            let mine: Vec<Triple> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| i % graph_count == g)
                .map(|(_, &(s, p, o, kind))| triple(s, p, o, kind))
                .collect();
            // The graphs share subjects and predicates, so every one after
            // the first is re-keyed out of its builder's id order. The
            // graph's triples past `split` are appended after the install,
            // so a graph is installed whole, in part, or (split 0) empty
            // and then appended.
            let (first, appended) = mine.split_at(split.min(mine.len()));
            let mut graph = Graph::new();
            for t in first {
                graph.insert(t);
            }
            ds.insert_graph(uri.clone(), graph);
            ds.append_triples(&uri, appended.to_vec());
        }
        // Always keep one graph empty to exercise the empty-slab path.
        ds.insert_graph("http://graphs/empty", Graph::new());
        let last = format!("http://graphs/{}", graph_count - 1);
        if !appends.is_empty() {
            ds.append_triples(
                &last,
                appends.iter().map(|&(s, p, o, kind)| triple(s, p, o, kind)),
            );
        }

        let bytes = encode_dataset(&ds);
        let back = match decode_dataset(&bytes) {
            Ok(ds) => ds,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        assert_datasets_identical(&ds, &back)?;
        // Byte stability: a snapshot of the snapshot is the snapshot.
        prop_assert_eq!(encode_dataset(&back).len(), bytes.len());
        prop_assert!(encode_dataset(&back) == bytes, "re-encode not byte-identical");
    }
}

// ---------------------------------------------------------------------------
// Dataset::open on real directories.

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "rdf-persist-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn a_revision_1_snapshot_is_a_typed_error_at_open() {
    use rdf_model::persist::{MemVfs, StorageError, Store, Vfs, SNAPSHOT_FILE};
    use std::sync::Arc;
    // Revision 1 kept a term table per graph, snapshot revision 2 and WAL
    // revision 1 a merge threshold (and the snapshot a merge counter) per
    // graph, snapshot revision 3 stored POS, OSP and a delta next to SPO;
    // nothing reads them any more. Opening a store over such a file
    // must refuse by magic — whatever the bytes after it — and never panic
    // or come up empty.
    use rdf_model::persist::WAL_FILE;
    let old = [
        (SNAPSHOT_FILE, b"RDFSNAP1", 1),
        (SNAPSHOT_FILE, b"RDFSNAP2", 2),
        (SNAPSHOT_FILE, b"RDFSNAP3", 3),
        (WAL_FILE, b"RDFWAL01", 1),
    ];
    for (file_name, magic, revision) in old {
        for tail in [&b""[..], b"\x00\x00\x00\x00\x01\x00", &[0xff; 64]] {
            let vfs = Arc::new(MemVfs::new());
            let mut file = magic.to_vec();
            file.extend_from_slice(tail);
            vfs.write(file_name, &file).unwrap();
            assert_eq!(
                Store::open(vfs).err(),
                Some(StorageError::UnsupportedVersion(revision)),
                "{file_name} under {}",
                String::from_utf8_lossy(magic)
            );
        }
    }
}

#[test]
fn open_absent_path_yields_fresh_usable_store() {
    let dir = scratch_dir("absent");
    assert!(!dir.exists());
    let mut store = Dataset::open(&dir).expect("absent path opens fresh");
    assert!(store.dataset().is_empty());
    let mut g = Graph::new();
    g.insert(&triple(1, 1, 1, 0));
    store.insert_graph("http://g", &g).unwrap();
    assert_eq!(store.dataset().graph("http://g").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_empty_dir_yields_fresh_store() {
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let store = Dataset::open(&dir).expect("empty dir opens fresh");
    assert!(store.dataset().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_after_clean_close_is_byte_stable() {
    let dir = scratch_dir("stable");
    {
        let mut store = Dataset::open(&dir).unwrap();
        let mut g = Graph::new();
        for i in 0..25 {
            g.insert(&triple(i, i % 3, i * 7, (i % 6) as u8));
        }
        store.insert_graph("http://g", &g).unwrap();
        store
            .append_triples("http://g", vec![triple(100, 1, 100, 5)])
            .unwrap();
        store.checkpoint().unwrap();
    }
    let first = std::fs::read(dir.join("snapshot.rds")).unwrap();
    {
        // Reopen (replays nothing), checkpoint again: the snapshot must
        // not change by a single byte.
        let mut store = Dataset::open(&dir).unwrap();
        assert!(store.recovery().snapshot_loaded);
        assert_eq!(store.recovery().replayed, 0);
        store.checkpoint().unwrap();
    }
    let second = std::fs::read(dir.join("snapshot.rds")).unwrap();
    assert_eq!(first, second, "snapshot of the snapshot must be identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_survives_without_checkpoint_on_real_fs() {
    let dir = scratch_dir("wal");
    {
        let mut store = Dataset::open(&dir).unwrap();
        let mut g = Graph::new();
        g.insert(&triple(1, 2, 3, 4));
        store.insert_graph("http://g", &g).unwrap();
        // No checkpoint: durability must come from the WAL alone.
    }
    let store = Dataset::open(&dir).unwrap();
    assert!(!store.recovery().snapshot_loaded);
    assert_eq!(store.recovery().replayed, 1);
    assert_eq!(store.dataset().graph("http://g").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
