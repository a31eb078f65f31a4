//! What a loaded dataset holds, by component, counted in bytes, not timed.
//!
//! The three experiment graphs are generated at scale 512 and installed with
//! `insert_graph`. The dataset's live bytes then split into
//!
//! - the index: three exact-size slabs of 12-byte id triples per graph,
//!   36 bytes a triple;
//! - the statistics, each graph's per-predicate map (measured by building
//!   it once more);
//! - a fixed part that does not grow with the data (the graph maps, URIs
//!   and `Arc` blocks: the same three graphs installed empty);
//! - the dictionary: what is left.
//!
//! The dictionary is held to a budget derived from its layout, term by
//! term, with no slack (the bytes must equal it):
//!
//! - `size_of::<Term>()` for its slot in the by-value term table (exact
//!   after an install);
//! - every string it owns (an IRI, a blank label, a literal's lexical
//!   form, language tag or datatype) as one `Arc<str>` block: two counters
//!   and the bytes, `16 + len` rounded up to 8;
//! - every literal's one `Arc<Literal>` block: `16 + size_of::<Literal>()`;
//! - its share of the id table: one `u32` per slot, the slots the smallest
//!   power of two (at least 8) that keeps the table at most 3/4 full.
//!
//! A dictionary that keeps each term in an `Arc<Term>` block behind a `Vec`
//! slot and maps terms to ids through a hash map of `Arc`s does not meet
//! this budget. A dataset recovered from its snapshot must hold the same
//! dictionary bytes as the live one. Term ranks, built lazily by the first
//! `ORDER BY`, are printed beside the rest.
//!
//! This binary installs its own counting allocator, which is why it is one
//! `#[test]`: nothing else may allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use bench::data;
use rdf_model::persist::format::{decode_dataset, encode_dataset};
use rdf_model::{Dataset, Graph, Literal, Term};

const SCALE: usize = 512;

/// Index bytes per triple: SPO, POS and OSP slabs of `(u32, u32, u32)`.
const INDEX_BYTES_PER_TRIPLE: usize = 3 * 12;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; return its result and the bytes live afterwards that were not
/// live before (its result included, while the caller holds it; memory it
/// freed that was allocated before counts against it).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let out = f();
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    (
        out,
        usize::try_from(after - before).expect("f left fewer bytes live"),
    )
}

/// One `Arc<str>` block: the strong and weak counters, then the bytes,
/// padded to the counters' alignment.
fn arc_str_bytes(s: &str) -> usize {
    (16 + s.len()).next_multiple_of(8)
}

/// Terms by kind, and the dictionary's budget as derived in the module
/// docs.
#[derive(Debug, Default, PartialEq)]
struct Census {
    iris: usize,
    blanks: usize,
    literals: usize,
    string_bytes: usize,
}

impl Census {
    fn of(dataset: &Dataset) -> Census {
        let mut census = Census::default();
        for (_, term) in dataset.interner().iter() {
            match term {
                Term::Iri(s) => {
                    census.iris += 1;
                    census.string_bytes += arc_str_bytes(s);
                }
                Term::Blank(s) => {
                    census.blanks += 1;
                    census.string_bytes += arc_str_bytes(s);
                }
                Term::Literal(l) => {
                    census.literals += 1;
                    census.string_bytes +=
                        [Some(&l.lexical), l.language.as_ref(), l.datatype.as_ref()]
                            .into_iter()
                            .flatten()
                            .map(|s| arc_str_bytes(s))
                            .sum::<usize>();
                }
            }
        }
        census
    }

    fn terms(&self) -> usize {
        self.iris + self.blanks + self.literals
    }

    fn table_bytes(&self) -> usize {
        let slots = (self.terms() * 4).div_ceil(3).next_power_of_two().max(8);
        slots * std::mem::size_of::<u32>()
    }

    fn budget(&self) -> usize {
        self.terms() * std::mem::size_of::<Term>()
            + self.string_bytes
            + self.literals * (16 + std::mem::size_of::<Literal>())
            + self.table_bytes()
    }
}

/// The bytes of `dataset` beyond `fixed` that are neither index nor
/// statistics.
fn dictionary_bytes(dataset: &Dataset, total: usize, fixed: usize) -> (usize, usize, usize) {
    let uris = [data::uris::DBPEDIA, data::uris::DBLP, data::uris::YAGO];
    let triples: usize = uris
        .iter()
        .map(|u| dataset.graph(u).expect("graph").len())
        .sum();
    let index = INDEX_BYTES_PER_TRIPLE * triples;
    let stats: usize = uris
        .iter()
        .map(|u| counted(|| dataset.graph(u).expect("graph").stats()).1)
        .sum();
    (total - fixed - index - stats, index, stats)
}

#[test]
fn dictionary_bytes_stay_within_the_layout_budget() {
    // Whatever the generators initialise once is live before counting.
    drop(data::build_graphs(SCALE));

    let uris = [data::uris::DBPEDIA, data::uris::DBLP, data::uris::YAGO];
    let (empty, fixed) = counted(|| {
        let mut ds = Dataset::new();
        for uri in uris {
            ds.insert_graph(uri, Graph::new());
        }
        ds
    });
    drop(empty);

    // The builders are generated inside the window and consumed by the
    // installs, so what stays live is the dataset alone.
    let (live, total) = counted(|| {
        let mut ds = Dataset::new();
        for (uri, graph) in data::build_graphs(SCALE) {
            ds.insert_graph(uri, graph);
        }
        ds
    });
    let (dictionary, index, stats) = dictionary_bytes(&live, total, fixed);
    let (_, ranks) = counted(|| live.term_ranks());

    let census = Census::of(&live);
    let terms = census.terms();
    let triples = index / INDEX_BYTES_PER_TRIPLE;
    let budget = census.budget();
    println!(
        "scale {SCALE}: {triples} triples, {terms} terms ({} IRIs, {} blank nodes, {} literals)",
        census.iris, census.blanks, census.literals
    );
    println!("dataset {total} B = index {index} + statistics {stats} + fixed {fixed} + dictionary {dictionary}");
    println!("term ranks (lazy): {ranks} B");
    println!(
        "dictionary {dictionary} B, {:.1} B/term; budget {budget} B = terms {} + strings {} + literals {} + id table {}",
        dictionary as f64 / terms as f64,
        terms * std::mem::size_of::<Term>(),
        census.string_bytes,
        census.literals * (16 + std::mem::size_of::<Literal>()),
        census.table_bytes(),
    );
    assert!(
        census.iris > 0 && census.literals > 0,
        "the census must see both kinds it budgets"
    );
    // Within the budget, and not under it either: every byte is one the
    // layout accounts for, so no table keeps spare capacity.
    assert_eq!(
        dictionary, budget,
        "dictionary bytes differ from the layout's budget"
    );

    // Recovery decodes the same term table: same terms, same bytes.
    let bytes = encode_dataset(&live);
    let (recovered, recovered_total) = counted(|| decode_dataset(&bytes).expect("decodes"));
    assert_eq!(Census::of(&recovered), census);
    let (recovered_dictionary, recovered_index, _) =
        dictionary_bytes(&recovered, recovered_total, fixed);
    assert_eq!(recovered_index, index);
    println!("recovered: dataset {recovered_total} B, dictionary {recovered_dictionary} B");
    assert_eq!(
        recovered_dictionary, dictionary,
        "a recovered dictionary must hold what the live one does"
    );
}
