//! Shared subplans: which nodes of a plan are the same computation, and the
//! buffer that lets one evaluation serve all of them.
//!
//! A frame that is reused (`movies.cache()` feeding three derived frames
//! that are joined back together) arrives as a plan *tree* with the reused
//! subtree inlined once per use. [`Shared::of`] hash-conses that tree into a
//! DAG — structurally equal subtrees are one node — and names every DAG
//! node with more than one parent edge a **class**. The pipeline evaluates a
//! class once and hands the result to each parent edge through a [`Replay`],
//! pull by pull: a spool with one cursor per reader.
//!
//! The oracle (`eval_reference`) never looks at this module: it evaluates
//! every occurrence, which is what makes it the unshared reference the
//! sharing executor is checked against.
//!
//! **Visiting order is part of the contract.** Classes are keyed by the
//! address of each occurrence's root, and a class nested inside another
//! class is only reachable through the outer class's *first* occurrence in
//! pre-order (left input before right) — repeats are never descended into,
//! here or by the pipeline builder. The builder therefore builds a class
//! from the first occurrence it meets, visiting inputs left before right
//! exactly like [`Plan::children`]; [`Shared::is_first`] lets it assert it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use crate::algebra::Plan;

/// The sharing classes of one plan (valid while that plan is borrowed:
/// occurrences are identified by address and never dereferenced).
#[derive(Debug, Default)]
pub(crate) struct Shared {
    /// Root address of every occurrence of a class → class id.
    class_of: HashMap<*const Plan, usize>,
    /// Per class: its first occurrence in pre-order, and its parent edges in
    /// the DAG — the number of consumers the one evaluation serves.
    classes: Vec<(*const Plan, usize)>,
}

impl Shared {
    /// Hash-cons `root` and collect its classes, numbered in pre-order of
    /// first occurrence. O(plan nodes): one bottom-up digest per node, one
    /// top-down walk that stops at every repeat, and one structural
    /// comparison per repeat (whose subtrees are disjoint). A plan in which
    /// no two digests agree — nearly every plan — is done after the digests.
    ///
    /// Never a class: [`Plan::Unit`] (nothing to save), the root (no parent),
    /// and a subtree that repeats only *inside* the repeats of a larger one —
    /// in the DAG it has a single parent, the larger node.
    pub(crate) fn of(root: &Plan) -> Shared {
        let mut nodes = Vec::with_capacity(32);
        digest(root, &mut nodes);
        let mut digests: Vec<u64> = nodes.iter().map(|n| n.digest).collect();
        digests.sort_unstable();
        if digests.windows(2).all(|w| w[0] != w[1]) {
            return Shared::default();
        }

        let mut dag = Dag {
            parents: vec![0; nodes.len()],
            nodes,
            first: HashMap::new(),
            edges: Vec::new(),
        };
        dag.link(0);

        let mut shared = Shared::default();
        let mut class_ids: Vec<Option<usize>> = vec![None; dag.nodes.len()];
        for &(node, occurrence) in &dag.edges {
            let parents = dag.parents[node];
            if parents < 2 {
                continue;
            }
            let class = *class_ids[node].get_or_insert_with(|| {
                shared.classes.push((dag.nodes[node].plan, parents));
                shared.classes.len() - 1
            });
            shared.class_of.insert(dag.nodes[occurrence].plan, class);
        }
        shared
    }

    /// Number of classes (one spool each).
    pub(crate) fn len(&self) -> usize {
        self.classes.len()
    }

    /// The class `plan` is an occurrence of, if any.
    pub(crate) fn class(&self, plan: &Plan) -> Option<usize> {
        if self.classes.is_empty() {
            return None;
        }
        self.class_of.get(&(plan as *const Plan)).copied()
    }

    /// How many consumers class `k`'s one evaluation serves (≥ 2).
    pub(crate) fn readers(&self, k: usize) -> usize {
        self.classes[k].1
    }

    /// Is `plan` the occurrence class `k` must be built from?
    pub(crate) fn is_first(&self, k: usize, plan: &Plan) -> bool {
        std::ptr::eq(self.classes[k].0, plan)
    }
}

/// One plan node, at its pre-order position.
struct Node<'p> {
    plan: &'p Plan,
    /// Structural digest: the node's own fields and its inputs' digests.
    /// (`Plan::Unit` nodes get their position instead: never shared.)
    digest: u64,
    /// Nodes in this subtree, itself included: the next sibling is `size`
    /// positions on.
    size: usize,
}

/// List `plan`'s nodes in pre-order with their digests, computed bottom-up
/// so that each node is hashed once.
fn digest<'p>(plan: &'p Plan, out: &mut Vec<Node<'p>>) -> u64 {
    let at = out.len();
    out.push(Node {
        plan,
        digest: at as u64,
        size: 1,
    });
    let mut h = DefaultHasher::new();
    std::mem::discriminant(plan).hash(&mut h);
    match plan {
        Plan::Unit => return at as u64,
        Plan::Union(..) | Plan::Distinct(_) => {}
        Plan::Join { merge_on, .. } | Plan::LeftJoin { merge_on, .. } => merge_on.hash(&mut h),
        Plan::Bgp {
            patterns,
            graph,
            filters,
        } => (patterns, graph, filters).hash(&mut h),
        Plan::BindLeftJoin {
            pattern,
            graph,
            filters,
            ..
        } => (pattern, graph, filters).hash(&mut h),
        Plan::Filter(expr, _) => expr.hash(&mut h),
        Plan::Extend(var, expr, _) => (var, expr).hash(&mut h),
        Plan::Group { keys, aggs, .. } => (keys, aggs).hash(&mut h),
        Plan::Project(vars, _) => vars.hash(&mut h),
        Plan::OrderBy { keys, top, .. } => (keys, top).hash(&mut h),
        Plan::Slice { limit, offset, .. } => (limit, offset).hash(&mut h),
    }
    for child in plan.children() {
        digest(child, out).hash(&mut h);
    }
    out[at].digest = h.finish();
    out[at].size = out.len() - at;
    out[at].digest
}

/// The plan as a DAG under construction. A DAG node is named by the
/// pre-order position of its first occurrence.
struct Dag<'p> {
    nodes: Vec<Node<'p>>,
    /// Digest → the DAG node carrying it. (Should two structures ever
    /// collide, the later one is simply never found again and goes
    /// unshared: a repeat is confirmed with `==` before it is believed.)
    first: HashMap<u64, usize>,
    /// Parent edges per DAG node.
    parents: Vec<usize>,
    /// Every parent edge in pre-order: `(DAG node, occurrence)`.
    edges: Vec<(usize, usize)>,
}

impl Dag<'_> {
    /// Record the parent edges leaving the node at `parent`, descending into
    /// an input only the first time its structure is seen.
    fn link(&mut self, parent: usize) {
        let end = parent + self.nodes[parent].size;
        let mut child = parent + 1;
        while child < end {
            let Node { plan, digest, size } = self.nodes[child];
            let known = self.first.get(&digest).copied();
            let node = known
                .filter(|&n| self.nodes[n].plan == plan)
                .unwrap_or(child);
            self.parents[node] += 1;
            self.edges.push((node, child));
            if node == child {
                self.first.entry(digest).or_insert(child);
                self.link(child);
            }
            child += size;
        }
    }
}

/// One evaluation's output, handed to each of `readers` consumers in turn.
///
/// The source's pulls are recorded in order; every reader consumes every
/// pull exactly once, in order, keeping its own position. A pull is cloned
/// for all readers but the last, who takes it by move, and is released the
/// moment the slowest reader has passed it — so what is retained is exactly
/// the lag between the fastest and the slowest reader. Each pull carries the
/// `rows_scanned + shared_scans` its production added, which every replay
/// reports as `shared_scans`: the work the replay stood in for.
#[derive(Debug)]
pub(crate) struct Replay<T> {
    readers: usize,
    /// Retained pulls; entry `j` is pull `released + j`.
    pulls: VecDeque<Pull<T>>,
    released: usize,
    /// `(rows, bytes)` of the retained pulls.
    retained: (u64, u64),
}

#[derive(Debug)]
struct Pull<T> {
    item: T,
    scans: u64,
    size: (u64, u64),
    /// Readers yet to consume this pull.
    pending: usize,
}

impl<T: Clone> Replay<T> {
    pub(crate) fn new(readers: usize) -> Self {
        debug_assert!(readers >= 2, "a class has at least two parent edges");
        Replay {
            readers,
            pulls: VecDeque::new(),
            released: 0,
            retained: (0, 0),
        }
    }

    /// Pulls recorded so far, released ones included: a reader whose
    /// position equals this must pull the source itself.
    pub(crate) fn len(&self) -> usize {
        self.released + self.pulls.len()
    }

    /// `(rows, bytes)` currently retained for readers yet to catch up.
    pub(crate) fn retained(&self) -> (u64, u64) {
        self.retained
    }

    /// Record the source's next pull on behalf of the reader that made it
    /// (`scans`: what producing it added to `rows_scanned + shared_scans`;
    /// `size`: its `(rows, bytes)`), returning that reader's copy.
    pub(crate) fn push(&mut self, item: T, scans: u64, size: (u64, u64)) -> T {
        let own = item.clone();
        self.retained.0 += size.0;
        self.retained.1 += size.1;
        self.pulls.push_back(Pull {
            item,
            scans,
            size,
            pending: self.readers - 1,
        });
        own
    }

    /// Hand pull `i` to one more reader, with the scans it stands in for.
    pub(crate) fn replay(&mut self, i: usize) -> (T, u64) {
        let pull = &mut self.pulls[i - self.released];
        pull.pending -= 1;
        if pull.pending > 0 {
            return (pull.item.clone(), pull.scans);
        }
        // Readers consume in order, so the pull every reader has passed is
        // the oldest one retained.
        debug_assert_eq!(i, self.released);
        let pull = self.pulls.pop_front().expect("pull i is retained");
        self.released += 1;
        self.retained.0 -= pull.size.0;
        self.retained.1 -= pull.size.1;
        (pull.item, pull.scans)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use proptest::prelude::*;

    use super::*;
    use crate::algebra::GraphRef;
    use crate::ast::{Expr, OrderKey, PatternTerm, TriplePattern};
    use rdf_model::Term;

    fn bgp(pred: &str) -> Plan {
        Plan::Bgp {
            patterns: vec![TriplePattern::new(
                PatternTerm::Var("s".into()),
                PatternTerm::Const(Term::iri(format!("http://x/{pred}"))),
                PatternTerm::Var(pred.into()),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        }
    }

    fn join(a: Plan, b: Plan) -> Plan {
        join_on(a, b, None)
    }

    /// A join on `merge_on` when it is given, else a hash join.
    fn join_on(a: Plan, b: Plan, merge_on: Option<&str>) -> Plan {
        Plan::Join {
            left: Box::new(a),
            right: Box::new(b),
            merge_on: merge_on.map(Into::into),
        }
    }

    /// A sort on `?s`, bounded to its first `top` rows when that is given.
    fn order(p: Plan, top: Option<usize>) -> Plan {
        let keys = vec![OrderKey {
            expr: Expr::Var("s".into()),
            ascending: true,
        }];
        Plan::OrderBy {
            keys,
            top,
            input: Box::new(p),
        }
    }

    fn union(a: Plan, b: Plan) -> Plan {
        Plan::Union(Box::new(a), Box::new(b))
    }

    fn distinct(p: Plan) -> Plan {
        Plan::Distinct(Box::new(p))
    }

    /// Every node of `plan` in pre-order.
    fn nodes(plan: &Plan) -> Vec<&Plan> {
        let mut out = vec![plan];
        for c in plan.children() {
            out.extend(nodes(c));
        }
        out
    }

    /// `(class, readers)` of every occurrence, in pre-order.
    fn occurrences(plan: &Plan) -> Vec<(usize, usize)> {
        let shared = Shared::of(plan);
        nodes(plan)
            .into_iter()
            .filter_map(|n| shared.class(n).map(|k| (k, shared.readers(k))))
            .collect()
    }

    #[test]
    fn a_plan_without_repeats_has_no_class() {
        let plan = distinct(join(bgp("a"), union(bgp("b"), bgp("c"))));
        let shared = Shared::of(&plan);
        assert_eq!(shared.len(), 0);
        assert!(nodes(&plan).iter().all(|n| shared.class(n).is_none()));
    }

    #[test]
    fn equal_subtrees_under_different_parents_share_a_class() {
        // `a` sits under a Join and under a Distinct; `b` occurs once.
        let plan = union(join(bgp("a"), bgp("b")), distinct(bgp("a")));
        assert_eq!(occurrences(&plan), vec![(0, 2), (0, 2)]);
        let shared = Shared::of(&plan);
        let first = nodes(&plan)[2];
        assert!(shared.is_first(0, first) && *first == bgp("a"));
    }

    #[test]
    fn both_sides_of_one_join_are_two_readers() {
        assert_eq!(occurrences(&join(bgp("a"), bgp("a"))), vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn a_subtree_repeating_only_inside_a_shared_parent_gets_no_class() {
        // P = Distinct(Join(a, b)) twice: in the DAG `a`, `b` and the Join
        // have the single parent P, so only P is a class.
        let p = distinct(join(bgp("a"), bgp("b")));
        let plan = union(p.clone(), p);
        let shared = Shared::of(&plan);
        assert_eq!(shared.len(), 1);
        assert_eq!(occurrences(&plan), vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn a_class_nested_in_another_counts_the_outer_class_once() {
        // `a` is read by P (once, however often P repeats) and by the top
        // join: two readers. P itself repeats three times.
        let p = distinct(join(bgp("a"), bgp("b")));
        let plan = join(union(p.clone(), union(p.clone(), p)), bgp("a"));
        let shared = Shared::of(&plan);
        assert_eq!(shared.len(), 2);
        assert_eq!((shared.readers(0), shared.readers(1)), (3, 2));
        // Pre-order: P#1, a (inside P#1), P#2, P#3, a (top level).
        assert_eq!(
            occurrences(&plan),
            vec![(0, 3), (1, 2), (0, 3), (0, 3), (1, 2)]
        );
    }

    #[test]
    fn a_merge_key_or_a_sort_bound_makes_another_class() {
        // A merge join and its hash twin over the same inputs: unequal, and
        // neither is a class — only the inputs they both read repeat.
        let (merge, hash) = (
            join_on(bgp("a"), bgp("b"), Some("s")),
            join_on(bgp("a"), bgp("b"), None),
        );
        assert_ne!(merge, hash);
        let plan = union(merge.clone(), hash.clone());
        assert_eq!(occurrences(&plan), vec![(0, 2), (1, 2), (0, 2), (1, 2)]);
        assert_eq!(Shared::of(&plan).class(nodes(&plan)[1]), None);
        // Two identical merge joins are one class.
        let plan = union(merge.clone(), merge.clone());
        assert_eq!(occurrences(&plan), vec![(0, 2), (0, 2)]);
        // Two hash twins after the merge join are one class too: the digest
        // tells them from it, or they would collide with it and go
        // unshared (leaving `a` and `b` three readers each).
        let plan = union(merge, union(hash.clone(), hash));
        let pairs = vec![(0, 2), (1, 2), (2, 2), (0, 2), (1, 2), (2, 2)];
        assert_eq!(occurrences(&plan), pairs);

        // The same for a top-k sort against a full sort, and against one
        // with another bound.
        let top = order(bgp("a"), Some(3));
        for other in [order(bgp("a"), None), order(bgp("a"), Some(4))] {
            assert_ne!(top, other);
            let plan = union(top.clone(), other);
            assert_eq!(occurrences(&plan), vec![(0, 2), (0, 2)]);
            assert_eq!(Shared::of(&plan).class(nodes(&plan)[1]), None);
        }
        let plan = union(top.clone(), top.clone());
        assert_eq!(occurrences(&plan), vec![(0, 2), (0, 2)]);
        assert_eq!(Shared::of(&plan).class(nodes(&plan)[1]), Some(0));
        let full = order(bgp("a"), None);
        let plan = union(top, union(full.clone(), full));
        assert_eq!(occurrences(&plan), vec![(0, 2), (1, 2), (0, 2), (1, 2)]);
    }

    #[test]
    fn unit_is_never_a_class() {
        let plan = union(join(Plan::Unit, bgp("a")), join(Plan::Unit, bgp("b")));
        assert_eq!(Shared::of(&plan).len(), 0);
    }

    proptest! {
        /// Whatever order three readers advance in, each sees every pull in
        /// order with its scans, and what is retained is exactly the pulls
        /// between the slowest reader and the fastest.
        #[test]
        fn retention_is_the_lag_between_fastest_and_slowest_reader(
            schedule in proptest::collection::vec(0usize..3, 0..80),
        ) {
            let mut replay: Replay<usize> = Replay::new(3);
            let mut pos = [0usize; 3];
            for r in schedule {
                let i = pos[r];
                let (item, scans) = match i == replay.len() {
                    true => (replay.push(i, 10 + i as u64, (1, 8)), 10 + i as u64),
                    false => replay.replay(i),
                };
                prop_assert_eq!((item, scans), (i, 10 + i as u64));
                pos[r] += 1;
                let lag = (pos.iter().max().unwrap() - pos.iter().min().unwrap()) as u64;
                prop_assert_eq!(replay.retained(), (lag, lag * 8));
                prop_assert_eq!(replay.len(), *pos.iter().max().unwrap());
            }
        }
    }

    #[test]
    fn the_last_reader_takes_the_pull_by_move() {
        let mut replay: Replay<Rc<()>> = Replay::new(3);
        let first = replay.push(Rc::new(()), 0, (0, 0));
        assert_eq!(Rc::strong_count(&first), 2, "retained + the puller's copy");
        let (second, _) = replay.replay(0);
        assert_eq!(Rc::strong_count(&first), 3, "cloned for a middle reader");
        let (last, _) = replay.replay(0);
        assert_eq!(Rc::strong_count(&first), 3, "moved, not cloned");
        drop((second, last));
        assert_eq!(Rc::strong_count(&first), 1, "nothing left in the buffer");
    }
}
