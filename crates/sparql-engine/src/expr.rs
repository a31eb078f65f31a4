//! Expression evaluation with SPARQL semantics.
//!
//! Evaluation returns `Option<Term>`: `None` models both *unbound* and
//! *error*, which coincide for our purposes (a `FILTER` treats an error as
//! false; `BIND`/projection of an error leaves the variable unbound —
//! exactly the `Extend` semantics in the paper's Section 5.2).

use std::collections::HashMap;

use rdf_model::hash::{FxHashMap, FxHashSet};
use rdf_model::term::{year_of_epoch, Literal, TypedValue};
use rdf_model::vocab::xsd;
use rdf_model::{Term, TermId};

use crate::ast::{AggOp, ArithOp, CmpOp, Expr, Func};
use crate::pool::TermPool;
use crate::regex_lite::Regex;

/// A view of one solution row that can resolve variable names to terms.
///
/// Expression evaluation is generic over this so the same [`eval_expr`]
/// serves the id-native evaluator (rows of `TermId`, resolved through a
/// [`TermPool`] without cloning) and the term-materialized reference
/// evaluator (rows of owned `Term`s).
pub trait Bindings: Copy {
    /// Look up a variable's binding.
    fn get(&self, name: &str) -> Option<&Term>;
}

/// A term-materialized row seen through its variable schema (reference
/// evaluator and unit tests).
#[derive(Debug, Clone, Copy)]
pub struct RowCtx<'a> {
    /// Column names of the table.
    pub vars: &'a [String],
    /// The row values (parallel to `vars`).
    pub row: &'a [Option<Term>],
}

impl<'a> Bindings for RowCtx<'a> {
    fn get(&self, name: &str) -> Option<&Term> {
        let idx = self.vars.iter().position(|v| v == name)?;
        self.row[idx].as_ref()
    }
}

/// An id-native row: bindings are global [`TermId`]s resolved through the
/// evaluator's [`TermPool`] only when an expression actually needs the value.
#[derive(Debug, Clone, Copy)]
pub struct IdRowCtx<'a> {
    /// Column names of the table.
    pub vars: &'a [String],
    /// The row ids (parallel to `vars`).
    pub row: &'a [Option<TermId>],
    /// Resolves ids (dataset terms and query-computed overflow terms).
    pub pool: &'a TermPool<'a>,
}

impl<'a> Bindings for IdRowCtx<'a> {
    fn get(&self, name: &str) -> Option<&Term> {
        let idx = self.vars.iter().position(|v| v == name)?;
        self.row[idx].map(|id| self.pool.resolve(id))
    }
}

/// Caches shared across the evaluation of one query (compiled regexes).
#[derive(Debug, Default)]
pub struct EvalCaches {
    regexes: HashMap<(String, String), Option<Regex>>,
}

impl EvalCaches {
    /// Fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn regex(&mut self, pattern: &str, flags: &str) -> Option<&Regex> {
        self.regexes
            .entry((pattern.to_string(), flags.to_string()))
            .or_insert_with(|| Regex::new(pattern, flags).ok())
            .as_ref()
    }
}

/// Effective boolean value per SPARQL 17.2.2. `None` on type error.
pub fn ebv(term: &Term) -> Option<bool> {
    match term {
        Term::Literal(l) => match l.parsed {
            TypedValue::Boolean(b) => Some(b),
            TypedValue::Integer(i) => Some(i != 0),
            TypedValue::Double(d) => Some(d != 0.0 && !d.is_nan()),
            TypedValue::String => {
                if l.datatype.is_none() || l.datatype.as_deref() == Some(xsd::STRING) {
                    Some(!l.lexical.is_empty())
                } else {
                    // Ill-typed numeric/boolean literal: EBV is false per spec.
                    Some(false)
                }
            }
            TypedValue::DateTime(_) => None,
        },
        _ => None,
    }
}

/// Evaluate an expression to a term. `None` = unbound/error.
pub fn eval_expr<B: Bindings>(expr: &Expr, ctx: B, caches: &mut EvalCaches) -> Option<Term> {
    match expr {
        Expr::Var(v) => ctx.get(v).cloned(),
        Expr::Const(t) => Some(t.clone()),
        Expr::And(a, b) => {
            // SPARQL three-valued AND: false dominates error.
            let ea = eval_expr(a, ctx, caches).as_ref().and_then(ebv);
            let eb = eval_expr(b, ctx, caches).as_ref().and_then(ebv);
            match (ea, eb) {
                (Some(false), _) | (_, Some(false)) => Some(Term::from(Literal::boolean(false))),
                (Some(true), Some(true)) => Some(Term::from(Literal::boolean(true))),
                _ => None,
            }
        }
        Expr::Or(a, b) => {
            let ea = eval_expr(a, ctx, caches).as_ref().and_then(ebv);
            let eb = eval_expr(b, ctx, caches).as_ref().and_then(ebv);
            match (ea, eb) {
                (Some(true), _) | (_, Some(true)) => Some(Term::from(Literal::boolean(true))),
                (Some(false), Some(false)) => Some(Term::from(Literal::boolean(false))),
                _ => None,
            }
        }
        Expr::Not(a) => {
            let v = eval_expr(a, ctx, caches)?;
            Some(Term::from(Literal::boolean(!ebv(&v)?)))
        }
        Expr::Cmp(op, a, b) => {
            let va = eval_expr(a, ctx, caches)?;
            let vb = eval_expr(b, ctx, caches)?;
            let result = match op {
                CmpOp::Eq => va.value_eq(&vb)?,
                CmpOp::Neq => !va.value_eq(&vb)?,
                CmpOp::Lt => va.value_cmp(&vb)? == std::cmp::Ordering::Less,
                CmpOp::Le => va.value_cmp(&vb)? != std::cmp::Ordering::Greater,
                CmpOp::Gt => va.value_cmp(&vb)? == std::cmp::Ordering::Greater,
                CmpOp::Ge => va.value_cmp(&vb)? != std::cmp::Ordering::Less,
            };
            Some(Term::from(Literal::boolean(result)))
        }
        Expr::Arith(op, a, b) => {
            let va = eval_expr(a, ctx, caches)?;
            let vb = eval_expr(b, ctx, caches)?;
            arith(*op, &va, &vb)
        }
        Expr::Neg(a) => {
            let v = eval_expr(a, ctx, caches)?;
            match v.as_literal()?.parsed {
                TypedValue::Integer(i) => Some(Term::from(Literal::integer(-i))),
                TypedValue::Double(d) => Some(Term::from(Literal::double(-d))),
                _ => None,
            }
        }
        Expr::In {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, ctx, caches)?;
            let mut found = false;
            for item in list {
                if let Some(candidate) = eval_expr(item, ctx, caches) {
                    if v.value_eq(&candidate) == Some(true) {
                        found = true;
                        break;
                    }
                }
            }
            Some(Term::from(Literal::boolean(found != *negated)))
        }
        Expr::Call(func, args) => eval_call(func, args, ctx, caches),
        // Aggregates are rewritten to column references by the algebra
        // translation before evaluation; hitting one here is an error.
        Expr::Aggregate { .. } => None,
    }
}

fn both_integers(a: &Term, b: &Term) -> Option<(i64, i64)> {
    match (a.as_literal()?.parsed, b.as_literal()?.parsed) {
        (TypedValue::Integer(x), TypedValue::Integer(y)) => Some((x, y)),
        _ => None,
    }
}

fn arith(op: ArithOp, a: &Term, b: &Term) -> Option<Term> {
    if let Some((x, y)) = both_integers(a, b) {
        let r = match op {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Div => {
                // SPARQL integer division produces a decimal.
                let xf = x as f64;
                let yf = y as f64;
                if y == 0 {
                    return None;
                }
                return Some(Term::from(Literal::double(xf / yf)));
            }
        };
        return r.map(|v| Term::from(Literal::integer(v)));
    }
    let x = a.as_literal()?.as_f64()?;
    let y = b.as_literal()?.as_f64()?;
    let r = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 {
                return None;
            }
            x / y
        }
    };
    Some(Term::from(Literal::double(r)))
}

fn eval_call<B: Bindings>(
    func: &Func,
    args: &[Expr],
    ctx: B,
    caches: &mut EvalCaches,
) -> Option<Term> {
    match func {
        Func::Bound => {
            // BOUND takes a variable; unbound is a *value* here, not error.
            match args.first()? {
                Expr::Var(v) => Some(Term::from(Literal::boolean(ctx.get(v).is_some()))),
                _ => None,
            }
        }
        Func::Str => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            Some(Term::string(v.str_value().to_string()))
        }
        Func::Lang => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            let lang = v.as_literal()?.language.as_deref().unwrap_or("");
            Some(Term::string(lang.to_string()))
        }
        Func::Datatype => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            Some(Term::iri(v.as_literal()?.datatype_iri().to_string()))
        }
        Func::IsIri => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            Some(Term::from(Literal::boolean(v.is_iri())))
        }
        Func::IsLiteral => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            Some(Term::from(Literal::boolean(v.is_literal())))
        }
        Func::IsBlank => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            Some(Term::from(Literal::boolean(v.is_blank())))
        }
        Func::Regex => {
            let text = eval_expr(args.first()?, ctx, caches)?;
            let text = match &text {
                Term::Literal(l) => l.lexical.to_string(),
                other => other.str_value().to_string(),
            };
            let pattern = eval_expr(args.get(1)?, ctx, caches)?;
            let pattern = pattern.as_literal()?.lexical.to_string();
            let flags = match args.get(2) {
                Some(f) => eval_expr(f, ctx, caches)?.as_literal()?.lexical.to_string(),
                None => String::new(),
            };
            let re = caches.regex(&pattern, &flags)?;
            Some(Term::from(Literal::boolean(re.is_match(&text))))
        }
        Func::Year => date_part(args, ctx, caches, year_of_epoch),
        Func::Month => date_part(args, ctx, caches, |secs| civil_of_epoch(secs).1),
        Func::Day => date_part(args, ctx, caches, |secs| civil_of_epoch(secs).2),
        Func::Cast(datatype) => {
            let v = eval_expr(args.first()?, ctx, caches)?;
            cast(&v, datatype)
        }
    }
}

/// `YEAR` / `MONTH` / `DAY`: `part` of the first argument's point in time,
/// as an integer.
fn date_part<B: Bindings>(
    args: &[Expr],
    ctx: B,
    caches: &mut EvalCaches,
    part: fn(i64) -> i64,
) -> Option<Term> {
    let v = eval_expr(args.first()?, ctx, caches)?;
    Some(Term::integer(part(date_seconds(&v)?)))
}

/// Interpret a term as a point in time (accepts `xsd:dateTime`, `xsd:date`,
/// `xsd:gYear`, and — pragmatically — strings/integers that parse as one).
fn date_seconds(term: &Term) -> Option<i64> {
    let lit = term.as_literal()?;
    match lit.parsed {
        TypedValue::DateTime(secs) => Some(secs),
        TypedValue::Integer(y) => {
            // A bare year, as DBLP uses.
            let as_date = Literal::typed(y.to_string(), xsd::G_YEAR);
            match as_date.parsed {
                TypedValue::DateTime(secs) => Some(secs),
                _ => None,
            }
        }
        TypedValue::String => {
            let probe = Literal::typed(lit.lexical.to_string(), xsd::DATE_TIME);
            match probe.parsed {
                TypedValue::DateTime(secs) => Some(secs),
                _ => {
                    let probe = Literal::typed(lit.lexical.to_string(), xsd::G_YEAR);
                    match probe.parsed {
                        TypedValue::DateTime(secs) => Some(secs),
                        _ => None,
                    }
                }
            }
        }
        _ => None,
    }
}

/// (year, month, day) from epoch seconds.
fn civil_of_epoch(secs: i64) -> (i64, i64, i64) {
    let days = secs.div_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    (if month <= 2 { y + 1 } else { y }, month, day)
}

fn cast(term: &Term, datatype: &str) -> Option<Term> {
    let source = match term {
        Term::Literal(l) => l.lexical.to_string(),
        Term::Iri(i) => i.to_string(),
        Term::Blank(_) => return None,
    };
    let lit = Literal::typed(source, datatype.to_string());
    // A failed cast (lexical form doesn't parse under the target type)
    // is an error unless the target is a string type.
    let target_is_stringy = datatype == xsd::STRING;
    match lit.parsed {
        TypedValue::String if !target_is_stringy => None,
        _ => Some(Term::from(lit)),
    }
}

/// DISTINCT dedup strategy for [`AggState`].
///
/// The term-materialized reference evaluator hashes whole [`Term`]s; the
/// id-native executor interns each computed aggregate input through its
/// [`TermPool`] and dedups on `u32` [`TermId`]s instead (the pool guarantees
/// two ids are equal iff the terms are equal, so the bags are identical —
/// only the hashing cost changes).
#[derive(Debug)]
enum Dedup {
    Terms(std::collections::HashSet<Term>),
    Ids(FxHashSet<TermId>),
}

/// Running state for one aggregate over one group.
#[derive(Debug)]
pub struct AggState {
    op: AggOp,
    /// `Some` when DISTINCT: the set of values already counted.
    seen: Option<Dedup>,
    count: usize,
    sum: f64,
    sum_is_integral: bool,
    int_sum: i64,
    min: Option<Term>,
    max: Option<Term>,
    sample: Option<Term>,
}

impl AggState {
    /// Initialize for an aggregate op (term-hashing DISTINCT).
    pub fn new(op: AggOp, distinct: bool) -> Self {
        AggState {
            op,
            seen: distinct.then(|| Dedup::Terms(std::collections::HashSet::new())),
            count: 0,
            sum: 0.0,
            sum_is_integral: true,
            int_sum: 0,
            min: None,
            max: None,
            sample: None,
        }
    }

    /// Initialize with id-based DISTINCT: inputs are interned through the
    /// evaluator's [`TermPool`] (via [`AggState::push_pooled`]) and dedup
    /// hashes `u32` ids instead of whole terms. Crate-private, like
    /// [`NumericAccum::demote`], the other source of such a state: outside
    /// this crate every `AggState` dedups terms, so [`AggState::push`] never
    /// meets one.
    pub(crate) fn new_id_distinct(op: AggOp, distinct: bool) -> Self {
        AggState {
            seen: distinct.then(|| Dedup::Ids(FxHashSet::default())),
            ..Self::new(op, false)
        }
    }

    /// Feed one value. `None` (unbound/error) contributes nothing, matching
    /// SPARQL aggregate semantics.
    pub fn push(&mut self, value: Option<Term>) {
        let Some(v) = value else { return };
        // (Not a match guard: dedup insertion needs the mutable binding.)
        #[allow(clippy::collapsible_match)]
        match &mut self.seen {
            Some(Dedup::Terms(seen)) => {
                if !seen.insert(v.clone()) {
                    return;
                }
            }
            // An id-distinct state cannot dedup without the pool; silently
            // over-counting would be a correctness bug, so fail loudly. Not
            // reachable: only `new_id_distinct` and `NumericAccum::demote`
            // (both crate-private) make one, and their one user, the
            // pipeline's `GroupOp` (`Accum::Terms`), feeds it through
            // `push_pooled` alone.
            Some(Dedup::Ids(_)) => {
                panic!("id-distinct AggState must be fed through push_pooled")
            }
            None => {}
        }
        self.accumulate(v);
    }

    /// Feed one value, deduplicating through `pool` when this state was
    /// built with [`AggState::new_id_distinct`] (falls back to term hashing
    /// for the [`AggState::new`] flavor, so callers need not branch).
    pub fn push_pooled(&mut self, value: Option<Term>, pool: &mut TermPool) {
        let Some(v) = value else { return };
        // (Not a match guard: dedup insertion needs the mutable binding.)
        #[allow(clippy::collapsible_match)]
        match &mut self.seen {
            Some(Dedup::Ids(seen)) => {
                let id = pool.intern(v.clone());
                if !seen.insert(id) {
                    return;
                }
            }
            Some(Dedup::Terms(seen)) => {
                if !seen.insert(v.clone()) {
                    return;
                }
            }
            None => {}
        }
        self.accumulate(v);
    }

    fn accumulate(&mut self, v: Term) {
        self.count += 1;
        if let Some(l) = v.as_literal() {
            match l.parsed {
                TypedValue::Integer(i) => {
                    self.int_sum = self.int_sum.wrapping_add(i);
                    self.sum += i as f64;
                }
                TypedValue::Double(d) => {
                    self.sum_is_integral = false;
                    self.sum += d;
                }
                _ => self.sum_is_integral = false,
            }
        } else {
            self.sum_is_integral = false;
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| v.order_cmp(m) == std::cmp::Ordering::Less)
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| v.order_cmp(m) == std::cmp::Ordering::Greater)
        {
            self.max = Some(v.clone());
        }
        if self.sample.is_none() {
            self.sample = Some(v);
        }
    }

    /// Count a row for `COUNT(*)` (no expression).
    pub fn push_star(&mut self) {
        self.count += 1;
    }

    /// Produce the aggregate result.
    pub fn finish(self) -> Option<Term> {
        match self.op {
            AggOp::Count => Some(Term::integer(self.count as i64)),
            AggOp::Sum => {
                if self.sum_is_integral {
                    Some(Term::integer(self.int_sum))
                } else {
                    Some(Term::from(Literal::double(self.sum)))
                }
            }
            AggOp::Avg => {
                if self.count == 0 {
                    Some(Term::integer(0))
                } else {
                    Some(Term::from(Literal::double(self.sum / self.count as f64)))
                }
            }
            AggOp::Min => self.min,
            AggOp::Max => self.max,
            AggOp::Sample => self.sample,
        }
    }
}

/// A numeric value as SPARQL compares it: `i64` when both sides are
/// integers, `f64` otherwise. Never NaN ([`NumVal::of`]).
#[derive(Debug, Clone, Copy)]
enum NumVal {
    I(i64),
    D(f64),
}

impl NumVal {
    /// The value of a numeric literal; `None` for every other term and for
    /// NaN, whose SPARQL ordering falls back to lexical comparison.
    fn of(term: &Term) -> Option<NumVal> {
        match term.as_literal()?.parsed {
            TypedValue::Integer(i) => Some(NumVal::I(i)),
            TypedValue::Double(d) if !d.is_nan() => Some(NumVal::D(d)),
            _ => None,
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            NumVal::I(i) => i as f64,
            NumVal::D(d) => d,
        }
    }

    /// SPARQL numeric comparison (mirrors `Term::value_cmp` on two numeric
    /// literals, which `order_cmp` delegates to).
    fn cmp_sparql(self, other: NumVal) -> std::cmp::Ordering {
        match (self, other) {
            (NumVal::I(a), NumVal::I(b)) => a.cmp(&b),
            // Not reachable: a `NumVal` is only made by `NumVal::of`, which
            // refuses NaN, and an `i64` converts to a finite `f64`; two
            // non-NaN floats always compare.
            _ => self
                .as_f64()
                .partial_cmp(&other.as_f64())
                .expect("NumVal is never NaN"),
        }
    }
}

/// Id-native accumulator for `SUM`/`AVG`/`MIN`/`MAX` over a column, for as
/// long as a group's bound values are numeric literals. Mirrors
/// [`AggState`]'s arithmetic exactly (wrapping integer sum, `f64` shadow sum
/// in row order, first-wins ties for MIN/MAX) but never materializes a term:
/// MIN/MAX track the winning *id*, which downstream operators and the final
/// projection resolve like any other binding. Because the two agree after
/// every push, the first value that is not a number costs nothing but a
/// hand-over ([`NumericAccum::demote`]) — no precheck of the input needed.
pub(crate) struct NumericAccum {
    seen: Option<FxHashSet<TermId>>,
    count: usize,
    int_sum: i64,
    f_sum: f64,
    integral: bool,
    min: Option<(TermId, NumVal)>,
    max: Option<(TermId, NumVal)>,
}

impl NumericAccum {
    pub(crate) fn new(distinct: bool) -> Self {
        NumericAccum {
            seen: distinct.then(FxHashSet::default),
            count: 0,
            int_sum: 0,
            f_sum: 0.0,
            integral: true,
            min: None,
            max: None,
        }
    }

    /// Feed one bound value, `id` resolving to `term`. Returns `false`,
    /// having changed nothing, when it is not a number this accumulator can
    /// take — the caller's cue to [`NumericAccum::demote`].
    pub(crate) fn push(&mut self, id: TermId, term: &Term) -> bool {
        let Some(v) = NumVal::of(term) else {
            return false;
        };
        if let Some(seen) = &mut self.seen {
            if !seen.insert(id) {
                return true;
            }
        }
        self.count += 1;
        match v {
            NumVal::I(i) => {
                self.int_sum = self.int_sum.wrapping_add(i);
                self.f_sum += i as f64;
            }
            NumVal::D(d) => {
                self.integral = false;
                self.f_sum += d;
            }
        }
        if self
            .min
            .is_none_or(|(_, m)| v.cmp_sparql(m) == std::cmp::Ordering::Less)
        {
            self.min = Some((id, v));
        }
        if self
            .max
            .is_none_or(|(_, m)| v.cmp_sparql(m) == std::cmp::Ordering::Greater)
        {
            self.max = Some((id, v));
        }
        true
    }

    /// The [`AggState`] that was fed the same values, field for field (its
    /// `sample` aside, which none of the four ops reads): it carries on from
    /// here through [`AggState::push_pooled`].
    pub(crate) fn demote(self, op: AggOp, pool: &TermPool) -> AggState {
        let term = |m: Option<(TermId, NumVal)>| m.map(|(id, _)| pool.resolve(id).clone());
        AggState {
            op,
            seen: self.seen.map(Dedup::Ids),
            count: self.count,
            sum: self.f_sum,
            sum_is_integral: self.integral,
            int_sum: self.int_sum,
            min: term(self.min),
            max: term(self.max),
            sample: None,
        }
    }

    pub(crate) fn finish(self, op: AggOp, pool: &mut TermPool) -> Option<TermId> {
        match op {
            AggOp::Sum => Some(if self.integral {
                pool.intern(Term::integer(self.int_sum))
            } else {
                pool.intern(Term::from(Literal::double(self.f_sum)))
            }),
            AggOp::Avg => Some(if self.count == 0 {
                pool.intern(Term::integer(0))
            } else {
                pool.intern(Term::from(Literal::double(self.f_sum / self.count as f64)))
            }),
            AggOp::Min => self.min.map(|(id, _)| id),
            AggOp::Max => self.max.map(|(id, _)| id),
            // Not reachable: the one caller (`GroupOp::finish`) passes the
            // op of the aggregate whose plan made this accumulator, and the
            // planner makes `AggPlan::NumericCol` — the only plan
            // `fresh_accums` gives a `NumericAccum` — for exactly the four
            // ops above.
            AggOp::Count | AggOp::Sample => {
                unreachable!("NumericCol only plans SUM/AVG/MIN/MAX")
            }
        }
    }
}

// ---- pushed-filter support ------------------------------------------------

/// Recognize the `?v = <const>` / `?v != <const>` shape (either operand
/// order) whose constant is *not* a literal, so SPARQL `=` degenerates to
/// term identity and the comparison can run on raw interned ids. Returns
/// `(variable, constant, negated?)`. Literal constants are rejected because
/// literal equality is *value* equality (`"1"^^int = "01"^^int`), which ids
/// are too strict for.
pub fn id_equality_shape(expr: &Expr) -> Option<(&str, &Term, bool)> {
    let Expr::Cmp(op, a, b) = expr else {
        return None;
    };
    let negate = match op {
        CmpOp::Eq => false,
        CmpOp::Neq => true,
        _ => return None,
    };
    let (var, konst) = match (a.as_ref(), b.as_ref()) {
        (Expr::Var(v), Expr::Const(c)) | (Expr::Const(c), Expr::Var(v)) => (v, c),
        _ => return None,
    };
    if konst.is_literal() {
        return None;
    }
    Some((var.as_str(), konst, negate))
}

/// The single variable a filter expression references, if it references
/// exactly one (and no aggregate) — the shape eligible for pushdown into a
/// BGP. Built on the AST's own walkers ([`Expr::collect_vars`],
/// [`Expr::has_aggregate`]) so there is one traversal to maintain.
pub fn single_filter_var(expr: &Expr) -> Option<String> {
    if expr.has_aggregate() {
        return None;
    }
    let mut vars = Vec::new();
    expr.collect_vars(&mut vars);
    if vars.len() == 1 {
        vars.pop()
    } else {
        None
    }
}

/// Bindings view exposing a single variable (pushed-filter evaluation: the
/// expression references exactly one variable, so one slot suffices and no
/// row buffer is built).
#[derive(Clone, Copy)]
struct SingleVar<'a> {
    name: &'a str,
    term: &'a Term,
}

impl Bindings for SingleVar<'_> {
    fn get(&self, name: &str) -> Option<&Term> {
        (name == self.name).then_some(self.term)
    }
}

/// Evaluate a pushed single-variable filter against one candidate term.
/// Error and non-boolean results reject the candidate, exactly as a
/// `FILTER` above the BGP would drop the row.
pub fn eval_single_var_filter(
    expr: &Expr,
    var: &str,
    term: &Term,
    caches: &mut EvalCaches,
) -> bool {
    eval_expr(expr, SingleVar { name: var, term }, caches)
        .as_ref()
        .and_then(ebv)
        .unwrap_or(false)
}

/// A pushed filter precompiled for candidate testing during id-native BGP
/// extension.
///
/// The `?v = <iri>` shape compares raw global ids — no term is resolved per
/// candidate. General expressions memoize their verdict per candidate id
/// (sound: the expression is deterministic in its one variable), so a value
/// appearing in thousands of scan matches is evaluated once.
pub enum PushedEval<'e> {
    /// `?v =/!= <non-literal constant>`: raw id comparison. `id` is `None`
    /// when the constant is interned nowhere (it can equal nothing).
    IdCmp {
        /// Global id of the constant, if interned anywhere.
        id: Option<TermId>,
        /// `!=` instead of `=`.
        negate: bool,
    },
    /// General single-variable expression, memoized per candidate id.
    General {
        /// The predicate expression.
        expr: &'e Expr,
        /// The one variable it references.
        var: &'e str,
        /// Candidate id → verdict memo.
        memo: FxHashMap<TermId, bool>,
    },
}

impl<'e> PushedEval<'e> {
    /// Compile a pushed filter for id-native testing.
    pub fn compile(var: &'e str, expr: &'e Expr, pool: &TermPool) -> Self {
        if let Some((v, konst, negate)) = id_equality_shape(expr) {
            debug_assert_eq!(v, var, "pushed filter var mismatch");
            return PushedEval::IdCmp {
                id: pool.lookup(konst),
                negate,
            };
        }
        PushedEval::General {
            expr,
            var,
            memo: FxHashMap::default(),
        }
    }

    /// Does the candidate with this (always bound) id survive the filter?
    #[inline]
    pub fn test(&mut self, id: TermId, pool: &TermPool, caches: &mut EvalCaches) -> bool {
        match self {
            PushedEval::IdCmp {
                id: Some(c),
                negate,
            } => (id == *c) != *negate,
            PushedEval::IdCmp { id: None, negate } => *negate,
            PushedEval::General { expr, var, memo } => *memo
                .entry(id)
                .or_insert_with(|| eval_single_var_filter(expr, var, pool.resolve(id), caches)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of<'a>(vars: &'a [String], row: &'a [Option<Term>]) -> RowCtx<'a> {
        RowCtx { vars, row }
    }

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn var_lookup_and_bound() {
        let vs = vars(&["x", "y"]);
        let row = vec![Some(Term::integer(5)), None];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        assert_eq!(
            eval_expr(&Expr::Var("x".into()), ctx, &mut caches),
            Some(Term::integer(5))
        );
        assert_eq!(eval_expr(&Expr::Var("y".into()), ctx, &mut caches), None);
        let bound_y = Expr::Call(Func::Bound, vec![Expr::Var("y".into())]);
        assert_eq!(
            eval_expr(&bound_y, ctx, &mut caches),
            Some(Term::from(Literal::boolean(false)))
        );
    }

    #[test]
    fn comparison_and_arith() {
        let vs = vars(&["n"]);
        let row = vec![Some(Term::integer(10))];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        let ge = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Var("n".into())),
            Box::new(Expr::Const(Term::integer(10))),
        );
        assert_eq!(
            eval_expr(&ge, ctx, &mut caches).as_ref().and_then(ebv),
            Some(true)
        );
        let plus = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Var("n".into())),
            Box::new(Expr::Const(Term::integer(5))),
        );
        assert_eq!(eval_expr(&plus, ctx, &mut caches), Some(Term::integer(15)));
        let div = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Var("n".into())),
            Box::new(Expr::Const(Term::integer(0))),
        );
        assert_eq!(eval_expr(&div, ctx, &mut caches), None);
    }

    #[test]
    fn and_or_three_valued() {
        let vs = vars(&["u"]);
        let row = vec![None];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        let err = Expr::Var("u".into()); // unbound → error
        let f = Expr::Const(Term::from(Literal::boolean(false)));
        let t = Expr::Const(Term::from(Literal::boolean(true)));
        // false && error = false
        let e = Expr::And(Box::new(f.clone()), Box::new(err.clone()));
        assert_eq!(
            eval_expr(&e, ctx, &mut caches).as_ref().and_then(ebv),
            Some(false)
        );
        // true || error = true
        let e = Expr::Or(Box::new(t.clone()), Box::new(err.clone()));
        assert_eq!(
            eval_expr(&e, ctx, &mut caches).as_ref().and_then(ebv),
            Some(true)
        );
        // true && error = error
        let e = Expr::And(Box::new(t), Box::new(err));
        assert_eq!(eval_expr(&e, ctx, &mut caches), None);
    }

    #[test]
    fn regex_call() {
        let vs = vars(&["c"]);
        let row = vec![Some(Term::iri("http://dbpedia.org/resource/USA"))];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        let e = Expr::Call(
            Func::Regex,
            vec![
                Expr::Call(Func::Str, vec![Expr::Var("c".into())]),
                Expr::Const(Term::string("USA")),
            ],
        );
        assert_eq!(
            eval_expr(&e, ctx, &mut caches).as_ref().and_then(ebv),
            Some(true)
        );
    }

    #[test]
    fn year_of_datetime_cast() {
        let vs = vars(&["d"]);
        let row = vec![Some(Term::string("2012-07-01"))];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        // year(xsd:dateTime(?d))
        let e = Expr::Call(
            Func::Year,
            vec![Expr::Call(
                Func::Cast(xsd::DATE_TIME.to_string()),
                vec![Expr::Var("d".into())],
            )],
        );
        assert_eq!(eval_expr(&e, ctx, &mut caches), Some(Term::integer(2012)));
    }

    #[test]
    fn in_list() {
        let vs = vars(&["c"]);
        let row = vec![Some(Term::iri("http://conf/vldb"))];
        let ctx = ctx_of(&vs, &row);
        let mut caches = EvalCaches::new();
        let e = Expr::In {
            expr: Box::new(Expr::Var("c".into())),
            list: vec![
                Expr::Const(Term::iri("http://conf/vldb")),
                Expr::Const(Term::iri("http://conf/sigmod")),
            ],
            negated: false,
        };
        assert_eq!(
            eval_expr(&e, ctx, &mut caches).as_ref().and_then(ebv),
            Some(true)
        );
        let e = Expr::In {
            expr: Box::new(Expr::Var("c".into())),
            list: vec![Expr::Const(Term::iri("http://conf/icde"))],
            negated: true,
        };
        assert_eq!(
            eval_expr(&e, ctx, &mut caches).as_ref().and_then(ebv),
            Some(true)
        );
    }

    #[test]
    fn aggregates() {
        let mut c = AggState::new(AggOp::Count, true);
        c.push(Some(Term::integer(1)));
        c.push(Some(Term::integer(1)));
        c.push(Some(Term::integer(2)));
        c.push(None);
        assert_eq!(c.finish(), Some(Term::integer(2)));

        let mut s = AggState::new(AggOp::Sum, false);
        s.push(Some(Term::integer(3)));
        s.push(Some(Term::integer(4)));
        assert_eq!(s.finish(), Some(Term::integer(7)));

        let mut a = AggState::new(AggOp::Avg, false);
        a.push(Some(Term::integer(3)));
        a.push(Some(Term::integer(5)));
        assert_eq!(a.finish(), Some(Term::from(Literal::double(4.0))));

        let mut m = AggState::new(AggOp::Min, false);
        m.push(Some(Term::integer(5)));
        m.push(Some(Term::integer(2)));
        assert_eq!(m.finish(), Some(Term::integer(2)));

        let mut mx = AggState::new(AggOp::Max, false);
        mx.push(Some(Term::string("a")));
        mx.push(Some(Term::string("z")));
        assert_eq!(mx.finish(), Some(Term::string("z")));
    }

    #[test]
    fn ebv_rules() {
        assert_eq!(ebv(&Term::integer(0)), Some(false));
        assert_eq!(ebv(&Term::integer(3)), Some(true));
        assert_eq!(ebv(&Term::string("")), Some(false));
        assert_eq!(ebv(&Term::string("x")), Some(true));
        assert_eq!(ebv(&Term::iri("http://x")), None);
    }
}
