//! Recursive-descent parser for the SPARQL SELECT subset.
//!
//! Parses the queries RDFFrames generates plus the expert-written baselines:
//! prologue with `PREFIX`, `SELECT [DISTINCT] (expr AS ?v | ?v | *)`,
//! `FROM`, group graph patterns with triples blocks (`;` and `,`
//! abbreviations, `a` keyword), `FILTER`, `OPTIONAL`, `UNION`, `GRAPH`,
//! `BIND`, nested `SELECT` subqueries, `GROUP BY`, `HAVING`, `ORDER BY`,
//! `LIMIT`, `OFFSET`, and the full expression grammar with aggregates.

use rdf_model::{Literal, PrefixMap, Term};

use crate::ast::*;
use crate::error::{EngineError, Result};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a SPARQL SELECT query.
pub fn parse_query(input: &str) -> Result<SelectQuery> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: PrefixMap::with_defaults(),
    };
    p.parse_prologue()?;
    let q = p.parse_select_query(true)?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: PrefixMap,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn err(&self, message: impl Into<String>) -> EngineError {
        EngineError::Parse {
            position: self.position(),
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn eat_word(&mut self, kw: &str) -> bool {
        if self.peek().is_word(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, kw: &str) -> Result<()> {
        if self.eat_word(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        // Allow a trailing semicolon some clients append.
        while matches!(self.peek(), TokenKind::Semicolon) {
            self.bump();
        }
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing content: {:?}", self.peek())))
        }
    }

    fn parse_prologue(&mut self) -> Result<()> {
        while self.peek().is_word("PREFIX") {
            self.bump();
            let (prefix, local) = match self.bump() {
                TokenKind::PName(p, l) => (p, l),
                other => return Err(self.err(format!("expected prefix name, found {other:?}"))),
            };
            if !local.is_empty() {
                return Err(self.err("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                TokenKind::IriRef(i) => i,
                other => return Err(self.err(format!("expected IRI, found {other:?}"))),
            };
            self.prefixes.declare(prefix, iri);
        }
        Ok(())
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<String> {
        match self.prefixes.namespace(prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => Err(self.err(format!("unknown prefix '{prefix}'"))),
        }
    }

    fn parse_select_query(&mut self, top_level: bool) -> Result<SelectQuery> {
        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT");
        // REDUCED treated as a no-op modifier.
        self.eat_word("REDUCED");

        let projection = if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            Projection::Star
        } else {
            let mut items = Vec::new();
            loop {
                match self.peek().clone() {
                    TokenKind::Var(v) => {
                        self.bump();
                        items.push(SelectItem::Var(v));
                    }
                    TokenKind::LParen => {
                        self.bump();
                        let expr = self.parse_expr()?;
                        self.expect_word("AS")?;
                        let alias = match self.bump() {
                            TokenKind::Var(v) => v,
                            other => {
                                return Err(self.err(format!("expected variable, got {other:?}")))
                            }
                        };
                        self.expect(&TokenKind::RParen)?;
                        items.push(SelectItem::Expr { expr, alias });
                    }
                    // Bare aggregate without parens, e.g. `COUNT(?x) as ?c`
                    // (Virtuoso extension used in the paper's naive queries).
                    TokenKind::Word(w)
                        if matches!(
                            w.as_str(),
                            "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "SAMPLE"
                        ) =>
                    {
                        let expr = self.parse_primary()?;
                        self.expect_word("AS")?;
                        let alias = match self.bump() {
                            TokenKind::Var(v) => v,
                            other => {
                                return Err(self.err(format!("expected variable, got {other:?}")))
                            }
                        };
                        items.push(SelectItem::Expr { expr, alias });
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return Err(self.err("empty SELECT clause"));
            }
            Projection::Items(items)
        };

        let mut from = Vec::new();
        while self.peek().is_word("FROM") {
            if !top_level {
                return Err(self.err("FROM is only allowed at the top level"));
            }
            self.bump();
            // FROM NAMED treated like FROM.
            self.eat_word("NAMED");
            match self.bump() {
                TokenKind::IriRef(i) => from.push(i),
                TokenKind::PName(p, l) => from.push(self.resolve_pname(&p, &l)?),
                other => return Err(self.err(format!("expected graph IRI, found {other:?}"))),
            }
        }

        self.eat_word("WHERE");
        let pattern = self.parse_ggp()?;

        let mut group_by = Vec::new();
        if self.peek().is_word("GROUP") {
            self.bump();
            self.expect_word("BY")?;
            while let TokenKind::Var(v) = self.peek().clone() {
                self.bump();
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(self.err("GROUP BY requires at least one variable"));
            }
        }

        let mut having = Vec::new();
        while self.peek().is_word("HAVING") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            having.push(self.parse_expr()?);
            self.expect(&TokenKind::RParen)?;
        }

        let mut order_by = Vec::new();
        if self.peek().is_word("ORDER") {
            self.bump();
            self.expect_word("BY")?;
            loop {
                let (ascending, need_paren) = if self.eat_word("ASC") {
                    (true, true)
                } else if self.eat_word("DESC") {
                    (false, true)
                } else {
                    (true, false)
                };
                if need_paren {
                    self.expect(&TokenKind::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    order_by.push(OrderKey { expr, ascending });
                } else if let TokenKind::Var(v) = self.peek().clone() {
                    self.bump();
                    order_by.push(OrderKey {
                        expr: Expr::Var(v),
                        ascending,
                    });
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return Err(self.err("ORDER BY requires at least one key"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.peek().is_word("LIMIT") {
                self.bump();
                match self.bump() {
                    TokenKind::Integer(n) if n >= 0 => limit = Some(n as usize),
                    other => return Err(self.err(format!("bad LIMIT: {other:?}"))),
                }
            } else if self.peek().is_word("OFFSET") {
                self.bump();
                match self.bump() {
                    TokenKind::Integer(n) if n >= 0 => offset = Some(n as usize),
                    other => return Err(self.err(format!("bad OFFSET: {other:?}"))),
                }
            } else {
                break;
            }
        }

        Ok(SelectQuery {
            distinct,
            projection,
            from,
            pattern,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_ggp(&mut self) -> Result<GroupGraphPattern> {
        self.expect(&TokenKind::LBrace)?;
        let mut elems = Vec::new();
        loop {
            // Stray dots between elements are permitted.
            while matches!(self.peek(), TokenKind::Dot) {
                self.bump();
            }
            match self.peek().clone() {
                TokenKind::RBrace => {
                    self.bump();
                    return Ok(GroupGraphPattern { elems });
                }
                TokenKind::Word(w) if w == "SELECT" => {
                    let q = self.parse_select_query(false)?;
                    elems.push(PatternElem::SubSelect(Box::new(q)));
                }
                TokenKind::LBrace => {
                    // Group or UNION chain.
                    let first = self.parse_ggp()?;
                    if self.peek().is_word("UNION") {
                        let mut branches = vec![first];
                        while self.eat_word("UNION") {
                            branches.push(self.parse_ggp()?);
                        }
                        elems.push(PatternElem::Union(branches));
                    } else if let [PatternElem::SubSelect(_)] = first.elems.as_slice() {
                        // `{ SELECT ... }` is a subquery, not a group.
                        elems.extend(first.elems);
                    } else {
                        elems.push(PatternElem::Group(first));
                    }
                }
                TokenKind::Word(w) if w == "FILTER" => {
                    self.bump();
                    let expr = if matches!(self.peek(), TokenKind::LParen) {
                        self.bump();
                        let e = self.parse_expr()?;
                        self.expect(&TokenKind::RParen)?;
                        e
                    } else {
                        // FILTER regex(...) / FILTER isIRI(...) forms.
                        self.parse_primary()?
                    };
                    elems.push(PatternElem::Filter(expr));
                }
                TokenKind::Word(w) if w == "OPTIONAL" => {
                    self.bump();
                    let inner = self.parse_ggp()?;
                    elems.push(PatternElem::Optional(inner));
                }
                TokenKind::Word(w) if w == "GRAPH" => {
                    self.bump();
                    let uri = match self.bump() {
                        TokenKind::IriRef(i) => i,
                        TokenKind::PName(p, l) => self.resolve_pname(&p, &l)?,
                        TokenKind::Var(_) => {
                            return Err(self.err("GRAPH variables are not supported"))
                        }
                        other => return Err(self.err(format!("bad GRAPH target: {other:?}"))),
                    };
                    let inner = self.parse_ggp()?;
                    elems.push(PatternElem::Graph(uri, inner));
                }
                TokenKind::Word(w) if w == "BIND" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect_word("AS")?;
                    let var = match self.bump() {
                        TokenKind::Var(v) => v,
                        other => return Err(self.err(format!("expected variable: {other:?}"))),
                    };
                    self.expect(&TokenKind::RParen)?;
                    elems.push(PatternElem::Bind(expr, var));
                }
                TokenKind::Word(w) if w == "VALUES" || w == "MINUS" || w == "SERVICE" => {
                    return Err(self.err(format!("{w} is not supported")));
                }
                _ => {
                    // Triples block.
                    self.parse_triples_block(&mut elems)?;
                }
            }
        }
    }

    fn parse_triples_block(&mut self, elems: &mut Vec<PatternElem>) -> Result<()> {
        let subject = self.parse_pattern_term(false)?;
        loop {
            // Predicate-object list for this subject.
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_pattern_term(true)?;
                elems.push(PatternElem::Triple(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                )));
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            if matches!(self.peek(), TokenKind::Semicolon) {
                self.bump();
                // Trailing ';' before '.' or '}' is legal.
                if matches!(self.peek(), TokenKind::Dot | TokenKind::RBrace) {
                    break;
                }
            } else {
                break;
            }
        }
        // Optional terminating dot is consumed by the caller's loop.
        Ok(())
    }

    fn parse_predicate(&mut self) -> Result<PatternTerm> {
        match self.peek().clone() {
            TokenKind::A => {
                self.bump();
                Ok(PatternTerm::Const(Term::iri(rdf_model::vocab::rdf::TYPE)))
            }
            _ => self.parse_pattern_term(false),
        }
    }

    fn parse_pattern_term(&mut self, allow_literal: bool) -> Result<PatternTerm> {
        match self.bump() {
            TokenKind::Var(v) => Ok(PatternTerm::Var(v)),
            TokenKind::IriRef(i) => Ok(PatternTerm::Const(Term::iri(i))),
            TokenKind::PName(p, l) => {
                Ok(PatternTerm::Const(Term::iri(self.resolve_pname(&p, &l)?)))
            }
            TokenKind::BlankLabel(b) => Ok(PatternTerm::Const(Term::blank(b))),
            TokenKind::String(s) if allow_literal => {
                Ok(PatternTerm::Const(self.finish_literal(s)?))
            }
            TokenKind::Integer(n) if allow_literal => Ok(PatternTerm::Const(Term::integer(n))),
            TokenKind::Decimal(d) if allow_literal => {
                Ok(PatternTerm::Const(Term::from(Literal::double(d))))
            }
            TokenKind::Word(w) if allow_literal && w == "TRUE" => {
                Ok(PatternTerm::Const(Term::from(Literal::boolean(true))))
            }
            TokenKind::Word(w) if allow_literal && w == "FALSE" => {
                Ok(PatternTerm::Const(Term::from(Literal::boolean(false))))
            }
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }

    /// After a string token, apply an attached language tag or `^^datatype`.
    fn finish_literal(&mut self, body: String) -> Result<Term> {
        match self.peek().clone() {
            TokenKind::LangTag(lang) => {
                self.bump();
                Ok(Term::from(Literal::lang_string(body, lang)))
            }
            TokenKind::HatHat => {
                self.bump();
                let dt = match self.bump() {
                    TokenKind::IriRef(i) => i,
                    TokenKind::PName(p, l) => self.resolve_pname(&p, &l)?,
                    other => return Err(self.err(format!("expected datatype, got {other:?}"))),
                };
                Ok(Term::from(Literal::typed(body, dt)))
            }
            _ => Ok(Term::string(body)),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while matches!(self.peek(), TokenKind::OrOr) {
            self.bump();
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_relational()?;
        while matches!(self.peek(), TokenKind::AndAnd) {
            self.bump();
            let right = self.parse_relational()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Neq => Some(CmpOp::Neq),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::Cmp(op, Box::new(left), Box::new(right)));
        }
        if self.peek().is_word("IN") {
            self.bump();
            let list = self.parse_expr_list()?;
            return Ok(Expr::In {
                expr: Box::new(left),
                list,
                negated: false,
            });
        }
        if self.peek().is_word("NOT") && self.peek2().is_word("IN") {
            self.bump();
            self.bump();
            let list = self.parse_expr_list()?;
            return Ok(Expr::In {
                expr: Box::new(left),
                list,
                negated: true,
            });
        }
        Ok(left)
    }

    fn parse_expr_list(&mut self) -> Result<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        let mut list = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                list.push(self.parse_expr()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(list)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Bang => {
                self.bump();
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            TokenKind::Minus => {
                self.bump();
                Ok(Expr::Neg(Box::new(self.parse_unary()?)))
            }
            TokenKind::Plus => {
                self.bump();
                self.parse_unary()
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            TokenKind::LParen => {
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Var(v) => Ok(Expr::Var(v)),
            TokenKind::Integer(n) => Ok(Expr::Const(Term::integer(n))),
            TokenKind::Decimal(d) => Ok(Expr::Const(Term::from(Literal::double(d)))),
            TokenKind::String(s) => Ok(Expr::Const(self.finish_literal(s)?)),
            TokenKind::IriRef(i) => self.maybe_cast_call(i),
            TokenKind::PName(p, l) => {
                let iri = self.resolve_pname(&p, &l)?;
                self.maybe_cast_call(iri)
            }
            TokenKind::Word(w) => self.parse_word_primary(&w),
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }

    /// An IRI in expression position: either a constant or, when followed by
    /// `(`, a datatype-cast call like `xsd:dateTime(?d)`.
    fn maybe_cast_call(&mut self, iri: String) -> Result<Expr> {
        if matches!(self.peek(), TokenKind::LParen) {
            let args = self.parse_expr_list()?;
            Ok(Expr::Call(Func::Cast(iri), args))
        } else {
            Ok(Expr::Const(Term::iri(iri)))
        }
    }

    fn parse_word_primary(&mut self, word: &str) -> Result<Expr> {
        match word {
            "TRUE" => return Ok(Expr::Const(Term::from(Literal::boolean(true)))),
            "FALSE" => return Ok(Expr::Const(Term::from(Literal::boolean(false)))),
            _ => {}
        }
        if let Some(op) = match word {
            "COUNT" => Some(AggOp::Count),
            "SUM" => Some(AggOp::Sum),
            "AVG" => Some(AggOp::Avg),
            "MIN" => Some(AggOp::Min),
            "MAX" => Some(AggOp::Max),
            "SAMPLE" => Some(AggOp::Sample),
            _ => None,
        } {
            self.expect(&TokenKind::LParen)?;
            let distinct = self.eat_word("DISTINCT");
            let expr = if matches!(self.peek(), TokenKind::Star) {
                self.bump();
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            };
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Aggregate { op, distinct, expr });
        }
        let func = match word {
            "STR" => Func::Str,
            "LANG" => Func::Lang,
            "DATATYPE" => Func::Datatype,
            "BOUND" => Func::Bound,
            "ISIRI" | "ISURI" => Func::IsIri,
            "ISLITERAL" => Func::IsLiteral,
            "ISBLANK" => Func::IsBlank,
            "REGEX" => Func::Regex,
            "YEAR" => Func::Year,
            "MONTH" => Func::Month,
            "DAY" => Func::Day,
            other => return Err(self.err(format!("unknown function {other}"))),
        };
        let args = self.parse_expr_list()?;
        Ok(Expr::Call(func, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://x/T> . }").unwrap();
        assert_eq!(q.projected_vars(), vec!["x"]);
        assert_eq!(q.pattern.elems.len(), 1);
        match &q.pattern.elems[0] {
            PatternElem::Triple(t) => {
                assert_eq!(t.subject, PatternTerm::Var("x".into()));
                assert_eq!(
                    t.predicate,
                    PatternTerm::Const(Term::iri(rdf_model::vocab::rdf::TYPE))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prefixes_resolved() {
        let q = parse_query(
            "PREFIX dbpp: <http://dbpedia.org/property/>\n\
             SELECT * WHERE { ?movie dbpp:starring ?actor }",
        )
        .unwrap();
        match &q.pattern.elems[0] {
            PatternElem::Triple(t) => assert_eq!(
                t.predicate,
                PatternTerm::Const(Term::iri("http://dbpedia.org/property/starring"))
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn semicolon_and_comma_abbreviations() {
        let q = parse_query(
            "SELECT * WHERE { ?a <http://p> ?b ; <http://q> ?c , ?d . ?e <http://r> ?f }",
        )
        .unwrap();
        let triples: Vec<_> = q
            .pattern
            .elems
            .iter()
            .filter(|e| matches!(e, PatternElem::Triple(_)))
            .collect();
        assert_eq!(triples.len(), 4);
    }

    #[test]
    fn filter_having_group() {
        let q = parse_query(
            "SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count) \
             WHERE { ?movie <http://p/starring> ?actor . \
                     FILTER ( ?c = <http://r/USA> ) } \
             GROUP BY ?actor \
             HAVING ( COUNT(DISTINCT ?movie) >= 50 )",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.group_by, vec!["actor"]);
        assert_eq!(q.having.len(), 1);
        assert!(q.having[0].has_aggregate());
        assert!(q.is_aggregated());
    }

    #[test]
    fn optional_union_subquery() {
        let q = parse_query(
            "SELECT * WHERE { \
               { SELECT ?a WHERE { ?a <http://p> ?b } } \
               OPTIONAL { ?a <http://q> ?c } \
               { ?a <http://r> ?d } UNION { ?a <http://s> ?e } \
             }",
        )
        .unwrap();
        assert_eq!(q.pattern.elems.len(), 3);
        assert!(matches!(q.pattern.elems[0], PatternElem::SubSelect(_)));
        assert!(matches!(q.pattern.elems[1], PatternElem::Optional(_)));
        assert!(matches!(q.pattern.elems[2], PatternElem::Union(ref b) if b.len() == 2));
    }

    #[test]
    fn from_and_modifiers() {
        let q = parse_query(
            "SELECT ?x FROM <http://dbpedia.org> WHERE { ?x <http://p> ?y } \
             ORDER BY DESC(?x) LIMIT 10 OFFSET 20",
        )
        .unwrap();
        assert_eq!(q.from, vec!["http://dbpedia.org"]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(20));
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].ascending);
    }

    #[test]
    fn filter_builtin_without_parens() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?c FILTER regex(str(?c), \"USA\") }").unwrap();
        let filter = q
            .pattern
            .elems
            .iter()
            .find_map(|e| match e {
                PatternElem::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert!(matches!(filter, Expr::Call(Func::Regex, _)));
    }

    #[test]
    fn in_expression() {
        let q = parse_query(
            "PREFIX c: <http://conf/>\n\
             SELECT * WHERE { ?p <http://series> ?conf \
             FILTER ( ?conf IN (c:vldb, c:sigmod) ) }",
        )
        .unwrap();
        let filter = q
            .pattern
            .elems
            .iter()
            .find_map(|e| match e {
                PatternElem::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert!(matches!(filter, Expr::In { negated: false, list, .. } if list.len() == 2));
    }

    #[test]
    fn cast_call() {
        let q = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             SELECT * WHERE { ?p <http://d> ?date \
             FILTER ( year(xsd:dateTime(?date)) >= 2005 ) }",
        )
        .unwrap();
        let filter = q
            .pattern
            .elems
            .iter()
            .find_map(|e| match e {
                PatternElem::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        // year(cast(?date)) >= 2005
        match filter {
            Expr::Cmp(CmpOp::Ge, lhs, _) => match lhs.as_ref() {
                Expr::Call(Func::Year, args) => {
                    assert!(matches!(&args[0], Expr::Call(Func::Cast(dt), _)
                        if dt == rdf_model::vocab::xsd::DATE_TIME));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn graph_clause() {
        let q = parse_query("SELECT * WHERE { GRAPH <http://yago> { ?a <http://p> ?b } }").unwrap();
        assert!(matches!(
            &q.pattern.elems[0],
            PatternElem::Graph(uri, _) if uri == "http://yago"
        ));
    }

    #[test]
    fn nested_unions_three_way() {
        let q = parse_query(
            "SELECT * WHERE { { ?a <http://p> ?b } UNION { ?a <http://q> ?b } UNION { ?a <http://r> ?b } }",
        )
        .unwrap();
        assert!(matches!(&q.pattern.elems[0], PatternElem::Union(b) if b.len() == 3));
    }

    #[test]
    fn errors_reported() {
        assert!(parse_query("SELECT WHERE { }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <http://p> }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x nope:y ?z }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <http://p> ?y } VALUES ?x {}").is_err());
    }

    #[test]
    fn select_star_scope() {
        let q = parse_query(
            "SELECT * WHERE { ?movie <http://p> ?actor OPTIONAL { ?actor <http://q> ?award } }",
        )
        .unwrap();
        assert_eq!(q.projected_vars(), vec!["movie", "actor", "award"]);
    }
}
