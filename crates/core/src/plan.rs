//! Multi-attribute query planning: boolean grammar, arena rewrite
//! engine, and DNF plans.
//!
//! The paper's motivating workload (§1) is DSS processing of *complex*
//! ad-hoc predicates: one bitmap index per attribute, combined with
//! cheap bitwise operations. This module is the frontend for that
//! pattern. It has three parts:
//!
//! 1. **Grammar** — [`TableQuery::parse`] understands a small boolean
//!    expression language over named attributes:
//!
//!    ```text
//!    region in {0, 1} and (discount >= 7 or not store = 12)
//!    ```
//!
//!    Like [`Query::parse`], the parser is a trust boundary: predicates
//!    arrive over the network, so every malformed input maps to a typed
//!    [`TableParseError`], token echoes are clipped, nesting depth and
//!    membership lists are capped, and nothing panics whatever the byte
//!    string.
//!
//! 2. **Rewrite engine** — [`Planner`] loads a [`TableQuery`] into an
//!    arena of nodes (`And` / `Or` / `Not` / `Pred` in one `Vec`, ids
//!    instead of boxes) and applies iterative [`RewriteAction`]s until
//!    fixpoint: flatten nested And/Or, cancel double negation, push
//!    `Not` to the leaves via per-attribute complement, fold constants,
//!    and merge same-attribute predicates into membership sets.
//!
//! 3. **DNF conversion** — the rewritten tree becomes a [`Plan`]: an OR
//!    of AND-clauses of per-attribute literals. Conversion is
//!    allocation-bounded: the clause cap is enforced *while* the cross
//!    product expands, so a hostile deep-Not/wide-Or expression returns
//!    [`PlanError::ClauseCapExceeded`] instead of exhausting memory.
//!
//! Execution lives in [`crate::ParallelExecutor::execute`]: a plan
//! compiles into one hash-consed bitmap-expression DAG — an OR over the
//! clauses of ANDs over the literals, each literal its attribute's
//! rewritten expression — folded once, so every distinct bitmap is read
//! once however many literals share it. A single-attribute predicate is
//! the one-literal plan `Plan::from(query)`.

use crate::multi::TableQuery;
use crate::{ParseError, Query};
use std::fmt;

/// Maximum nesting depth (parentheses and operators) the parser and the
/// planner accept. Deep towers of `not (not (…))` are hostile input —
/// the recursion is depth-checked, never stack-bound.
pub const MAX_PLAN_DEPTH: usize = 128;

/// Maximum number of DNF clauses a plan may expand to. The cap is
/// enforced incrementally during the distributive expansion so the
/// planner's allocation stays proportional to the cap, not to the
/// doubly-exponential worst case.
pub const MAX_DNF_CLAUSES: usize = 128;

/// Cardinality bound under which same-attribute predicates are merged
/// by enumerating their value sets. Above this, merging is skipped
/// (plans stay correct, just less fused).
const MERGE_ENUM_CAP: u64 = 4096;

/// Longest attribute name the tokenizer accepts.
const MAX_IDENT_LEN: usize = 64;

/// Clips a token for error messages so hostile input cannot echo
/// megabytes back at the caller.
fn clip(s: &str) -> String {
    const MAX: usize = 48;
    if s.len() <= MAX {
        s.to_owned()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// One attribute of a [`TableSchema`]: what the parser and planner need
/// to know about an indexed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSchema {
    /// Attribute name, as written in query text.
    pub name: String,
    /// Domain cardinality: values are `0..cardinality`.
    pub cardinality: u64,
    /// Whether the underlying index is nullable. Negations over a
    /// nullable attribute stay row-level complements (NULL rows match
    /// `NOT p` at the table level) instead of folding into the leaf
    /// query (where the existence mask would drop them).
    pub nullable: bool,
}

/// The attributes a table query may reference, in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableSchema {
    attrs: Vec<AttrSchema>,
}

impl TableSchema {
    /// An empty schema.
    pub fn new() -> TableSchema {
        TableSchema { attrs: Vec::new() }
    }

    /// Adds an attribute; returns its position.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn push(&mut self, attr: AttrSchema) -> usize {
        assert!(
            self.attrs.iter().all(|a| a.name != attr.name),
            "attribute {} already in schema",
            attr.name
        );
        self.attrs.push(attr);
        self.attrs.len() - 1
    }

    /// The attributes, in position order.
    pub fn attrs(&self) -> &[AttrSchema] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Looks an attribute up by name.
    pub fn resolve(&self, name: &str) -> Option<(usize, &AttrSchema)> {
        self.attrs.iter().enumerate().find(|(_, a)| a.name == name)
    }

    /// The attribute at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn attr(&self, position: usize) -> &AttrSchema {
        &self.attrs[position]
    }
}

/// A typed [`TableQuery::parse`] failure. Like [`crate::ParseError`],
/// every malformed input maps to a variant here; the parser never
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableParseError {
    /// The expression was empty.
    Empty,
    /// A character the tokenizer does not know.
    BadToken {
        /// The offending text (clipped).
        token: String,
    },
    /// A numeric token did not parse as `u64`.
    BadNumber {
        /// The offending token (clipped).
        token: String,
    },
    /// An identifier longer than the tokenizer accepts.
    IdentTooLong {
        /// Clipped prefix of the identifier.
        token: String,
        /// The enforced cap.
        cap: usize,
    },
    /// The expression references an attribute the schema does not have.
    UnknownAttribute {
        /// The attribute name (clipped).
        name: String,
    },
    /// A value falls outside an attribute's domain.
    OutOfDomain {
        /// The attribute name.
        attr: String,
        /// The out-of-range value.
        value: u64,
        /// The attribute's cardinality.
        cardinality: u64,
    },
    /// `in {}` with no values.
    EmptyValueList,
    /// `in {…}` with more than [`crate::MAX_MEMBERSHIP_VALUES`] values.
    TooManyValues {
        /// How many values the list carried.
        got: usize,
        /// The enforced cap.
        cap: usize,
    },
    /// Nesting deeper than [`MAX_PLAN_DEPTH`].
    TooDeep {
        /// The enforced cap.
        cap: usize,
    },
    /// The parser expected something else at this point.
    Unexpected {
        /// What was found (clipped; "end of input" at EOF).
        got: String,
        /// What the grammar wanted.
        want: &'static str,
    },
}

impl fmt::Display for TableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableParseError::Empty => write!(f, "empty table query"),
            TableParseError::BadToken { token } => write!(f, "bad token {token:?}"),
            TableParseError::BadNumber { token } => write!(f, "bad number {token:?}"),
            TableParseError::IdentTooLong { token, cap } => {
                write!(f, "identifier {token:?} longer than {cap} bytes")
            }
            TableParseError::UnknownAttribute { name } => {
                write!(f, "unknown attribute {name:?}")
            }
            TableParseError::OutOfDomain {
                attr,
                value,
                cardinality,
            } => write!(f, "value {value} outside {attr}'s domain 0..{cardinality}"),
            TableParseError::EmptyValueList => write!(f, "in {{}} needs at least one value"),
            TableParseError::TooManyValues { got, cap } => {
                write!(f, "membership list has {got} values (cap {cap})")
            }
            TableParseError::TooDeep { cap } => {
                write!(f, "expression nests deeper than {cap} levels")
            }
            TableParseError::Unexpected { got, want } => {
                write!(f, "expected {want}, found {got}")
            }
        }
    }
}

impl std::error::Error for TableParseError {}

/// A typed planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// DNF expansion would exceed [`MAX_DNF_CLAUSES`]. The count is the
    /// partial product at the moment the cap tripped, not the (possibly
    /// astronomically larger) full size.
    ClauseCapExceeded {
        /// Clauses accumulated when the cap tripped.
        clauses: usize,
        /// The enforced cap.
        cap: usize,
    },
    /// The query nests deeper than [`MAX_PLAN_DEPTH`] (reachable only
    /// with a hand-built [`TableQuery`]; the parser caps earlier).
    TooDeep {
        /// The enforced cap.
        cap: usize,
    },
    /// The query references an attribute the schema does not have.
    UnknownAttribute {
        /// The attribute name (clipped).
        name: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ClauseCapExceeded { clauses, cap } => {
                write!(f, "DNF expansion reached {clauses} clauses (cap {cap})")
            }
            PlanError::TooDeep { cap } => {
                write!(f, "query nests deeper than {cap} levels")
            }
            PlanError::UnknownAttribute { name } => write!(f, "unknown attribute {name:?}"),
        }
    }
}

impl std::error::Error for PlanError {}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Number(u64),
    And,
    Or,
    Not,
    In,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("{:?}", clip(s)),
            Token::Number(n) => n.to_string(),
            Token::And => "\"and\"".into(),
            Token::Or => "\"or\"".into(),
            Token::Not => "\"not\"".into(),
            Token::In => "\"in\"".into(),
            Token::LParen => "\"(\"".into(),
            Token::RParen => "\")\"".into(),
            Token::LBrace => "\"{\"".into(),
            Token::RBrace => "\"}\"".into(),
            Token::Comma => "\",\"".into(),
            Token::Eq => "\"=\"".into(),
            Token::Ne => "\"!=\"".into(),
            Token::Le => "\"<=\"".into(),
            Token::Ge => "\">=\"".into(),
            Token::Lt => "\"<\"".into(),
            Token::Gt => "\">\"".into(),
        }
    }
}

fn tokenize(s: &str) -> Result<Vec<Token>, TableParseError> {
    let mut tokens = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            b')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            b'{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            b'}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            b',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            b'=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Ne);
                i += 2;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &s[start..i];
                let n: u64 = text
                    .parse()
                    .map_err(|_| TableParseError::BadNumber { token: clip(text) })?;
                tokens.push(Token::Number(n));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &s[start..i];
                if word.len() > MAX_IDENT_LEN {
                    return Err(TableParseError::IdentTooLong {
                        token: clip(word),
                        cap: MAX_IDENT_LEN,
                    });
                }
                tokens.push(match word {
                    "and" | "AND" => Token::And,
                    "or" | "OR" => Token::Or,
                    "not" | "NOT" => Token::Not,
                    "in" | "IN" => Token::In,
                    _ => Token::Ident(word.to_owned()),
                });
            }
            _ => {
                // Find the next char boundary so the echo stays valid
                // UTF-8, then clip it.
                let mut end = i + 1;
                while end < s.len() && !s.is_char_boundary(end) {
                    end += 1;
                }
                return Err(TableParseError::BadToken {
                    token: clip(&s[i..end]),
                });
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    schema: &'a TableSchema,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn unexpected(&self, want: &'static str) -> TableParseError {
        TableParseError::Unexpected {
            got: self
                .peek()
                .map_or_else(|| "end of input".to_owned(), Token::describe),
            want,
        }
    }

    fn expect(&mut self, t: Token, want: &'static str) -> Result<(), TableParseError> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(want))
        }
    }

    /// `or := and ("or" and)*`
    fn parse_or(&mut self, depth: usize) -> Result<TableQuery, TableParseError> {
        let mut node = self.parse_and(depth)?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            node = node.or(self.parse_and(depth)?);
        }
        Ok(node)
    }

    /// `and := unary ("and" unary)*`
    fn parse_and(&mut self, depth: usize) -> Result<TableQuery, TableParseError> {
        let mut node = self.parse_unary(depth)?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            node = node.and(self.parse_unary(depth)?);
        }
        Ok(node)
    }

    /// `unary := "not"* atom` — `not` chains are consumed iteratively
    /// (only parity matters), so a million `not`s cannot overflow the
    /// stack; parenthesised nesting is what `depth` bounds.
    fn parse_unary(&mut self, depth: usize) -> Result<TableQuery, TableParseError> {
        let mut negate = false;
        while self.peek() == Some(&Token::Not) {
            self.pos += 1;
            negate = !negate;
        }
        let atom = self.parse_atom(depth)?;
        Ok(if negate { atom.not() } else { atom })
    }

    /// `atom := "(" or ")" | pred`
    fn parse_atom(&mut self, depth: usize) -> Result<TableQuery, TableParseError> {
        if depth >= MAX_PLAN_DEPTH {
            return Err(TableParseError::TooDeep {
                cap: MAX_PLAN_DEPTH,
            });
        }
        match self.peek() {
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.parse_or(depth + 1)?;
                self.expect(Token::RParen, "\")\"")?;
                Ok(inner)
            }
            Some(Token::Ident(_)) => self.parse_pred(),
            _ => Err(self.unexpected("an attribute name or \"(\"")),
        }
    }

    /// `pred := IDENT ("=" | "!=" | "<=" | ">=" | "<" | ">") NUM
    ///        | IDENT "in" "{" NUM ("," NUM)* "}"`
    fn parse_pred(&mut self) -> Result<TableQuery, TableParseError> {
        let name = match self.next() {
            Some(Token::Ident(name)) => name,
            _ => unreachable!("caller peeked an identifier"),
        };
        let Some((_, attr)) = self.schema.resolve(&name) else {
            return Err(TableParseError::UnknownAttribute { name: clip(&name) });
        };
        let c = attr.cardinality;
        let in_domain = |value: u64| -> Result<u64, TableParseError> {
            if value < c {
                Ok(value)
            } else {
                Err(TableParseError::OutOfDomain {
                    attr: name.clone(),
                    value,
                    cardinality: c,
                })
            }
        };
        let op = self.next().ok_or(TableParseError::Unexpected {
            got: "end of input".to_owned(),
            want: "a comparison operator or \"in\"",
        })?;
        let query = match op {
            Token::In => {
                self.expect(Token::LBrace, "\"{\"")?;
                if self.peek() == Some(&Token::RBrace) {
                    return Err(TableParseError::EmptyValueList);
                }
                let mut values = Vec::new();
                loop {
                    match self.next() {
                        Some(Token::Number(v)) => values.push(in_domain(v)?),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.unexpected("a value"));
                        }
                    }
                    if values.len() > crate::MAX_MEMBERSHIP_VALUES {
                        return Err(TableParseError::TooManyValues {
                            got: values.len(),
                            cap: crate::MAX_MEMBERSHIP_VALUES,
                        });
                    }
                    match self.next() {
                        Some(Token::Comma) => continue,
                        Some(Token::RBrace) => break,
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.unexpected("\",\" or \"}\""));
                        }
                    }
                }
                Query::membership(values)
            }
            Token::Eq | Token::Ne | Token::Le | Token::Ge | Token::Lt | Token::Gt => {
                let v = match self.next() {
                    Some(Token::Number(v)) => v,
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.unexpected("a value"));
                    }
                };
                match op {
                    Token::Eq => Query::equality(in_domain(v)?),
                    Token::Ne => Query::equality(in_domain(v)?).not(),
                    Token::Le => Query::le(in_domain(v)?),
                    Token::Ge => Query::ge(in_domain(v)?, c),
                    // `< v` is `<= v-1`; `< 0` selects nothing, which the
                    // grammar rejects as out of domain rather than
                    // inventing an empty-set literal.
                    Token::Lt => {
                        if v == 0 || v > c {
                            return Err(TableParseError::OutOfDomain {
                                attr: name.clone(),
                                value: v,
                                cardinality: c,
                            });
                        }
                        Query::le(v - 1)
                    }
                    Token::Gt => {
                        if v + 1 >= c {
                            return Err(TableParseError::OutOfDomain {
                                attr: name.clone(),
                                value: v,
                                cardinality: c,
                            });
                        }
                        Query::ge(v + 1, c)
                    }
                    _ => unreachable!(),
                }
            }
            other => {
                return Err(TableParseError::Unexpected {
                    got: other.describe(),
                    want: "a comparison operator or \"in\"",
                })
            }
        };
        Ok(TableQuery::attr(name, query))
    }
}

impl TableQuery {
    /// Parses the boolean table-query grammar:
    ///
    /// | Syntax | Meaning |
    /// |---|---|
    /// | `attr = v`, `attr != v` | equality / its complement |
    /// | `attr <= v`, `attr >= v`, `attr < v`, `attr > v` | one-sided ranges |
    /// | `attr in {a, b, c}` | membership |
    /// | `p and q`, `p or q`, `not p` | boolean combination (`not` binds tightest, `and` over `or`) |
    /// | `( … )` | grouping |
    ///
    /// Two-sided ranges are spelled `attr >= lo and attr <= hi`; the
    /// planner's same-attribute merge fuses them into one interval
    /// literal.
    ///
    /// # Errors
    ///
    /// Returns a typed [`TableParseError`] for malformed input. The
    /// parser never panics: nesting is capped at [`MAX_PLAN_DEPTH`],
    /// value lists at [`crate::MAX_MEMBERSHIP_VALUES`], and every token
    /// echoed in an error is clipped.
    pub fn parse(s: &str, schema: &TableSchema) -> Result<TableQuery, TableParseError> {
        let tokens = tokenize(s)?;
        if tokens.is_empty() {
            return Err(TableParseError::Empty);
        }
        let mut parser = Parser {
            tokens,
            pos: 0,
            schema,
        };
        let query = parser.parse_or(0)?;
        if parser.pos != parser.tokens.len() {
            return Err(parser.unexpected("\"and\", \"or\", or end of input"));
        }
        Ok(query)
    }
}

// ---------------------------------------------------------------------
// Arena rewrite engine
// ---------------------------------------------------------------------

/// One rewrite step the planner applied, in application order — the
/// `EXPLAIN` view of normalisation (printed by `bix explain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteAction {
    /// A nested `And` was inlined into its `And` parent (or `Or`/`Or`).
    Flatten,
    /// `Not (Not x)` became `x`.
    NotNot,
    /// `Not` was pushed below an `And`/`Or` by De Morgan.
    DeMorgan,
    /// `Not` over a non-nullable attribute folded into the leaf query.
    ComplementLeaf,
    /// Two same-attribute predicates under one `And`/`Or` merged into a
    /// single membership/interval literal.
    MergePredicates,
    /// A constant `true`/`false` was folded through its parent.
    FoldConstant,
    /// A one-child `And`/`Or` collapsed to its child.
    CollapseSingleton,
}

impl fmt::Display for RewriteAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RewriteAction::Flatten => "flatten",
            RewriteAction::NotNot => "not-not",
            RewriteAction::DeMorgan => "de-morgan",
            RewriteAction::ComplementLeaf => "complement-leaf",
            RewriteAction::MergePredicates => "merge-predicates",
            RewriteAction::FoldConstant => "fold-constant",
            RewriteAction::CollapseSingleton => "collapse-singleton",
        };
        f.write_str(name)
    }
}

/// One leaf of a [`Plan`] clause: a single-attribute selection, with an
/// optional row-level complement (kept only for nullable attributes,
/// where `NOT p` at the table level must still match NULL rows).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanLiteral {
    /// Schema position of the attribute.
    pub attr: usize,
    /// The selection evaluated through that attribute's index.
    pub query: Query,
    /// Complement the evaluated bitmap row-wise afterwards.
    pub complement: bool,
}

type NodeId = usize;

#[derive(Debug, Clone)]
enum PlanNode {
    Const(bool),
    Pred(PlanLiteral),
    Not(NodeId),
    And(Vec<NodeId>),
    Or(Vec<NodeId>),
}

/// The arena rewrite engine: loads a [`TableQuery`], normalises it with
/// iterative [`RewriteAction`]s, and emits a DNF [`Plan`].
#[derive(Debug)]
pub struct Planner<'a> {
    schema: &'a TableSchema,
    pool: Vec<PlanNode>,
    actions: Vec<RewriteAction>,
}

impl<'a> Planner<'a> {
    /// A planner over `schema`.
    pub fn new(schema: &'a TableSchema) -> Planner<'a> {
        Planner {
            schema,
            pool: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Parses, rewrites, and converts in one call.
    pub fn plan_text(schema: &TableSchema, text: &str) -> Result<Plan, PlanTextError> {
        let query = TableQuery::parse(text, schema).map_err(PlanTextError::Parse)?;
        Planner::new(schema)
            .plan(&query)
            .map_err(PlanTextError::Plan)
    }

    /// Rewrites `query` and converts it to DNF.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnknownAttribute`] for names outside the schema,
    /// [`PlanError::TooDeep`] for hand-built queries nesting past
    /// [`MAX_PLAN_DEPTH`], and [`PlanError::ClauseCapExceeded`] when
    /// the DNF expansion trips [`MAX_DNF_CLAUSES`].
    pub fn plan(mut self, query: &TableQuery) -> Result<Plan, PlanError> {
        let root = self.load(query)?;
        let root = self.rewrite(root);
        let clauses = self.to_dnf(root)?;
        Ok(Plan {
            clauses,
            actions: self.actions,
        })
    }

    /// Loads a [`TableQuery`] into the arena iteratively (an explicit
    /// stack, so hand-built deep trees cannot overflow the call stack),
    /// checking names and depth as it goes.
    fn load(&mut self, query: &TableQuery) -> Result<NodeId, PlanError> {
        // Post-order over the input tree: expand children first, then
        // emit the parent from the value stack.
        enum Step<'q> {
            Visit(&'q TableQuery, usize),
            Emit(&'q TableQuery),
        }
        let mut work = vec![Step::Visit(query, 0)];
        let mut values: Vec<NodeId> = Vec::new();
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(q, depth) => {
                    if depth >= MAX_PLAN_DEPTH {
                        return Err(PlanError::TooDeep {
                            cap: MAX_PLAN_DEPTH,
                        });
                    }
                    match q {
                        TableQuery::Attr { name, query } => {
                            let Some((attr, _)) = self.schema.resolve(name) else {
                                return Err(PlanError::UnknownAttribute { name: clip(name) });
                            };
                            values.push(self.push(PlanNode::Pred(PlanLiteral {
                                attr,
                                query: query.clone(),
                                complement: false,
                            })));
                        }
                        TableQuery::Not(inner) => {
                            work.push(Step::Emit(q));
                            work.push(Step::Visit(inner, depth + 1));
                        }
                        TableQuery::And(children) | TableQuery::Or(children) => {
                            work.push(Step::Emit(q));
                            for child in children.iter().rev() {
                                work.push(Step::Visit(child, depth + 1));
                            }
                        }
                    }
                }
                Step::Emit(q) => match q {
                    TableQuery::Not(_) => {
                        let inner = values.pop().expect("child loaded");
                        values.push(self.push(PlanNode::Not(inner)));
                    }
                    TableQuery::And(children) => {
                        let at = values.len() - children.len();
                        let ids = values.split_off(at);
                        values.push(self.push(PlanNode::And(ids)));
                    }
                    TableQuery::Or(children) => {
                        let at = values.len() - children.len();
                        let ids = values.split_off(at);
                        values.push(self.push(PlanNode::Or(ids)));
                    }
                    TableQuery::Attr { .. } => unreachable!("leaves emit on visit"),
                },
            }
        }
        Ok(values.pop().expect("root loaded"))
    }

    fn push(&mut self, node: PlanNode) -> NodeId {
        self.pool.push(node);
        self.pool.len() - 1
    }

    /// Applies rewrite actions until fixpoint. Each pass walks the live
    /// tree from the root; a pass that changes nothing ends the loop.
    /// Every action strictly reduces a well-founded measure (negation
    /// weight, node count, or child count), so the loop terminates.
    fn rewrite(&mut self, mut root: NodeId) -> NodeId {
        loop {
            let mut changed = false;
            root = self.rewrite_pass(root, &mut changed);
            if !changed {
                return root;
            }
        }
    }

    /// One bottom-up pass. Children are rewritten before their parent
    /// (iteratively, explicit stack), then the parent applies every
    /// action that matches locally.
    fn rewrite_pass(&mut self, root: NodeId, changed: &mut bool) -> NodeId {
        // Collect the live tree in post-order.
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            order.push(id);
            match &self.pool[id] {
                PlanNode::Not(inner) => stack.push(*inner),
                PlanNode::And(children) | PlanNode::Or(children) => {
                    stack.extend(children.iter().copied());
                }
                PlanNode::Const(_) | PlanNode::Pred(_) => {}
            }
        }
        // Rewritten replacement for each visited node.
        let mut replaced: std::collections::HashMap<NodeId, NodeId> = Default::default();
        for &id in order.iter().rev() {
            let new_id = self.rewrite_node(id, &replaced, changed);
            replaced.insert(id, new_id);
        }
        replaced[&root]
    }

    /// Rewrites one node given its (already rewritten) children.
    fn rewrite_node(
        &mut self,
        id: NodeId,
        replaced: &std::collections::HashMap<NodeId, NodeId>,
        changed: &mut bool,
    ) -> NodeId {
        let sub = |c: NodeId| replaced.get(&c).copied().unwrap_or(c);
        match self.pool[id].clone() {
            PlanNode::Const(_) | PlanNode::Pred(_) => id,
            PlanNode::Not(inner) => {
                // ¬¬x → x, checked against the *original* child: the
                // bottom-up order has already rewritten it (a Not child
                // never survives its own rewrite), so cancellation must
                // look at the pre-pass structure.
                if let PlanNode::Not(grand) = self.pool[inner] {
                    *changed = true;
                    self.actions.push(RewriteAction::NotNot);
                    return sub(grand);
                }
                let inner = sub(inner);
                match self.pool[inner].clone() {
                    // The rewritten child can still be a Not when its own
                    // rewrite produced one (e.g. De Morgan output pending
                    // the next pass).
                    PlanNode::Not(grand) => {
                        *changed = true;
                        self.actions.push(RewriteAction::NotNot);
                        grand
                    }
                    // ¬true → false, ¬false → true
                    PlanNode::Const(b) => {
                        *changed = true;
                        self.actions.push(RewriteAction::FoldConstant);
                        self.push(PlanNode::Const(!b))
                    }
                    // De Morgan: ¬(a ∧ b) → ¬a ∨ ¬b (and dually).
                    PlanNode::And(children) => {
                        *changed = true;
                        self.actions.push(RewriteAction::DeMorgan);
                        let negated: Vec<NodeId> = children
                            .into_iter()
                            .map(|c| self.push(PlanNode::Not(c)))
                            .collect();
                        self.push(PlanNode::Or(negated))
                    }
                    PlanNode::Or(children) => {
                        *changed = true;
                        self.actions.push(RewriteAction::DeMorgan);
                        let negated: Vec<NodeId> = children
                            .into_iter()
                            .map(|c| self.push(PlanNode::Not(c)))
                            .collect();
                        self.push(PlanNode::And(negated))
                    }
                    // Per-attribute complement at the leaf. Non-nullable
                    // attributes fold the negation into the query (the
                    // index's length-masked NOT is the row complement);
                    // nullable attributes keep a row-level complement
                    // flag because the index's existence mask would
                    // silently drop NULL rows from `NOT p`.
                    PlanNode::Pred(lit) => {
                        *changed = true;
                        self.actions.push(RewriteAction::ComplementLeaf);
                        let new_lit = if self.schema.attr(lit.attr).nullable {
                            PlanLiteral {
                                complement: !lit.complement,
                                ..lit
                            }
                        } else {
                            PlanLiteral {
                                query: lit.query.not(),
                                ..lit
                            }
                        };
                        self.push(PlanNode::Pred(new_lit))
                    }
                }
            }
            PlanNode::And(children) => self.rewrite_nary(children, true, &sub, changed),
            PlanNode::Or(children) => self.rewrite_nary(children, false, &sub, changed),
        }
    }

    /// Flattening, constant folding, singleton collapse, and
    /// same-attribute merging for one `And`/`Or` node.
    fn rewrite_nary(
        &mut self,
        children: Vec<NodeId>,
        is_and: bool,
        sub: &dyn Fn(NodeId) -> NodeId,
        changed: &mut bool,
    ) -> NodeId {
        let mut flat: Vec<NodeId> = Vec::with_capacity(children.len());
        for child in children {
            let child = sub(child);
            match (&self.pool[child], is_and) {
                (PlanNode::And(grand), true) | (PlanNode::Or(grand), false) => {
                    *changed = true;
                    self.actions.push(RewriteAction::Flatten);
                    flat.extend(grand.iter().copied());
                }
                // Identity elements vanish; absorbing elements dominate.
                (PlanNode::Const(b), _) => {
                    *changed = true;
                    self.actions.push(RewriteAction::FoldConstant);
                    if *b != is_and {
                        // false in And / true in Or absorbs the node.
                        return self.push(PlanNode::Const(!is_and));
                    }
                }
                _ => flat.push(child),
            }
        }

        self.merge_same_attr(&mut flat, is_and, changed);

        match flat.len() {
            0 => {
                // Empty And is true; empty Or is false.
                *changed = true;
                self.actions.push(RewriteAction::FoldConstant);
                self.push(PlanNode::Const(is_and))
            }
            1 => {
                *changed = true;
                self.actions.push(RewriteAction::CollapseSingleton);
                flat[0]
            }
            _ => self.push(if is_and {
                PlanNode::And(flat)
            } else {
                PlanNode::Or(flat)
            }),
        }
    }

    /// Merges sibling predicates over the same attribute into one
    /// literal: intersection of their value sets under `And`, union
    /// under `Or`. Applies only to plain (non-complemented) literals
    /// over non-nullable attributes with cardinality at most
    /// [`MERGE_ENUM_CAP`] — everything else is left alone.
    fn merge_same_attr(&mut self, flat: &mut Vec<NodeId>, is_and: bool, changed: &mut bool) {
        let mergeable = |planner: &Planner, id: NodeId| -> Option<usize> {
            match &planner.pool[id] {
                PlanNode::Pred(lit) if !lit.complement => {
                    let a = planner.schema.attr(lit.attr);
                    (!a.nullable && a.cardinality <= MERGE_ENUM_CAP).then_some(lit.attr)
                }
                _ => None,
            }
        };
        let mut i = 0;
        while i < flat.len() {
            let Some(attr) = mergeable(self, flat[i]) else {
                i += 1;
                continue;
            };
            let mut partner = None;
            for (j, &other) in flat.iter().enumerate().skip(i + 1) {
                if mergeable(self, other) == Some(attr) {
                    partner = Some(j);
                    break;
                }
            }
            let Some(j) = partner else {
                i += 1;
                continue;
            };
            let (PlanNode::Pred(a), PlanNode::Pred(b)) =
                (self.pool[flat[i]].clone(), self.pool[flat[j]].clone())
            else {
                unreachable!("mergeable returned Some");
            };
            *changed = true;
            self.actions.push(RewriteAction::MergePredicates);
            let c = self.schema.attr(attr).cardinality;
            let values: Vec<u64> = (0..c)
                .filter(|&v| {
                    if is_and {
                        a.query.matches(v) && b.query.matches(v)
                    } else {
                        a.query.matches(v) || b.query.matches(v)
                    }
                })
                .collect();
            flat.remove(j);
            flat[i] = self.push(match set_to_query(&values, c) {
                Some(query) => PlanNode::Pred(PlanLiteral {
                    attr,
                    query,
                    complement: false,
                }),
                // Empty set: the literal is constant false (dually, the
                // full domain is constant true).
                None if values.is_empty() => PlanNode::Const(false),
                None => PlanNode::Const(true),
            });
            // Re-examine position i: more same-attribute siblings may
            // remain, or the new constant may fold on the next pass.
        }
    }

    /// Converts the rewritten tree to DNF clauses, enforcing the clause
    /// cap during expansion. Runs bottom-up over the arena with an
    /// explicit post-order walk (no recursion).
    fn to_dnf(&self, root: NodeId) -> Result<Vec<Vec<PlanLiteral>>, PlanError> {
        let mut memo: std::collections::HashMap<NodeId, Vec<Vec<PlanLiteral>>> = Default::default();
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            order.push(id);
            match &self.pool[id] {
                PlanNode::Not(inner) => stack.push(*inner),
                PlanNode::And(children) | PlanNode::Or(children) => {
                    stack.extend(children.iter().copied());
                }
                PlanNode::Const(_) | PlanNode::Pred(_) => {}
            }
        }
        for &id in order.iter().rev() {
            let clauses: Vec<Vec<PlanLiteral>> = match &self.pool[id] {
                // True is the empty clause; false is no clauses.
                PlanNode::Const(true) => vec![Vec::new()],
                PlanNode::Const(false) => Vec::new(),
                PlanNode::Pred(lit) => vec![vec![lit.clone()]],
                // A `Not` surviving rewrite can only sit over a Pred
                // (NNF pushed everything else down); treat it as a
                // complemented literal.
                PlanNode::Not(inner) => {
                    let inner_clauses = &memo[inner];
                    match inner_clauses.as_slice() {
                        [clause] if clause.len() == 1 => {
                            let lit = &clause[0];
                            vec![vec![PlanLiteral {
                                complement: !lit.complement,
                                ..lit.clone()
                            }]]
                        }
                        // Unreachable after rewrite, but stay total.
                        _ => {
                            return Err(PlanError::ClauseCapExceeded {
                                clauses: inner_clauses.len(),
                                cap: MAX_DNF_CLAUSES,
                            })
                        }
                    }
                }
                PlanNode::Or(children) => {
                    let mut acc: Vec<Vec<PlanLiteral>> = Vec::new();
                    for c in children {
                        acc.extend(memo[c].iter().cloned());
                        if acc.len() > MAX_DNF_CLAUSES {
                            return Err(PlanError::ClauseCapExceeded {
                                clauses: acc.len(),
                                cap: MAX_DNF_CLAUSES,
                            });
                        }
                    }
                    acc
                }
                PlanNode::And(children) => {
                    // Distribute incrementally; check the cap before
                    // every extension so the partial product's size —
                    // not the full cross product — bounds allocation.
                    let mut acc: Vec<Vec<PlanLiteral>> = vec![Vec::new()];
                    for c in children {
                        let rhs = &memo[c];
                        let mut next: Vec<Vec<PlanLiteral>> =
                            Vec::with_capacity((acc.len() * rhs.len()).min(MAX_DNF_CLAUSES + 1));
                        'outer: for left in &acc {
                            for right in rhs {
                                if next.len() > MAX_DNF_CLAUSES {
                                    break 'outer;
                                }
                                let mut clause = left.clone();
                                clause.extend(right.iter().cloned());
                                next.push(clause);
                            }
                        }
                        if next.len() > MAX_DNF_CLAUSES {
                            return Err(PlanError::ClauseCapExceeded {
                                clauses: next.len(),
                                cap: MAX_DNF_CLAUSES,
                            });
                        }
                        acc = next;
                    }
                    acc
                }
            };
            memo.insert(id, clauses);
        }
        let mut clauses = memo.remove(&root).expect("root converted");
        self.simplify_clauses(&mut clauses);
        Ok(clauses)
    }

    /// Final per-clause cleanup: merge same-attribute plain literals by
    /// intersection, drop contradictory clauses, and collapse a clause
    /// whose literals all vanished into `true`.
    fn simplify_clauses(&self, clauses: &mut Vec<Vec<PlanLiteral>>) {
        clauses.retain_mut(|clause| {
            let mut i = 0;
            while i < clause.len() {
                let attr = clause[i].attr;
                let schema = self.schema.attr(attr);
                let fusable = !clause[i].complement
                    && !schema.nullable
                    && schema.cardinality <= MERGE_ENUM_CAP;
                if !fusable {
                    i += 1;
                    continue;
                }
                let c = schema.cardinality;
                let mut j = i + 1;
                while j < clause.len() {
                    if clause[j].attr == attr && !clause[j].complement {
                        let values: Vec<u64> = (0..c)
                            .filter(|&v| clause[i].query.matches(v) && clause[j].query.matches(v))
                            .collect();
                        if values.is_empty() {
                            // Contradiction: the clause selects nothing.
                            return false;
                        }
                        clause[i].query = set_to_query(&values, c)
                            .unwrap_or(Query::Interval { lo: 0, hi: c - 1 });
                        clause.remove(j);
                    } else {
                        j += 1;
                    }
                }
                i += 1;
            }
            true
        });
        // A clause that reduced to "whole domain on every literal" stays
        // as-is — it is still a correct (if wide) selection.
    }
}

/// `values` as the cheapest [`Query`] over domain `0..c`: an interval
/// when contiguous, otherwise a membership set. Returns `None` for the
/// empty set and for the full domain (the caller folds those to
/// constants).
fn set_to_query(values: &[u64], c: u64) -> Option<Query> {
    if values.is_empty() || values.len() as u64 == c {
        return None;
    }
    let (lo, hi) = (values[0], values[values.len() - 1]);
    if hi - lo + 1 == values.len() as u64 {
        Some(Query::Interval { lo, hi })
    } else {
        Some(Query::membership(values.to_vec()))
    }
}

/// A [`Planner::plan_text`] failure: either phase's typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTextError {
    /// The text did not parse.
    Parse(TableParseError),
    /// The parsed query did not plan.
    Plan(PlanError),
}

impl fmt::Display for PlanTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanTextError::Parse(e) => write!(f, "{e}"),
            PlanTextError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanTextError {}

/// A rewritten table query in disjunctive normal form: an OR of
/// AND-clauses of per-attribute literals.
///
/// * no clauses — the plan selects nothing (constant false);
/// * a clause with no literals — that clause selects everything
///   (constant true).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The DNF clauses.
    pub clauses: Vec<Vec<PlanLiteral>>,
    /// Rewrite steps applied while normalising, in order.
    pub actions: Vec<RewriteAction>,
}

impl From<Query> for Plan {
    /// A single-attribute predicate as the one-literal plan on schema
    /// position 0 — how a one-attribute table answers `Query` requests.
    fn from(query: Query) -> Plan {
        Plan {
            clauses: vec![vec![PlanLiteral {
                attr: 0,
                query,
                complement: false,
            }]],
            actions: Vec::new(),
        }
    }
}

/// A [`Plan::predicate`] failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateError {
    /// The table has several attributes, and a predicate names none.
    WideTable {
        /// The table's attribute count.
        attrs: usize,
    },
    /// The text is not a predicate.
    Parse(ParseError),
}

impl fmt::Display for PredicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateError::WideTable { attrs } => write!(
                f,
                "this table has {attrs} attributes; a single-index predicate names none of \
                 them — send a table query instead"
            ),
            PredicateError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PredicateError {}

impl Plan {
    /// Parses a single-attribute predicate ([`Query::parse`]'s grammar)
    /// into the one-literal plan on a one-attribute table's attribute —
    /// how a bare index answers predicates.
    ///
    /// # Errors
    ///
    /// [`PredicateError::WideTable`] unless `schema` has exactly one
    /// attribute, [`PredicateError::Parse`] when the text does not parse.
    pub fn predicate(schema: &TableSchema, text: &str) -> Result<Plan, PredicateError> {
        match schema.attrs() {
            [attr] => Query::parse(text, attr.cardinality)
                .map(Plan::from)
                .map_err(PredicateError::Parse),
            attrs => Err(PredicateError::WideTable { attrs: attrs.len() }),
        }
    }

    /// The distinct literals across all clauses, in first-use order —
    /// each is rewritten once however many clauses share it.
    pub fn distinct_literals(&self) -> Vec<PlanLiteral> {
        let mut literals: Vec<PlanLiteral> = Vec::new();
        for lit in self.clauses.iter().flatten() {
            if !literals.contains(lit) {
                literals.push(lit.clone());
            }
        }
        literals
    }

    /// True when the plan is the constant-false selection.
    pub fn is_false(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True when some clause is empty, i.e. the plan selects all rows.
    pub fn is_true(&self) -> bool {
        self.clauses.iter().any(Vec::is_empty)
    }

    /// Pretty-prints the plan with attribute names from `schema`, one
    /// clause per line.
    pub fn display(&self, schema: &TableSchema) -> String {
        if self.is_false() {
            return "  (false: no clause survived)".to_owned();
        }
        let mut out = String::new();
        for (i, clause) in self.clauses.iter().enumerate() {
            let line = if clause.is_empty() {
                "true (all rows)".to_owned()
            } else {
                clause
                    .iter()
                    .map(|lit| {
                        let body = display_query(&schema.attr(lit.attr).name, &lit.query);
                        if lit.complement {
                            format!("not ({body})")
                        } else {
                            body
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" and ")
            };
            out.push_str(&format!("  clause {i}: {line}\n"));
        }
        out.pop();
        out
    }
}

/// Renders `name`'s predicate `q` in the [`TableQuery::parse`] grammar:
/// `name = v`, `name <= hi`, `(name >= lo and name <= hi)`,
/// `name in {a, b}`, `not (…)`.
pub(crate) fn display_query(name: &str, q: &Query) -> String {
    match q {
        Query::Interval { lo, hi } if lo == hi => format!("{name} = {lo}"),
        Query::Interval { lo: 0, hi } => format!("{name} <= {hi}"),
        Query::Interval { lo, hi } => format!("({name} >= {lo} and {name} <= {hi})"),
        Query::Membership(values) => {
            let values: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("{name} in {{{}}}", values.join(", "))
        }
        Query::Not(inner) => format!("not ({})", display_query(name, inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        let mut s = TableSchema::new();
        s.push(AttrSchema {
            name: "region".into(),
            cardinality: 8,
            nullable: false,
        });
        s.push(AttrSchema {
            name: "store".into(),
            cardinality: 48,
            nullable: false,
        });
        s.push(AttrSchema {
            name: "discount".into(),
            cardinality: 50,
            nullable: false,
        });
        s
    }

    #[test]
    fn grammar_parses_the_motivating_example() {
        let s = schema();
        let q = TableQuery::parse("region in {0, 1} and (discount >= 7 or not store = 12)", &s)
            .unwrap();
        let want = TableQuery::attr("region", Query::membership(vec![0, 1])).and(
            TableQuery::attr("discount", Query::ge(7, 50)).or(TableQuery::attr(
                "store",
                Query::equality(12),
            )
            .not()),
        );
        assert_eq!(q, want);
    }

    #[test]
    fn precedence_not_over_and_over_or() {
        let s = schema();
        let q = TableQuery::parse("region = 1 or region = 2 and not store = 3", &s).unwrap();
        let want = TableQuery::attr("region", Query::equality(1)).or(TableQuery::attr(
            "region",
            Query::equality(2),
        )
        .and(TableQuery::attr("store", Query::equality(3)).not()));
        assert_eq!(q, want);
    }

    #[test]
    fn comparison_operators_desugar() {
        let s = schema();
        for (text, want) in [
            ("discount = 7", Query::equality(7)),
            ("discount != 7", Query::equality(7).not()),
            ("discount <= 7", Query::le(7)),
            ("discount >= 7", Query::ge(7, 50)),
            ("discount < 7", Query::le(6)),
            ("discount > 7", Query::ge(8, 50)),
            ("discount in {1,3,5}", Query::membership(vec![1, 3, 5])),
        ] {
            assert_eq!(
                TableQuery::parse(text, &s).unwrap(),
                TableQuery::attr("discount", want),
                "{text}"
            );
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        let s = schema();
        assert_eq!(TableQuery::parse("", &s), Err(TableParseError::Empty));
        assert_eq!(TableQuery::parse("   ", &s), Err(TableParseError::Empty));
        assert!(matches!(
            TableQuery::parse("bogus = 1", &s),
            Err(TableParseError::UnknownAttribute { .. })
        ));
        assert_eq!(
            TableQuery::parse("region = 9", &s),
            Err(TableParseError::OutOfDomain {
                attr: "region".into(),
                value: 9,
                cardinality: 8
            })
        );
        assert!(matches!(
            TableQuery::parse("region < 0", &s),
            Err(TableParseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            TableQuery::parse("region > 7", &s),
            Err(TableParseError::OutOfDomain { .. })
        ));
        assert_eq!(
            TableQuery::parse("region in {}", &s),
            Err(TableParseError::EmptyValueList)
        );
        assert!(matches!(
            TableQuery::parse("region in {1 2}", &s),
            Err(TableParseError::Unexpected { .. })
        ));
        assert!(matches!(
            TableQuery::parse("region = 1 region = 2", &s),
            Err(TableParseError::Unexpected { .. })
        ));
        assert!(matches!(
            TableQuery::parse("region = 99999999999999999999", &s),
            Err(TableParseError::BadNumber { .. })
        ));
        assert!(matches!(
            TableQuery::parse("region = 1 @", &s),
            Err(TableParseError::BadToken { .. })
        ));
        assert!(matches!(
            TableQuery::parse(&format!("{} = 1", "x".repeat(100)), &s),
            Err(TableParseError::IdentTooLong { .. })
        ));
        // Every variant renders a message.
        for bad in ["", "bogus = 1", "region = 9", "region in {}", "(", "@"] {
            let msg = TableQuery::parse(bad, &s).unwrap_err().to_string();
            assert!(!msg.is_empty());
        }
    }

    #[test]
    fn hostile_nesting_is_depth_capped_not_stack_bound() {
        let s = schema();
        // A million parens must not overflow the stack.
        let deep = format!(
            "{}region = 1{}",
            "(".repeat(1_000_000),
            ")".repeat(1_000_000)
        );
        assert_eq!(
            TableQuery::parse(&deep, &s),
            Err(TableParseError::TooDeep {
                cap: MAX_PLAN_DEPTH
            })
        );
        // A million `not`s are parity, not recursion.
        let nots = format!("{}region = 1", "not ".repeat(1_000_001));
        assert_eq!(
            TableQuery::parse(&nots, &s).unwrap(),
            TableQuery::attr("region", Query::equality(1)).not()
        );
        // Error echoes stay clipped under hostile token sizes.
        let msg = TableQuery::parse(&format!("{} = 1", "a".repeat(64)), &s)
            .unwrap_err()
            .to_string();
        assert!(msg.len() < 256);
    }

    #[test]
    fn planner_flattens_and_cancels_negation() {
        let s = schema();
        // The parser (and the `not()` builder) already cancel double
        // negation, so exercise the arena's NotNot action with a
        // hand-built tree.
        let inner = TableQuery::attr("region", Query::equality(1)).and(TableQuery::And(vec![
            TableQuery::attr("store", Query::equality(2)),
            TableQuery::attr("discount", Query::equality(3)),
        ]));
        let q = TableQuery::Not(Box::new(TableQuery::Not(Box::new(inner))));
        let plan = Planner::new(&s).plan(&q).unwrap();
        assert_eq!(plan.clauses.len(), 1);
        assert_eq!(plan.clauses[0].len(), 3);
        assert!(plan.actions.contains(&RewriteAction::NotNot));
        assert!(plan.actions.contains(&RewriteAction::Flatten));
    }

    #[test]
    fn not_pushes_to_leaves_via_complement() {
        let s = schema();
        let q = TableQuery::parse("not (region = 1 or discount <= 5)", &s).unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        // ¬(a ∨ b) → ¬a ∧ ¬b → one clause, complements folded into the
        // leaf queries (non-nullable attributes).
        assert_eq!(plan.clauses.len(), 1);
        assert_eq!(plan.clauses[0].len(), 2);
        assert!(plan.clauses[0].iter().all(|lit| !lit.complement));
        assert!(plan.actions.contains(&RewriteAction::DeMorgan));
        assert!(plan.actions.contains(&RewriteAction::ComplementLeaf));
    }

    #[test]
    fn same_attribute_predicates_merge() {
        let s = schema();
        // Two-sided range spelled as a conjunction fuses into one
        // interval literal.
        let q = TableQuery::parse("discount >= 7 and discount <= 20", &s).unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        assert_eq!(plan.clauses.len(), 1);
        assert_eq!(plan.clauses[0].len(), 1);
        assert_eq!(plan.clauses[0][0].query, Query::Interval { lo: 7, hi: 20 });
        assert!(plan.actions.contains(&RewriteAction::MergePredicates));

        // Disjoint equalities under Or fuse into one membership set.
        let q = TableQuery::parse("region = 1 or region = 3 or region = 5", &s).unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        assert_eq!(plan.clauses.len(), 1);
        assert_eq!(plan.clauses[0][0].query, Query::membership(vec![1, 3, 5]));
    }

    #[test]
    fn contradictions_fold_to_false_and_tautologies_to_true() {
        let s = schema();
        let q = TableQuery::parse("region = 1 and region = 2", &s).unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        assert!(plan.is_false(), "{plan:?}");

        let q = TableQuery::parse("region <= 6 or region >= 3", &s).unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        assert!(plan.is_true(), "{plan:?}");
    }

    #[test]
    fn hostile_deep_not_wide_or_trips_the_clause_cap_not_memory() {
        let s = schema();
        // ¬(wide Or of conjunctions) De-Morgans into an And of Ors whose
        // distributive expansion is exponential; the cap must trip
        // during expansion with a typed error, never an OOM. 40 pairs
        // would naively expand to 2^40 clauses.
        let pairs: Vec<String> = (0..40)
            .map(|i| format!("(region = {} and store = {})", i % 8, i % 48))
            .collect();
        let text = format!("not ({})", pairs.join(" or "));
        let q = TableQuery::parse(&text, &s).unwrap();
        let err = Planner::new(&s).plan(&q).unwrap_err();
        match err {
            PlanError::ClauseCapExceeded { clauses, cap } => {
                assert_eq!(cap, MAX_DNF_CLAUSES);
                // Allocation stayed proportional to the cap.
                assert!(clauses <= 2 * MAX_DNF_CLAUSES + 2, "clauses={clauses}");
            }
            other => panic!("want ClauseCapExceeded, got {other:?}"),
        }
    }

    #[test]
    fn wide_or_of_distinct_attrs_stays_under_cap() {
        let s = schema();
        let q = TableQuery::parse(
            "region = 1 and (store = 2 or discount = 3) and (store = 4 or discount = 5)",
            &s,
        )
        .unwrap();
        let plan = Planner::new(&s).plan(&q).unwrap();
        // 4 raw cross-product clauses, minus the two carrying a
        // same-attribute contradiction (store = 2 ∧ store = 4 and
        // discount = 3 ∧ discount = 5).
        assert_eq!(plan.clauses.len(), 2);
        for clause in &plan.clauses {
            assert!(clause.iter().any(|l| l.attr == 0));
        }
    }

    #[test]
    fn hand_built_deep_query_is_depth_capped() {
        let s = schema();
        let mut q = TableQuery::attr("region", Query::equality(1));
        for _ in 0..MAX_PLAN_DEPTH + 10 {
            q = TableQuery::And(vec![q]);
        }
        assert_eq!(
            Planner::new(&s).plan(&q),
            Err(PlanError::TooDeep {
                cap: MAX_PLAN_DEPTH
            })
        );
    }

    #[test]
    fn unknown_attribute_is_a_typed_plan_error() {
        let s = schema();
        let q = TableQuery::attr("nope", Query::equality(1));
        assert!(matches!(
            Planner::new(&s).plan(&q),
            Err(PlanError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn display_shows_clauses_and_actions_render() {
        let s = schema();
        let plan =
            Planner::plan_text(&s, "region in {0,1} and (discount >= 7 or store = 12)").unwrap();
        let text = plan.display(&s);
        assert!(text.contains("clause 0"), "{text}");
        assert!(text.contains("region"), "{text}");
        for action in &plan.actions {
            assert!(!action.to_string().is_empty());
        }
    }

    #[test]
    fn distinct_literals_dedup_across_clauses() {
        let s = schema();
        let plan = Planner::plan_text(
            &s,
            "(region = 1 and store = 2) or (region = 1 and discount = 3)",
        )
        .unwrap();
        assert_eq!(plan.clauses.len(), 2);
        let distinct = plan.distinct_literals();
        assert_eq!(distinct.len(), 3, "{distinct:?}");
    }
}
