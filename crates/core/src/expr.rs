//! Bitmap evaluation expressions.
//!
//! The query rewrite phase (§6.1) turns a query into an expression over
//! stored bitmaps with logical operators AND, OR, XOR, NOT. Because
//! different predicates of one membership query can reference the same
//! bitmap (e.g. `I^0` appears in most interval-encoding expressions), the
//! expression is a DAG at evaluation time: [`Expr::leaves`] returns the
//! *distinct* bitmaps, and the evaluator scans each exactly once.
//!
//! Smart constructors ([`Expr::and`], [`Expr::or`], [`Expr::not`],
//! [`Expr::xor`]) fold constants and flatten nesting, so rewrite code can
//! be written naively — e.g. the Eq. (8) branch for `v_k = b_k − 1` falls
//! out of `le(b, b−1) = True` plus `And` absorption.

use std::collections::BTreeSet;

/// Identifies one stored bitmap: component `i` (0-based, least significant
/// first), slot `s` within that component's encoding layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitmapRef {
    /// Component index, 0 = least significant digit.
    pub component: usize,
    /// Bitmap slot within the component (layout is encoding-specific).
    pub slot: usize,
}

impl BitmapRef {
    /// Shorthand constructor.
    pub fn new(component: usize, slot: usize) -> Self {
        BitmapRef { component, slot }
    }
}

/// A bitmap evaluation expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// All records (the bitmap of ones).
    True,
    /// No records (the bitmap of zeros).
    False,
    /// One stored bitmap.
    Leaf(BitmapRef),
    /// Logical complement.
    Not(Box<Expr>),
    /// n-ary conjunction (children are non-constant, flattened).
    And(Vec<Expr>),
    /// n-ary disjunction (children are non-constant, flattened).
    Or(Vec<Expr>),
    /// Exclusive or.
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A leaf referencing `(component, slot)`.
    pub fn leaf(component: usize, slot: usize) -> Expr {
        Expr::Leaf(BitmapRef::new(component, slot))
    }

    /// Conjunction with constant folding, flattening, and idempotence
    /// (`x ∧ x = x`: exact-duplicate children are dropped).
    pub fn and(children: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for child in children {
            match child {
                Expr::True => {}
                Expr::False => return Expr::False,
                Expr::And(grand) => {
                    for g in grand {
                        if !out.contains(&g) {
                            out.push(g);
                        }
                    }
                }
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        match out.len() {
            0 => Expr::True,
            1 => out.pop().expect("len checked"),
            _ => Expr::And(out),
        }
    }

    /// Disjunction with constant folding, flattening, and idempotence
    /// (`x ∨ x = x`).
    pub fn or(children: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for child in children {
            match child {
                Expr::False => {}
                Expr::True => return Expr::True,
                Expr::Or(grand) => {
                    for g in grand {
                        if !out.contains(&g) {
                            out.push(g);
                        }
                    }
                }
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        match out.len() {
            0 => Expr::False,
            1 => out.pop().expect("len checked"),
            _ => Expr::Or(out),
        }
    }

    /// Complement with double-negation and constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        match e {
            Expr::True => Expr::False,
            Expr::False => Expr::True,
            Expr::Not(inner) => *inner,
            other => Expr::Not(Box::new(other)),
        }
    }

    /// Exclusive-or with constant folding.
    pub fn xor(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::False, x) | (x, Expr::False) => x,
            (Expr::True, x) | (x, Expr::True) => Expr::not(x),
            (x, y) if x == y => Expr::False,
            (x, y) => Expr::Xor(Box::new(x), Box::new(y)),
        }
    }

    /// The distinct bitmaps referenced, in `(component, slot)` order —
    /// exactly the bitmaps a buffer-sufficient evaluation scans once each.
    pub fn leaves(&self) -> BTreeSet<BitmapRef> {
        let mut set = BTreeSet::new();
        self.collect_leaves(&mut set);
        set
    }

    fn collect_leaves(&self, set: &mut BTreeSet<BitmapRef>) {
        match self {
            Expr::True | Expr::False => {}
            Expr::Leaf(r) => {
                set.insert(*r);
            }
            Expr::Not(inner) => inner.collect_leaves(set),
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.collect_leaves(set);
                }
            }
            Expr::Xor(a, b) => {
                a.collect_leaves(set);
                b.collect_leaves(set);
            }
        }
    }

    /// Rewrites leaves through a substitution map: every leaf present in
    /// `map` is replaced by its mapped expression, all other nodes are
    /// rebuilt through the smart constructors (so constant folding and
    /// flattening re-apply). The degradation path uses this to route
    /// around quarantined bitmaps.
    pub fn substitute(&self, map: &std::collections::BTreeMap<BitmapRef, Expr>) -> Expr {
        match self {
            Expr::True => Expr::True,
            Expr::False => Expr::False,
            Expr::Leaf(r) => map.get(r).cloned().unwrap_or(Expr::Leaf(*r)),
            Expr::Not(inner) => Expr::not(inner.substitute(map)),
            Expr::And(children) => Expr::and(children.iter().map(|c| c.substitute(map))),
            Expr::Or(children) => Expr::or(children.iter().map(|c| c.substitute(map))),
            Expr::Xor(a, b) => Expr::xor(a.substitute(map), b.substitute(map)),
        }
    }

    /// Number of distinct bitmap scans a buffer-sufficient evaluation
    /// needs — the paper's time-cost unit.
    pub fn scan_count(&self) -> usize {
        self.leaves().len()
    }

    /// Total leaf *occurrences* (tree size), for tree-vs-DAG ablations.
    pub fn leaf_occurrences(&self) -> usize {
        match self {
            Expr::True | Expr::False => 0,
            Expr::Leaf(_) => 1,
            Expr::Not(inner) => inner.leaf_occurrences(),
            Expr::And(children) | Expr::Or(children) => {
                children.iter().map(Expr::leaf_occurrences).sum()
            }
            Expr::Xor(a, b) => a.leaf_occurrences() + b.leaf_occurrences(),
        }
    }

    /// Pretty-prints the expression with encoding-specific bitmap names,
    /// e.g. `(I^0 ∧ ¬I^3)` — `name` maps a leaf to its display label
    /// (typically [`crate::EncodingScheme::slot_name`]).
    pub fn display_with<F>(&self, name: &F) -> String
    where
        F: Fn(BitmapRef) -> String,
    {
        match self {
            Expr::True => "TRUE".to_string(),
            Expr::False => "FALSE".to_string(),
            Expr::Leaf(r) => name(*r),
            Expr::Not(inner) => format!("¬{}", inner.display_grouped(name)),
            Expr::And(children) => children
                .iter()
                .map(|c| c.display_grouped(name))
                .collect::<Vec<_>>()
                .join(" ∧ "),
            Expr::Or(children) => children
                .iter()
                .map(|c| c.display_grouped(name))
                .collect::<Vec<_>>()
                .join(" ∨ "),
            Expr::Xor(a, b) => {
                format!("{} ⊕ {}", a.display_grouped(name), b.display_grouped(name))
            }
        }
    }

    /// Like [`Expr::display_with`], parenthesizing compound expressions.
    fn display_grouped<F>(&self, name: &F) -> String
    where
        F: Fn(BitmapRef) -> String,
    {
        match self {
            Expr::And(_) | Expr::Or(_) | Expr::Xor(..) => {
                format!("({})", self.display_with(name))
            }
            simple => simple.display_with(name),
        }
    }

    /// Evaluates the expression given a bitmap resolver. `rows` sizes the
    /// constant bitmaps; `fetch` maps a [`BitmapRef`] to its bit vector
    /// (typically a closure over a scan cache).
    pub fn evaluate<F>(&self, rows: usize, fetch: &mut F) -> bix_bitvec::Bitvec
    where
        F: FnMut(BitmapRef) -> bix_bitvec::Bitvec,
    {
        use bix_bitvec::Bitvec;
        match self {
            Expr::True => Bitvec::ones_vec(rows),
            Expr::False => Bitvec::zeros(rows),
            Expr::Leaf(r) => fetch(*r),
            Expr::Not(inner) => {
                let mut bv = inner.evaluate(rows, fetch);
                bv.not_assign();
                bv
            }
            Expr::And(children) => {
                let mut iter = children.iter();
                let mut acc = iter
                    .next()
                    .expect("And is non-empty by construction")
                    .evaluate(rows, fetch);
                for c in iter {
                    acc.and_assign(&c.evaluate(rows, fetch));
                }
                acc
            }
            Expr::Or(children) => {
                let mut iter = children.iter();
                let mut acc = iter
                    .next()
                    .expect("Or is non-empty by construction")
                    .evaluate(rows, fetch);
                for c in iter {
                    acc.or_assign(&c.evaluate(rows, fetch));
                }
                acc
            }
            Expr::Xor(a, b) => {
                let mut acc = a.evaluate(rows, fetch);
                acc.xor_assign(&b.evaluate(rows, fetch));
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bix_bitvec::Bitvec;

    fn l(s: usize) -> Expr {
        Expr::leaf(0, s)
    }

    #[test]
    fn and_folds_constants() {
        assert_eq!(Expr::and([Expr::True, l(1)]), l(1));
        assert_eq!(Expr::and([Expr::False, l(1)]), Expr::False);
        assert_eq!(Expr::and([]), Expr::True);
        assert_eq!(Expr::and([l(1)]), l(1));
    }

    #[test]
    fn or_folds_constants() {
        assert_eq!(Expr::or([Expr::False, l(1)]), l(1));
        assert_eq!(Expr::or([Expr::True, l(1)]), Expr::True);
        assert_eq!(Expr::or([]), Expr::False);
    }

    #[test]
    fn nested_and_or_flatten() {
        let e = Expr::and([Expr::and([l(0), l(1)]), l(2)]);
        assert_eq!(e, Expr::And(vec![l(0), l(1), l(2)]));
        let e = Expr::or([l(0), Expr::or([l(1), l(2)])]);
        assert_eq!(e, Expr::Or(vec![l(0), l(1), l(2)]));
    }

    #[test]
    fn not_folds() {
        assert_eq!(Expr::not(Expr::True), Expr::False);
        assert_eq!(Expr::not(Expr::not(l(3))), l(3));
    }

    #[test]
    fn xor_folds() {
        assert_eq!(Expr::xor(Expr::False, l(1)), l(1));
        assert_eq!(Expr::xor(Expr::True, l(1)), Expr::not(l(1)));
        assert_eq!(Expr::xor(l(1), l(1)), Expr::False);
    }

    #[test]
    fn idempotence_drops_duplicates() {
        assert_eq!(Expr::and([l(1), l(1)]), l(1));
        assert_eq!(Expr::or([l(1), l(2), l(1)]), Expr::Or(vec![l(1), l(2)]));
        // Identical subtrees, not just leaves.
        let sub = Expr::and([l(0), Expr::not(l(1))]);
        assert_eq!(Expr::or([sub.clone(), sub.clone()]), sub);
    }

    #[test]
    fn leaves_deduplicate() {
        // I^0 shared between two predicates: 3 occurrences, 2 scans.
        let e = Expr::or([Expr::and([l(0), l(1)]), Expr::and([l(0), Expr::not(l(0))])]);
        assert_eq!(e.scan_count(), 2);
        assert_eq!(e.leaf_occurrences(), 4);
    }

    #[test]
    fn evaluate_small_expression() {
        let rows = 4;
        let bitmaps = [
            Bitvec::from_bools(&[true, true, false, false]), // slot 0
            Bitvec::from_bools(&[true, false, true, false]), // slot 1
        ];
        let mut fetch = |r: BitmapRef| bitmaps[r.slot].clone();

        let e = Expr::and([l(0), l(1)]);
        assert_eq!(e.evaluate(rows, &mut fetch).to_positions(), vec![0]);

        let e = Expr::or([l(0), l(1)]);
        assert_eq!(e.evaluate(rows, &mut fetch).to_positions(), vec![0, 1, 2]);

        let e = Expr::xor(l(0), l(1));
        assert_eq!(e.evaluate(rows, &mut fetch).to_positions(), vec![1, 2]);

        let e = Expr::not(l(0));
        assert_eq!(e.evaluate(rows, &mut fetch).to_positions(), vec![2, 3]);

        assert_eq!(Expr::True.evaluate(rows, &mut fetch).count_ones(), 4);
        assert_eq!(Expr::False.evaluate(rows, &mut fetch).count_ones(), 0);
    }

    #[test]
    fn leaves_are_ordered_component_then_slot() {
        let e = Expr::or([Expr::leaf(1, 0), Expr::leaf(0, 2), Expr::leaf(0, 1)]);
        let refs: Vec<BitmapRef> = e.leaves().into_iter().collect();
        assert_eq!(
            refs,
            vec![
                BitmapRef::new(0, 1),
                BitmapRef::new(0, 2),
                BitmapRef::new(1, 0)
            ]
        );
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_renders_operators_and_grouping() {
        let name = |r: BitmapRef| format!("B{}", r.slot);
        let e = Expr::or([
            Expr::and([Expr::leaf(0, 0), Expr::not(Expr::leaf(0, 1))]),
            Expr::xor(Expr::leaf(0, 2), Expr::leaf(0, 3)),
        ]);
        assert_eq!(e.display_with(&name), "(B0 ∧ ¬B1) ∨ (B2 ⊕ B3)");
        assert_eq!(Expr::True.display_with(&name), "TRUE");
        assert_eq!(Expr::not(Expr::leaf(0, 5)).display_with(&name), "¬B5");
    }

    #[test]
    fn explain_uses_paper_bitmap_names() {
        use crate::{BitmapIndex, EncodingScheme, IndexConfig, Query};
        let idx = BitmapIndex::build(
            &[3u64, 7, 1],
            &IndexConfig::one_component(10, EncodingScheme::Interval),
        );
        // "2 <= A <= 5": Equation (6)'s width-< m case.
        let text = idx.explain(&Query::range(2, 5));
        assert_eq!(text, "I^2 ∧ I^1");
        // Range encoding's equality XOR.
        let idx = BitmapIndex::build(
            &[3u64],
            &IndexConfig::one_component(10, EncodingScheme::Range),
        );
        assert_eq!(idx.explain(&Query::equality(4)), "R^4 ⊕ R^3");
    }
}
