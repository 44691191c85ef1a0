//! A sound implication prover for conjunctive comparison predicates.
//!
//! `implies(P, Q)` returns `true` only if every row on which all of `P`'s
//! conjuncts evaluate to SQL-TRUE also makes all of `Q`'s conjuncts TRUE.
//! It is deliberately incomplete (implication is expensive in general);
//! "false" means *cannot prove*, which the callers (subsumption
//! derivations, U3/C3 constraint matching) treat as "do not fire" — this
//! mirrors the paper's sound-but-incomplete stance (Section 5.5).
//!
//! The fact language understood:
//! * `col = col` equivalences (union-find);
//! * `col op constant` interval bounds, including `$$` access-pattern
//!   parameters as opaque symbolic constants (Section 6);
//! * `col <> constant` exclusions;
//! * `col IS [NOT] NULL`;
//! * `col op col` inequalities derived through constant bounds;
//! * arbitrary conjuncts proved by syntactic identity after
//!   normalization (so e.g. a complex `OR` implies itself).
//!
//! Truth of a comparison implies both operands are non-NULL, which the
//! prover uses to derive `IS NOT NULL` facts.

// A panic here is a failure that does not deny: outside tests, every
// failure surfaces as an `Err` (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic,
    clippy::unreachable, clippy::todo, clippy::unimplemented,
))]

use crate::expr::{CmpOp, ScalarExpr};
use crate::normalize::normalize_expr;
use fgac_types::{BudgetMeter, Result, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Phase label the prover charges its budget under.
const PHASE: &str = "implication prover";

/// A constant: a literal value or an opaque access-pattern symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Const {
    Val(Value),
    Sym(String),
}

impl Const {
    fn cmp_vals(&self, other: &Const) -> Option<Ordering> {
        match (self, other) {
            (Const::Val(a), Const::Val(b)) => a.sql_cmp(b),
            (Const::Sym(a), Const::Sym(b)) if a == b => Some(Ordering::Equal),
            _ => None,
        }
    }
}

/// One end of an interval.
#[derive(Debug, Clone)]
struct Bound {
    value: Const,
    inclusive: bool,
}

/// Facts known about one column equivalence class.
#[derive(Debug, Clone, Default)]
struct ClassFacts {
    lower: Option<Bound>,
    upper: Option<Bound>,
    not_equal: BTreeSet<Const>,
    is_null: bool,
    not_null: bool,
}

/// Extracted knowledge from a conjunction.
struct Facts {
    parent: Vec<usize>,
    class: BTreeMap<usize, ClassFacts>,
    /// Conjuncts not understood structurally, kept for syntactic matching.
    opaque: BTreeSet<ScalarExpr>,
    /// The conjunction can never be TRUE (everything is implied).
    unsat: bool,
}

impl Facts {
    fn find(&mut self, mut c: usize) -> usize {
        while self.parent[c] != c {
            self.parent[c] = self.parent[self.parent[c]];
            c = self.parent[c];
        }
        c
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Merge facts of rb into ra.
        let fb = self.class.remove(&rb).unwrap_or_default();
        self.parent[rb] = ra;
        let fa = self.class.entry(ra).or_default();
        let mut merged = fa.clone();
        merge_lower(&mut merged, fb.lower);
        merge_upper(&mut merged, fb.upper);
        merged.not_equal.extend(fb.not_equal);
        merged.is_null |= fb.is_null;
        merged.not_null |= fb.not_null;
        *fa = merged;
    }

    fn facts_mut(&mut self, col: usize) -> &mut ClassFacts {
        let r = self.find(col);
        self.class.entry(r).or_default()
    }

    fn facts(&mut self, col: usize) -> ClassFacts {
        let r = self.find(col);
        self.class.get(&r).cloned().unwrap_or_default()
    }

    /// The single constant the class is pinned to, if its interval is a
    /// point.
    fn pinned(&mut self, col: usize) -> Option<Const> {
        let f = self.facts(col);
        let (l, u) = (f.lower?, f.upper?);
        if l.inclusive && u.inclusive && l.value.cmp_vals(&u.value) == Some(Ordering::Equal) {
            Some(l.value)
        } else {
            None
        }
    }
}

fn merge_lower(f: &mut ClassFacts, new: Option<Bound>) {
    if let Some(nb) = new {
        f.lower = match f.lower.take() {
            None => Some(nb),
            Some(old) => match nb.value.cmp_vals(&old.value) {
                Some(Ordering::Greater) => Some(nb),
                Some(Ordering::Equal) if !nb.inclusive => Some(nb),
                Some(_) => Some(old),
                // Incomparable (e.g. symbol vs value): keep the old bound;
                // dropping the new one is sound (we just know less).
                None => Some(old),
            },
        };
    }
}

fn merge_upper(f: &mut ClassFacts, new: Option<Bound>) {
    if let Some(nb) = new {
        f.upper = match f.upper.take() {
            None => Some(nb),
            Some(old) => match nb.value.cmp_vals(&old.value) {
                Some(Ordering::Less) => Some(nb),
                Some(Ordering::Equal) if !nb.inclusive => Some(nb),
                Some(_) => Some(old),
                None => Some(old),
            },
        };
    }
}

fn as_const(e: &ScalarExpr) -> Option<Const> {
    match e {
        ScalarExpr::Lit(v) if !v.is_null() => Some(Const::Val(v.clone())),
        ScalarExpr::AccessParam(p) => Some(Const::Sym(p.clone())),
        _ => None,
    }
}

/// Builds the fact base from a conjunction. `arity` bounds column
/// offsets. Charges the meter one step per conjunct absorbed.
fn extract(conjuncts: &[ScalarExpr], arity: usize, meter: &BudgetMeter) -> Result<Facts> {
    let mut facts = Facts {
        parent: (0..arity).collect(),
        class: BTreeMap::new(),
        opaque: BTreeSet::new(),
        unsat: false,
    };
    for c in conjuncts {
        meter.charge(PHASE, 1)?;
        let c = normalize_expr(c);
        if c == ScalarExpr::Lit(Value::Bool(false)) {
            facts.unsat = true;
        }
        absorb(&mut facts, &c);
    }
    // Detect contradictions.
    let classes: Vec<usize> = facts.class.keys().copied().collect();
    for r in classes {
        let f = facts.class[&r].clone();
        if f.is_null && (f.not_null || f.lower.is_some() || f.upper.is_some()) {
            facts.unsat = true;
        }
        if let (Some(l), Some(u)) = (&f.lower, &f.upper) {
            match l.value.cmp_vals(&u.value) {
                Some(Ordering::Greater) => facts.unsat = true,
                Some(Ordering::Equal) if !(l.inclusive && u.inclusive) => facts.unsat = true,
                _ => {}
            }
            // Point interval excluded by a disequality.
            if l.inclusive
                && u.inclusive
                && l.value.cmp_vals(&u.value) == Some(Ordering::Equal)
                && f.not_equal.contains(&l.value)
            {
                facts.unsat = true;
            }
        }
    }
    Ok(facts)
}

fn absorb(facts: &mut Facts, c: &ScalarExpr) {
    match c {
        ScalarExpr::Cmp { op, left, right } => {
            match (&**left, &**right) {
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
                    match op {
                        CmpOp::Eq => {
                            facts.union(*a, *b);
                            facts.facts_mut(*a).not_null = true;
                        }
                        _ => {
                            // Truth implies non-null on both sides.
                            facts.facts_mut(*a).not_null = true;
                            facts.facts_mut(*b).not_null = true;
                            facts.opaque.insert(c.clone());
                        }
                    }
                }
                (ScalarExpr::Col(a), rhs) => {
                    if let Some(k) = as_const(rhs) {
                        let f = facts.facts_mut(*a);
                        f.not_null = true;
                        match op {
                            CmpOp::Eq => {
                                merge_lower(
                                    f,
                                    Some(Bound {
                                        value: k.clone(),
                                        inclusive: true,
                                    }),
                                );
                                merge_upper(
                                    f,
                                    Some(Bound {
                                        value: k,
                                        inclusive: true,
                                    }),
                                );
                            }
                            CmpOp::NotEq => {
                                f.not_equal.insert(k);
                            }
                            CmpOp::Lt => merge_upper(
                                f,
                                Some(Bound {
                                    value: k,
                                    inclusive: false,
                                }),
                            ),
                            CmpOp::LtEq => merge_upper(
                                f,
                                Some(Bound {
                                    value: k,
                                    inclusive: true,
                                }),
                            ),
                            CmpOp::Gt => merge_lower(
                                f,
                                Some(Bound {
                                    value: k,
                                    inclusive: false,
                                }),
                            ),
                            CmpOp::GtEq => merge_lower(
                                f,
                                Some(Bound {
                                    value: k,
                                    inclusive: true,
                                }),
                            ),
                        }
                    } else {
                        facts.opaque.insert(c.clone());
                    }
                }
                _ => {
                    facts.opaque.insert(c.clone());
                }
            }
        }
        ScalarExpr::IsNull { expr, negated } => {
            if let ScalarExpr::Col(a) = &**expr {
                let f = facts.facts_mut(*a);
                if *negated {
                    f.not_null = true;
                } else {
                    f.is_null = true;
                }
            } else {
                facts.opaque.insert(c.clone());
            }
        }
        other => {
            facts.opaque.insert(other.clone());
        }
    }
}

/// Proves `∧p ⟹ ∧q` for predicates over the same input row (offsets in
/// `0..arity`). Sound; incomplete.
pub fn implies(p: &[ScalarExpr], q: &[ScalarExpr], arity: usize) -> bool {
    // An unlimited meter never trips, so "cannot prove" is the only
    // possible failure mode here.
    implies_metered(p, q, arity, &BudgetMeter::unlimited()).unwrap_or(false)
}

/// [`implies`] under a resource budget: charges the meter one step per
/// conjunct absorbed or proof attempted and propagates
/// [`fgac_types::Error::ResourceExhausted`] instead of finishing.
/// Callers must treat the error as *cannot prove* (fail closed), never
/// as an affirmative answer.
pub fn implies_metered(
    p: &[ScalarExpr],
    q: &[ScalarExpr],
    arity: usize,
    meter: &BudgetMeter,
) -> Result<bool> {
    let mut facts = extract(p, arity, meter)?;
    if facts.unsat {
        return Ok(true);
    }
    for c in q {
        if !proves(&mut facts, &normalize_expr(c), meter)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn proves(facts: &mut Facts, c: &ScalarExpr, meter: &BudgetMeter) -> Result<bool> {
    meter.charge(PHASE, 1)?;
    if c == &ScalarExpr::Lit(Value::Bool(true)) {
        return Ok(true);
    }
    if facts.opaque.contains(c) {
        return Ok(true);
    }
    let proved = match c {
        ScalarExpr::Or(disjuncts) => {
            let mut any = false;
            for d in disjuncts {
                if proves(facts, d, meter)? {
                    any = true;
                    break;
                }
            }
            any
        }
        ScalarExpr::And(cs) => {
            let mut all = true;
            for d in cs {
                if !proves(facts, d, meter)? {
                    all = false;
                    break;
                }
            }
            all
        }
        ScalarExpr::IsNull { expr, negated } => {
            if let ScalarExpr::Col(a) = &**expr {
                let f = facts.facts(*a);
                if *negated {
                    f.not_null || f.lower.is_some() || f.upper.is_some()
                } else {
                    f.is_null
                }
            } else {
                false
            }
        }
        ScalarExpr::Cmp { op, left, right } => match (&**left, &**right) {
            (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
                prove_col_col(facts, *op, *a, *b)
            }
            (ScalarExpr::Col(a), rhs) => match as_const(rhs) {
                Some(k) => prove_col_const(facts, *op, *a, &k),
                None => false,
            },
            _ => false,
        },
        _ => false,
    };
    Ok(proved)
}

fn prove_col_col(facts: &mut Facts, op: CmpOp, a: usize, b: usize) -> bool {
    if facts.find(a) == facts.find(b) {
        // Same equivalence class — but SQL's `c = c` is UNKNOWN (not
        // TRUE) on NULL, so we additionally need non-null evidence.
        let f = facts.facts(a);
        let known_not_null = f.not_null || f.lower.is_some() || f.upper.is_some();
        return known_not_null && matches!(op, CmpOp::Eq | CmpOp::LtEq | CmpOp::GtEq);
    }
    // Same syntactic inequality already known?
    let syntactic = ScalarExpr::Cmp {
        op,
        left: Box::new(ScalarExpr::Col(a)),
        right: Box::new(ScalarExpr::Col(b)),
    };
    if facts.opaque.contains(&normalize_expr(&syntactic)) {
        return true;
    }
    // Derive through constants: pinned equality, or disjoint intervals.
    if op == CmpOp::Eq {
        if let (Some(ka), Some(kb)) = (facts.pinned(a), facts.pinned(b)) {
            return ka.cmp_vals(&kb) == Some(Ordering::Equal);
        }
        return false;
    }
    let fa = facts.facts(a);
    let fb = facts.facts(b);
    match op {
        CmpOp::Lt | CmpOp::LtEq => interval_lt(&fa, &fb, op == CmpOp::Lt),
        CmpOp::Gt | CmpOp::GtEq => interval_lt(&fb, &fa, op == CmpOp::Gt),
        CmpOp::NotEq => {
            // Disjoint intervals prove disequality.
            interval_lt(&fa, &fb, true) || interval_lt(&fb, &fa, true) || {
                match (facts.pinned(a), facts.pinned(b)) {
                    (Some(ka), Some(kb)) => matches!(
                        ka.cmp_vals(&kb),
                        Some(Ordering::Less) | Some(Ordering::Greater)
                    ),
                    _ => false,
                }
            }
        }
        // Eq returned above; if control ever reaches here, "not proven"
        // is the sound (fail-closed) answer.
        CmpOp::Eq => false,
    }
}

/// Proves `a < b` (strict) or `a <= b` from interval facts: needs
/// `upper(a)` and `lower(b)` with `upper(a) (<|<=) lower(b)`.
fn interval_lt(fa: &ClassFacts, fb: &ClassFacts, strict: bool) -> bool {
    let (Some(ua), Some(lb)) = (&fa.upper, &fb.lower) else {
        return false;
    };
    match ua.value.cmp_vals(&lb.value) {
        Some(Ordering::Less) => true,
        Some(Ordering::Equal) => {
            if strict {
                // a <= k and b >= k proves a < b only if one side is
                // strict.
                !(ua.inclusive && lb.inclusive)
            } else {
                true
            }
        }
        _ => false,
    }
}

fn prove_col_const(facts: &mut Facts, op: CmpOp, a: usize, k: &Const) -> bool {
    let f = facts.facts(a);
    match op {
        CmpOp::Eq => {
            matches!(facts.pinned(a), Some(p) if p.cmp_vals(k) == Some(Ordering::Equal))
        }
        CmpOp::NotEq => {
            if f.not_equal.contains(k) {
                return true;
            }
            // Outside the interval?
            let above = f
                .lower
                .as_ref()
                .and_then(|l| l.value.cmp_vals(k).map(|o| (o, l.inclusive)))
                .is_some_and(|(o, inc)| o == Ordering::Greater || (o == Ordering::Equal && !inc));
            let below = f
                .upper
                .as_ref()
                .and_then(|u| u.value.cmp_vals(k).map(|o| (o, u.inclusive)))
                .is_some_and(|(o, inc)| o == Ordering::Less || (o == Ordering::Equal && !inc));
            above || below
        }
        CmpOp::Lt => f
            .upper
            .as_ref()
            .and_then(|u| u.value.cmp_vals(k).map(|o| (o, u.inclusive)))
            .is_some_and(|(o, inc)| o == Ordering::Less || (o == Ordering::Equal && !inc)),
        CmpOp::LtEq => f
            .upper
            .as_ref()
            .and_then(|u| u.value.cmp_vals(k))
            .is_some_and(|o| o != Ordering::Greater),
        CmpOp::Gt => f
            .lower
            .as_ref()
            .and_then(|l| l.value.cmp_vals(k).map(|o| (o, l.inclusive)))
            .is_some_and(|(o, inc)| o == Ordering::Greater || (o == Ordering::Equal && !inc)),
        CmpOp::GtEq => f
            .lower
            .as_ref()
            .and_then(|l| l.value.cmp_vals(k))
            .is_some_and(|o| o != Ordering::Less),
    }
}

/// Convenience: do the two conjunct lists denote *equivalent* predicates
/// (mutual implication)?
pub fn equivalent(p: &[ScalarExpr], q: &[ScalarExpr], arity: usize) -> bool {
    implies(p, q, arity) && implies(q, p, arity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> ScalarExpr {
        ScalarExpr::col(i)
    }
    fn l(v: i64) -> ScalarExpr {
        ScalarExpr::lit(v)
    }
    fn cmp(op: CmpOp, a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(op, a, b)
    }

    #[test]
    fn reflexive() {
        let p = vec![cmp(CmpOp::Eq, c(0), l(5))];
        assert!(implies(&p, &p, 4));
    }

    #[test]
    fn eq_implies_range() {
        let p = vec![cmp(CmpOp::Eq, c(0), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::LtEq, c(0), l(5))], 4));
        assert!(implies(&p, &[cmp(CmpOp::Lt, c(0), l(6))], 4));
        assert!(implies(&p, &[cmp(CmpOp::Gt, c(0), l(4))], 4));
        assert!(implies(&p, &[cmp(CmpOp::NotEq, c(0), l(7))], 4));
        assert!(!implies(&p, &[cmp(CmpOp::Lt, c(0), l(5))], 4));
        assert!(!implies(&p, &[cmp(CmpOp::Eq, c(0), l(6))], 4));
    }

    #[test]
    fn range_narrowing() {
        // 2 < x <= 8 implies 0 < x <= 10
        let p = vec![cmp(CmpOp::Gt, c(0), l(2)), cmp(CmpOp::LtEq, c(0), l(8))];
        let q = vec![cmp(CmpOp::Gt, c(0), l(0)), cmp(CmpOp::LtEq, c(0), l(10))];
        assert!(implies(&p, &q, 1));
        assert!(!implies(&q, &p, 1));
    }

    #[test]
    fn transitivity_through_equality() {
        // c0 = c1 and c1 = 5 implies c0 = 5.
        let p = vec![cmp(CmpOp::Eq, c(0), c(1)), cmp(CmpOp::Eq, c(1), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::Eq, c(0), l(5))], 2));
        assert!(implies(&p, &[cmp(CmpOp::Eq, c(0), c(1))], 2));
        // and c0 <= c1 holds under equality.
        assert!(implies(&p, &[cmp(CmpOp::LtEq, c(0), c(1))], 2));
        assert!(!implies(&p, &[cmp(CmpOp::Lt, c(0), c(1))], 2));
    }

    #[test]
    fn col_col_through_disjoint_intervals() {
        // c0 <= 3 and c1 >= 7 implies c0 < c1 and c0 <> c1.
        let p = vec![cmp(CmpOp::LtEq, c(0), l(3)), cmp(CmpOp::GtEq, c(1), l(7))];
        assert!(implies(&p, &[cmp(CmpOp::Lt, c(0), c(1))], 2));
        assert!(implies(&p, &[cmp(CmpOp::NotEq, c(0), c(1))], 2));
        assert!(!implies(&p, &[cmp(CmpOp::Gt, c(0), c(1))], 2));
    }

    #[test]
    fn boundary_touching_intervals() {
        // c0 <= 5 and c1 >= 5: proves c0 <= c1 but NOT c0 < c1.
        let p = vec![cmp(CmpOp::LtEq, c(0), l(5)), cmp(CmpOp::GtEq, c(1), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::LtEq, c(0), c(1))], 2));
        assert!(!implies(&p, &[cmp(CmpOp::Lt, c(0), c(1))], 2));
        // With one strict side it becomes provable.
        let p = vec![cmp(CmpOp::Lt, c(0), l(5)), cmp(CmpOp::GtEq, c(1), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::Lt, c(0), c(1))], 2));
    }

    #[test]
    fn unsat_implies_everything() {
        let p = vec![cmp(CmpOp::Lt, c(0), l(1)), cmp(CmpOp::Gt, c(0), l(2))];
        assert!(implies(&p, &[cmp(CmpOp::Eq, c(1), l(42))], 2));
        let p = vec![cmp(CmpOp::Eq, c(0), l(5)), cmp(CmpOp::NotEq, c(0), l(5))];
        assert!(implies(&p, &[ScalarExpr::lit(false)], 1));
    }

    #[test]
    fn truth_implies_not_null() {
        let p = vec![cmp(CmpOp::Eq, c(0), l(5))];
        assert!(implies(
            &p,
            &[ScalarExpr::IsNull {
                expr: Box::new(c(0)),
                negated: true
            }],
            1
        ));
        // But nothing follows about another column.
        assert!(!implies(
            &p,
            &[ScalarExpr::IsNull {
                expr: Box::new(c(1)),
                negated: true
            }],
            2
        ));
    }

    #[test]
    fn is_null_contradicts_comparison() {
        let p = vec![
            ScalarExpr::IsNull {
                expr: Box::new(c(0)),
                negated: false,
            },
            cmp(CmpOp::Eq, c(0), l(5)),
        ];
        // Unsatisfiable: anything follows.
        assert!(implies(&p, &[cmp(CmpOp::Eq, c(1), l(9))], 2));
    }

    #[test]
    fn opaque_conjuncts_match_syntactically() {
        let weird = ScalarExpr::Or(vec![
            cmp(CmpOp::Eq, c(0), l(1)),
            cmp(CmpOp::Eq, c(1), l(2)),
        ]);
        assert!(implies(
            std::slice::from_ref(&weird),
            std::slice::from_ref(&weird),
            2
        ));
        // An OR is also proved if one disjunct is proved.
        let p = vec![cmp(CmpOp::Eq, c(0), l(1))];
        assert!(implies(&p, &[weird], 2));
    }

    #[test]
    fn access_params_are_opaque_constants() {
        let k = ScalarExpr::AccessParam("1".into());
        let p = vec![ScalarExpr::eq(c(0), k.clone())];
        assert!(implies(&p, &[ScalarExpr::eq(c(0), k.clone())], 1));
        // Different symbol: not provable.
        let q = vec![ScalarExpr::eq(c(0), ScalarExpr::AccessParam("2".into()))];
        assert!(!implies(&p, &q, 1));
        // Symbol vs literal: not provable.
        assert!(!implies(&p, &[cmp(CmpOp::Eq, c(0), l(5))], 1));
    }

    #[test]
    fn str_values_compare() {
        let p = vec![cmp(CmpOp::Eq, c(0), ScalarExpr::lit("cs101"))];
        assert!(implies(&p, &[cmp(CmpOp::NotEq, c(0), ScalarExpr::lit("cs102"))], 1));
        assert!(implies(&p, &[cmp(CmpOp::GtEq, c(0), ScalarExpr::lit("cs100"))], 1));
    }

    #[test]
    fn not_eq_exclusion() {
        let p = vec![cmp(CmpOp::NotEq, c(0), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::NotEq, c(0), l(5))], 1));
        assert!(!implies(&p, &[cmp(CmpOp::NotEq, c(0), l(6))], 1));
        // Interval excludes value.
        let p = vec![cmp(CmpOp::Lt, c(0), l(5))];
        assert!(implies(&p, &[cmp(CmpOp::NotEq, c(0), l(9))], 1));
    }

    #[test]
    fn equivalence_check() {
        let p = vec![cmp(CmpOp::GtEq, c(0), l(5)), cmp(CmpOp::LtEq, c(0), l(5))];
        let q = vec![cmp(CmpOp::Eq, c(0), l(5))];
        assert!(equivalent(&p, &q, 1));
        assert!(!equivalent(&p, &[cmp(CmpOp::GtEq, c(0), l(5))], 1));
    }

    #[test]
    fn cross_type_numeric_bounds() {
        let p = vec![cmp(CmpOp::Eq, c(0), ScalarExpr::lit(2.5))];
        assert!(implies(&p, &[cmp(CmpOp::Gt, c(0), l(2))], 1));
        assert!(implies(&p, &[cmp(CmpOp::Lt, c(0), l(3))], 1));
    }
}
