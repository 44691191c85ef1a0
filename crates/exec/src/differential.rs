//! Differential tests: the streaming executor against a naive
//! reference interpreter.
//!
//! The reference ([`reference_plan`]) is what the executor is not:
//! every operator materializes its whole input, every value is cloned,
//! joins are nested loops over the unpushed plan, groups and duplicates
//! are found by linear search, aggregates are computed from a group's
//! collected rows, and expressions go through a cloning evaluator of
//! its own ([`reference_eval`]). The two must agree on generated plans
//! and data with NULLs, mixed INTEGER/DOUBLE comparisons and keys,
//! DISTINCT, GROUP BY with and without keys, empty inputs, LIMIT with
//! and without ORDER BY and joins with residual conjuncts — as
//! multisets on success, and in the error *variant* when evaluation
//! fails: a type error on some row is an error, never a dropped row.
//!
//! Two things are fixed by construction rather than compared. A
//! selection's conjunct list is a conjunction that stops at the first
//! conjunct that is not TRUE, nested `AND`s included (what running the
//! normalized plan always meant), so the reference flattens them too.
//! And since the executor works row-at-a-time while the reference works
//! operator-at-a-time, they may meet *different* failing rows first; a
//! generated case therefore contains only one kind of failure (type
//! errors, or divisions by zero). Ill-typed cases stay single-table:
//! selection pushdown legitimately changes which pairs a join predicate
//! is evaluated on.

use crate::{execute_bound, execute_plan, execute_plan_cow};
use fgac_algebra::{AggExpr, AggFunc, ArithOp, BoundQuery, CmpOp, OrderKey, Plan, ScalarExpr};
use fgac_storage::Database;
use fgac_types::{multiset_eq, Column, DataType, Error, Ident, Result, Row, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

// ---------------------------------------------------------------------
// The reference interpreter.
// ---------------------------------------------------------------------

/// An integer against a double, exactly, by the double's integral part
/// and its fraction; `-0.0` sorts below `0` and NaN by its sign, as
/// under `f64::total_cmp`.
fn reference_int_cmp_double(a: i64, b: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = b.trunc();
    match i128::from(a).cmp(&(whole as i128)) {
        Ordering::Equal if b > whole => Ordering::Less,
        Ordering::Equal if b < whole || (b.is_sign_negative() && a == 0) => Ordering::Greater,
        ord => ord,
    }
}

fn reference_eval(expr: &ScalarExpr, row: &Row) -> Result<Value> {
    let truth = |es: &[ScalarExpr], absorbing: bool| -> Result<Value> {
        let mut saw_null = false;
        for e in es {
            match reference_eval(e, row)? {
                Value::Bool(b) if b == absorbing => return Ok(Value::Bool(absorbing)),
                Value::Bool(_) => {}
                Value::Null => saw_null = true,
                other => return Err(Error::Type(format!("boolean expected, got {other}"))),
            }
        }
        Ok(if saw_null {
            Value::Null
        } else {
            Value::Bool(!absorbing)
        })
    };
    match expr {
        ScalarExpr::Col(i) => row
            .values()
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("no column {i}"))),
        ScalarExpr::Lit(v) => Ok(v.clone()),
        ScalarExpr::AccessParam(p) => Err(Error::Execution(format!("unbound $${p}"))),
        ScalarExpr::Cmp { op, left, right } => {
            let (l, r) = (reference_eval(left, row)?, reference_eval(right, row)?);
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = match (&l, &r) {
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
                (Value::Int(a), Value::Double(b)) => reference_int_cmp_double(*a, *b),
                (Value::Double(a), Value::Int(b)) => reference_int_cmp_double(*b, *a).reverse(),
                _ => return Err(Error::Type(format!("cannot compare {l} with {r}"))),
            };
            Ok(Value::Bool(op.test(ord)))
        }
        ScalarExpr::And(es) => truth(es, false),
        ScalarExpr::Or(es) => truth(es, true),
        ScalarExpr::Not(e) => match reference_eval(e, row)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(Error::Type(format!("boolean expected, got {other}"))),
        },
        ScalarExpr::IsNull { expr, negated } => Ok(Value::Bool(
            reference_eval(expr, row)?.is_null() != *negated,
        )),
        ScalarExpr::Arith { op, left, right } => {
            match (reference_eval(left, row)?, reference_eval(right, row)?) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Int(a), Value::Int(b)) => {
                    if b == 0 && matches!(op, ArithOp::Div | ArithOp::Mod) {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    match op {
                        ArithOp::Add => a.checked_add(b),
                        ArithOp::Sub => a.checked_sub(b),
                        ArithOp::Mul => a.checked_mul(b),
                        ArithOp::Div => a.checked_div(b),
                        ArithOp::Mod => a.checked_rem(b),
                    }
                    .map(Value::Int)
                    .ok_or_else(|| Error::Execution("integer overflow".into()))
                }
                (l, r) => {
                    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                        return Err(Error::Type(format!("cannot compute with {l}, {r}")));
                    };
                    if b == 0.0 && *op == ArithOp::Div {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    Ok(Value::Double(match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                        ArithOp::Mod => a % b,
                    }))
                }
            }
        }
        ScalarExpr::Neg(e) => match reference_eval(e, row)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            Value::Null => Ok(Value::Null),
            other => Err(Error::Type(format!("cannot negate {other}"))),
        },
    }
}

/// TRUE keeps the row. A conjunct list is one conjunction: it stops at
/// the first conjunct that is not TRUE, nested `AND`s included.
fn reference_passes(conjuncts: &[ScalarExpr], row: &Row) -> Result<bool> {
    for c in conjuncts {
        let holds = match c {
            ScalarExpr::And(members) => reference_passes(members, row)?,
            _ => match reference_eval(c, row)? {
                Value::Bool(b) => b,
                Value::Null => false,
                other => return Err(Error::Type(format!("boolean expected, got {other}"))),
            },
        };
        if !holds {
            return Ok(false);
        }
    }
    Ok(true)
}

fn reference_aggregate(agg: &AggExpr, members: &[Row]) -> Result<Value> {
    if agg.func == AggFunc::CountStar {
        return Ok(Value::Int(members.len() as i64));
    }
    let arg = agg
        .arg
        .as_ref()
        .expect("generated aggregates carry an argument");
    let mut values: Vec<Value> = Vec::new();
    for row in members {
        let v = reference_eval(arg, row)?;
        if !(v.is_null() || agg.distinct && values.contains(&v)) {
            values.push(v);
        }
    }
    let numbers = || -> Result<Vec<f64>> {
        values
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| Error::Type(format!("{} over non-number {v}", agg.func)))
            })
            .collect()
    };
    let extreme = |wanted: Ordering| {
        let mut best: Option<&Value> = None;
        for v in &values {
            if best.is_none_or(|b| v.sql_cmp(b) == Some(wanted)) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    Ok(match agg.func {
        AggFunc::CountStar | AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum => {
            let numbers = numbers()?;
            if numbers.is_empty() {
                Value::Null
            } else if values.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(values.iter().filter_map(Value::as_i64).sum())
            } else {
                // The generated doubles are multiples of 0.5, so the
                // sum is exact in any order.
                Value::Double(numbers.iter().sum())
            }
        }
        AggFunc::Avg => {
            let numbers = numbers()?;
            if numbers.is_empty() {
                Value::Null
            } else {
                Value::Double(numbers.iter().sum::<f64>() / numbers.len() as f64)
            }
        }
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
    })
}

/// Interprets `plan` as written: no pushdown, no normalization.
fn reference_plan(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    match plan {
        Plan::Scan { table, .. } => Ok(db.table_required(table)?.rows().to_vec()),
        Plan::Select { input, conjuncts } => {
            let mut out = Vec::new();
            for row in reference_plan(db, input)? {
                if reference_passes(conjuncts, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Project { input, exprs } => reference_plan(db, input)?
            .iter()
            .map(|row| {
                exprs
                    .iter()
                    .map(|e| reference_eval(e, row))
                    .collect::<Result<Vec<_>>>()
                    .map(Row)
            })
            .collect(),
        Plan::Distinct { input } => {
            let mut out: Vec<Row> = Vec::new();
            for row in reference_plan(db, input)? {
                if !out.contains(&row) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Join {
            left,
            right,
            conjuncts,
        } => {
            let (lrows, rrows) = (reference_plan(db, left)?, reference_plan(db, right)?);
            let mut out = Vec::new();
            for l in &lrows {
                for r in &rrows {
                    let joined = l.concat(r);
                    if reference_passes(conjuncts, &joined)? {
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            for row in reference_plan(db, input)? {
                let key = group_by
                    .iter()
                    .map(|g| reference_eval(g, &row))
                    .collect::<Result<Vec<_>>>()?;
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            if group_by.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            groups
                .into_iter()
                .map(|(mut out, members)| {
                    for agg in aggs {
                        out.push(reference_aggregate(agg, &members)?);
                    }
                    Ok(Row(out))
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------
// Generated data and plans.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Dbl,
    Str,
}

/// What may go wrong in a generated case: nothing, only type errors, or
/// only divisions by zero.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Failure {
    None,
    Type,
    ZeroDivision,
}

const T_COLS: [Ty; 4] = [Ty::Int, Ty::Dbl, Ty::Str, Ty::Int];
const U_COLS: [Ty; 3] = [Ty::Int, Ty::Dbl, Ty::Str];

struct Gen {
    rng: StdRng,
    failure: Failure,
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.rng.gen_range(0..100u32) < percent
    }

    fn value(&mut self, ty: Ty) -> Value {
        if self.chance(20) {
            return Value::Null;
        }
        match ty {
            Ty::Int => Value::Int(self.rng.gen_range(-2..=3i64)),
            Ty::Dbl => Value::Double(self.rng.gen_range(-3..=6i64) as f64 / 2.0),
            Ty::Str => Value::Str(["a", "b", "c"][self.pick(3)].into()),
        }
    }

    fn table(&mut self, db: &mut Database, name: &str, cols: &[Ty], max_rows: usize) -> Plan {
        let schema = Schema::new(
            cols.iter()
                .enumerate()
                .map(|(i, ty)| {
                    let ty = match ty {
                        Ty::Int => DataType::Int,
                        Ty::Dbl => DataType::Double,
                        Ty::Str => DataType::Str,
                    };
                    Column::new(format!("c{i}"), ty).nullable()
                })
                .collect(),
        );
        db.create_table(name, schema.clone(), None).unwrap();
        // One case in five runs on an empty table.
        let rows = if self.chance(20) {
            0
        } else {
            self.pick(max_rows + 1)
        };
        for _ in 0..rows {
            let row = Row(cols.iter().map(|&ty| self.value(ty)).collect());
            db.insert(&Ident::new(name), row).unwrap();
        }
        Plan::scan(name, schema)
    }

    fn col_of(&mut self, cols: &[Ty], numeric: bool) -> ScalarExpr {
        let wanted: Vec<usize> = (0..cols.len())
            .filter(|&i| (cols[i] != Ty::Str) == numeric)
            .collect();
        ScalarExpr::col(wanted[self.pick(wanted.len())])
    }

    fn number(&mut self, cols: &[Ty], depth: u32) -> ScalarExpr {
        let arith = |op, l, r| ScalarExpr::Arith {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        match self.pick(if depth == 0 { 3 } else { 6 }) {
            0 | 1 => self.col_of(cols, true),
            2 if self.chance(50) => ScalarExpr::lit(self.rng.gen_range(-2..=3i64)),
            2 => ScalarExpr::lit(self.rng.gen_range(-3..=6i64) as f64 / 2.0),
            3 | 4 if self.failure == Failure::ZeroDivision => arith(
                ArithOp::Div,
                self.number(cols, depth - 1),
                self.col_of(cols, true),
            ),
            3 => ScalarExpr::Neg(Box::new(self.number(cols, depth - 1))),
            _ => {
                let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][self.pick(3)];
                arith(
                    op,
                    self.number(cols, depth - 1),
                    self.number(cols, depth - 1),
                )
            }
        }
    }

    fn text(&mut self, cols: &[Ty]) -> ScalarExpr {
        if self.chance(60) {
            self.col_of(cols, false)
        } else {
            ScalarExpr::lit(["a", "b", "c"][self.pick(3)])
        }
    }

    fn predicate(&mut self, cols: &[Ty], depth: u32) -> ScalarExpr {
        let ops = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ];
        let op = ops[self.pick(ops.len())];
        match self.pick(if depth == 0 { 4 } else { 7 }) {
            0 | 1 => ScalarExpr::cmp(op, self.number(cols, 1), self.number(cols, 1)),
            2 if self.failure == Failure::Type => {
                // A string against a number: a type error on every row
                // whose string is not NULL.
                ScalarExpr::cmp(op, self.col_of(cols, false), self.number(cols, 0))
            }
            2 => ScalarExpr::cmp(op, self.text(cols), self.text(cols)),
            3 => ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::col(self.pick(cols.len()))),
                negated: self.chance(50),
            },
            4 => ScalarExpr::And(vec![
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ]),
            5 => ScalarExpr::Or(vec![
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ]),
            _ => ScalarExpr::Not(Box::new(self.predicate(cols, depth - 1))),
        }
    }

    fn conjuncts(&mut self, cols: &[Ty], at_most: usize) -> Vec<ScalarExpr> {
        (0..self.pick(at_most + 1))
            .map(|_| self.predicate(cols, 2))
            .collect()
    }

    /// `t ⋈ u` the way the binder writes it — one selection over the
    /// cross product — or with the conjuncts already on the join. Zero
    /// to two equi-keys (INTEGER = DOUBLE among them), residuals over
    /// the pair, single-side filters.
    fn join(&mut self, t: Plan, u: Plan) -> (Plan, Vec<Ty>) {
        let cols: Vec<Ty> = T_COLS.iter().chain(&U_COLS).copied().collect();
        let keys = [(0, 4), (0, 5), (1, 5), (1, 4), (3, 4), (2, 6)];
        let mut conjuncts = Vec::new();
        for _ in 0..self.pick(3) {
            let (l, r) = keys[self.pick(keys.len())];
            let (l, r) = if self.chance(50) { (l, r) } else { (r, l) };
            conjuncts.push(ScalarExpr::eq(ScalarExpr::col(l), ScalarExpr::col(r)));
        }
        conjuncts.extend(self.conjuncts(&cols, 2));
        if self.chance(40) {
            // A filter on one side only: pushdown moves it below the join.
            let side: Vec<Ty> = T_COLS.to_vec();
            conjuncts.push(self.predicate(&side, 1));
        }
        let plan = if self.chance(70) {
            let cross = t.join(u, vec![]);
            if conjuncts.is_empty() {
                cross
            } else {
                cross.select(conjuncts)
            }
        } else {
            t.join(u, conjuncts)
        };
        (plan, cols)
    }

    fn aggregate(&mut self, input: Plan, cols: &[Ty]) -> Plan {
        let group_by: Vec<ScalarExpr> = (0..self.pick(3))
            .map(|_| {
                if self.chance(70) {
                    ScalarExpr::col(self.pick(cols.len()))
                } else {
                    self.number(cols, 1)
                }
            })
            .collect();
        let mut aggs: Vec<AggExpr> = (0..1 + self.pick(3))
            .map(|_| {
                let func = [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ][self.pick(5)];
                let numeric_only = matches!(func, AggFunc::Sum | AggFunc::Avg);
                let arg = if numeric_only && self.failure == Failure::Type && self.chance(30) {
                    self.col_of(cols, false) // SUM/AVG over strings
                } else if numeric_only || self.chance(60) {
                    self.number(cols, 1)
                } else {
                    self.col_of(cols, false)
                };
                AggExpr {
                    func,
                    arg: Some(arg),
                    distinct: self.chance(30),
                }
            })
            .collect();
        aggs.push(AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        });
        let count_star = group_by.len() + aggs.len() - 1;
        let plan = input.aggregate(group_by, aggs);
        if self.chance(30) {
            // HAVING count(*) >= n.
            plan.select(vec![ScalarExpr::cmp(
                CmpOp::GtEq,
                ScalarExpr::col(count_star),
                ScalarExpr::lit(self.rng.gen_range(1..=2i64)),
            )])
        } else {
            plan
        }
    }

    fn query(&mut self, db: &mut Database, joined: bool) -> BoundQuery {
        let t = self.table(db, "t", &T_COLS, 12);
        let (mut plan, cols) = if joined {
            let u = self.table(db, "u", &U_COLS, 8);
            self.join(t, u)
        } else {
            let conjuncts = self.conjuncts(&T_COLS, 3);
            let plan = if conjuncts.is_empty() {
                t
            } else {
                t.select(conjuncts)
            };
            (plan, T_COLS.to_vec())
        };
        plan = match self.pick(4) {
            0 => plan, // the surviving rows are the answer
            1 => {
                let identity = (0..cols.len()).map(ScalarExpr::col).collect();
                plan.project(identity) // `select *` as the binder writes it
            }
            2 => {
                let exprs = (0..1 + self.pick(3))
                    .map(|_| match self.pick(3) {
                        0 => ScalarExpr::col(self.pick(cols.len())),
                        1 => self.number(&cols, 2),
                        _ => self.predicate(&cols, 1),
                    })
                    .collect();
                plan.project(exprs)
            }
            _ => self.aggregate(plan, &cols),
        };
        if self.chance(30) {
            plan = plan.distinct();
        }
        let arity = plan.arity();
        let order_by = (0..self.pick(3))
            .map(|_| OrderKey {
                col: self.pick(arity),
                asc: self.chance(50),
            })
            .collect();
        let limit = self.chance(40).then(|| self.rng.gen_range(0..=4u64));
        BoundQuery {
            output_names: (0..arity).map(|i| Ident::new(format!("o{i}"))).collect(),
            plan,
            order_by,
            limit,
        }
    }
}

/// The case generated from `seed`: well-typed joins, or a single table
/// with one of the three failure kinds.
fn case(seed: u64) -> (Database, BoundQuery, Failure) {
    let (joined, failure) = match seed % 4 {
        0 => (true, Failure::None),
        1 => (false, Failure::None),
        2 => (false, Failure::Type),
        _ => (false, Failure::ZeroDivision),
    };
    let mut generator = Gen {
        rng: StdRng::seed_from_u64(seed),
        failure,
    };
    let mut db = Database::new();
    let bound = generator.query(&mut db, joined);
    (db, bound, failure)
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

fn compare_keys(a: &Row, b: &Row, keys: &[OrderKey]) -> Ordering {
    keys.iter()
        .map(|k| {
            let ord = a.get(k.col).cmp(b.get(k.col));
            if k.asc {
                ord
            } else {
                ord.reverse()
            }
        })
        .find(|ord| ord.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Whether `part` is a sub-multiset of `whole`.
fn contained_in(part: &[Row], whole: &[Row]) -> bool {
    let mut whole: Vec<&Row> = whole.iter().collect();
    part.iter().all(|row| {
        whole
            .iter()
            .position(|w| *w == row)
            .map(|at| whole.swap_remove(at))
            .is_some()
    })
}

/// What `execute_bound` answered against the reference; `Err` carries a
/// description of the disagreement.
fn agreement(db: &Database, bound: &BoundQuery) -> std::result::Result<(), String> {
    let got = execute_bound(db, bound);
    let want = reference_plan(db, &bound.plan);
    let (got, mut want) = match (got, want) {
        (Err(g), Err(w)) if std::mem::discriminant(&g) == std::mem::discriminant(&w) => {
            return Ok(())
        }
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => return Err(format!("executor {got:?}, reference {want:?}")),
    };
    want.sort_by(|a, b| compare_keys(a, b, &bound.order_by));
    let sorted = got
        .windows(2)
        .all(|w| compare_keys(&w[0], &w[1], &bound.order_by).is_le());
    if !sorted {
        return Err(format!("result is not in ORDER BY order: {got:?}"));
    }
    let expected_len = bound
        .limit
        .map_or(want.len(), |limit| want.len().min(limit as usize));
    if got.len() != expected_len {
        return Err(format!("{} rows, expected {expected_len}", got.len()));
    }
    if !contained_in(&got, &want) {
        return Err(format!(
            "rows {got:?} are not among the reference's {want:?}"
        ));
    }
    // Under ORDER BY + LIMIT the kept rows are the smallest ones (ties
    // may be broken either way, so compare only the keys).
    let same_keys = got
        .iter()
        .zip(&want)
        .all(|(g, w)| compare_keys(g, w, &bound.order_by).is_eq());
    if !same_keys {
        return Err(format!("kept {got:?}, the reference sorts to {want:?}"));
    }
    if bound.limit.is_none() && !multiset_eq(&got, &want) {
        return Err(format!("rows {got:?}, reference {want:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn executor_agrees_with_reference(seed in any::<u64>()) {
        let (db, bound, failure) = case(seed);
        if let Err(difference) = agreement(&db, &bound) {
            panic!(
                "seed {seed} ({failure:?}), order by {:?} limit {:?}:\n{}{difference}",
                bound.order_by, bound.limit, bound.plan
            );
        }
        // The plan-level entry points agree with each other as well.
        if let Ok(rows) = execute_plan(&db, &bound.plan) {
            prop_assert_eq!(&rows[..], &execute_plan_cow(&db, &bound.plan).unwrap()[..]);
        }
    }
}

/// The generator reaches what the property is meant to cover: without
/// this, a generator that stopped producing errors, matches or limits
/// would leave the property passing on nothing.
#[test]
fn generated_cases_cover_the_interesting_shapes() {
    let (mut type_errors, mut zero_divisions, mut join_matches) = (0, 0, 0);
    let (mut limited, mut grouped, mut empty_inputs) = (0, 0, 0);
    for seed in 0..800 {
        let (db, bound, failure) = case(seed);
        let (mut has_keys, mut joins) = (false, false);
        bound.plan.visit(&mut |p| {
            has_keys |= matches!(p, Plan::Aggregate { group_by, .. } if !group_by.is_empty());
            joins |= matches!(p, Plan::Join { .. });
        });
        match (reference_plan(&db, &bound.plan), failure) {
            (Err(Error::Type(_)), Failure::Type) => type_errors += 1,
            (Err(Error::Execution(_)), Failure::ZeroDivision) => zero_divisions += 1,
            (Err(e), _) => panic!("seed {seed} ({failure:?}) fails with {e:?}"),
            (Ok(rows), _) => join_matches += usize::from(joins && !rows.is_empty()),
        }
        limited += usize::from(bound.limit.is_some());
        grouped += usize::from(has_keys);
        empty_inputs += usize::from(db.table_required(&Ident::new("t")).unwrap().is_empty());
    }
    for (what, count) in [
        ("type errors", type_errors),
        ("divisions by zero", zero_divisions),
        ("joins with matches", join_matches),
        ("limits", limited),
        ("grouped aggregates", grouped),
        ("empty inputs", empty_inputs),
    ] {
        assert!(count >= 20, "only {count} generated cases with {what}");
    }
}

// ---------------------------------------------------------------------
// The index access path against the scan.
// ---------------------------------------------------------------------
//
// The same rows in two databases: `keyed` declares keys and foreign keys,
// so `t` has ordered indexes on (c2, c0) (its key), c3 and c1 (child
// sides) and `p` on c0 and c1; `plain` declares none, so every selection
// scans. Rows are loaded unchecked, so keys may repeat and references
// dangle. A selection over `t` and a DML filter on it must give exactly
// the same answer on both: rows, order, and `Result` down to the error
// text — and, for DML, the same rows handed to the per-tuple check.

/// 2^53 and its neighbour are one apart but round to the same double:
/// rows holding both must give the scan's answer on the index path.
const BIG: i64 = 1 << 53;

impl Gen {
    /// `c<col> = literal`, either way round, with a literal that the
    /// path must take (the column's own type, mostly a value the table
    /// holds, or 2^53) or must refuse (NULL, an `Int` on the `Double`
    /// column, a string against an integer when type errors are
    /// allowed).
    fn key_equality(&mut self) -> ScalarExpr {
        let col = [0, 1, 2, 3][self.pick(4)];
        let lit = match self.pick(10) {
            0 => Value::Null,
            1 if col == 1 => Value::Int(self.rng.gen_range(-2..=3i64)),
            1 => Value::Int(BIG),
            2 if self.failure == Failure::Type && col != 2 => Value::Str("a".into()),
            _ => match self.value(T_COLS[col]) {
                Value::Null => self.value(T_COLS[col]),
                v => v,
            },
        };
        let (c, l) = (ScalarExpr::col(col), ScalarExpr::Lit(lit));
        if self.chance(50) {
            ScalarExpr::eq(c, l)
        } else {
            ScalarExpr::eq(l, c)
        }
    }

    /// Conjuncts with a key equality at a random place among them, and
    /// that place.
    fn keyed_conjuncts(&mut self) -> (Vec<ScalarExpr>, usize) {
        let mut conjuncts = self.conjuncts(&T_COLS, 2);
        let at = self.pick(conjuncts.len() + 1);
        conjuncts.insert(at, self.key_equality());
        (conjuncts, at)
    }

    fn t_row(&mut self) -> Row {
        let mut row = Row(T_COLS.iter().map(|&ty| self.value(ty)).collect());
        if self.chance(10) {
            row.0[3] = Value::Int(BIG + self.rng.gen_range(0..=1i64));
        }
        row
    }
}

fn keyed_pair(g: &mut Gen) -> (Database, Database) {
    let cols = |tys: &[DataType]| {
        Schema::new(
            tys.iter()
                .enumerate()
                .map(|(i, ty)| Column::new(format!("c{i}"), *ty).nullable())
                .collect(),
        )
    };
    let t_schema = cols(&[
        DataType::Int,
        DataType::Double,
        DataType::Str,
        DataType::Int,
    ]);
    let p_schema = cols(&[DataType::Int, DataType::Double]);
    let t_rows: Vec<Row> = (0..g.pick(30)).map(|_| g.t_row()).collect();
    let p_rows: Vec<Row> = (0..g.pick(6))
        .map(|_| Row(vec![g.value(Ty::Int), g.value(Ty::Dbl)]))
        .collect();
    let mut pair = [Database::new(), Database::new()];
    for (db, keyed) in pair.iter_mut().zip([true, false]) {
        let key = |cols: &[&str]| keyed.then(|| cols.iter().map(Ident::new).collect());
        db.create_table("p", p_schema.clone(), key(&["c0"]))
            .unwrap();
        db.create_table("t", t_schema.clone(), key(&["c2", "c0"]))
            .unwrap();
        if keyed {
            for (name, child, parent) in [("fk_c3", "c3", "c0"), ("fk_c1", "c1", "c1")] {
                db.add_foreign_key(fgac_storage::ForeignKey {
                    name: Ident::new(name),
                    child_table: Ident::new("t"),
                    child_columns: vec![Ident::new(child)],
                    parent_table: Ident::new("p"),
                    parent_columns: vec![Ident::new(parent)],
                })
                .unwrap();
            }
        }
        db.load(&Ident::new("p"), p_rows.clone()).unwrap();
        db.load(&Ident::new("t"), t_rows.clone()).unwrap();
        db.commit();
    }
    let [keyed, plain] = pair;
    (keyed, plain)
}

/// A keyed case: the pair, a query over `t` whose selection holds a key
/// equality, and the selection's conjuncts with the equality's place.
fn keyed_case(seed: u64) -> (Database, Database, BoundQuery, (Vec<ScalarExpr>, usize)) {
    let failure = [Failure::None, Failure::Type, Failure::ZeroDivision][(seed % 3) as usize];
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        failure,
    };
    let (keyed, plain) = keyed_pair(&mut g);
    let t = Plan::scan("t", keyed.table(&Ident::new("t")).unwrap().schema().clone());
    let (conjuncts, at) = g.keyed_conjuncts();
    let mut plan = t.select(conjuncts.clone());
    plan = match g.pick(4) {
        0 => plan,
        1 => plan.project((0..T_COLS.len()).map(ScalarExpr::col).collect()),
        2 => plan.project(vec![
            ScalarExpr::col(g.pick(T_COLS.len())),
            g.number(&T_COLS, 1),
        ]),
        _ => g.aggregate(plan, &T_COLS),
    };
    let limit = g.chance(30).then(|| g.rng.gen_range(0..=4u64));
    let arity = plan.arity();
    let bound = BoundQuery {
        output_names: (0..arity).map(|i| Ident::new(format!("o{i}"))).collect(),
        plan,
        order_by: vec![],
        limit,
    };
    (keyed, plain, bound, (conjuncts, at))
}

/// What a DML statement with this filter answers, the rows its check
/// saw, in order, and the table it leaves.
type DmlRun = (Result<usize>, Vec<Row>, Vec<Row>);

fn dml_runs(db: &Database, filter: &ScalarExpr) -> [DmlRun; 2] {
    let t = Ident::new("t");
    let delete = {
        let mut db = db.clone();
        let mut seen = Vec::new();
        let out = crate::delete_matching(&mut db, &t, Some(filter), |row| {
            seen.push(row.clone());
            Ok(())
        });
        (out, seen, db.table(&t).unwrap().rows().to_vec())
    };
    let update = {
        let mut db = db.clone();
        let mut seen = Vec::new();
        // A key column set to itself: no key check runs on either side.
        let assignments = [(2, ScalarExpr::col(2))];
        let out = crate::update_matching(&mut db, &t, Some(filter), &assignments, |old, _| {
            seen.push(old.clone());
            Ok(())
        });
        (out, seen, db.table(&t).unwrap().rows().to_vec())
    };
    [delete, update]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn index_path_equals_the_scan(seed in any::<u64>()) {
        let (keyed, plain, bound, (conjuncts, _)) = keyed_case(seed);
        prop_assert_eq!(
            execute_bound(&keyed, &bound),
            execute_bound(&plain, &bound),
            "seed {}: {}", seed, bound.plan
        );
        let filter = ScalarExpr::And(conjuncts);
        prop_assert_eq!(dml_runs(&keyed, &filter), dml_runs(&plain, &filter), "seed {}", seed);
    }
}

/// The keyed cases take the index path often, refuse it for each kind
/// of literal it must refuse, and take it in front of a type error —
/// without this, a generator that never reached the path would leave
/// the property passing on nothing.
#[test]
fn keyed_cases_cover_the_index_path() {
    let (mut served, mut served_err, mut refused_lit, mut after_safe, mut dml_nulls) =
        (0, 0, 0, 0, 0);
    for seed in 0..600 {
        let (keyed, _, bound, (conjuncts, at)) = keyed_case(seed);
        let t = keyed.table(&Ident::new("t")).unwrap();
        let flat: Vec<&ScalarExpr> = conjuncts.iter().collect();
        match crate::access::index_positions(t, &flat, false) {
            Some(positions) => {
                served += 1;
                served_err += usize::from(execute_bound(&keyed, &bound).is_err());
                after_safe += usize::from(at > 0);
                let with_nulls = crate::access::index_positions(t, &flat, true).unwrap();
                dml_nulls += usize::from(with_nulls.len() > positions.len());
            }
            None => {
                let ScalarExpr::Cmp { left, right, .. } = &conjuncts[at] else {
                    unreachable!("a key equality is a comparison")
                };
                refused_lit += usize::from(
                    [left, right]
                        .iter()
                        .any(|e| matches!(&***e, ScalarExpr::Lit(Value::Null | Value::Int(BIG)))),
                );
            }
        }
    }
    for (what, count) in [
        ("served by an index", served),
        ("served and failing", served_err),
        ("served behind a safe conjunct", after_safe),
        ("served with NULL keys for DML", dml_nulls),
        ("refused for their literal", refused_lit),
    ] {
        assert!(count >= 20, "only {count} keyed cases {what}");
    }
}

/// `Value::sql_cmp` between an integer and a double agrees with the
/// reference on integers and doubles around every rounding edge.
#[test]
fn exact_numeric_comparison_matches_the_reference() {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    let ints = [0, 1, -1, BIG - 1, BIG, BIG + 1, BIG + 3, -BIG - 1, i64::MAX, i64::MIN];
    let mut doubles = vec![0.0, -0.0, 0.5, -0.5, TWO_63, -TWO_63, f64::INFINITY, f64::NEG_INFINITY];
    doubles.extend([f64::NAN, -f64::NAN, f64::MAX, f64::MIN_POSITIVE]);
    for &a in &ints {
        for d in [a as f64, (a as f64).next_up(), (a as f64).next_down(), -(a as f64)] {
            doubles.push(d);
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..500 {
        doubles.push(rng.gen_range(i64::MIN..=i64::MAX) as f64);
        doubles.push(rng.gen_range(-1000..=1000i64) as f64 / 8.0);
    }
    for &a in &ints {
        for &b in &doubles {
            let want = reference_int_cmp_double(a, b);
            assert_eq!(Value::Int(a).sql_cmp(&Value::Double(b)), Some(want), "{a} vs {b}");
            assert_eq!(Value::Double(b).sql_cmp(&Value::Int(a)), Some(want.reverse()), "{b} vs {a}");
        }
    }
}

#[test]
fn a_conjunct_that_can_error_before_the_equality_forces_the_scan() {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(7),
        failure: Failure::None,
    };
    let (keyed, _) = keyed_pair(&mut g);
    let t = keyed.table(&Ident::new("t")).unwrap();
    let eq = ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::lit("a"));
    // A string against a number errors on every row with a string.
    let bad = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::lit(1i64));
    let safe = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(1.5));
    let path = |cs: &[&ScalarExpr]| crate::access::index_positions(t, cs, false).is_some();
    assert!(path(&[&eq, &bad]));
    assert!(path(&[&safe, &eq]));
    assert!(!path(&[&bad, &eq]));
    // Int on the Double column and NULL fall back to the scan; an
    // integer of any magnitude takes the index.
    for lit in [Value::Int(1), Value::Null] {
        assert!(!path(&[&ScalarExpr::eq(
            ScalarExpr::col(1),
            ScalarExpr::Lit(lit)
        )]));
    }
    for lit in [BIG - 1, BIG, BIG + 1] {
        assert!(path(&[&ScalarExpr::eq(
            ScalarExpr::col(3),
            ScalarExpr::lit(lit)
        )]));
    }
}
