//! Plan execution.
//!
//! The executor is a push pipeline over borrowed rows. [`stream`] walks
//! the plan and hands every row an operator produces to a sink as
//! `Cow<'_, Row>`: a `Scan` offers the table's own rows
//! (`Cow::Borrowed`), `Select` evaluates its conjuncts in place and
//! forwards the survivors untouched, and `Project`, `Aggregate`,
//! `Distinct` and the hash-join build and probe all read their input by
//! reference. Only an operator that computes new rows (projection, join
//! output, aggregation) emits `Cow::Owned`. A table row is therefore
//! cloned in exactly one place — the collector at the top, when the row
//! itself is the answer (`select *`) — and a value is cloned only into
//! a row that is being built: predicates run through the one borrowing
//! evaluator ([`crate::eval`]) and allocate nothing for column/literal
//! comparisons. The [`rows_cloned`] counter observes the collector's
//! clones, so tests and benches can hold the executor to "0 for a
//! projection or aggregate, `|result|` for `select *`".
//!
//! Evaluation is row-at-a-time through the whole pipeline: when several
//! rows would fail, the error reported is that of the first failing row
//! in scan order, not of the lowest failing operator.

use crate::access::for_each_candidate;
use crate::eval::{eval_predicate, eval_ref};
use fgac_algebra::{
    is_identity_projection, AggExpr, AggFunc, BoundQuery, CmpOp, OrderKey, ParamScope, Plan,
    ScalarExpr,
};
use fgac_storage::{Database, Table};
use fgac_types::{Error, Ident, Result, Row, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

thread_local! {
    /// Table rows cloned by this thread's executor runs. A stored row
    /// is cloned only when it is itself a result row. Thread-local so
    /// concurrent queries (and parallel tests) don't observe each other.
    static ROWS_CLONED: Cell<u64> = const { Cell::new(0) };
}

fn count_cloned(n: usize) {
    ROWS_CLONED.with(|c| c.set(c.get() + n as u64));
}

/// Rows cloned from borrowed storage on this thread since the last
/// [`reset_rows_cloned`] — the executor's copy-cost instrumentation.
pub fn rows_cloned() -> u64 {
    ROWS_CLONED.with(|c| c.get())
}

/// Resets this thread's [`rows_cloned`] counter.
pub fn reset_rows_cloned() {
    ROWS_CLONED.with(|c| c.set(0));
}

/// A query result: column names + rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub names: Vec<Ident>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Renders an ASCII table (examples / report binary).
    pub fn to_table(&self) -> String {
        let header = self
            .names
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" | ");
        // Size the ruler from the header's display width, not the byte
        // length of the accumulated output (which counts the newline and
        // over-counts multi-byte characters).
        let ruler_width = header.chars().count().max(8);
        let mut out = String::new();
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(ruler_width));
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.values()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push('\n');
        }
        out
    }
}

/// Parses, binds, and executes a `SELECT`, returning names + rows. This
/// performs **no access-control check** — it is the raw engine that both
/// the Truman and Non-Truman paths drive.
pub fn run_query_sql(db: &Database, sql: &str, params: &ParamScope) -> Result<QueryResult> {
    let query = fgac_sql::parse_query(sql)?;
    let bound = fgac_algebra::bind_query(db.catalog(), &query, params)?;
    let rows = execute_bound(db, &bound)?;
    Ok(QueryResult {
        names: bound.output_names,
        rows,
    })
}

/// Executes a bound query including ORDER BY / LIMIT presentation. The
/// plan goes through the selection-pushdown pre-pass so joins run on
/// their keys instead of materializing cross products.
pub fn execute_bound(db: &Database, bound: &BoundQuery) -> Result<Vec<Row>> {
    let plan = crate::pushdown::push_selections(&bound.plan);
    // An unordered LIMIT is answered by the first rows produced, so
    // nothing past them is cloned.
    let keep = match bound.limit {
        Some(limit) if bound.order_by.is_empty() => clamp_limit(limit),
        _ => usize::MAX,
    };
    let mut rows = into_owned_rows(run(db, &plan, keep)?);
    if !bound.order_by.is_empty() {
        sort_rows(&mut rows, &bound.order_by);
    }
    if let Some(limit) = bound.limit {
        rows.truncate(clamp_limit(limit));
    }
    Ok(rows)
}

fn clamp_limit(limit: u64) -> usize {
    usize::try_from(limit).unwrap_or(usize::MAX)
}

/// Executes a logical plan, materializing the result multiset. Prefer
/// [`execute_plan_cow`] when the caller can work with borrowed rows
/// (e.g. emptiness probes) — this wrapper clones a borrowed result.
pub fn execute_plan(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    execute_plan_cow(db, plan).map(into_owned_rows)
}

/// Executes a logical plan over borrowed storage. A plan that yields a
/// table unchanged returns that table's row slice without copying; any
/// other plan streams through the operator pipeline and collects its
/// output, cloning a table row only when it is itself an output row.
pub fn execute_plan_cow<'a>(db: &'a Database, plan: &Plan) -> Result<Cow<'a, [Row]>> {
    run(db, plan, usize::MAX)
}

fn into_owned_rows(rows: Cow<'_, [Row]>) -> Vec<Row> {
    match rows {
        Cow::Owned(rows) => rows,
        Cow::Borrowed(rows) => {
            count_cloned(rows.len());
            rows.to_vec()
        }
    }
}

/// The first `keep` rows `plan` produces.
fn run<'a>(db: &'a Database, plan: &Plan, keep: usize) -> Result<Cow<'a, [Row]>> {
    if let Some(rows) = table_slice(db, plan)? {
        return Ok(Cow::Borrowed(&rows[..keep.min(rows.len())]));
    }
    let mut out = Vec::new();
    let mut cloned = 0;
    stream(db, plan, &mut |row| {
        if out.len() < keep {
            out.push(match row {
                Cow::Owned(row) => row,
                Cow::Borrowed(row) => {
                    cloned += 1;
                    row.clone()
                }
            });
        }
        Ok(())
    })?;
    count_cloned(cloned);
    Ok(Cow::Owned(out))
}

/// The stored rows of the table `plan` returns unchanged, if it is a
/// scan under nothing but identity projections (the binder's shape for
/// `select * from t`).
fn table_slice<'a>(db: &'a Database, plan: &Plan) -> Result<Option<&'a [Row]>> {
    Ok(scanned_table(db, plan)?.map(Table::rows))
}

/// The table behind [`table_slice`].
fn scanned_table<'a>(db: &'a Database, plan: &Plan) -> Result<Option<&'a Table>> {
    match plan {
        Plan::Scan { table, .. } => Ok(Some(db.table_required(table)?)),
        Plan::Project { input, exprs } if is_identity_projection(exprs, input.arity()) => {
            scanned_table(db, input)
        }
        _ => Ok(None),
    }
}

/// Where an operator sends its output rows: borrowed from table storage
/// (valid for the database borrow `'a`) or freshly built.
type Sink<'s, 'a> = &'s mut dyn FnMut(Cow<'a, Row>) -> Result<()>;

/// Pushes every row `plan` produces into `sink`, in order.
fn stream<'a>(db: &'a Database, plan: &Plan, sink: Sink<'_, 'a>) -> Result<()> {
    match plan {
        Plan::Scan { table, .. } => db
            .table_required(table)?
            .rows()
            .iter()
            .try_for_each(|row| sink(Cow::Borrowed(row))),
        Plan::Select { input, conjuncts } => {
            let conjuncts = flatten_ands(conjuncts);
            let mut keep = |row: Cow<'a, Row>| {
                if passes(&conjuncts, &row)? {
                    sink(row)?;
                }
                Ok(())
            };
            // Fused with a scan below it, the filter runs in the scan
            // loop itself, over an index's equal range when one serves a
            // conjunct, and only survivors reach the sink.
            match scanned_table(db, input)? {
                Some(t) => for_each_candidate(t, &conjuncts, false, |_, row| {
                    keep(Cow::Borrowed(row))
                }),
                None => stream(db, input, &mut keep),
            }
        }
        // The binder wraps `select *` in an identity projection; the
        // input rows already are the output rows.
        Plan::Project { input, exprs } if is_identity_projection(exprs, input.arity()) => {
            stream(db, input, sink)
        }
        Plan::Project { input, exprs } => stream(db, input, &mut |row| {
            let projected = exprs
                .iter()
                .map(|e| eval_ref(e, &row).map(Cow::into_owned))
                .collect::<Result<Vec<Value>>>()?;
            sink(Cow::Owned(Row(projected)))
        }),
        Plan::Distinct { input } => {
            // Each first occurrence is kept as it arrived (borrowed or
            // owned) and duplicates are found by index, so nothing is
            // cloned here.
            let mut firsts: Vec<Cow<'a, Row>> = Vec::new();
            let mut index = HashIndex::default();
            stream(db, input, &mut |row| {
                let hash = index.hash(row.values());
                if !index.candidates(hash).iter().any(|&i| firsts[i] == row) {
                    index.insert(hash, firsts.len());
                    firsts.push(row);
                }
                Ok(())
            })?;
            firsts.into_iter().try_for_each(sink)
        }
        Plan::Join {
            left,
            right,
            conjuncts,
        } => {
            let mut build: Vec<Cow<'a, Row>> = Vec::new();
            stream(db, right, &mut |row| {
                build.push(row);
                Ok(())
            })?;
            join_rows(db, left, &build, conjuncts, sink)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut groups = Groups::new(group_by, aggs);
            stream(db, input, &mut |row| groups.add(&row))?;
            groups.finish().try_for_each(|row| sink(Cow::Owned(row)))
        }
    }
}

/// The conjunct list with nested `AND`s spliced in. The binder emits
/// `where a and b` as one `AND` conjunct and plans are not normalized
/// before they run; as a list, the scan of a row stops at the first
/// member that is not TRUE.
pub(crate) fn flatten_ands(conjuncts: &[ScalarExpr]) -> Vec<&ScalarExpr> {
    fn splice<'e>(conjuncts: &'e [ScalarExpr], flat: &mut Vec<&'e ScalarExpr>) {
        for c in conjuncts {
            match c {
                ScalarExpr::And(members) => splice(members, flat),
                _ => flat.push(c),
            }
        }
    }
    let mut flat = Vec::with_capacity(conjuncts.len());
    splice(conjuncts, &mut flat);
    flat
}

/// Whether every conjunct is TRUE on `row`.
fn passes(conjuncts: &[&ScalarExpr], row: &Row) -> Result<bool> {
    for c in conjuncts {
        if !eval_predicate(c, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Finds entries of a caller-owned `Vec` by the hash of a key that is
/// only ever read by reference: [`HashIndex::candidates`] narrows a
/// lookup to the indexes stored under the key's hash, and the caller
/// confirms the match against its own entries. `Distinct`, `Aggregate`
/// and the hash join share it, so a lookup that hits never clones a key.
///
/// Numerically equal `Int` and `Double` values hash alike, which the
/// join's SQL key equality needs; for the operators that compare with
/// `==` it only means such values share a bucket.
#[derive(Default)]
struct HashIndex {
    state: RandomState,
    buckets: HashMap<u64, Vec<usize>>,
}

impl HashIndex {
    fn hash<'v>(&self, key: impl IntoIterator<Item = &'v Value>) -> u64 {
        let mut hasher = self.state.build_hasher();
        for value in key {
            match value.as_f64() {
                Some(number) => number.to_bits().hash(&mut hasher),
                None => value.hash(&mut hasher),
            }
        }
        hasher.finish()
    }

    fn candidates(&self, hash: u64) -> &[usize] {
        self.buckets.get(&hash).map_or(&[], Vec::as_slice)
    }

    fn insert(&mut self, hash: u64, index: usize) {
        self.buckets.entry(hash).or_default().push(index);
    }
}

/// Streams the left input against the collected right (`build`) rows:
/// a hash join on the conjuncts that equate a left column with a right
/// column, every other conjunct applied to the concatenated row.
/// Without such a conjunct the key is empty, every pair is a candidate,
/// and this is a nested-loop join.
///
/// Key equality is SQL equality (`sql_cmp`), so `INTEGER 1` joins
/// `DOUBLE 1.0` exactly as the filter `a.i = b.d` accepts the pair, and
/// a NULL key matches nothing.
fn join_rows<'a>(
    db: &'a Database,
    left: &Plan,
    build: &[Cow<'a, Row>],
    conjuncts: &[ScalarExpr],
    sink: Sink<'_, 'a>,
) -> Result<()> {
    let left_arity = left.arity();
    let (mut lkeys, mut rkeys, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    for c in flatten_ands(conjuncts) {
        match equi_key(c, left_arity) {
            Some((l, r)) => {
                lkeys.push(l);
                rkeys.push(r);
            }
            None => residual.push(c),
        }
    }

    let mut index = HashIndex::default();
    for (i, r) in build.iter().enumerate() {
        if let Some(key) = join_key(r, &rkeys) {
            index.insert(index.hash(key), i);
        }
    }
    stream(db, left, &mut |l| {
        let Some(key) = join_key(&l, &lkeys) else {
            return Ok(());
        };
        for &i in index.candidates(index.hash(key)) {
            let r = &build[i];
            let same_key = lkeys
                .iter()
                .zip(&rkeys)
                .all(|(&lk, &rk)| l.get(lk).sql_cmp(r.get(rk)) == Some(Ordering::Equal));
            if !same_key {
                continue;
            }
            let joined = l.concat(r);
            if passes(&residual, &joined)? {
                sink(Cow::Owned(joined))?;
            }
        }
        Ok(())
    })
}

/// `left column = right column` as (left offset, right offset), for a
/// conjunct over the concatenated row.
fn equi_key(conjunct: &ScalarExpr, left_arity: usize) -> Option<(usize, usize)> {
    let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    match (&**left, &**right) {
        (ScalarExpr::Col(a), ScalarExpr::Col(b)) if *a < left_arity && *b >= left_arity => {
            Some((*a, *b - left_arity))
        }
        (ScalarExpr::Col(a), ScalarExpr::Col(b)) if *b < left_arity && *a >= left_arity => {
            Some((*b, *a - left_arity))
        }
        _ => None,
    }
}

/// The row's values at `cols`, or `None` when one of them is NULL.
fn join_key<'r>(row: &'r Row, cols: &'r [usize]) -> Option<impl Iterator<Item = &'r Value>> {
    let key = || cols.iter().map(|&i| row.get(i));
    (!key().any(Value::is_null)).then(key)
}

/// One accumulator per (group, aggregate).
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumDouble(f64, bool),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc, first_numeric_is_int: bool) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if first_numeric_is_int {
                    Acc::SumInt(0, false)
                } else {
                    Acc::SumDouble(0.0, false)
                }
            }
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::SumInt(s, any) => match v {
                Value::Int(i) => {
                    *s = s
                        .checked_add(*i)
                        .ok_or_else(|| Error::Execution("SUM overflow".into()))?;
                    *any = true;
                }
                Value::Double(_) => {
                    // Switch representation.
                    let mut acc = Acc::SumDouble(*s as f64, *any);
                    acc.update(v)?;
                    *self = acc;
                }
                other => return Err(Error::Type(format!("SUM over non-number {other}"))),
            },
            Acc::SumDouble(s, any) => match v.as_f64() {
                Some(d) => {
                    *s += d;
                    *any = true;
                }
                None => return Err(Error::Type(format!("SUM over non-number {v}"))),
            },
            Acc::Avg { sum, n } => match v.as_f64() {
                Some(d) => {
                    *sum += d;
                    *n += 1;
                }
                None => return Err(Error::Type(format!("AVG over non-number {v}"))),
            },
            Acc::Min(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => matches!(
                        v.sql_cmp(c),
                        Some(std::cmp::Ordering::Less)
                    ),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => matches!(v.sql_cmp(c), Some(std::cmp::Ordering::Greater)),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::SumInt(s, any) => {
                if *any {
                    Value::Int(*s)
                } else {
                    Value::Null
                }
            }
            Acc::SumDouble(s, any) => {
                if *any {
                    Value::Double(*s)
                } else {
                    Value::Null
                }
            }
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// One group of an `Aggregate`: its key and its running state.
struct Group {
    key: Vec<Value>,
    accs: Vec<Acc>,
    distinct_seen: Vec<HashSet<Value>>,
}

/// Hash aggregation. Groups sit in a `Vec` in first-seen order (the
/// output order) and are found through a [`HashIndex`], so only the
/// first row of a group turns its key into owned values.
struct Groups<'p> {
    group_by: &'p [ScalarExpr],
    aggs: &'p [AggExpr],
    index: HashIndex,
    groups: Vec<Group>,
}

impl<'p> Groups<'p> {
    fn new(group_by: &'p [ScalarExpr], aggs: &'p [AggExpr]) -> Self {
        Groups {
            group_by,
            aggs,
            index: HashIndex::default(),
            groups: Vec::new(),
        }
    }

    fn open(&mut self, key: Vec<Value>) -> usize {
        self.groups.push(Group {
            key,
            accs: self.aggs.iter().map(|a| Acc::new(a.func, true)).collect(),
            distinct_seen: self.aggs.iter().map(|_| HashSet::new()).collect(),
        });
        self.groups.len() - 1
    }

    fn add(&mut self, row: &Row) -> Result<()> {
        let key = self
            .group_by
            .iter()
            .map(|g| eval_ref(g, row))
            .collect::<Result<Vec<_>>>()?;
        let hash = self.index.hash(key.iter().map(|v| &**v));
        let found = self
            .index
            .candidates(hash)
            .iter()
            .copied()
            .find(|&i| self.groups[i].key.iter().eq(key.iter().map(|v| &**v)));
        let at = match found {
            Some(at) => at,
            None => {
                let at = self.open(key.into_iter().map(Cow::into_owned).collect());
                self.index.insert(hash, at);
                at
            }
        };
        let group = &mut self.groups[at];
        for (i, agg) in self.aggs.iter().enumerate() {
            if agg.func == AggFunc::CountStar {
                group.accs[i].update(&Value::Bool(true))?;
                continue;
            }
            let arg = agg
                .arg
                .as_ref()
                .ok_or_else(|| Error::Internal("aggregate missing argument".into()))?;
            let value = eval_ref(arg, row)?;
            if value.is_null() {
                continue; // aggregates skip NULLs
            }
            if agg.distinct {
                let seen = &mut group.distinct_seen[i];
                if seen.contains(&*value) {
                    continue;
                }
                seen.insert(value.as_ref().clone());
            }
            group.accs[i].update(&value)?;
        }
        Ok(())
    }

    /// One output row per group: the key, then the aggregate values.
    fn finish(mut self) -> impl Iterator<Item = Row> {
        // A global aggregate over an empty input still yields one row.
        if self.group_by.is_empty() && self.groups.is_empty() {
            self.open(Vec::new());
        }
        self.groups.into_iter().map(|g| {
            let mut values = g.key;
            values.extend(g.accs.iter().map(Acc::finish));
            Row(values)
        })
    }
}

fn sort_rows(rows: &mut [Row], keys: &[OrderKey]) {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = a.get(k.col).cmp(b.get(k.col));
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType, Schema};

    /// The paper's running university schema with small data.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.create_table(
            "courses",
            Schema::new(vec![
                Column::new("course_id", DataType::Str),
                Column::new("name", DataType::Str),
            ]),
            Some(vec![Ident::new("course_id")]),
        )
        .unwrap();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db.create_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            None,
        )
        .unwrap();
        let s = Ident::new("students");
        for (id, name, ty) in [
            ("11", "ann", "FullTime"),
            ("12", "bob", "PartTime"),
            ("13", "carol", "FullTime"),
        ] {
            db.insert(&s, Row(vec![id.into(), name.into(), ty.into()]))
                .unwrap();
        }
        let c = Ident::new("courses");
        for (id, name) in [("cs101", "intro"), ("cs202", "systems")] {
            db.insert(&c, Row(vec![id.into(), name.into()])).unwrap();
        }
        let r = Ident::new("registered");
        for (s_, c_) in [("11", "cs101"), ("12", "cs101"), ("13", "cs202"), ("11", "cs202")] {
            db.insert(&r, Row(vec![s_.into(), c_.into()])).unwrap();
        }
        let g = Ident::new("grades");
        for (s_, c_, gr) in [
            ("11", "cs101", Some(90)),
            ("12", "cs101", Some(70)),
            ("11", "cs202", Some(80)),
            ("13", "cs202", None),
        ] {
            db.insert(
                &g,
                Row(vec![
                    s_.into(),
                    c_.into(),
                    gr.map(Value::Int).unwrap_or(Value::Null),
                ]),
            )
            .unwrap();
        }
        db
    }

    fn run(sql: &str) -> QueryResult {
        run_query_sql(&db(), sql, &ParamScope::with_user("11")).unwrap()
    }

    #[test]
    fn scans_and_filters() {
        let r = run("select grade from grades where student_id = '11'");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn parameter_filter() {
        let r = run("select grade from grades where student_id = $user_id");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn joins_hash_path() {
        let r = run(
            "select s.name, g.grade from students s, grades g \
             where s.student_id = g.student_id and g.course_id = 'cs101'",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn join_nested_loop_inequality() {
        let r = run(
            "select a.student_id, b.student_id from registered a, registered b \
             where a.student_id < b.student_id and a.course_id = b.course_id",
        );
        // cs101: 11<12. cs202: 11<13. Two pairs.
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn cross_product() {
        let r = run("select s.name, c.name from students s, courses c");
        assert_eq!(r.rows.len(), 6);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut d = db();
        d.insert(
            &Ident::new("grades"),
            Row(vec![Value::Null, "cs101".into(), Value::Int(50)]),
        )
        .unwrap_err(); // student_id is NOT NULL in grades
        // Put the NULL on a nullable column join instead.
        let r = run_query_sql(
            &d,
            "select g.student_id from grades g, grades h where g.grade = h.grade and g.student_id <> h.student_id",
            &ParamScope::new(),
        )
        .unwrap();
        // Grades 90,70,80,NULL — no equal non-null pairs across students.
        assert_eq!(r.rows.len(), 0);
    }

    #[test]
    fn aggregate_avg_skips_nulls() {
        let r = run("select avg(grade) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Double(80.0));
    }

    #[test]
    fn aggregate_group_by() {
        let r = run("select course_id, count(*) from grades group by course_id order by course_id");
        assert_eq!(
            r.rows,
            vec![
                Row(vec!["cs101".into(), Value::Int(2)]),
                Row(vec!["cs202".into(), Value::Int(2)]),
            ]
        );
    }

    #[test]
    fn count_star_vs_count_col() {
        let r = run("select count(*), count(grade) from grades");
        assert_eq!(r.rows[0], Row(vec![Value::Int(4), Value::Int(3)]));
    }

    #[test]
    fn count_distinct() {
        let r = run("select count(distinct course_id) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Int(2));
    }

    #[test]
    fn empty_global_aggregate_yields_one_row() {
        let r = run("select count(*), avg(grade), min(grade) from grades where student_id = 'zz'");
        assert_eq!(
            r.rows,
            vec![Row(vec![Value::Int(0), Value::Null, Value::Null])]
        );
    }

    #[test]
    fn empty_grouped_aggregate_yields_no_rows() {
        let r = run("select course_id, count(*) from grades where student_id = 'zz' group by course_id");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn distinct_eliminates_duplicates() {
        let r = run("select distinct student_id from grades");
        assert_eq!(r.rows.len(), 3);
        let r = run("select student_id from grades");
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn having_filters_groups() {
        let r = run(
            "select course_id from registered group by course_id having count(*) >= 2 order by course_id",
        );
        assert_eq!(
            r.rows,
            vec![Row(vec!["cs101".into()]), Row(vec!["cs202".into()])]
        );
        let r = run(
            "select course_id from registered group by course_id having count(*) >= 3",
        );
        assert!(r.rows.is_empty());
    }

    #[test]
    fn order_by_and_limit() {
        let r = run("select name from students order by name desc limit 2");
        assert_eq!(
            r.rows,
            vec![Row(vec!["carol".into()]), Row(vec!["bob".into()])]
        );
    }

    #[test]
    fn min_max() {
        let r = run("select min(grade), max(grade) from grades");
        assert_eq!(r.rows[0], Row(vec![Value::Int(70), Value::Int(90)]));
    }

    #[test]
    fn sum_integer_stays_integer() {
        let r = run("select sum(grade) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Int(240));
    }

    #[test]
    fn view_through_binder_executes() {
        let mut d = db();
        d.add_view(fgac_storage::ViewDef {
            name: Ident::new("mygrades"),
            authorization: true,
            query: fgac_sql::parse_query("select * from grades where student_id = $user_id")
                .unwrap(),
        })
        .unwrap();
        let r = run_query_sql(
            &d,
            "select avg(grade) from mygrades",
            &ParamScope::with_user("11"),
        )
        .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Double(85.0));
    }

    #[test]
    fn table_rendering() {
        let r = run("select name from students order by name limit 1");
        let t = r.to_table();
        assert!(t.contains("name"));
        assert!(t.contains("'ann'"));
    }

    #[test]
    fn table_ruler_matches_header_width() {
        let r = QueryResult {
            names: vec![Ident::new("student_id"), Ident::new("final_grade")],
            rows: vec![],
        };
        let table = r.to_table();
        let lines: Vec<&str> = table.lines().collect();
        let header = lines[0];
        assert_eq!(header, "student_id | final_grade");
        // The ruler is exactly as wide as the header — previously it was
        // sized from the accumulated byte length (header + newline).
        assert_eq!(lines[1].chars().count(), header.chars().count());
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn table_ruler_has_minimum_width() {
        let r = QueryResult {
            names: vec![Ident::new("a")],
            rows: vec![],
        };
        let table = r.to_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[1].len(), 8);
    }

    /// `rows_cloned` after running `sql` on the university data.
    fn cloned_by(sql: &str) -> (QueryResult, u64) {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(&d, sql, &ParamScope::new()).unwrap();
        (r, rows_cloned())
    }

    #[test]
    fn select_star_with_filter_clones_exactly_the_result() {
        // grades has 4 rows; the 2 survivors are the answer, so exactly
        // they are cloned — written as `*` or as the full column list.
        for sql in [
            "select * from grades where student_id = '11'",
            "select student_id, course_id, grade from grades where student_id = '11'",
        ] {
            let (r, cloned) = cloned_by(sql);
            assert_eq!(r.rows.len(), 2, "{sql}");
            assert_eq!(cloned, 2, "{sql}");
        }
    }

    #[test]
    fn projection_or_aggregate_over_filtered_scan_clones_nothing() {
        // The filter, the projection, the aggregate, the join build and
        // probe and DISTINCT over a projection all read table rows in
        // place; every output row is built, none is a cloned table row.
        for (sql, rows) in [
            ("select grade from grades where student_id = '11'", 2),
            (
                "select avg(grade), count(*) from grades where student_id = '11'",
                1,
            ),
            (
                "select course_id, count(*) from grades where grade >= 70 group by course_id",
                2,
            ),
            ("select distinct course_id from grades where grade >= 70", 2),
            (
                "select s.name, g.grade from students s, grades g \
                 where s.student_id = g.student_id and g.course_id = 'cs101'",
                2,
            ),
        ] {
            let (r, cloned) = cloned_by(sql);
            assert_eq!(r.rows.len(), rows, "{sql}");
            assert_eq!(cloned, 0, "{sql}");
        }
    }

    #[test]
    fn filtered_unordered_limit_clones_only_the_prefix() {
        let (r, cloned) = cloned_by("select * from grades where grade >= 70 limit 1");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(cloned, 1);
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let (r, cloned) = cloned_by("select distinct * from registered");
        // All 4 registered rows are distinct and are the answer.
        assert_eq!((r.rows.len(), cloned), (4, 4));
        let r = run("select distinct course_id from grades");
        assert_eq!(
            r.rows,
            vec![Row(vec!["cs101".into()]), Row(vec!["cs202".into()])]
        );
    }

    /// Tables `a(i INTEGER)` = {1, 2, NULL} and `b(d DOUBLE)` =
    /// {1.0, 2.5, NULL}.
    fn int_double_db() -> Database {
        let mut d = Database::new();
        d.create_table(
            "a",
            Schema::new(vec![Column::new("i", DataType::Int).nullable()]),
            None,
        )
        .unwrap();
        d.create_table(
            "b",
            Schema::new(vec![Column::new("d", DataType::Double).nullable()]),
            None,
        )
        .unwrap();
        for v in [Value::Int(1), Value::Int(2), Value::Null] {
            d.insert(&Ident::new("a"), Row(vec![v])).unwrap();
        }
        for v in [Value::Double(1.0), Value::Double(2.5), Value::Null] {
            d.insert(&Ident::new("b"), Row(vec![v])).unwrap();
        }
        d
    }

    #[test]
    fn hash_join_matches_numerically_equal_keys_of_different_types() {
        // Regression: INTEGER 1 and DOUBLE 1.0 are neither `==` nor (by
        // `Value`'s own hash) hash-equal, so the hash join on
        // `a.i = b.d` used to return nothing while the nested-loop form
        // of the same predicate returned the pair.
        let d = int_double_db();
        let params = ParamScope::new();
        let hashed = run_query_sql(&d, "select * from a, b where a.i = b.d", &params).unwrap();
        let looped = run_query_sql(
            &d,
            "select * from a, b where a.i <= b.d and a.i >= b.d",
            &params,
        )
        .unwrap();
        assert_eq!(
            hashed.rows,
            vec![Row(vec![Value::Int(1), Value::Double(1.0)])]
        );
        assert_eq!(hashed.rows, looped.rows);
        // The same key with a residual conjunct on the pair.
        let none = run_query_sql(
            &d,
            "select * from a, b where a.i = b.d and a.i + b.d > 2",
            &params,
        )
        .unwrap();
        assert!(none.rows.is_empty());
    }

    #[test]
    fn full_scan_clones_whole_table_once() {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(&d, "select * from grades", &ParamScope::new()).unwrap();
        assert_eq!(r.rows.len(), 4);
        // No projection above the scan: the caller materializes the
        // borrowed slice, exactly |table| clones.
        assert_eq!(rows_cloned(), 4);
    }

    #[test]
    fn unordered_limit_clones_only_prefix() {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(&d, "select * from grades limit 1", &ParamScope::new()).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(rows_cloned(), 1);
    }

    #[test]
    fn borrowed_probe_clones_nothing() {
        let d = db();
        let plan = fgac_algebra::bind_query(
            d.catalog(),
            &fgac_sql::parse_query("select * from grades").unwrap(),
            &ParamScope::new(),
        )
        .unwrap()
        .plan;
        // Normalization elides the identity projection, leaving a bare
        // Scan — the shape the validity checker's emptiness probe sees.
        let plan = crate::pushdown::push_selections(&plan);
        reset_rows_cloned();
        let rows = execute_plan_cow(&d, &plan).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(matches!(rows, Cow::Borrowed(_)));
        assert_eq!(rows_cloned(), 0);
    }
}
