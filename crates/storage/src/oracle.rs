//! Oracle test for the statement journal and the key indexes.
//!
//! Seeded random interleavings of checked and unchecked inserts,
//! updates, deletes, nested savepoints, rollbacks and commits over
//! tables with composite keys, foreign keys (composite, self-referencing,
//! into a bag table, `Int` against `Double`, into and out of a prefix of
//! a composite key), duplicate rows, NULLs and `-0.0` / `0.0` / NaN keys.
//! After every step:
//!
//! * every index equals one rebuilt from its table's rows, and every
//!   equality probe it serves equals a linear filter;
//! * every insert/update verdict equals a linear reference that compares
//!   keys with `Value::eq` row by row;
//! * a rollback restores each table's pre-mark rows, in order;
//! * replaying everything committed into a fresh database reproduces the
//!   live one.

use crate::{Database, DeltaRef, ForeignKey, Mark, TableDelta};
use fgac_types::{Column, DataType, Error, Ident, Result, Row, Schema, Value};
use std::collections::BTreeMap;

const CASES: u64 = 2_000;
const STEPS: usize = 30;
const TABLES: [&str; 5] = ["par", "dbl", "bag", "chd", "enr"];

/// splitmix64: small, seedable, good enough to drive a generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

fn schema() -> Database {
    let col = |n: &str, t| Column::new(n, t);
    let mut db = Database::new();
    db.create_table(
        "par",
        Schema::new(vec![
            col("k1", DataType::Int),
            col("k2", DataType::Str),
            col("v", DataType::Double).nullable(),
        ]),
        Some(vec![Ident::new("k1"), Ident::new("k2")]),
    )
    .unwrap();
    db.create_table(
        "dbl",
        Schema::new(vec![col("x", DataType::Double), col("n", DataType::Int).nullable()]),
        Some(vec![Ident::new("x")]),
    )
    .unwrap();
    db.create_table(
        "bag",
        Schema::new(vec![
            col("c", DataType::Int).nullable(),
            col("s", DataType::Str).nullable(),
        ]),
        None,
    )
    .unwrap();
    db.create_table(
        "chd",
        Schema::new(vec![
            col("id", DataType::Int),
            col("p1", DataType::Int).nullable(),
            col("p2", DataType::Str).nullable(),
            col("f", DataType::Double).nullable(),
            col("g", DataType::Int).nullable(),
            col("h", DataType::Int).nullable(),
            col("b", DataType::Int).nullable(),
        ]),
        Some(vec![Ident::new("id")]),
    )
    .unwrap();
    // Its key's prefix `a` is also a foreign key's child side and
    // another's parent side: both are served by the key's index.
    db.create_table(
        "enr",
        Schema::new(vec![
            col("a", DataType::Int),
            col("k", DataType::Str),
            col("v", DataType::Int).nullable(),
        ]),
        Some(vec![Ident::new("a"), Ident::new("k")]),
    )
    .unwrap();
    let fk = |name: &str, child: &str, cc: &[&str], parent: &str, pc: &[&str]| ForeignKey {
        name: Ident::new(name),
        child_table: Ident::new(child),
        child_columns: cc.iter().map(Ident::new).collect(),
        parent_table: Ident::new(parent),
        parent_columns: pc.iter().map(Ident::new).collect(),
    };
    for f in [
        fk("fk_par", "chd", &["p1", "p2"], "par", &["k1", "k2"]),
        fk("fk_dbl", "chd", &["f"], "dbl", &["x"]),
        // Self-reference: checked against the statement's final state.
        fk("fk_self", "chd", &["g"], "chd", &["id"]),
        // Int child, Double parent: `Value::eq` never matches the two.
        fk("fk_mixed", "chd", &["h"], "dbl", &["x"]),
        // Into a bag: a non-unique index with duplicate keys.
        fk("fk_bag", "chd", &["b"], "bag", &["c"]),
        // Reversed composite: a second index on `par`.
        fk("fk_rev", "bag", &["s", "c"], "par", &["k2", "k1"]),
        fk("fk_enr", "enr", &["a"], "chd", &["id"]),
        fk("fk_enr_self", "enr", &["v"], "enr", &["a"]),
    ] {
        db.add_foreign_key(f).unwrap();
    }
    db
}

fn int(rng: &mut Rng) -> Value {
    Value::Int(rng.below(4) as i64)
}

fn text(rng: &mut Rng) -> Value {
    Value::Str(["a", "b", "c"][rng.below(3)].into())
}

fn double(rng: &mut Rng) -> Value {
    match rng.below(8) {
        0 => Value::Double(0.0),
        1 => Value::Double(-0.0),
        2 => Value::Double(f64::NAN),
        3 => Value::Double(-f64::NAN),
        4 => Value::Double(1.0),
        5 => Value::Double(2.5),
        // Widened to Double(1.0) / Double(0.0) on the way in.
        6 => Value::Int(1),
        _ => Value::Int(0),
    }
}

fn nullable(rng: &mut Rng, v: impl FnOnce(&mut Rng) -> Value) -> Value {
    if rng.chance(25) {
        Value::Null
    } else {
        v(rng)
    }
}

fn random_row(rng: &mut Rng, table: &str) -> Row {
    let mut row = Row(match table {
        "par" => vec![int(rng), text(rng), nullable(rng, double)],
        "dbl" => vec![double(rng), nullable(rng, int)],
        "bag" => vec![nullable(rng, int), nullable(rng, text)],
        "enr" => vec![int(rng), text(rng), nullable(rng, int)],
        _ => vec![
            int(rng),
            nullable(rng, int),
            nullable(rng, text),
            nullable(rng, double),
            nullable(rng, int),
            nullable(rng, int),
            nullable(rng, int),
        ],
    });
    // Now and then a value of the wrong type: the write must fail whole.
    if rng.chance(3) {
        let i = rng.below(row.len());
        row.0[i] = Value::Bool(true);
    }
    row
}

// ---------------- the linear reference ----------------

struct Fk {
    name: Ident,
    child: Ident,
    child_cols: Vec<usize>,
    parent: Ident,
    parent_cols: Vec<usize>,
}

fn fks(db: &Database) -> Vec<Fk> {
    let cols = |t: &Ident, cs: &[Ident]| -> Vec<usize> {
        let meta = db.catalog().table(t).unwrap();
        cs.iter().map(|c| meta.schema.index_of(c).unwrap()).collect()
    };
    db.catalog()
        .foreign_keys()
        .iter()
        .map(|fk| Fk {
            name: fk.name.clone(),
            child: fk.child_table.clone(),
            child_cols: cols(&fk.child_table, &fk.child_columns),
            parent: fk.parent_table.clone(),
            parent_cols: cols(&fk.parent_table, &fk.parent_columns),
        })
        .collect()
}

fn pk_cols(db: &Database, t: &Ident) -> Option<Vec<usize>> {
    let meta = db.catalog().table(t).unwrap();
    meta.primary_key
        .as_ref()
        .map(|pk| pk.iter().map(|c| meta.schema.index_of(c).unwrap()).collect())
}

/// The reference key lookup: a linear scan comparing with `Value::eq`.
fn contains_key(rows: &[Row], cols: &[usize], key: &[Value], except: Option<usize>) -> bool {
    rows.iter()
        .enumerate()
        .any(|(i, r)| Some(i) != except && cols.iter().zip(key).all(|(&c, v)| r.get(c) == v))
}

fn project(row: &Row, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row.get(c).clone()).collect()
}

fn fk_verdict(fk: &Fk, row: &Row, parent_rows: &[Row]) -> Result<()> {
    let key = project(row, &fk.child_cols);
    if key.iter().any(Value::is_null) || contains_key(parent_rows, &fk.parent_cols, &key, None) {
        return Ok(());
    }
    Err(Error::Constraint(format!(
        "foreign key {}: value {key:?} not present in {}",
        fk.name, fk.parent
    )))
}

fn rows_of(db: &Database, t: &Ident) -> Vec<Row> {
    db.table(t).unwrap().rows().to_vec()
}

/// What a checked insert must answer.
fn insert_verdict(db: &Database, t: &Ident, row: &Row) -> Result<()> {
    let row = db.table(t).unwrap().prepare(row.clone())?;
    if let Some(pk) = pk_cols(db, t) {
        let key = project(&row, &pk);
        if contains_key(&rows_of(db, t), &pk, &key, None) {
            return Err(Error::Constraint(format!("duplicate primary key {key:?} in {t}")));
        }
    }
    for fk in fks(db).iter().filter(|fk| &fk.child == t) {
        fk_verdict(fk, &row, &rows_of(db, &fk.parent))?;
    }
    Ok(())
}

/// What a checked update must answer, and the rows it must leave.
fn update_verdict(db: &Database, t: &Ident, updates: &[(usize, Row)]) -> Result<Vec<Row>> {
    let table = db.table(t).unwrap();
    let mut rows = table.rows().to_vec();
    let mut steps = Vec::new();
    for (i, new) in updates {
        if *i >= rows.len() {
            return Err(Error::Execution(format!(
                "row index {i} out of bounds in {t} ({} rows)",
                rows.len()
            )));
        }
        steps.push((*i, table.prepare(new.clone())?));
    }
    let mut olds = Vec::new();
    for (i, new) in &steps {
        olds.push(std::mem::replace(&mut rows[*i], new.clone()));
    }
    let changed =
        |old: &Row, new: &Row, cols: &[usize]| cols.iter().any(|&c| old.get(c) != new.get(c));
    for ((pos, new), old) in steps.iter().zip(&olds) {
        let row = &rows[*pos];
        if let Some(pk) = pk_cols(db, t) {
            let key = project(row, &pk);
            if changed(old, new, &pk) && contains_key(&rows, &pk, &key, Some(*pos)) {
                return Err(Error::Constraint(format!("duplicate primary key {key:?} in {t}")));
            }
        }
        for fk in fks(db).iter().filter(|fk| &fk.child == t) {
            if changed(old, new, &fk.child_cols) {
                let parent = if &fk.parent == t { rows.clone() } else { rows_of(db, &fk.parent) };
                fk_verdict(fk, row, &parent)?;
            }
        }
    }
    Ok(rows)
}

// ---------------- the run ----------------

type State = BTreeMap<&'static str, Vec<Row>>;

fn state(db: &Database) -> State {
    TABLES.iter().map(|&t| (t, rows_of(db, &Ident::new(t)))).collect()
}

fn assert_indexes(db: &Database, ctx: &str) {
    let probes = [
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(1.0),
        Value::Double(f64::NAN),
        Value::Str("a".into()),
        Value::Str("c".into()),
    ];
    for t in TABLES {
        let table = db.table(&Ident::new(t)).unwrap();
        let drift = table.index_drift();
        assert!(drift.is_empty(), "{ctx}: index on {t} drifted from its rows: {drift:?}");
        for (c, v) in (0..table.schema().len()).flat_map(|c| probes.iter().map(move |v| (c, v))) {
            if let Some(got) = table.positions_eq(c, v) {
                let want: Vec<usize> =
                    (0..table.len()).filter(|&i| table.rows()[i].get(c) == v).collect();
                assert_eq!(got, want, "{ctx}: {t} column {c} = {v:?}");
            }
        }
    }
}

fn assert_replays(db: &Database, committed: &[TableDelta], ctx: &str) {
    let mut fresh = schema();
    fresh.apply_deltas(committed.iter().cloned()).unwrap();
    fresh.commit();
    assert_eq!(state(&fresh), state(db), "{ctx}: replay differs from the live database");
    assert_indexes(&fresh, ctx);
}

/// Commits, keeping the statement's redo for the replay check.
fn commit(db: &mut Database, committed: &mut Vec<TableDelta>) {
    committed.extend(db.pending(Mark(0)).map(DeltaRef::to_delta));
    db.commit();
}

fn run_case(seed: u64) {
    let mut rng = Rng(seed);
    let mut db = schema();
    let mut marks: Vec<(Mark, State)> = Vec::new();
    let mut committed: Vec<TableDelta> = Vec::new();
    for step in 0..STEPS {
        let ctx = format!("seed {seed} step {step}");
        let t = Ident::new(TABLES[rng.below(TABLES.len())]);
        let len = db.table(&t).unwrap().len();
        match rng.below(100) {
            0..=34 => {
                let row = random_row(&mut rng, t.as_str());
                let expect = insert_verdict(&db, &t, &row);
                let before = rows_of(&db, &t);
                let got = db.insert(&t, row);
                assert_eq!(got, expect, "{ctx}: insert into {t}");
                if got.is_err() {
                    assert_eq!(rows_of(&db, &t), before, "{ctx}: failed insert left rows");
                }
            }
            35..=44 => {
                let row = random_row(&mut rng, t.as_str());
                let ok = db.table(&t).unwrap().check_row(&row).is_ok();
                assert_eq!(db.load(&t, [row]).is_ok(), ok, "{ctx}");
            }
            45..=69 => {
                let n = rng.below(4);
                let updates: Vec<(usize, Row)> = (0..n)
                    .map(|_| {
                        // Mostly in bounds; now and then one past the end.
                        let i = rng.below(len + 1 + usize::from(len == 0));
                        let mut new = match db.table(&t).unwrap().rows().get(i) {
                            Some(r) if rng.chance(70) => r.clone(),
                            _ => random_row(&mut rng, t.as_str()),
                        };
                        let fresh = random_row(&mut rng, t.as_str());
                        let c = rng.below(new.len());
                        new.0[c] = fresh.0[c].clone();
                        (i, new)
                    })
                    .collect();
                let expect = update_verdict(&db, &t, &updates);
                let before = rows_of(&db, &t);
                let got = db.apply_row_updates(&t, updates.clone());
                match expect {
                    Ok(rows) => {
                        assert_eq!(got, Ok(updates.len()), "{ctx}: update of {t}");
                        assert_eq!(rows_of(&db, &t), rows, "{ctx}: updated rows");
                    }
                    Err(e) => {
                        assert_eq!(got, Err(e), "{ctx}: update of {t}");
                        assert_eq!(rows_of(&db, &t), before, "{ctx}: failed update left rows");
                    }
                }
            }
            70..=84 => {
                let k = rng.below(4);
                let victims: Vec<usize> = (0..k).map(|_| rng.below(len + 2)).collect();
                let mut keep = rows_of(&db, &t);
                let mut gone: Vec<usize> = victims.iter().copied().filter(|&v| v < len).collect();
                gone.sort_unstable();
                gone.dedup();
                for &v in gone.iter().rev() {
                    keep.remove(v);
                }
                assert_eq!(db.delete_at(&t, &victims), Ok(gone.len()), "{ctx}");
                assert_eq!(rows_of(&db, &t), keep, "{ctx}: delete of {victims:?}");
            }
            85..=91 => marks.push((db.mark(), state(&db))),
            92..=96 => {
                if !marks.is_empty() {
                    let (m, pre) = marks.swap_remove(rng.below(marks.len()));
                    // Marks taken after `m` die with the entries they name.
                    marks.retain(|(later, _)| *later < m);
                    db.rollback_to(m);
                    assert_eq!(state(&db), pre, "{ctx}: rollback to {m:?}");
                }
            }
            _ => {
                commit(&mut db, &mut committed);
                marks.clear();
                assert_replays(&db, &committed, &ctx);
            }
        }
        assert_indexes(&db, &ctx);
    }
    commit(&mut db, &mut committed);
    assert_replays(&db, &committed, &format!("seed {seed} end"));
}

#[test]
fn journal_and_indexes_match_the_linear_reference() {
    for seed in 0..CASES {
        run_case(seed);
    }
}

#[test]
fn the_index_check_notices_a_stale_position() {
    let mut db = schema();
    let t = Ident::new("dbl");
    db.insert(&t, Row(vec![Value::Double(1.0), Value::Null])).unwrap();
    assert_indexes(&db, "before");
    db.tables_mut_for_test(&t).corrupt_index();
    let caught = std::panic::catch_unwind(|| assert_indexes(&db, "after"));
    assert!(caught.is_err(), "a corrupted index must be reported");
}

#[test]
fn a_panic_mid_statement_rebuilds_the_indexes() {
    let mut db = schema();
    let t = Ident::new("chd");
    let m = db.mark();
    let mut row = vec![Value::Null; 7];
    row[0] = Value::Int(1);
    db.insert(&t, Row(row)).unwrap();
    // Stand-in for a write torn by a panic: the index no longer matches.
    db.tables_mut_for_test(&t).corrupt_index();
    db.rollback_after_panic(m);
    assert!(db.table(&t).unwrap().is_empty());
    assert_indexes(&db, "after the panic rollback");
}
