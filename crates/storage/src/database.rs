//! The database: catalog + table data, key enforcement, and the
//! statement journal.
//!
//! ## The journal
//!
//! Every row write goes through one of three positional primitives —
//! [`Database::insert`] (and its unchecked bulk twin [`Database::load`]),
//! [`Database::apply_row_updates`]
//! and [`Database::delete_at`] — and each is journaled with its redo
//! (the [`TableDelta`]s to log) and its undo image (see [`crate::delta`]).
//! A statement brackets its writes:
//!
//! ```text
//! let m = db.mark();          // savepoint: O(1)
//! ... primitives ...          // each journals, then maintains indexes
//! db.rollback_to(m);          // failure: invert entries after m, newest first
//! db.pending(m)               // success: the redo, borrowed (what a WAL logs)
//! db.removed(m)               //   and the rows it took out (undo images)
//! db.commit();                // then drop the journal
//! ```
//!
//! Marks nest (a multi-row insert takes an inner one). Within a
//! primitive the row write is journaled *before* the key indexes are
//! touched, so a panic can only strike between a journaled row write and
//! its index write; [`Database::rollback_after_panic`] restores the rows
//! from the journal and rebuilds those tables' indexes from the rows.
//!
//! ## The index set
//!
//! A table's ordered key indexes (see [`crate::index`]) cover every
//! declared key column list it takes part in: its primary key, each
//! list a foreign key references in it, and each foreign key's own
//! (child) columns. A list that is a proper prefix of another is served
//! by the longer one and gets no index of its own, so `grades(student_id,
//! course_id)` answers both its key check and `student_id = …`.

use crate::catalog::{Catalog, TableMeta, ViewDef};
use crate::constraint::{ForeignKey, InclusionDependency};
use crate::delta::{DeltaRef, Entry, Mark, TableDelta};
use crate::table::Table;
use fgac_types::{Error, Ident, Result, Row, Schema, Value};
use std::collections::BTreeMap;

/// An in-memory database: a [`Catalog`] plus the stored rows of every
/// base table. Primary-key uniqueness and foreign-key existence are
/// enforced on every checked insert and every update, through the
/// ordered key indexes (see the module docs); deletes do not cascade and
/// are not checked (a parent-key update is not either), so dangling references are
/// possible and can be audited with `fgac_exec::audit_inclusion`.
/// Declared inclusion dependencies are *assumed* (they describe the
/// legal database states the inference rules reason over).
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    tables: BTreeMap<Ident, Table>,
    /// The catalog's foreign keys, in declaration order, with column
    /// positions resolved when they were declared.
    fks: Vec<FkCheck>,
    /// Entries since the last commit (see the module docs).
    journal: Vec<Entry>,
    /// Journal length at the newest mark: an append never joins an
    /// entry below it, so a rollback to that mark undoes it whole.
    seal: usize,
}

/// A foreign key with its column positions resolved.
#[derive(Debug, Clone)]
struct FkCheck {
    name: Ident,
    child: Ident,
    child_cols: Box<[usize]>,
    parent: Ident,
    parent_cols: Box<[usize]>,
}

fn unknown(table: &Ident) -> Error {
    Error::Bind(format!("unknown table {table}"))
}

fn positions(schema: &Schema, table: &Ident, cols: &[Ident]) -> Result<Box<[usize]>> {
    cols.iter()
        .map(|c| {
            schema
                .index_of(c)
                .ok_or_else(|| Error::Catalog(format!("column {c} not in {table}")))
        })
        .collect()
}

fn key_values(row: &Row, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row.get(c).clone()).collect()
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Creates a base table.
    pub fn create_table(
        &mut self,
        name: impl Into<Ident>,
        schema: Schema,
        primary_key: Option<Vec<Ident>>,
    ) -> Result<()> {
        let name = name.into();
        let pk = primary_key
            .as_deref()
            .map(|cols| positions(&schema, &name, cols))
            .transpose()?;
        self.catalog
            .add_table(name.clone(), schema.clone(), primary_key)?;
        self.tables
            .insert(name.clone(), Table::new(name, schema, pk));
        self.refresh_indexes();
        Ok(())
    }

    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let schema = |t: &Ident| self.catalog.table_required(t).map(|m| &m.schema);
        let check = FkCheck {
            name: fk.name.clone(),
            child: fk.child_table.clone(),
            child_cols: positions(schema(&fk.child_table)?, &fk.child_table, &fk.child_columns)?,
            parent: fk.parent_table.clone(),
            parent_cols: positions(
                schema(&fk.parent_table)?,
                &fk.parent_table,
                &fk.parent_columns,
            )?,
        };
        self.catalog.add_foreign_key(fk)?;
        self.fks.push(check);
        self.refresh_indexes();
        Ok(())
    }

    pub fn add_inclusion_dependency(&mut self, dep: InclusionDependency) -> Result<()> {
        self.catalog.add_inclusion_dependency(dep)
    }

    pub fn add_view(&mut self, view: ViewDef) -> Result<()> {
        self.catalog.add_view(view)
    }

    /// Gives every table its index set (see the module docs): one index
    /// per declared key column list, except a proper prefix of another.
    fn refresh_indexes(&mut self) {
        for (name, t) in self.tables.iter_mut() {
            let mut lists: Vec<&[usize]> = t.pk().into_iter().collect();
            for fk in &self.fks {
                if &fk.parent == name {
                    lists.push(&fk.parent_cols);
                }
                if &fk.child == name {
                    lists.push(&fk.child_cols);
                }
            }
            let mut keys: Vec<Box<[usize]>> = Vec::new();
            for &k in &lists {
                let covered = lists.iter().any(|l| l.len() > k.len() && l.starts_with(k));
                if !covered && !keys.iter().any(|c| **c == *k) {
                    keys.push(k.into());
                }
            }
            t.set_keys(&keys);
        }
    }

    pub fn table(&self, name: &Ident) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn table_required(&self, name: &Ident) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| unknown(name))
    }

    pub fn table_meta(&self, name: &Ident) -> Option<&TableMeta> {
        self.catalog.table(name)
    }

    // ---------------- the three positional primitives ----------------

    /// Inserts a row, enforcing primary-key uniqueness and foreign-key
    /// existence on its stored (type-widened) form.
    pub fn insert(&mut self, table: &Ident, row: Row) -> Result<()> {
        let row = self.table_required(table)?.prepare(row)?;
        self.check_pk_free(table, &row)?;
        self.fks
            .iter()
            .filter(|fk| &fk.child == table)
            .try_for_each(|fk| self.check_fk(fk, &row))?;
        let t = self.tables.get_mut(table).ok_or_else(|| unknown(table))?;
        let from = t.len();
        t.push(row)?;
        self.appended(table, from).map(drop)
    }

    /// Appends rows without key checks — bulk loading and replay — and
    /// returns how many. The rows are appended and journaled first, then
    /// each index takes them in one sort and merge. A row that fails its
    /// type check stops the load with its error; the rows before it stay
    /// (journaled) for the caller to keep or roll back.
    pub fn load(&mut self, table: &Ident, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let t = self.tables.get_mut(table).ok_or_else(|| unknown(table))?;
        let rows = rows.into_iter();
        t.reserve(rows.size_hint().0);
        let from = t.len();
        let stopped = rows
            .map(|row| t.prepare(row).and_then(|row| t.push(row)))
            .find_map(Result::err);
        let n = self.appended(table, from)?;
        stopped.map_or(Ok(n), Err)
    }

    /// Journals the rows appended to `table` from position `from` on,
    /// then indexes them, and returns how many there are.
    fn appended(&mut self, table: &Ident, from: usize) -> Result<usize> {
        let t = self.tables.get_mut(table).ok_or_else(|| unknown(table))?;
        let n = t.len() - from;
        if n == 0 {
            return Ok(0);
        }
        let open = self.journal.len() > self.seal;
        match self.journal.last_mut() {
            Some(Entry::Append {
                table: last,
                from: start,
                count,
                copy: None,
            }) if open && last == table && *start + *count == from => *count += n,
            _ => self.journal.push(Entry::Append {
                table: table.clone(),
                from,
                count: n,
                copy: None,
            }),
        }
        // Between the (journaled) row write and the index write.
        #[cfg(feature = "fault-injection")]
        if let Err(e) = fgac_types::faults::hit("storage::insert") {
            // Take back just these rows; they were never indexed.
            if let Some(Entry::Append { count, .. }) = self.journal.last_mut() {
                *count -= n;
                if *count == 0 {
                    self.journal.pop();
                }
            }
            t.undo_append(from, false);
            return Err(e);
        }
        t.index_from(from);
        Ok(n)
    }

    /// Copies out the rows this statement appended to `table` that the
    /// redo still reads in place: a write is about to change the table.
    fn pin_appends(&mut self, table: &Ident) {
        let Some(t) = self.tables.get(table) else {
            return;
        };
        for entry in &mut self.journal {
            if let Entry::Append {
                table: at,
                from,
                count,
                copy: copy @ None,
            } = entry
            {
                if at == table {
                    *copy = Some(t.rows().get(*from..*from + *count).unwrap_or_default().to_vec());
                }
            }
        }
    }

    fn check_pk_free(&self, table: &Ident, row: &Row) -> Result<()> {
        let t = self.table_required(table)?;
        match t.pk() {
            Some(pk) if t.holds_key(pk, row, pk, None)? => Err(Error::Constraint(format!(
                "duplicate primary key {:?} in {table}",
                key_values(row, pk)
            ))),
            _ => Ok(()),
        }
    }

    fn check_fk(&self, fk: &FkCheck, row: &Row) -> Result<()> {
        // NULL foreign keys reference nothing (SQL semantics).
        if fk.child_cols.iter().any(|&c| row.get(c).is_null()) {
            return Ok(());
        }
        let parent = self.table_required(&fk.parent)?;
        if parent.holds_key(&fk.parent_cols, row, &fk.child_cols, None)? {
            return Ok(());
        }
        Err(Error::Constraint(format!(
            "foreign key {}: value {:?} not present in {}",
            fk.name,
            key_values(row, &fk.child_cols),
            fk.parent
        )))
    }

    /// Replaces row `i` of `table` for each `(i, row)` pair, all or
    /// nothing: every replacement type-checks before any is applied, and
    /// the statement's *final* state must keep the primary key unique
    /// and every changed foreign key resolvable (so two rows may swap
    /// keys). Violations report the same errors as [`Database::insert`].
    pub fn apply_row_updates(
        &mut self,
        table: &Ident,
        updates: Vec<(usize, Row)>,
    ) -> Result<usize> {
        let mark = self.mark();
        let n = self.write_updates(table, updates)?;
        if let Err(e) = self.check_update(table, mark) {
            self.rollback_to(mark);
            return Err(e);
        }
        Ok(n)
    }

    fn write_updates(&mut self, table: &Ident, updates: Vec<(usize, Row)>) -> Result<usize> {
        self.pin_appends(table);
        let t = self.tables.get_mut(table).ok_or_else(|| unknown(table))?;
        let mut checked = Vec::with_capacity(updates.len());
        for (i, new) in updates {
            if i >= t.len() {
                return Err(Error::Execution(format!(
                    "row index {i} out of bounds in {table} ({} rows)",
                    t.len()
                )));
            }
            checked.push((i, t.prepare(new)?));
        }
        let n = checked.len();
        let old: Vec<Row> = checked
            .iter()
            .map(|(i, new)| t.replace(*i, new.clone()))
            .collect();
        self.journal.push(Entry::Update {
            table: table.clone(),
            updates: checked,
            old,
        });
        if let Some(Entry::Update { updates, old, .. }) = self.journal.last() {
            t.reindex(updates.iter().map(|(pos, _)| *pos).zip(old));
        }
        Ok(n)
    }

    /// Key checks for the update journaled at `mark`, against the
    /// table's final state. Only keys the update changed are checked.
    fn check_update(&self, table: &Ident, mark: Mark) -> Result<()> {
        let Some(Entry::Update { updates, old, .. }) = self.journal.get(mark.0) else {
            return Ok(());
        };
        let t = self.table_required(table)?;
        for ((pos, new), old) in updates.iter().zip(old) {
            let changed = |cols: &[usize]| cols.iter().any(|&c| old.get(c) != new.get(c));
            let Some(row) = t.rows().get(*pos) else {
                continue;
            };
            if let Some(pk) = t.pk() {
                if changed(pk) && t.holds_key(pk, row, pk, Some(*pos))? {
                    return Err(Error::Constraint(format!(
                        "duplicate primary key {:?} in {table}",
                        key_values(row, pk)
                    )));
                }
            }
            for fk in self.fks.iter().filter(|fk| &fk.child == table) {
                if changed(&fk.child_cols) {
                    self.check_fk(fk, row)?;
                }
            }
        }
        Ok(())
    }

    /// Removes the rows of `table` at the given positions (any order;
    /// duplicates and out-of-range positions ignored); returns how many
    /// were removed. Unchecked: deletes do not cascade.
    pub fn delete_at(&mut self, table: &Ident, indexes: &[usize]) -> Result<usize> {
        self.pin_appends(table);
        let t = self.tables.get_mut(table).ok_or_else(|| unknown(table))?;
        let mut victims: Vec<usize> = indexes.iter().copied().filter(|&i| i < t.len()).collect();
        victims.sort_unstable();
        victims.dedup();
        let removed = t.remove_rows(&victims);
        self.journal.push(Entry::Delete {
            table: table.clone(),
            indexes: indexes.to_vec(),
            removed,
        });
        if let Some(Entry::Delete { removed, .. }) = self.journal.last() {
            t.index_after_delete(removed);
        }
        Ok(victims.len())
    }

    /// Re-applies logged deltas during recovery through the same
    /// primitives; a run of inserts into one table is one
    /// [`Database::load`]. Key checks are skipped (the deltas committed
    /// once); the writes are journaled, so the caller commits per record.
    pub fn apply_deltas(&mut self, deltas: impl IntoIterator<Item = TableDelta>) -> Result<()> {
        let mut deltas = deltas.into_iter().peekable();
        while let Some(delta) = deltas.next() {
            match delta {
                TableDelta::Insert { table, row } => {
                    let run = std::iter::from_fn(|| {
                        match deltas.next_if(
                            |d| matches!(d, TableDelta::Insert { table: t, .. } if *t == table),
                        ) {
                            Some(TableDelta::Insert { row, .. }) => Some(row),
                            _ => None,
                        }
                    });
                    self.load(&table, std::iter::once(row).chain(run))?;
                }
                TableDelta::Update { table, updates } => {
                    self.write_updates(&table, updates)?;
                }
                TableDelta::Delete { table, indexes } => {
                    self.delete_at(&table, &indexes)?;
                }
            }
        }
        Ok(())
    }

    // ---------------- savepoints ----------------

    /// A savepoint at the journal's current end.
    pub fn mark(&mut self) -> Mark {
        self.seal = self.journal.len();
        Mark(self.seal)
    }

    /// Undoes every write journaled after `mark`, newest first, and
    /// keeps the indexes in step. A mark past the journal's end (one
    /// taken before a commit) undoes nothing.
    pub fn rollback_to(&mut self, mark: Mark) {
        while self.journal.len() > mark.0 {
            let Some(entry) = self.journal.pop() else {
                break;
            };
            self.undo(entry, true);
        }
        self.seal = self.seal.min(mark.0);
    }

    /// [`Database::rollback_to`] for a statement a panic unwound out of:
    /// the rows are restored from the journal alone, then every touched
    /// table's indexes are rebuilt from its rows — the panic may have
    /// struck between a row write and its index write.
    pub fn rollback_after_panic(&mut self, mark: Mark) {
        let mut touched: Vec<Ident> = Vec::new();
        while self.journal.len() > mark.0 {
            let Some(entry) = self.journal.pop() else {
                break;
            };
            if !touched.contains(entry.table()) {
                touched.push(entry.table().clone());
            }
            self.undo(entry, false);
        }
        self.seal = self.seal.min(mark.0);
        for name in &touched {
            if let Some(t) = self.tables.get_mut(name) {
                t.rebuild_indexes();
            }
        }
    }

    fn undo(&mut self, entry: Entry, reindex: bool) {
        let Some(t) = self.tables.get_mut(entry.table()) else {
            return;
        };
        match entry {
            Entry::Append { from, .. } => t.undo_append(from, reindex),
            Entry::Update { updates, old, .. } => t.undo_update(&updates, old, reindex),
            Entry::Delete { removed, .. } => t.undo_delete(removed, reindex),
        }
    }

    /// The redo of every write journaled after `since`, in order and
    /// borrowed — what a durable engine logs *before* it commits, so
    /// that a failed append can still roll the statement back.
    pub fn pending(&self, since: Mark) -> impl Iterator<Item = DeltaRef<'_>> + '_ {
        self.journal
            .get(since.0..)
            .unwrap_or_default()
            .iter()
            .flat_map(move |entry| {
                let (appended, other) = match entry {
                    Entry::Append {
                        copy: Some(rows), ..
                    } => (&rows[..], None),
                    // The rows are in place: `pin_appends` copies them
                    // out before anything could move or change them.
                    Entry::Append {
                        table, from, count, ..
                    } => (
                        self.tables
                            .get(table)
                            .and_then(|t| t.rows().get(*from..*from + *count))
                            .unwrap_or_default(),
                        None,
                    ),
                    Entry::Update { table, updates, .. } => {
                        (&[][..], Some(DeltaRef::Update { table, updates }))
                    }
                    Entry::Delete { table, indexes, .. } => {
                        (&[][..], Some(DeltaRef::Delete { table, indexes }))
                    }
                };
                let table = entry.table();
                appended
                    .iter()
                    .map(move |row| DeltaRef::Insert { table, row })
                    .chain(other)
            })
    }

    /// Every row a write journaled after `since` took out of its table,
    /// with that table: the old image of each updated row and each
    /// deleted row, borrowed from the undo images. A row appended and
    /// then removed in the same statement is lent too.
    pub fn removed(&self, since: Mark) -> impl Iterator<Item = (&Ident, &Row)> + '_ {
        self.journal
            .get(since.0..)
            .unwrap_or_default()
            .iter()
            .flat_map(|entry| {
                let (old, removed): (&[Row], &[(usize, Row)]) = match entry {
                    Entry::Append { .. } => (&[], &[]),
                    Entry::Update { old, .. } => (old, &[]),
                    Entry::Delete { removed, .. } => (&[], removed),
                };
                let table = entry.table();
                old.iter()
                    .chain(removed.iter().map(|(_, row)| row))
                    .map(move |row| (table, row))
            })
    }

    /// Ends the statement: drops the journal, undo images included.
    /// Every outstanding mark becomes a no-op.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.seal = 0;
    }

    // ---------------- DDL undo ----------------

    /// Removes a base table (data and catalog entry). Used to undo a
    /// `CREATE TABLE` whose WAL append failed — not exposed as SQL.
    pub fn drop_table(&mut self, name: &Ident) -> Result<()> {
        if self.tables.remove(name).is_none() {
            return Err(unknown(name));
        }
        self.catalog.remove_table(name);
        self.refresh_indexes();
        Ok(())
    }

    /// Removes a view definition. Undo-only, like [`Database::drop_table`].
    pub fn drop_view(&mut self, name: &Ident) -> Result<()> {
        if self.catalog.remove_view(name).is_none() {
            return Err(Error::Bind(format!("unknown view {name}")));
        }
        Ok(())
    }

    /// Drops foreign keys declared after the first `len`. Undo-only.
    pub fn truncate_foreign_keys(&mut self, len: usize) {
        self.catalog.truncate_foreign_keys(len);
        self.fks.truncate(len);
        self.refresh_indexes();
    }

    /// Drops inclusion dependencies declared after the first `len`.
    /// Undo-only.
    pub fn truncate_inclusion_dependencies(&mut self, len: usize) {
        self.catalog.truncate_inclusion_dependencies(len);
    }

    // ---------------- accounting ----------------

    /// Bytes held by every table's key indexes.
    pub fn index_bytes(&self) -> usize {
        self.tables.values().map(Table::index_bytes).sum()
    }

    #[cfg(test)]
    pub(crate) fn tables_mut_for_test(&mut self, name: &Ident) -> &mut Table {
        self.tables.get_mut(name).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
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
        db.add_foreign_key(ForeignKey {
            name: Ident::new("fk_reg_student"),
            child_table: Ident::new("registered"),
            child_columns: vec![Ident::new("student_id")],
            parent_table: Ident::new("students"),
            parent_columns: vec![Ident::new("student_id")],
        })
        .unwrap();
        db
    }

    fn rows(d: &Database, t: &str) -> Vec<Row> {
        d.table(&Ident::new(t)).unwrap().rows().to_vec()
    }

    fn student(id: &str, name: &str) -> Row {
        Row(vec![id.into(), name.into()])
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut d = db();
        let t = Ident::new("students");
        d.insert(&t, student("11", "ann")).unwrap();
        let err = d.insert(&t, student("11", "bob"));
        assert!(matches!(err, Err(Error::Constraint(_))));
    }

    #[test]
    fn fk_existence_enforced() {
        let mut d = db();
        let s = Ident::new("students");
        let r = Ident::new("registered");
        let err = d.insert(&r, Row(vec!["11".into(), "cs101".into()]));
        assert!(matches!(err, Err(Error::Constraint(_))));
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&r, Row(vec!["11".into(), "cs101".into()])).unwrap();
    }

    #[test]
    fn update_cannot_duplicate_a_primary_key() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&s, student("12", "bob")).unwrap();
        let before = rows(&d, "students");
        let err = d
            .apply_row_updates(&s, vec![(0, student("12", "ann"))])
            .unwrap_err();
        assert_eq!(
            err,
            Error::Constraint(r#"duplicate primary key [Str("12")] in students"#.into())
        );
        assert_eq!(rows(&d, "students"), before, "all or nothing");
        // The index still answers for both keys.
        assert!(d.insert(&s, student("11", "x")).is_err());
        assert!(d.insert(&s, student("12", "x")).is_err());
    }

    #[test]
    fn update_may_swap_keys() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&s, student("12", "bob")).unwrap();
        let n = d
            .apply_row_updates(&s, vec![(0, student("12", "ann")), (1, student("11", "bob"))])
            .unwrap();
        assert_eq!(n, 2);
        assert!(d.insert(&s, student("12", "x")).is_err());
        assert!(d.insert(&s, student("13", "x")).is_ok());
    }

    #[test]
    fn update_cannot_dangle_a_foreign_key() {
        let mut d = db();
        let (s, r) = (Ident::new("students"), Ident::new("registered"));
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&r, Row(vec!["11".into(), "cs101".into()])).unwrap();
        let err = d
            .apply_row_updates(&r, vec![(0, Row(vec!["99".into(), "cs101".into()]))])
            .unwrap_err();
        assert_eq!(
            err,
            Error::Constraint(
                r#"foreign key fk_reg_student: value [Str("99")] not present in students"#.into()
            )
        );
        assert_eq!(rows(&d, "registered")[0].get(0), &Value::Str("11".into()));
        // A change to a non-key column is not checked at all.
        d.apply_row_updates(&r, vec![(0, Row(vec!["11".into(), "cs102".into()]))])
            .unwrap();
    }

    #[test]
    fn parent_key_updates_and_deletes_stay_unchecked() {
        let mut d = db();
        let (s, r) = (Ident::new("students"), Ident::new("registered"));
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&r, Row(vec!["11".into(), "cs101".into()])).unwrap();
        d.apply_row_updates(&s, vec![(0, student("12", "ann"))]).unwrap();
        assert_eq!(d.delete_at(&s, &[0]).unwrap(), 1);
        assert_eq!(rows(&d, "registered").len(), 1, "no cascade");
    }

    #[test]
    fn rollback_restores_rows_and_indexes() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&s, student("12", "bob")).unwrap();
        d.commit();
        let before = rows(&d, "students");
        let m = d.mark();
        d.insert(&s, student("13", "cy")).unwrap();
        d.apply_row_updates(&s, vec![(0, student("14", "ann"))]).unwrap();
        d.delete_at(&s, &[1, 1, 9]).unwrap();
        assert_eq!(d.pending(m).count(), 3);
        d.rollback_to(m);
        assert_eq!(rows(&d, "students"), before);
        assert!(d.table(&s).unwrap().index_drift().is_empty());
        assert!(d.insert(&s, student("11", "x")).is_err());
        assert!(d.insert(&s, student("13", "x")).is_ok());
    }

    #[test]
    fn pending_yields_the_redo_in_order() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&s, student("12", "bob")).unwrap();
        d.delete_at(&s, &[0, 5]).unwrap();
        let redo: Vec<TableDelta> = d.pending(Mark(0)).map(DeltaRef::to_delta).collect();
        let insert = |row| TableDelta::Insert {
            table: s.clone(),
            row,
        };
        assert_eq!(
            redo,
            vec![
                // Copied out of the table before the delete moved them.
                insert(student("11", "ann")),
                insert(student("12", "bob")),
                TableDelta::Delete {
                    table: s.clone(),
                    indexes: vec![0, 5]
                },
            ]
        );
        d.commit();
        assert_eq!(d.pending(Mark(0)).count(), 0);
    }

    #[test]
    fn removed_lends_old_images_and_deleted_rows_since_the_mark() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, student("10", "zed")).unwrap();
        d.insert(&s, student("11", "ann")).unwrap();
        d.commit();
        let m = d.mark();
        d.insert(&s, student("12", "bob")).unwrap();
        d.apply_row_updates(&s, vec![(0, student("10", "zoe"))])
            .unwrap();
        // The row this statement appended is lent when it leaves again.
        d.delete_at(&s, &[1, 2]).unwrap();
        let out: Vec<(&Ident, &Row)> = d.removed(m).collect();
        assert_eq!(
            out,
            vec![
                (&s, &student("10", "zed")),
                (&s, &student("11", "ann")),
                (&s, &student("12", "bob")),
            ]
        );
        d.commit();
        assert_eq!(d.removed(m).count(), 0);
    }

    #[test]
    fn appends_share_an_entry_but_never_across_a_mark() {
        let mut d = db();
        let s = Ident::new("students");
        d.load(&s, [student("10", "zed")]).unwrap();
        d.commit();
        let outer = d.mark();
        d.insert(&s, student("11", "ann")).unwrap();
        d.insert(&s, student("12", "bob")).unwrap();
        assert_eq!(d.journal.len(), 1, "one entry for consecutive appends");
        let inner = d.mark();
        d.insert(&s, student("13", "cy")).unwrap();
        assert_eq!(d.journal.len(), 2, "a mark seals the entry below it");
        d.rollback_to(inner);
        assert_eq!(rows(&d, "students").len(), 3);
        d.insert(&s, student("14", "dee")).unwrap();
        assert_eq!(d.pending(inner).count(), 1);
        d.rollback_to(outer);
        assert_eq!(rows(&d, "students"), vec![student("10", "zed")]);
        assert!(d.table(&s).unwrap().index_drift().is_empty());
    }

    #[test]
    fn index_footprint_is_four_bytes_a_row() {
        let mut d = db();
        let (s, r) = (Ident::new("students"), Ident::new("registered"));
        let students: Vec<Row> = (0..1000).map(|i| student(&i.to_string(), "x")).collect();
        let regs: Vec<Row> = (0..1000)
            .map(|i| Row(vec![(i % 10).to_string().into(), "c".into()]))
            .collect();
        assert_eq!(d.load(&s, students), Ok(1000));
        assert_eq!(d.load(&r, regs), Ok(1000));
        d.commit();
        // Two indexes: students' key (which fk_reg_student also
        // references) and the child side of fk_reg_student on
        // `registered`, which has no declared key of its own.
        assert_eq!(d.index_bytes(), 2 * 1000 * 4);
    }

    #[test]
    fn index_set_covers_both_sides_and_drops_prefixes() {
        let mut d = db();
        let r = Ident::new("registered");
        let reg = |s: &str, c: &str| Row(vec![s.into(), c.into()]);
        d.load(&Ident::new("students"), [student("11", "ann"), student("12", "bob")]).unwrap();
        d.load(&r, [reg("12", "a"), reg("11", "b"), reg("12", "c")]).unwrap();
        let t = d.table(&r).unwrap();
        assert_eq!(t.positions_eq(0, &"12".into()), Some(vec![0, 2]), "child side");
        assert_eq!(t.positions_eq(1, &"b".into()), None, "no key on course_id");
        // A composite key whose prefix is the foreign key serves both.
        let mut d = Database::new();
        d.create_table(
            "students",
            Schema::new(vec![Column::new("student_id", DataType::Str)]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        d.create_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id"), Ident::new("course_id")]),
        )
        .unwrap();
        d.add_foreign_key(ForeignKey {
            name: Ident::new("fk_g"),
            child_table: Ident::new("grades"),
            child_columns: vec![Ident::new("student_id")],
            parent_table: Ident::new("students"),
            parent_columns: vec![Ident::new("student_id")],
        })
        .unwrap();
        let g = Ident::new("grades");
        d.load(&g, (0..100).map(|i| reg(&(i % 7).to_string(), &i.to_string()))).unwrap();
        assert_eq!(d.table(&g).unwrap().index_bytes(), 100 * 4, "one index");
        assert_eq!(
            d.table(&g).unwrap().positions_eq(0, &"3".into()),
            Some((0..100).filter(|i| i % 7 == 3).collect())
        );
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        let bad = Ident::new("nope");
        assert!(d.insert(&bad, Row(vec![])).is_err());
        assert!(d.delete_at(&bad, &[0]).is_err());
        assert!(d.apply_row_updates(&bad, vec![]).is_err());
    }
}
