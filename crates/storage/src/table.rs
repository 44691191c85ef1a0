//! Multiset tables and their key indexes.

use crate::index::{cmp_key, KeyIndex, MAX_ROWS};
use fgac_types::{Error, Ident, Result, Row, Schema, Value};

/// An in-memory table holding a multiset of rows.
///
/// Rows are kept in insertion order; duplicates are allowed (SQL bag
/// semantics). Type checking against the schema happens on every write.
/// Each column list of the database's index set has a [`KeyIndex`]; the row
/// mutators below leave index maintenance to their callers, which
/// journal the row write first (see `Database`'s module docs).
#[derive(Debug, Clone)]
pub struct Table {
    name: Ident,
    schema: Schema,
    rows: Vec<Row>,
    /// Primary-key column positions, resolved at `CREATE TABLE`.
    pk: Option<Box<[usize]>>,
    indexes: Vec<KeyIndex>,
}

impl Table {
    pub(crate) fn new(name: Ident, schema: Schema, pk: Option<Box<[usize]>>) -> Self {
        Table {
            name,
            schema,
            rows: Vec::new(),
            pk,
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &Ident {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub(crate) fn pk(&self) -> Option<&[usize]> {
        self.pk.as_deref()
    }

    /// Type-checks a row against the schema without inserting it.
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Type(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (value, col) in row.values().iter().zip(self.schema.columns()) {
            match value.data_type() {
                None => {
                    if !col.nullable {
                        return Err(Error::Constraint(format!(
                            "column {}.{} is NOT NULL",
                            self.name, col.name
                        )));
                    }
                }
                Some(ty) if ty == col.ty => {}
                // Allow lossless integer widening into double columns.
                Some(fgac_types::DataType::Int) if col.ty == fgac_types::DataType::Double => {}
                Some(ty) => {
                    return Err(Error::Type(format!(
                        "column {}.{} expects {}, got {} ({value})",
                        self.name, col.name, col.ty, ty
                    )));
                }
            }
        }
        Ok(())
    }

    /// Type-checks a row and puts it in stored form: integer values
    /// destined for double columns are widened. Key checks run on this
    /// form, since it is what the table will hold.
    pub(crate) fn prepare(&self, row: Row) -> Result<Row> {
        self.check_row(&row)?;
        Ok(Row(row
            .0
            .into_iter()
            .zip(self.schema.columns())
            .map(|(v, c)| match (&v, c.ty) {
                (Value::Int(i), fgac_types::DataType::Double) => Value::Double(*i as f64),
                _ => v,
            })
            .collect()))
    }

    /// True if some row other than `except` has, at `cols`, the values
    /// `probe` has at `probe_cols` (`Value::eq`, column by column): one
    /// range probe of an index whose columns start with `cols`. Every
    /// key the database checks is indexed, so a missing index is an
    /// internal error.
    pub(crate) fn holds_key(
        &self,
        cols: &[usize],
        probe: &Row,
        probe_cols: &[usize],
        except: Option<usize>,
    ) -> Result<bool> {
        let ix = self
            .indexes
            .iter()
            .find(|ix| ix.cols().starts_with(cols))
            .ok_or_else(|| {
                Error::Internal(format!("no index on columns {cols:?} of {}", self.name))
            })?;
        Ok(ix
            .range(&self.rows, |r| cmp_key(r, ix.cols(), probe, probe_cols))
            .iter()
            .any(|&p| Some(p as usize) != except))
    }

    /// The positions of the rows whose column `col` equals `value`
    /// (`Value::eq`), ascending — or `None` when no index leads with
    /// `col`. The index with the fewest columns serves: its run is
    /// already in position order.
    pub fn positions_eq(&self, col: usize, value: &Value) -> Option<Vec<usize>> {
        let ix = self
            .indexes
            .iter()
            .filter(|ix| ix.cols().first() == Some(&col))
            .min_by_key(|ix| ix.cols().len())?;
        let mut out: Vec<usize> = ix
            .range(&self.rows, |r| r.get(col).cmp(value))
            .iter()
            .map(|&p| p as usize)
            .collect();
        if ix.cols().len() > 1 {
            out.sort_unstable();
        }
        Some(out)
    }

    // ---------------- row writes (callers journal, then index) ----------------

    /// Appends a prepared row; not yet indexed (see [`Table::index_from`]).
    pub(crate) fn push(&mut self, row: Row) -> Result<()> {
        if self.rows.len() >= MAX_ROWS {
            return Err(Error::Execution(format!(
                "table {} is full ({MAX_ROWS} rows)",
                self.name
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Indexes the rows from `from` on: one search for one row, one
    /// sort and merge per index for several.
    pub(crate) fn index_from(&mut self, from: usize) {
        for ix in &mut self.indexes {
            ix.add(&self.rows, from..self.rows.len());
        }
    }

    /// Room for `extra` more rows, in the row vector and every index.
    pub(crate) fn reserve(&mut self, extra: usize) {
        self.rows.reserve(extra);
        for ix in &mut self.indexes {
            ix.reserve(extra);
        }
    }

    /// Replaces the row at `pos` (in bounds), returning the old one.
    pub(crate) fn replace(&mut self, pos: usize, row: Row) -> Row {
        std::mem::replace(&mut self.rows[pos], row)
    }

    /// Re-sorts the entries of the rows at the positions of `images`
    /// whose key differs from the image (the values the entry was
    /// sorted by): they leave by position, in one integer pass, and come
    /// back by key once every row holds its new values.
    pub(crate) fn reindex<'r>(&mut self, images: impl Iterator<Item = (usize, &'r Row)> + Clone) {
        for ix in &mut self.indexes {
            let mut moved: Vec<usize> = images
                .clone()
                .filter(|&(pos, image)| {
                    self.rows.get(pos).is_some_and(|row| {
                        ix.cols().iter().any(|&c| row.get(c) != image.get(c))
                    })
                })
                .map(|(pos, _)| pos)
                .collect();
            moved.sort_unstable();
            moved.dedup();
            ix.remove(&moved, false);
            ix.add(&self.rows, moved);
        }
    }

    /// Removes the rows at `victims` (ascending, unique, in bounds) and
    /// returns them with their positions; indexes are not touched.
    pub(crate) fn remove_rows(&mut self, victims: &[usize]) -> Vec<(usize, Row)> {
        if let [v] = *victims {
            return vec![(v, self.rows.remove(v))];
        }
        let mut removed = Vec::with_capacity(victims.len());
        let (mut pos, mut next) = (0usize, victims.iter().peekable());
        self.rows.retain_mut(|r| {
            let here = pos;
            pos += 1;
            if next.next_if_eq(&&here).is_some() {
                removed.push((here, std::mem::take(r)));
                false
            } else {
                true
            }
        });
        removed
    }

    /// Index half of a delete: the removed rows' entries go and the
    /// other positions close up (see [`KeyIndex::remove`]).
    pub(crate) fn index_after_delete(&mut self, removed: &[(usize, Row)]) {
        let gone: Vec<usize> = removed.iter().map(|(pos, _)| *pos).collect();
        for ix in &mut self.indexes {
            ix.remove(&gone, true);
        }
    }

    // ---------------- undo ----------------

    /// Undoes appends: truncates the table to `from` rows (and, with
    /// `reindex`, drops the removed rows' index entries).
    pub(crate) fn undo_append(&mut self, from: usize, reindex: bool) {
        if reindex {
            let gone: Vec<usize> = (from..self.rows.len()).collect();
            for ix in &mut self.indexes {
                ix.remove(&gone, false);
            }
        }
        self.rows.truncate(from);
    }

    /// Undoes an update: puts `old[k]` back at `updates[k].0`, last
    /// replacement first.
    pub(crate) fn undo_update(&mut self, updates: &[(usize, Row)], old: Vec<Row>, reindex: bool) {
        for ((pos, _), old) in updates.iter().zip(old).rev() {
            if *pos < self.rows.len() {
                self.replace(*pos, old);
            }
        }
        if reindex {
            self.reindex(updates.iter().map(|(pos, new)| (*pos, new)));
        }
    }

    /// Undoes a delete: puts the removed rows back at their positions in
    /// one merge pass.
    pub(crate) fn undo_delete(&mut self, removed: Vec<(usize, Row)>, reindex: bool) {
        let victims: Vec<usize> = removed.iter().map(|(p, _)| *p).collect();
        let kept = std::mem::take(&mut self.rows);
        let mut rows = Vec::with_capacity(kept.len() + removed.len());
        let mut kept = kept.into_iter();
        for (pos, row) in removed {
            while rows.len() < pos {
                match kept.next() {
                    Some(r) => rows.push(r),
                    None => break,
                }
            }
            rows.push(row);
        }
        rows.extend(kept);
        self.rows = rows;
        if reindex {
            for ix in &mut self.indexes {
                ix.before_undelete(&victims);
                ix.add(&self.rows, victims.iter().copied());
            }
        }
    }

    // ---------------- index set ----------------

    /// Makes the index set exactly `keys`: indexes already present are
    /// kept, missing ones built from the rows, others dropped.
    pub(crate) fn set_keys(&mut self, keys: &[Box<[usize]>]) {
        self.indexes.retain(|ix| keys.iter().any(|k| **k == *ix.cols()));
        for k in keys {
            if !self.indexes.iter().any(|ix| ix.cols() == &k[..]) {
                self.indexes.push(KeyIndex::build(k.clone(), &self.rows));
            }
        }
    }

    /// Rebuilds every index from the rows — the recovery for a panic
    /// that may have struck between a row write and its index write.
    pub(crate) fn rebuild_indexes(&mut self) {
        for ix in &mut self.indexes {
            *ix = ix.rebuilt(&self.rows);
        }
    }

    /// Bytes held by this table's indexes.
    pub(crate) fn index_bytes(&self) -> usize {
        self.indexes.iter().map(KeyIndex::heap_bytes).sum()
    }

    /// Each index's entries next to those of one rebuilt from the rows,
    /// for the indexes where the two differ.
    #[cfg(test)]
    pub(crate) fn index_drift(&self) -> Vec<[Vec<u32>; 2]> {
        self.indexes
            .iter()
            .map(|ix| [ix.entries().to_vec(), ix.rebuilt(&self.rows).entries().to_vec()])
            .filter(|[live, fresh]| live != fresh)
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn corrupt_index(&mut self) {
        if let Some(ix) = self.indexes.first_mut() {
            ix.corrupt_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType};

    fn table() -> Table {
        Table::new(
            Ident::new("grades"),
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            Some(vec![0].into()),
        )
    }

    fn put(t: &mut Table, row: Row) -> Result<()> {
        let row = t.prepare(row)?;
        t.push(row)?;
        t.index_from(t.len() - 1);
        Ok(())
    }

    #[test]
    fn insert_type_checks() {
        let mut t = table();
        put(&mut t, Row(vec!["11".into(), Value::Int(90)])).unwrap();
        put(&mut t, Row(vec!["12".into(), Value::Null])).unwrap();
        assert_eq!(t.len(), 2);

        let err = put(&mut t, Row(vec![Value::Int(1), Value::Int(2)])).unwrap_err();
        assert!(matches!(err, Error::Type(_)));
        let err = put(&mut t, Row(vec![Value::Null, Value::Int(2)])).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        let err = put(&mut t, Row(vec!["11".into()])).unwrap_err();
        assert!(matches!(err, Error::Type(_)));
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = table();
        let row = Row(vec!["11".into(), Value::Int(90)]);
        put(&mut t, row.clone()).unwrap();
        put(&mut t, row).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn int_widens_to_double() {
        let mut t = Table::new(
            Ident::new("m"),
            Schema::new(vec![Column::new("x", DataType::Double)]),
            None,
        );
        put(&mut t, Row(vec![Value::Int(3)])).unwrap();
        assert_eq!(t.rows()[0].get(0), &Value::Double(3.0));
    }

    #[test]
    fn holds_key_probes_the_index() {
        let mut t = table();
        t.set_keys(&[vec![0].into()]);
        put(&mut t, Row(vec!["11".into(), Value::Int(90)])).unwrap();
        let probe = Row(vec!["11".into(), Value::Int(0)]);
        assert!(t.holds_key(&[0], &probe, &[0], None).unwrap());
        assert!(!t.holds_key(&[0], &probe, &[0], Some(0)).unwrap(), "except skips the row");
        assert!(!t.holds_key(&[0], &Row(vec!["99".into()]), &[0], None).unwrap());
        assert!(matches!(
            t.holds_key(&[1], &Row(vec![Value::Int(90)]), &[0], None),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn positions_eq_serves_a_leading_column_in_position_order() {
        let mut t = table();
        t.set_keys(&[vec![0, 1].into()]);
        for (s, g) in [("b", 3), ("a", 2), ("b", 1), ("b", 2)] {
            put(&mut t, Row(vec![s.into(), Value::Int(g)])).unwrap();
        }
        assert_eq!(t.positions_eq(0, &"b".into()), Some(vec![0, 2, 3]));
        assert_eq!(t.positions_eq(0, &"z".into()), Some(vec![]));
        assert_eq!(t.positions_eq(1, &Value::Int(2)), None, "not a leading column");
        t.set_keys(&[vec![0, 1].into(), vec![1].into()]);
        assert_eq!(t.positions_eq(1, &Value::Int(2)), Some(vec![1, 3]));
    }

    #[test]
    fn remove_rows_and_undo_restore_order() {
        let mut t = table();
        t.set_keys(&[vec![0].into()]);
        for s in ["a", "b", "c", "d", "e"] {
            put(&mut t, Row(vec![s.into(), Value::Null])).unwrap();
        }
        let before = t.rows().to_vec();
        let removed = t.remove_rows(&[0, 2, 4]);
        t.index_after_delete(&removed);
        assert_eq!(t.len(), 2);
        assert!(t.index_drift().is_empty());
        t.undo_delete(removed, true);
        assert_eq!(t.rows(), &before[..]);
        assert!(t.index_drift().is_empty());
    }
}
