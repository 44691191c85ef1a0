//! Physical row deltas and the statement journal.
//!
//! The engine's DML paths funnel through three positional [`Database`]
//! primitives — append a row, replace rows at indexes, delete rows at
//! indexes. Each call is journaled as one [`Entry`]: its *redo* (the
//! [`TableDelta`]s the WAL logs and recovery replays) and its *undo*
//! image (the rows it displaced, moved out of the table, never copied).
//! Replaying the redo against the same prior state reproduces the same
//! rows in the same order, without re-running authorization or predicate
//! evaluation; inverting the undo entries in reverse restores that prior
//! state exactly.
//!
//! An append's redo is the appended row itself, so the journal does not
//! copy it: consecutive appends to one table share one entry, and the
//! redo reads their rows from the table until a later update or delete
//! of that table in the same statement could change them.
//!
//! [`Database`]: crate::Database

use fgac_types::wire::{Reader, WireDecode, WireEncode};
use fgac_types::{Error, Ident, Result, Row};

/// One committed physical mutation, in statement order.
#[derive(Debug, Clone, PartialEq)]
pub enum TableDelta {
    /// A row appended to `table` (insertion order is part of table state).
    Insert { table: Ident, row: Row },
    /// Rows replaced in place: `(index, new_row)` pairs.
    Update {
        table: Ident,
        updates: Vec<(usize, Row)>,
    },
    /// Rows removed at the given positions (pre-removal indexes).
    Delete { table: Ident, indexes: Vec<usize> },
}

/// A borrowed [`TableDelta`]: the journal's redo as the WAL encodes it,
/// with the same bytes and without owning a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaRef<'a> {
    Insert {
        table: &'a Ident,
        row: &'a Row,
    },
    Update {
        table: &'a Ident,
        updates: &'a [(usize, Row)],
    },
    Delete {
        table: &'a Ident,
        indexes: &'a [usize],
    },
}

impl TableDelta {
    /// The table this delta mutates.
    pub fn table(&self) -> &Ident {
        match self {
            TableDelta::Insert { table, .. }
            | TableDelta::Update { table, .. }
            | TableDelta::Delete { table, .. } => table,
        }
    }

    /// This delta, borrowed.
    pub fn view(&self) -> DeltaRef<'_> {
        match self {
            TableDelta::Insert { table, row } => DeltaRef::Insert { table, row },
            TableDelta::Update { table, updates } => DeltaRef::Update { table, updates },
            TableDelta::Delete { table, indexes } => DeltaRef::Delete { table, indexes },
        }
    }
}

impl DeltaRef<'_> {
    /// An owned copy.
    pub fn to_delta(self) -> TableDelta {
        match self {
            DeltaRef::Insert { table, row } => TableDelta::Insert {
                table: table.clone(),
                row: row.clone(),
            },
            DeltaRef::Update { table, updates } => TableDelta::Update {
                table: table.clone(),
                updates: updates.to_vec(),
            },
            DeltaRef::Delete { table, indexes } => TableDelta::Delete {
                table: table.clone(),
                indexes: indexes.to_vec(),
            },
        }
    }
}

/// A savepoint in the journal: [`Database::rollback_to`] undoes every
/// entry appended after it. [`Database::commit`] empties the journal,
/// which turns every outstanding mark into a no-op.
///
/// [`Database::rollback_to`]: crate::Database::rollback_to
/// [`Database::commit`]: crate::Database::commit
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mark(pub(crate) usize);

/// One journaled primitive call (appends to one table coalesce).
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// `count` rows appended to `table` at positions `from..from + count`.
    /// Undo truncates the table back to `from`. While `copy` is `None`
    /// the rows are still in the table as appended and the redo reads
    /// them there; `copy` holds them once a later write to the table
    /// could change them.
    Append {
        table: Ident,
        from: usize,
        count: usize,
        copy: Option<Vec<Row>>,
    },
    /// Rows replaced in place; `old[k]` is the row `updates[k]` replaced.
    Update {
        table: Ident,
        updates: Vec<(usize, Row)>,
        old: Vec<Row>,
    },
    /// Rows removed at `indexes`; `removed` holds them at their
    /// pre-removal positions, ascending.
    Delete {
        table: Ident,
        indexes: Vec<usize>,
        removed: Vec<(usize, Row)>,
    },
}

impl Entry {
    pub(crate) fn table(&self) -> &Ident {
        match self {
            Entry::Append { table, .. }
            | Entry::Update { table, .. }
            | Entry::Delete { table, .. } => table,
        }
    }
}

impl WireEncode for DeltaRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DeltaRef::Insert { table, row } => {
                out.push(0);
                table.encode(out);
                row.encode(out);
            }
            DeltaRef::Update { table, updates } => {
                out.push(1);
                table.encode(out);
                updates.encode(out);
            }
            DeltaRef::Delete { table, indexes } => {
                out.push(2);
                table.encode(out);
                indexes.encode(out);
            }
        }
    }
}

impl WireEncode for TableDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view().encode(out);
    }
}

impl WireDecode for TableDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(TableDelta::Insert {
                table: Ident::decode(r)?,
                row: Row::decode(r)?,
            }),
            1 => Ok(TableDelta::Update {
                table: Ident::decode(r)?,
                updates: Vec::<(usize, Row)>::decode(r)?,
            }),
            2 => Ok(TableDelta::Delete {
                table: Ident::decode(r)?,
                indexes: Vec::<usize>::decode(r)?,
            }),
            b => Err(Error::Corrupt(format!("wire decode: delta tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::Value;

    #[test]
    fn deltas_roundtrip() {
        let deltas = vec![
            TableDelta::Insert {
                table: Ident::new("grades"),
                row: Row(vec!["11".into(), Value::Int(90)]),
            },
            TableDelta::Update {
                table: Ident::new("grades"),
                updates: vec![(3, Row(vec![Value::Null])), (0, Row(vec![]))],
            },
            TableDelta::Delete {
                table: Ident::new("students"),
                indexes: vec![5, 1, 2],
            },
        ];
        let bytes = deltas.to_bytes();
        let mut r = Reader::new(&bytes);
        let back = Vec::<TableDelta>::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(deltas, back);
    }

    #[test]
    fn bad_tag_is_corrupt() {
        let mut r = Reader::new(&[9u8]);
        assert!(matches!(
            TableDelta::decode(&mut r),
            Err(Error::Corrupt(_))
        ));
    }
}
