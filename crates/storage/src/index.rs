//! Ordered key indexes: row positions sorted by key.
//!
//! One [`KeyIndex`] per declared key column list of a table (see
//! `Database`'s index-set rule). An index is a `Vec<u32>` of row
//! positions — 4 bytes a row, no key values — sorted by the row's values
//! at the index columns under `Value`'s total `Ord`, then by position.
//! `Ord` agrees with `Value::eq`, so the rows whose key equals a probe
//! are one contiguous run, found by two `partition_point`s, and a probe
//! on any *prefix* of the columns is a run too. A key may map to several
//! positions (bag tables, non-unique referenced columns, prefixes).
//!
//! Every comparison reads the rows, so the index is only searchable
//! while each entry's row holds the values it was sorted by. The writes
//! that could break that are positional and integer-only: removing the
//! entries at given positions, and shifting positions past a delete or
//! an undelete. Only then are entries searched for and inserted again.

use fgac_types::{Row, Value};
use std::cmp::Ordering;

/// Row positions are stored as `u32`. Tables refuse to grow past this
/// many rows.
pub(crate) const MAX_ROWS: usize = u32::MAX as usize;

/// `a`'s values at `a_cols` against `b`'s at `b_cols`, column by column,
/// over the shorter list.
pub(crate) fn cmp_key(a: &Row, a_cols: &[usize], b: &Row, b_cols: &[usize]) -> Ordering {
    a_cols
        .iter()
        .zip(b_cols)
        .map(|(&i, &j)| a.get(i).cmp(b.get(j)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// The index order of the entries for positions `a` and `b`: by key
/// at `cols`, then by position.
fn order(cols: &[usize], rows: &[Row], a: u32, b: u32) -> Ordering {
    match (rows.get(a as usize), rows.get(b as usize)) {
        (Some(ra), Some(rb)) => cmp_key(ra, cols, rb, cols),
        _ => Ordering::Equal,
    }
    .then(a.cmp(&b))
}

/// Row positions over one column list, in key order.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    cols: Box<[usize]>,
    pos: Vec<u32>,
}

impl KeyIndex {
    /// Indexes every row of `rows`.
    pub(crate) fn build(cols: Box<[usize]>, rows: &[Row]) -> Self {
        let mut ix = KeyIndex {
            cols,
            pos: Vec::new(),
        };
        ix.add(rows, 0..rows.len());
        ix
    }

    /// This index rebuilt from `rows`.
    pub(crate) fn rebuilt(&self, rows: &[Row]) -> Self {
        Self::build(self.cols.clone(), rows)
    }

    /// The key's column positions.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Bytes held by the position vector.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.pos.capacity() * std::mem::size_of::<u32>()
    }

    pub(crate) fn reserve(&mut self, extra: usize) {
        self.pos.reserve(extra);
    }

    /// Adds the entries for the rows at `new` (ascending positions not
    /// yet in the index), every entry's row holding the values it is
    /// sorted by.
    /// One entry is a binary search. Several are sorted on their own,
    /// each decorated with its row and first key value so that most
    /// comparisons read no row, then merged with the old entries in one
    /// pass: a bulk load builds the index once.
    pub(crate) fn add(&mut self, rows: &[Row], new: impl IntoIterator<Item = usize>) {
        let cols = &self.cols;
        let by_key = |a: &u32, b: &u32| order(cols, rows, *a, *b);
        let old = self.pos.len();
        self.pos.extend(new.into_iter().map(|p| p as u32));
        let Some((&first, rest)) = cols.split_first() else {
            return;
        };
        match self.pos.len() - old {
            0 => {}
            1 => {
                let pos = self.pos[old];
                let at = self.pos[..old].partition_point(|p| by_key(p, &pos).is_lt());
                self.pos[at..].rotate_right(1);
            }
            _ => {
                let mut added: Vec<(&Value, &Row, u32)> = self
                    .pos
                    .drain(old..)
                    .filter_map(|p| rows.get(p as usize).map(|r| (r.get(first), r, p)))
                    .collect();
                // Stable, so equal keys keep their ascending positions.
                added.sort_by(|a, b| a.0.cmp(b.0).then_with(|| cmp_key(a.1, rest, b.1, rest)));
                self.pos.extend(added.into_iter().map(|(_, _, p)| p));
                if old > 0 {
                    // Two sorted runs: the stable sort merges them in
                    // linear time.
                    self.pos.sort_by(by_key);
                }
            }
        }
    }

    /// The run of entries whose key `probe` finds equal: `probe`
    /// compares a row's key, or a prefix of it, with the sought values.
    pub(crate) fn range(&self, rows: &[Row], probe: impl Fn(&Row) -> Ordering) -> &[u32] {
        let key = |p: &u32| rows.get(*p as usize).map_or(Ordering::Less, &probe);
        let lo = self.pos.partition_point(|p| key(p).is_lt());
        let hi = lo + self.pos[lo..].partition_point(|p| key(p).is_eq());
        &self.pos[lo..hi]
    }

    /// Removes the entries at `gone` (ascending positions) in integer
    /// passes, reading no row; with `shift`, also moves every other
    /// position down past them — the index half of a delete of those
    /// rows.
    pub(crate) fn remove(&mut self, gone: &[usize], shift: bool) {
        match *gone {
            [] => return,
            // The common one-row case: a search, a move and, with
            // `shift`, a branch-free pass.
            [v] => {
                let v = v as u32;
                if let Some(at) = self.pos.iter().position(|&p| p == v) {
                    self.pos.remove(at);
                }
                if shift {
                    for p in &mut self.pos {
                        *p -= u32::from(*p > v);
                    }
                }
                return;
            }
            _ => {}
        }
        self.pos.retain_mut(|p| {
            let below = gone.partition_point(|&v| v < *p as usize);
            if gone.get(below) == Some(&(*p as usize)) {
                return false;
            }
            if shift {
                *p -= below as u32;
            }
            true
        });
    }

    /// The inverse position shift of [`KeyIndex::remove`] with `shift`,
    /// for rows about to be put back at `victims` (ascending pre-removal
    /// positions). The caller then inserts the restored rows' entries.
    pub(crate) fn before_undelete(&mut self, victims: &[usize]) {
        if victims.is_empty() {
            return;
        }
        // Victim j left a gap just before post-removal position v_j - j.
        let gaps: Vec<usize> = victims.iter().enumerate().map(|(j, &v)| v - j).collect();
        for p in &mut self.pos {
            let q = *p as usize;
            *p = (q + gaps.partition_point(|&g| g <= q)) as u32;
        }
    }

    /// The entries in index order — two indexes over the same rows are
    /// equal iff these are.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[u32] {
        &self.pos
    }

    /// Test hook: moves one entry to a wrong position.
    #[cfg(test)]
    pub(crate) fn corrupt_one(&mut self) {
        if let Some(p) = self.pos.first_mut() {
            *p += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, s: &str) -> Row {
        Row(vec![Value::Int(k), Value::Str(s.into())])
    }

    fn probe(ix: &KeyIndex, rows: &[Row], key: &[Value]) -> Vec<u32> {
        let (key, cols) = (Row(key.to_vec()), [0, 1]);
        let n = key.len();
        ix.range(rows, |r| cmp_key(r, &ix.cols, &key, &cols[..n]))
            .to_vec()
    }

    #[test]
    fn probes_a_key_and_its_prefixes() {
        let rows = vec![
            row(2, "b"),
            row(1, "z"),
            row(2, "a"),
            row(1, "a"),
            row(2, "b"),
        ];
        let ix = KeyIndex::build(vec![0, 1].into(), &rows);
        // Sorted by key, then position.
        assert_eq!(ix.entries(), &[3, 1, 2, 0, 4]);
        assert_eq!(probe(&ix, &rows, &[Value::Int(2)]), vec![2, 0, 4]);
        assert_eq!(probe(&ix, &rows, &[Value::Int(2), "b".into()]), vec![0, 4]);
        assert!(probe(&ix, &rows, &[Value::Int(3)]).is_empty());
        assert!(probe(&ix, &rows, &[Value::Int(1), "b".into()]).is_empty());
    }

    #[test]
    fn one_and_many_adds_equal_a_rebuild() {
        let rows: Vec<Row> = (0..40).map(|i| row((i * 7) % 5, "x")).collect();
        let mut ix = KeyIndex::build(vec![0].into(), &rows[..10]);
        ix.add(&rows, [10]);
        ix.add(&rows, 11..40);
        assert_eq!(ix.entries(), ix.rebuilt(&rows).entries());
    }

    #[test]
    fn delete_shift_round_trips() {
        let rows: Vec<Row> = (0..40).map(|i| row(i % 3, "x")).collect();
        let mut ix = KeyIndex::build(vec![0].into(), &rows);
        let before = ix.entries().to_vec();
        let victims = [0, 7, 8, 39];
        ix.remove(&victims, true);
        let kept: Vec<Row> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(ix.entries(), ix.rebuilt(&kept).entries());
        ix.before_undelete(&victims);
        ix.add(&rows, victims);
        assert_eq!(ix.entries(), before);
    }

    #[test]
    fn int_and_double_keys_stay_apart() {
        let rows = vec![Row(vec![Value::Int(1)]), Row(vec![Value::Double(1.0)])];
        let ix = KeyIndex::build(vec![0].into(), &rows);
        assert_eq!(probe(&ix, &rows, &[Value::Int(1)]), vec![0]);
        assert_eq!(probe(&ix, &rows, &[Value::Double(1.0)]), vec![1]);
    }
}
