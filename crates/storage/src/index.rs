//! Hash key indexes: row positions by key hash.
//!
//! One [`KeyIndex`] per declared key of a table (its primary key, and
//! each column list a foreign key references). An index stores only
//! `(hash, position)` pairs — 8 bytes a slot, no key values — so every
//! hit is verified against the row itself, with `Value::eq`: a probe is
//! exact (`Int(1)` never matches `Double(1.0)`, doubles compare by their
//! bits) however the hashes collide.
//!
//! The table is open addressing with linear probing and tombstones, kept
//! at most half full. A key may map to several positions (bag tables,
//! non-unique referenced columns); they are simply several slots.

use fgac_types::Row;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// Row positions are stored as `u32`; the two top values mark empty and
/// dead slots. Tables refuse to grow past this many rows.
pub(crate) const MAX_ROWS: usize = (u32::MAX - 1) as usize;

const EMPTY: u32 = u32::MAX;
const DEAD: u32 = u32::MAX - 1;


#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    hash: u32,
    pos: u32,
}

impl Slot {
    fn live(self) -> bool {
        self.pos < DEAD
    }
}

/// A hash multimap from key hash to row position over one column list.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    cols: Box<[usize]>,
    /// Randomly keyed, like `HashMap`'s: keys come from users' DML, and
    /// fixed keys would let crafted ones collide.
    state: RandomState,
    /// Empty, or a power of two long.
    slots: Vec<Slot>,
    live: usize,
    dead: usize,
}

impl KeyIndex {
    /// Indexes every row of `rows`.
    pub(crate) fn build(cols: Box<[usize]>, rows: &[Row]) -> Self {
        Self::build_with(cols, RandomState::new(), rows)
    }

    /// This index rebuilt from `rows`, with the same hash keys.
    pub(crate) fn rebuilt(&self, rows: &[Row]) -> Self {
        Self::build_with(self.cols.clone(), self.state.clone(), rows)
    }

    fn build_with(cols: Box<[usize]>, state: RandomState, rows: &[Row]) -> Self {
        let mut ix = KeyIndex {
            cols,
            state,
            slots: Vec::new(),
            live: 0,
            dead: 0,
        };
        ix.reserve(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            ix.insert(row, pos);
        }
        ix
    }

    /// The key's column positions.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The hash of the values of `row` at `cols`, in order — this
    /// index's own columns, or a probe's (a foreign key's child
    /// columns). Projections that are `Value::eq` hash equal.
    pub(crate) fn hash(&self, row: &Row, cols: &[usize]) -> u32 {
        let mut h = self.state.build_hasher();
        for &c in cols {
            row.get(c).hash(&mut h);
        }
        let x = h.finish();
        (x ^ (x >> 32)) as u32
    }

    /// Bytes held by the slot array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Makes room for `extra` more entries without rehashing.
    pub(crate) fn reserve(&mut self, extra: usize) {
        if (self.live + self.dead + extra) * 2 > self.slots.len() {
            self.rehash(self.live + extra);
        }
    }

    /// Re-places every live entry in a table sized for `entries`,
    /// dropping tombstones. Uses the stored hashes; no row is read.
    fn rehash(&mut self, entries: usize) {
        let cap = (entries * 2).max(16).next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, pos: EMPTY }; cap]);
        self.dead = 0;
        for s in old.into_iter().filter(|s| s.live()) {
            self.place(s);
        }
    }

    fn place(&mut self, s: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = s.hash as usize & mask;
        loop {
            let cur = self.slots[i];
            if !cur.live() {
                if cur.pos == DEAD {
                    self.dead -= 1;
                }
                self.slots[i] = s;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds the entry for `row` at `pos`.
    pub(crate) fn insert(&mut self, row: &Row, pos: usize) {
        self.reserve(1);
        self.place(Slot {
            hash: self.hash(row, &self.cols),
            pos: pos as u32,
        });
        self.live += 1;
    }

    /// Removes the entry for `row` at `pos`; a missing entry is a no-op.
    pub(crate) fn remove(&mut self, row: &Row, pos: usize) {
        let target = Slot {
            hash: self.hash(row, &self.cols),
            pos: pos as u32,
        };
        let found = self.probe(target.hash).find(|&i| self.slots[i] == target);
        if let Some(i) = found {
            self.slots[i].pos = DEAD;
            self.live -= 1;
            self.dead += 1;
        }
    }

    /// Slot numbers of the live entries with this hash.
    fn probe(&self, hash: u32) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        let start = hash as usize & mask;
        (0..self.slots.len())
            .map(move |k| (start + k) & mask)
            .take_while(|&i| self.slots[i].pos != EMPTY)
            .filter(move |&i| self.slots[i].live() && self.slots[i].hash == hash)
    }

    /// True if some position whose key hashes like `probe`'s values at
    /// `probe_cols` satisfies `hit` — the caller compares that row's key
    /// with the probe's.
    pub(crate) fn find(
        &self,
        probe: &Row,
        probe_cols: &[usize],
        mut hit: impl FnMut(usize) -> bool,
    ) -> bool {
        self.probe(self.hash(probe, probe_cols))
            .any(|i| hit(self.slots[i].pos as usize))
    }

    /// Drops the entries of the removed rows (one hash probe each) and
    /// moves every other position down past them: one integer pass over
    /// the slots. `removed` holds the rows at their pre-removal
    /// positions, ascending.
    pub(crate) fn after_delete(&mut self, removed: &[(usize, Row)]) {
        for (pos, row) in removed {
            self.remove(row, *pos);
        }
        match removed {
            [] => {}
            // The common one-row delete: a branch-free pass (empty and
            // dead slots sort above every position and stay put).
            [(v, _)] => {
                let v = *v as u32;
                for s in &mut self.slots {
                    s.pos -= u32::from(s.pos > v && s.pos < DEAD);
                }
            }
            _ => {
                for s in self.slots.iter_mut().filter(|s| s.live()) {
                    s.pos -= removed.partition_point(|(v, _)| *v < s.pos as usize) as u32;
                }
            }
        }
    }

    /// The inverse position shift of [`KeyIndex::after_delete`], for
    /// rows about to be put back at `victims` (ascending pre-removal
    /// positions). The caller then inserts the restored rows' entries.
    pub(crate) fn before_undelete(&mut self, victims: &[usize]) {
        if victims.is_empty() {
            return;
        }
        // Victim j left a gap just before post-removal position v_j - j.
        let gaps: Vec<usize> = victims.iter().enumerate().map(|(j, &v)| v - j).collect();
        for s in self.slots.iter_mut().filter(|s| s.live()) {
            let q = s.pos as usize;
            s.pos = (q + gaps.partition_point(|&g| g <= q)) as u32;
        }
    }

    /// The live `(hash, position)` entries, sorted — two indexes over
    /// the same rows are equal iff these are.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .slots
            .iter()
            .filter(|s| s.live())
            .map(|s| (s.hash, s.pos))
            .collect();
        out.sort_unstable();
        out
    }

    /// Test hook: moves one live entry to a wrong position.
    #[cfg(test)]
    pub(crate) fn corrupt_one(&mut self) {
        if let Some(s) = self.slots.iter_mut().find(|s| s.live()) {
            s.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::Value;

    fn row(k: i64) -> Row {
        Row(vec![Value::Int(k)])
    }

    fn positions(ix: &KeyIndex, rows: &[Row], probe: &Row) -> Vec<usize> {
        let mut out = Vec::new();
        ix.find(probe, &[0], |p| {
            if rows[p].get(0) == probe.get(0) {
                out.push(p);
            }
            false
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn duplicates_and_removal() {
        let rows: Vec<Row> = [1, 2, 1, 3].into_iter().map(row).collect();
        let mut ix = KeyIndex::build(vec![0].into(), &rows);
        assert_eq!(positions(&ix, &rows, &row(1)), vec![0, 2]);
        assert!(positions(&ix, &rows, &row(9)).is_empty());
        ix.remove(&rows[2], 2);
        assert_eq!(positions(&ix, &rows, &row(1)), vec![0]);
        // A missing entry is a no-op.
        ix.remove(&rows[2], 2);
        assert_eq!(ix.entries().len(), 3);
    }

    #[test]
    fn delete_shift_round_trips() {
        let rows: Vec<Row> = (0..40).map(row).collect();
        let mut ix = KeyIndex::build(vec![0].into(), &rows);
        let before = ix.entries();
        let victims = [0, 7, 8, 39];
        let removed: Vec<(usize, Row)> = victims.iter().map(|&v| (v, rows[v].clone())).collect();
        ix.after_delete(&removed);
        let kept: Vec<Row> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(ix.entries(), ix.rebuilt(&kept).entries());
        ix.before_undelete(&victims);
        for &v in &victims {
            ix.insert(&rows[v], v);
        }
        assert_eq!(ix.entries(), before);
    }

    #[test]
    fn tombstones_are_reclaimed() {
        let rows: Vec<Row> = (0..1000).map(row).collect();
        let mut ix = KeyIndex::build(vec![0].into(), &rows[..1]);
        for _ in 0..1000 {
            ix.insert(&rows[0], 1);
            ix.remove(&rows[0], 1);
        }
        assert!(ix.slots.len() <= 16, "churn must not grow the table");
    }

    #[test]
    fn int_and_double_keys_stay_apart() {
        let rows = vec![Row(vec![Value::Int(1)]), Row(vec![Value::Double(1.0)])];
        let ix = KeyIndex::build(vec![0].into(), &rows);
        assert_eq!(positions(&ix, &rows, &rows[0]), vec![0]);
        assert_eq!(positions(&ix, &rows, &rows[1]), vec![1]);
    }
}
