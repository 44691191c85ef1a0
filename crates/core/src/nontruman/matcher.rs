//! SPJ-block matching: can query block `Q` be computed from valid block
//! `V`?
//!
//! This is the view-matching step of inference rule U2: "if a query can
//! be expressed as an operation (projection, selection, join etc.) on top
//! of unconditionally valid subexpressions, the query is itself
//! unconditionally valid" — here specialized to σ/π/δ on top of one valid
//! SPJ block, with multiset semantics handled precisely:
//!
//! * `Q` and `V` must scan the same multiset of base tables (instances
//!   are aligned by `align_scans`, a backtracking search over same-table
//!   permutations that C3 also uses to align a query onto its core);
//! * `Q`'s predicate must *imply* `V`'s (so `σ_extra(V)` reproduces
//!   exactly `Q`'s base rows — the subsumption direction), where `extra`
//!   is `Q`'s own predicate re-expressed over `V`'s output columns;
//! * every column `Q` projects or filters on must survive `V`'s
//!   projection;
//! * multiplicities: if `Q` is duplicate-preserving, `V` must be too —
//!   unless `Q` is provably duplicate-free (primary-key reasoning, the
//!   paper's Example 5.5 "since the Grades table has a primary key, the
//!   distinct keyword can be dropped").

use fgac_algebra::implication::implies_metered;
use fgac_algebra::{ScalarExpr, SpjBlock};
use fgac_storage::Catalog;
use fgac_types::{BudgetMeter, Ident, Result, Schema};

/// Phase label the matcher charges its budget under.
const PHASE: &str = "view matcher";

/// A successful match: how `Q` is computed from `V`.
#[derive(Debug, Clone)]
pub struct MatchWitness {
    /// Conjuncts applied on top of `V` (over `V`'s output row).
    pub extra_conjuncts: Vec<ScalarExpr>,
    /// Projection over `V`'s output row.
    pub projection: Vec<ScalarExpr>,
    /// Whether a final duplicate elimination is applied.
    pub distinct: bool,
    /// Flat-column map from `Q`'s frame into `V`'s frame (the alignment
    /// substitution) — recorded in validity certificates so the checker
    /// can re-verify the match without re-running the backtracking.
    pub q_to_v: Vec<usize>,
}

/// Attempts to compute `q` from `v`. Both blocks are over base tables.
pub fn match_block(catalog: &Catalog, q: &SpjBlock, v: &SpjBlock) -> Option<MatchWitness> {
    // An unlimited meter never trips, so Err is unreachable here.
    match_block_metered(catalog, q, v, &BudgetMeter::unlimited()).unwrap_or(None)
}

/// [`match_block`] under a resource budget. Charges the meter per
/// alignment attempt and inside the implication prover; propagates
/// exhaustion so the caller fails closed instead of matching.
pub fn match_block_metered(
    catalog: &Catalog,
    q: &SpjBlock,
    v: &SpjBlock,
    meter: &BudgetMeter,
) -> Result<Option<MatchWitness>> {
    meter.charge(PHASE, 1)?;
    if q.scans.len() != v.scans.len() {
        return Ok(None);
    }
    // Multiset of table names must agree.
    let mut qt: Vec<&Ident> = q.scans.iter().map(|(t, _)| t).collect();
    let mut vt: Vec<&Ident> = v.scans.iter().map(|(t, _)| t).collect();
    qt.sort();
    vt.sort();
    if qt != vt {
        return Ok(None);
    }
    // Try alignments of Q scan instances onto V scan instances.
    align_scans(&q.scans, &v.scans, meter, |q_to_v| {
        check_aligned(catalog, q, v, q_to_v, meter)
    })
}

/// The one alignment search over two scan lists: maps each of `q`'s
/// scan instances onto a distinct instance of `v` with the same table
/// and width, trying `v`'s instances in order and backtracking. `visit`
/// sees each complete alignment as a flat-column map from `q`'s frame
/// into `v`'s; the search stops at the first `Some` it returns. Each
/// candidate instance charges the matcher's phase once to `meter`.
pub(crate) fn align_scans<T>(
    q: &[(Ident, Schema)],
    v: &[(Ident, Schema)],
    meter: &BudgetMeter,
    mut visit: impl FnMut(&[usize]) -> Result<Option<T>>,
) -> Result<Option<T>> {
    if q.len() != v.len() {
        return Ok(None);
    }
    let v_start = v
        .iter()
        .scan(0, |at, (_, s)| {
            *at += s.len();
            Some(*at - s.len())
        })
        .collect();
    let mut search = Alignment {
        q,
        v,
        v_start,
        meter,
        used: vec![false; v.len()],
        map: vec![0; q.iter().map(|(_, s)| s.len()).sum()],
    };
    search.extend(0, 0, &mut visit)
}

/// The state of one [`align_scans`] search.
struct Alignment<'a> {
    q: &'a [(Ident, Schema)],
    v: &'a [(Ident, Schema)],
    /// First flat column of each of `v`'s instances.
    v_start: Vec<usize>,
    meter: &'a BudgetMeter,
    used: Vec<bool>,
    /// The flat-column map built so far.
    map: Vec<usize>,
}

impl Alignment<'_> {
    /// Aligns `q`'s instances from `idx` on, whose first flat column is
    /// `q_at`.
    fn extend<T>(
        &mut self,
        idx: usize,
        q_at: usize,
        visit: &mut impl FnMut(&[usize]) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let Some((table, schema)) = self.q.get(idx) else {
            return visit(&self.map);
        };
        for vi in 0..self.v.len() {
            if self.used[vi] || &self.v[vi].0 != table || self.v[vi].1.len() != schema.len() {
                continue;
            }
            self.meter.charge(PHASE, 1)?;
            self.used[vi] = true;
            for k in 0..schema.len() {
                self.map[q_at + k] = self.v_start[vi] + k;
            }
            if let Some(found) = self.extend(idx + 1, q_at + schema.len(), visit)? {
                return Ok(Some(found));
            }
            self.used[vi] = false;
        }
        Ok(None)
    }
}

fn check_aligned(
    catalog: &Catalog,
    q: &SpjBlock,
    v: &SpjBlock,
    q_to_v: &[usize],
    meter: &BudgetMeter,
) -> Result<Option<MatchWitness>> {
    let qc_in_v: Vec<ScalarExpr> = q
        .conjuncts
        .iter()
        .map(|c| c.map_cols(&|i| q_to_v[i]))
        .collect();

    // Q's rows must be a subset of V's: Qc ⟹ Vc.
    if !implies_metered(&qc_in_v, &v.conjuncts, v.flat_arity(), meter)? {
        return Ok(None);
    }

    // Every base column Q needs (in projection or predicate) must be
    // available through V's projection as a plain column.
    let avail = |flat_col: usize| -> Option<usize> {
        v.projection
            .iter()
            .position(|e| e == &ScalarExpr::Col(flat_col))
    };
    // Remap an expression's columns through V's projection; None if any
    // needed column is unavailable.
    let remap = |e: &ScalarExpr, pre: &dyn Fn(usize) -> usize| -> Option<ScalarExpr> {
        let ok = std::cell::Cell::new(true);
        let remapped = e.transform(&|x| match x {
            ScalarExpr::Col(i) => match avail(pre(*i)) {
                Some(k) => Some(ScalarExpr::Col(k)),
                None => {
                    ok.set(false);
                    Some(x.clone())
                }
            },
            _ => None,
        });
        ok.get().then_some(remapped)
    };
    let mut extra = Vec::with_capacity(qc_in_v.len());
    for c in &qc_in_v {
        match remap(c, &|i| i) {
            Some(e) => extra.push(e),
            None => return Ok(None),
        }
    }
    let mut projection = Vec::with_capacity(q.projection.len());
    for p in &q.projection {
        match remap(p, &|i| q_to_v[i]) {
            Some(e) => projection.push(e),
            None => return Ok(None),
        }
    }

    // Multiplicity reasoning. A final Distinct absorbs everything; a
    // duplicate-preserving V reproduces Q's base-row multiset exactly
    // under σ_extra, and π preserves it. A set V serves a Q that wants
    // multiplicities only if Q is provably duplicate-free (then sets =
    // multisets).
    if !q.distinct && v.distinct && !is_duplicate_free(catalog, q) {
        return Ok(None);
    }
    Ok(Some(MatchWitness {
        extra_conjuncts: extra,
        projection,
        distinct: q.distinct,
        q_to_v: q_to_v.to_vec(),
    }))
}

/// A block is duplicate-free if it ends in DISTINCT, or if its projection
/// retains a primary key of *every* scan instance (so output tuples are
/// in bijection with base-row combinations, which are sets).
pub fn is_duplicate_free(catalog: &Catalog, block: &SpjBlock) -> bool {
    if block.distinct {
        return true;
    }
    block.scans.iter().enumerate().all(|(idx, (table, schema))| {
        let Some(meta) = catalog.table(table) else {
            return false;
        };
        let Some(pk) = &meta.primary_key else {
            return false;
        };
        let (start, _) = block.scan_range(idx);
        pk.iter().all(|col| {
            let Some(i) = schema.index_of(col) else {
                return false;
            };
            let flat = start + i;
            // Projected directly, or pinned to a constant by the
            // predicate (a pinned column carries no information and
            // cannot create duplicates).
            block.projection.contains(&ScalarExpr::Col(flat))
                || pinned_by(&block.conjuncts, flat, block.flat_arity())
        })
    })
}

/// An index of SPJ blocks by their base-relation multiset.
///
/// [`match_block_metered`] can only ever succeed when `Q` and `V` scan
/// the *same multiset* of base tables — its first two checks reject
/// everything else. The validator accumulates hundreds of valid blocks
/// (views, σ-restrictions, U2 compositions, U3 cores), so probing each
/// one linearly pays a sort + comparison per pair just to discover the
/// mismatch. This index buckets blocks by their sorted scan-table list;
/// a lookup returns only the blocks that could possibly align, and every
/// returned candidate goes straight to the alignment search.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    by_tables: std::collections::HashMap<Vec<Ident>, Vec<usize>>,
    /// C3 buckets: a block with `k ≥ 2` scans is indexed under each
    /// distinct signature-minus-one-table, because
    /// [`super::c3::candidates_metered`] can only split a valid block
    /// whose scan multiset is the query's plus exactly one remainder
    /// table. A query's C3 candidates are then the bucket at the
    /// query's own signature.
    sub_tables: std::collections::HashMap<Vec<Ident>, Vec<usize>>,
}

impl CandidateIndex {
    /// The block's matching signature: its scan tables, sorted (a
    /// canonical multiset encoding).
    pub fn signature(block: &SpjBlock) -> Vec<Ident> {
        let mut tables: Vec<Ident> = block.scans.iter().map(|(t, _)| t.clone()).collect();
        tables.sort();
        tables
    }

    /// Records that the block with handle `idx` has `signature`.
    pub fn insert(&mut self, signature: Vec<Ident>, idx: usize) {
        if signature.len() >= 2 {
            for i in 0..signature.len() {
                // The signature is sorted, so equal adjacent tables
                // produce the same reduced signature — index it once.
                if i > 0 && signature[i] == signature[i - 1] {
                    continue;
                }
                let mut reduced = signature.clone();
                reduced.remove(i);
                self.sub_tables.entry(reduced).or_default().push(idx);
            }
        }
        self.by_tables.entry(signature).or_default().push(idx);
    }

    /// Handles of every indexed block with exactly this signature.
    pub fn bucket(&self, signature: &[Ident]) -> &[usize] {
        self.by_tables
            .get(signature)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Handles of the blocks that could possibly match `block` — i.e.
    /// whose scan-table multiset equals `block`'s.
    pub fn candidates(&self, block: &SpjBlock) -> &[usize] {
        self.bucket(&Self::signature(block))
    }

    /// Handles of the blocks that could possibly yield a C3 remainder
    /// split for query `block` — i.e. whose scan-table multiset equals
    /// `block`'s plus exactly one extra table. Everything this bucket
    /// omits is rejected by `candidates_metered`'s first length/alignment
    /// checks anyway, so routing C3 through it cannot change verdicts.
    pub fn c3_candidates(&self, block: &SpjBlock) -> &[usize] {
        self.sub_tables
            .get(&Self::signature(block))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Is `col` forced to a single value by the conjuncts?
fn pinned_by(conjuncts: &[ScalarExpr], col: usize, arity: usize) -> bool {
    use fgac_algebra::CmpOp;
    // col = const appears (possibly via implication).
    let _ = arity;
    conjuncts.iter().any(|c| {
        matches!(c, ScalarExpr::Cmp { op: CmpOp::Eq, left, right }
            if matches!(&**left, ScalarExpr::Col(i) if *i == col)
                && matches!(&**right, ScalarExpr::Lit(_) | ScalarExpr::AccessParam(_)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{CmpOp, Plan};
    use fgac_types::{Column, DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        c.add_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            Some(vec![Ident::new("student_id"), Ident::new("course_id")]),
        )
        .unwrap();
        c
    }

    fn students() -> Plan {
        Plan::scan(
            "students",
            catalog().table(&Ident::new("students")).unwrap().schema.clone(),
        )
    }

    fn grades() -> Plan {
        Plan::scan(
            "grades",
            catalog().table(&Ident::new("grades")).unwrap().schema.clone(),
        )
    }

    fn block(p: &Plan) -> SpjBlock {
        SpjBlock::decompose(&fgac_algebra::normalize(p)).unwrap()
    }

    #[test]
    fn example_5_3_shape_matches() {
        // V: select distinct name, type from students (U3a-derived).
        let v = block(
            &students()
                .project(vec![ScalarExpr::col(1), ScalarExpr::col(2)])
                .distinct(),
        );
        // Q: select distinct name from students where type = 'FullTime'.
        let q = block(
            &students()
                .select(vec![ScalarExpr::eq(
                    ScalarExpr::col(2),
                    ScalarExpr::lit("FullTime"),
                )])
                .project(vec![ScalarExpr::col(1)])
                .distinct(),
        );
        let w = match_block(&catalog(), &q, &v).expect("must match");
        assert!(w.distinct);
        assert_eq!(w.projection, vec![ScalarExpr::Col(0)]);
        assert_eq!(w.extra_conjuncts.len(), 1);
    }

    #[test]
    fn non_distinct_query_from_distinct_view_needs_key() {
        // V: select distinct student_id, course_id, grade from grades.
        let v = block(&grades().distinct());
        // Q: select * from grades where course_id='cs101' — dup-free via
        // the (student_id, course_id) primary key. Example 5.5.
        let q = block(&grades().select(vec![ScalarExpr::eq(
            ScalarExpr::col(1),
            ScalarExpr::lit("cs101"),
        )]));
        assert!(match_block(&catalog(), &q, &v).is_some());

        // But projecting away the key makes multiplicity unrecoverable.
        let q_lossy = block(
            &grades()
                .select(vec![ScalarExpr::eq(
                    ScalarExpr::col(1),
                    ScalarExpr::lit("cs101"),
                )])
                .project(vec![ScalarExpr::col(2)]),
        );
        assert!(match_block(&catalog(), &q_lossy, &v).is_none());
    }

    #[test]
    fn predicate_must_imply_view_predicate() {
        // V: grades with grade > 50.
        let v = block(&grades().select(vec![ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(50),
        )]));
        // Q: grade > 80 — implies V's predicate. Match.
        let q = block(&grades().select(vec![ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(80),
        )]));
        assert!(match_block(&catalog(), &q, &v).is_some());
        // Q: grade > 10 — does not imply. No match.
        let q = block(&grades().select(vec![ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(10),
        )]));
        assert!(match_block(&catalog(), &q, &v).is_none());
    }

    #[test]
    fn filtering_on_unprojected_column_fails() {
        // V projects only name.
        let v = block(&students().project(vec![ScalarExpr::col(1)]).distinct());
        // Q filters on type, which V dropped.
        let q = block(
            &students()
                .select(vec![ScalarExpr::eq(
                    ScalarExpr::col(2),
                    ScalarExpr::lit("FullTime"),
                )])
                .project(vec![ScalarExpr::col(1)])
                .distinct(),
        );
        assert!(match_block(&catalog(), &q, &v).is_none());
    }

    #[test]
    fn table_mismatch_fails_fast() {
        let v = block(&students());
        let q = block(&grades());
        assert!(match_block(&catalog(), &q, &v).is_none());
    }

    #[test]
    fn self_join_alignment_permutes() {
        // V: grades g1 × grades g2 with g1 filtered; Q: same but written
        // with the instances swapped.
        let v = block(&fgac_algebra::normalize(
            &grades()
                .select(vec![ScalarExpr::eq(
                    ScalarExpr::col(0),
                    ScalarExpr::lit("11"),
                )])
                .join(grades(), vec![]),
        ));
        let q = block(&fgac_algebra::normalize(
            &grades()
                .join(
                    grades().select(vec![ScalarExpr::eq(
                        ScalarExpr::col(0),
                        ScalarExpr::lit("11"),
                    )]),
                    vec![],
                )
                // Project in V's order: the filtered instance first.
                .project(
                    (3..6)
                        .chain(0..3)
                        .map(ScalarExpr::Col)
                        .collect::<Vec<_>>(),
                ),
        ));
        assert!(match_block(&catalog(), &q, &v).is_some());
    }

    #[test]
    fn duplicate_free_detection() {
        let cat = catalog();
        // Full grades row retains the PK.
        assert!(is_duplicate_free(&cat, &block(&grades())));
        // Projection without course_id loses the PK.
        let lossy = block(&grades().project(vec![ScalarExpr::col(0), ScalarExpr::col(2)]));
        assert!(!is_duplicate_free(&cat, &lossy));
        // Pinning course_id by predicate restores key coverage.
        let pinned = block(
            &grades()
                .select(vec![ScalarExpr::eq(
                    ScalarExpr::col(1),
                    ScalarExpr::lit("cs101"),
                )])
                .project(vec![ScalarExpr::col(0), ScalarExpr::col(2)]),
        );
        assert!(is_duplicate_free(&cat, &pinned));
    }

    #[test]
    fn c3_buckets_match_brute_force() {
        // Index blocks over {students}, {grades}, {students, grades},
        // {grades, grades}, {students, grades, grades} and check that
        // c3_candidates agrees with a brute-force scan for the
        // "one extra table" condition C3 needs.
        let blocks = vec![
            block(&students()),
            block(&grades()),
            block(&fgac_algebra::normalize(&students().join(grades(), vec![]))),
            block(&fgac_algebra::normalize(&grades().join(grades(), vec![]))),
            block(&fgac_algebra::normalize(
                &students().join(grades(), vec![]).join(grades(), vec![]),
            )),
        ];
        let mut index = CandidateIndex::default();
        for (i, b) in blocks.iter().enumerate() {
            index.insert(CandidateIndex::signature(b), i);
        }
        for q in &blocks {
            let qsig = CandidateIndex::signature(q);
            let brute: Vec<usize> = blocks
                .iter()
                .enumerate()
                .filter(|(_, v)| {
                    let vsig = CandidateIndex::signature(v);
                    vsig.len() == qsig.len() + 1
                        && (0..vsig.len()).any(|i| {
                            let mut reduced = vsig.clone();
                            reduced.remove(i);
                            reduced == qsig
                        })
                })
                .map(|(i, _)| i)
                .collect();
            let mut indexed: Vec<usize> = index.c3_candidates(q).to_vec();
            indexed.sort_unstable();
            indexed.dedup();
            assert_eq!(indexed, brute, "C3 bucket mismatch for {qsig:?}");
        }
    }
}
