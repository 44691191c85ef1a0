//! Inference rules C3a / C3b (Section 5.4): conditional validity.
//!
//! Goal-directed form: given the user's query `Q` (an SPJ block) and a
//! (conditionally) valid block `V = select A from R where Pc ∧ Pr ∧ Pj`,
//! find a remainder split such that `Q` is exactly
//! `select [distinct] A_c from R_c where Pc ∧ Pic`, where `Pic`
//! instantiates all core-side join attributes to constants. The
//! derivation is justified *only if* the instantiated remainder
//!
//! ```sql
//! v_r: SELECT DISTINCT <join attrs> FROM R_r WHERE Pr ∧ Pir
//! ```
//!
//! is itself (conditionally) valid — this is what blocks Example 4.3's
//! registration-status leak — **and** returns a non-empty result on the
//! current database state. Checking those two conditions needs the
//! marking and the executor, so this module only *constructs* the
//! candidate; `nontruman::Validator` verifies it.
//!
//! The split of `V` is U3's `RemainderSplit` (join pairs kept in
//! conjunct order, which `Pic`, `Pir` and `v_r`'s projection follow),
//! and `Q` is aligned onto the core by the matcher's
//! `align_scans` search, taking its first alignment.

use super::matcher::align_scans;
use super::u3::RemainderSplit;
use fgac_algebra::implication::implies_metered;
use fgac_algebra::{CmpOp, ScalarExpr, SpjBlock};
use fgac_analyze::Obligation;
use fgac_storage::Catalog;
use fgac_types::{BudgetMeter, Result, Value};

/// Phase label C3 candidate construction charges its budget under.
const PHASE: &str = "C3 candidates";

/// A C3 candidate produced from (query, valid block, remainder choice).
#[derive(Debug, Clone)]
pub struct C3Candidate {
    /// `v_r` with DISTINCT — condition 3 of C3a: must be conditionally
    /// valid and non-empty on the current state.
    pub v_r: SpjBlock,
    /// `v_r` without DISTINCT — C3b: if *this* is valid too, the query's
    /// multiplicities are reconstructible and a non-DISTINCT query is
    /// acceptable.
    pub v_r_count: SpjBlock,
    /// The query needs C3b (it is duplicate-preserving and not provably
    /// duplicate-free).
    pub requires_c3b: bool,
    /// Human-readable description for the rule trace.
    pub description: String,
    /// The equivalence obligations (query predicate ⟺ Pc ∧ Pic over the
    /// core frame) this candidate discharged, recorded for the validity
    /// certificate so the checker can re-prove them.
    pub obligations: Vec<Obligation>,
}

/// Enumerates C3 candidates justifying `query` from `valid`.
pub fn candidates(catalog: &Catalog, query: &SpjBlock, valid: &SpjBlock) -> Vec<C3Candidate> {
    // An unlimited meter never trips, so Err is unreachable here.
    candidates_metered(catalog, query, valid, &BudgetMeter::unlimited()).unwrap_or_default()
}

/// [`candidates`] under a resource budget. Charges per remainder choice
/// and inside the implication prover; propagates exhaustion so the
/// caller fails closed.
pub fn candidates_metered(
    catalog: &Catalog,
    query: &SpjBlock,
    valid: &SpjBlock,
    meter: &BudgetMeter,
) -> Result<Vec<C3Candidate>> {
    let mut out = Vec::new();
    if valid.scans.len() < 2 || query.scans.len() != valid.scans.len() - 1 {
        return Ok(out);
    }

    // The alignment search is not charged against the real budget.
    let uncharged = BudgetMeter::unlimited();
    'rem: for r_idx in 0..valid.scans.len() {
        meter.charge(PHASE, 1)?;
        let Some(split) = RemainderSplit::new(valid, r_idx) else {
            continue;
        };

        // C3a condition 1(d): every core-side join attribute must be in
        // the valid block's projection (as a plain column) — otherwise
        // the user cannot select on it.
        if !split
            .pj
            .iter()
            .all(|&(c, _)| valid.projection.contains(&ScalarExpr::Col(c)))
        {
            continue;
        }

        // Align the query onto the core (V's frame with the remainder
        // removed): the first same-table alignment, never a later one.
        let first = |map: &[usize]| Ok(Some(map.to_vec()));
        let Some(q_to_core) = align_scans(&query.scans, &split.core_scans(), &uncharged, first)?
        else {
            continue;
        };
        let qc_in_core: Vec<ScalarExpr> = query
            .conjuncts
            .iter()
            .map(|c| c.map_cols(&|i| q_to_core[i]))
            .collect();

        // Extract the instantiation Pic: every core join attribute must
        // be pinned to a literal by the query's predicate.
        let core_arity = valid.flat_arity() - (split.re - split.rs);
        let mut pic = Vec::new();
        let mut pir = Vec::new();
        let mut pins: Vec<(usize, Value)> = Vec::new();
        for &(core_col, rem_col) in &split.pj {
            let cc = split.core_col(core_col);
            let Some(v) = pinned_value(&qc_in_core, cc, core_arity, meter)? else {
                continue 'rem;
            };
            pic.push(ScalarExpr::eq(ScalarExpr::Col(cc), ScalarExpr::Lit(v.clone())));
            pir.push(ScalarExpr::eq(
                ScalarExpr::Col(rem_col - split.rs),
                ScalarExpr::Lit(v.clone()),
            ));
            pins.push((cc, v));
        }

        // The query predicate must be equivalent to Pc ∧ Pic.
        let mut pc_pic = split.core_conjuncts();
        pc_pic.extend(pic);
        if !implies_metered(&qc_in_core, &pc_pic, core_arity, meter)?
            || !implies_metered(&pc_pic, &qc_in_core, core_arity, meter)?
        {
            continue;
        }

        // The query's projection must use only core columns that V
        // projects (A_c): each referenced column must appear (shifted)
        // in V's projection.
        let proj_ok = query.projection.iter().all(|e| {
            e.referenced_cols().iter().all(|&i| {
                let col = ScalarExpr::Col(split.valid_col(q_to_core[i]));
                valid.projection.contains(&col)
            })
        });
        if !proj_ok {
            continue;
        }

        // Multiplicity: DISTINCT queries are fine (C3a); otherwise the
        // query must be duplicate-free, or C3b must hold.
        let requires_c3b =
            !query.distinct && !super::matcher::is_duplicate_free(catalog, query);

        let v_r = split.remainder(pir, true);
        let v_r_count = SpjBlock {
            distinct: false,
            ..v_r.clone()
        };
        let description = format!(
            "C3{} with remainder {} instantiated at {}",
            if requires_c3b { "b" } else { "a" },
            split.remainder_scan().0,
            pins.iter()
                .map(|(c, v)| format!("#{c}={v}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push(C3Candidate {
            v_r,
            v_r_count,
            requires_c3b,
            obligations: vec![
                Obligation {
                    premise: qc_in_core.clone(),
                    conclusion: pc_pic.clone(),
                    arity: core_arity,
                },
                Obligation {
                    premise: pc_pic,
                    conclusion: qc_in_core,
                    arity: core_arity,
                },
            ],
            description,
        });
    }
    Ok(out)
}

/// The literal `col` is pinned to by the conjuncts, if any.
fn pinned_value(
    conjuncts: &[ScalarExpr],
    col: usize,
    arity: usize,
    meter: &BudgetMeter,
) -> Result<Option<Value>> {
    // Fast path: a syntactic col = lit conjunct.
    for c in conjuncts {
        if let ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = c
        {
            if matches!(&**left, ScalarExpr::Col(i) if *i == col) {
                if let ScalarExpr::Lit(v) = &**right {
                    return Ok(Some(v.clone()));
                }
            }
        }
    }
    // Derived pins (through equalities) — probe candidate literals.
    let literals: Vec<Value> = conjuncts
        .iter()
        .flat_map(|c| {
            let mut lits = Vec::new();
            c.walk(&mut |e| {
                if let ScalarExpr::Lit(v) = e {
                    if !v.is_null() {
                        lits.push(v.clone());
                    }
                }
            });
            lits
        })
        .collect();
    for v in literals {
        if implies_metered(
            conjuncts,
            &[ScalarExpr::eq(ScalarExpr::Col(col), ScalarExpr::Lit(v.clone()))],
            arity,
            meter,
        )? {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::Plan;
    use fgac_types::{Column, DataType, Ident, Schema};

    /// Example 4.3/4.4: Co-studentGrades and the CS101 query.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
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
        c.add_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        c
    }

    /// Co-studentGrades instantiated for user 11: π_{G.*}(G ⋈ R) with
    /// R.student_id='11' and G.course_id=R.course_id. Flat: G(0..3),
    /// R(3..5).
    fn co_student_grades(cat: &Catalog) -> SpjBlock {
        let p = Plan::scan(
            "grades",
            cat.table(&Ident::new("grades")).unwrap().schema.clone(),
        )
        .join(
            Plan::scan(
                "registered",
                cat.table(&Ident::new("registered")).unwrap().schema.clone(),
            ),
            vec![
                ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::lit("11")),
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(4)),
            ],
        )
        .project(vec![
            ScalarExpr::col(0),
            ScalarExpr::col(1),
            ScalarExpr::col(2),
        ]);
        SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap()
    }

    /// q: select * from Grades where course_id = 'CS101'.
    fn cs101_query(cat: &Catalog, distinct: bool) -> SpjBlock {
        let mut p = Plan::scan(
            "grades",
            cat.table(&Ident::new("grades")).unwrap().schema.clone(),
        )
        .select(vec![ScalarExpr::eq(
            ScalarExpr::col(1),
            ScalarExpr::lit("cs101"),
        )]);
        p = p.project(vec![
            ScalarExpr::col(0),
            ScalarExpr::col(1),
            ScalarExpr::col(2),
        ]);
        if distinct {
            p = p.distinct();
        }
        SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap()
    }

    #[test]
    fn example_4_4_candidate_construction() {
        let cat = catalog();
        let v = co_student_grades(&cat);
        let q = cs101_query(&cat, true);
        let cands = candidates(&cat, &q, &v);
        assert_eq!(cands.len(), 1, "one remainder split (registered)");
        let c = &cands[0];
        // v_r: select distinct course_id from registered where
        // student_id='11' and course_id='cs101'.
        assert_eq!(c.v_r.scans[0].0, Ident::new("registered"));
        assert!(c.v_r.distinct);
        assert!(c
            .v_r
            .conjuncts
            .contains(&ScalarExpr::eq(ScalarExpr::Col(0), ScalarExpr::lit("11"))));
        assert!(c
            .v_r
            .conjuncts
            .contains(&ScalarExpr::eq(ScalarExpr::Col(1), ScalarExpr::lit("cs101"))));
        assert!(!c.requires_c3b, "distinct query uses C3a");
    }

    #[test]
    fn non_distinct_query_with_pk_uses_c3a() {
        // Example 5.5: "Since the Grades table has a primary key, the
        // distinct keyword can be dropped."
        let cat = catalog();
        let v = co_student_grades(&cat);
        let q = cs101_query(&cat, false);
        let cands = candidates(&cat, &q, &v);
        assert_eq!(cands.len(), 1);
        assert!(
            !cands[0].requires_c3b,
            "PK makes the query duplicate-free; C3a suffices"
        );
    }

    #[test]
    fn unpinned_join_attribute_blocks_candidate() {
        // Query without the course_id instantiation cannot use C3.
        let cat = catalog();
        let v = co_student_grades(&cat);
        let p = Plan::scan(
            "grades",
            cat.table(&Ident::new("grades")).unwrap().schema.clone(),
        )
        .select(vec![ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(90),
        )]);
        let q = SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap();
        assert!(candidates(&cat, &q, &v).is_empty());
    }

    #[test]
    fn extra_query_predicates_fold_into_pic_equivalence() {
        // q with an additional predicate not matched by Pc ∧ Pic fails
        // the equivalence check (it would need a further σ on top, which
        // C2 handles at the class level, not here).
        let cat = catalog();
        let v = co_student_grades(&cat);
        let p = Plan::scan(
            "grades",
            cat.table(&Ident::new("grades")).unwrap().schema.clone(),
        )
        .select(vec![
            ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit("cs101")),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(90)),
        ])
        .project(vec![
            ScalarExpr::col(0),
            ScalarExpr::col(1),
            ScalarExpr::col(2),
        ])
        .distinct();
        let q = SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap();
        assert!(candidates(&cat, &q, &v).is_empty());
    }

    #[test]
    fn derived_pin_through_equality() {
        let conj = vec![
            ScalarExpr::eq(ScalarExpr::Col(0), ScalarExpr::Col(1)),
            ScalarExpr::eq(ScalarExpr::Col(1), ScalarExpr::lit("cs101")),
        ];
        let meter = BudgetMeter::unlimited();
        assert_eq!(
            pinned_value(&conj, 0, 2, &meter).unwrap(),
            Some(Value::Str("cs101".into()))
        );
        assert_eq!(pinned_value(&conj[..1], 0, 2, &meter).unwrap(), None);
    }
}
