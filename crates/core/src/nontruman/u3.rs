//! Inference rules U3a / U3b / U3c (Section 5.3): deriving the validity
//! of a *subexpression* of a valid query using integrity constraints.
//!
//! Given a valid SPJ block `select A from R where Pc ∧ Pr ∧ Pj`, a
//! *remainder* scan instance `Rr`, and a (user-visible) inclusion
//! dependency guaranteeing that every tuple of the *core*
//! `σ_Pc(R ∖ Rr)` joins with some tuple of `σ_Pr(Rr)` under `Pj`, the
//! core projection
//!
//! ```sql
//! SELECT DISTINCT A_c FROM R_c WHERE P_c     -- U3a/U3b
//! ```
//!
//! is unconditionally valid; under U3c's extra conditions (the
//! remainder's join attributes are visible in `A_r` and
//! `SELECT A_rj FROM R_r WHERE P_r` is itself valid), the multiplicity
//! of the core can be reconstructed and the `DISTINCT` dropped.
//!
//! The core/remainder decomposition itself is `RemainderSplit`, which
//! the conditional rules C3a/C3b ([`super::c3`]) split their valid
//! block with too.

use fgac_algebra::implication::implies_metered;
use fgac_algebra::{CmpOp, ScalarExpr, SpjBlock};
use fgac_analyze::Obligation;
use fgac_storage::{Catalog, InclusionDependency};
use fgac_types::{BudgetMeter, Ident, Result, Schema};
use std::collections::BTreeSet;

/// Phase label U3 derivations charge their budget under.
const PHASE: &str = "U3 derivations";

/// A valid block `V = select A from R where Pc ∧ Pr ∧ Pj` split at one
/// remainder scan instance `Rr` (Sections 5.3 and 5.4): `Pc` touches
/// only the other instances (the core), `Pr` only `Rr`, and every
/// conjunct spanning both is a plain equi-join `Pj`.
#[derive(Debug, Clone)]
pub(crate) struct RemainderSplit<'v> {
    valid: &'v SpjBlock,
    r: usize,
    /// The remainder's flat columns in `V`'s frame: `rs..re`.
    pub rs: usize,
    pub re: usize,
    pub pc: Vec<ScalarExpr>,
    pub pr: Vec<ScalarExpr>,
    /// `Pj` as (core column, remainder column) pairs in `V`'s frame, in
    /// conjunct order.
    pub pj: Vec<(usize, usize)>,
}

impl<'v> RemainderSplit<'v> {
    /// Splits `valid` at scan instance `r`; `None` when a conjunct
    /// spanning core and remainder is not a plain equi-join, or when
    /// none joins them.
    pub fn new(valid: &'v SpjBlock, r: usize) -> Option<Self> {
        let (rs, re) = valid.scan_range(r);
        let in_rem = |c: usize| c >= rs && c < re;
        let (mut pc, mut pr, mut pj) = (Vec::new(), Vec::new(), Vec::new());
        for c in &valid.conjuncts {
            let cols = c.referenced_cols();
            let rem_cols = cols.iter().filter(|&&i| in_rem(i)).count();
            if rem_cols == 0 {
                pc.push(c.clone());
            } else if rem_cols == cols.len() {
                pr.push(c.clone());
            } else {
                let ScalarExpr::Cmp { op: CmpOp::Eq, left, right } = c else {
                    return None;
                };
                let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (&**left, &**right) else {
                    return None;
                };
                let (core, rem) = if in_rem(*a) { (*b, *a) } else { (*a, *b) };
                if in_rem(core) || !in_rem(rem) {
                    return None;
                }
                pj.push((core, rem));
            }
        }
        (!pj.is_empty()).then_some(RemainderSplit { valid, r, rs, re, pc, pr, pj })
    }

    /// Whether `V`'s flat column `c` belongs to the remainder.
    pub fn in_rem(&self, c: usize) -> bool {
        c >= self.rs && c < self.re
    }

    /// `V`'s core column `c` in the core frame (`V`'s row without the
    /// remainder's columns).
    pub fn core_col(&self, c: usize) -> usize {
        if c >= self.re {
            c - (self.re - self.rs)
        } else {
            c
        }
    }

    /// The inverse of [`Self::core_col`]: core-frame column `c` in `V`'s
    /// frame.
    pub fn valid_col(&self, c: usize) -> usize {
        if c >= self.rs {
            c + (self.re - self.rs)
        } else {
            c
        }
    }

    /// The core's scan instances: `V`'s without the remainder.
    pub fn core_scans(&self) -> Vec<(Ident, Schema)> {
        let mut scans = self.valid.scans.clone();
        scans.remove(self.r);
        scans
    }

    /// `Pc` over the core frame.
    pub fn core_conjuncts(&self) -> Vec<ScalarExpr> {
        self.pc.iter().map(|c| c.map_cols(&|i| self.core_col(i))).collect()
    }

    /// The remainder's scan instance.
    pub fn remainder_scan(&self) -> &'v (Ident, Schema) {
        &self.valid.scans[self.r]
    }

    /// `select [distinct] A_rj from Rr where Pr ∧ extra`: the remainder
    /// projected on its join attributes (in `pj`'s order), over its own
    /// frame; `extra` is already in that frame.
    pub fn remainder(&self, extra: Vec<ScalarExpr>, distinct: bool) -> SpjBlock {
        let mut conjuncts: Vec<ScalarExpr> =
            self.pr.iter().map(|c| c.map_cols(&|i| i - self.rs)).collect();
        conjuncts.extend(extra);
        SpjBlock {
            scans: vec![self.remainder_scan().clone()],
            conjuncts,
            projection: self.pj.iter().map(|&(_, r)| ScalarExpr::Col(r - self.rs)).collect(),
            distinct,
        }
    }
}

/// A U3 derivation: the core block that became valid, and whether the
/// duplicate-preserving version is also valid (U3c).
#[derive(Debug, Clone)]
pub struct U3Derivation {
    pub core: SpjBlock,
    /// U3c fired: `core` with `distinct = false` is also valid. The
    /// `q_rj` block that condition 3 requires valid is returned so the
    /// caller can verify it against the current marking.
    pub multiplicity_witness: Option<SpjBlock>,
    pub constraint: Ident,
    pub remainder_table: Ident,
    /// The implication obligations this derivation discharged (join-
    /// attribute alignment, source filter, destination filter), recorded
    /// for the validity certificate so the checker can re-prove them.
    pub obligations: Vec<Obligation>,
}

/// Splits of one valid block, one per viable remainder instance and
/// matching visible constraint.
pub fn derive(
    catalog: &Catalog,
    visible_constraints: &BTreeSet<Ident>,
    valid: &SpjBlock,
) -> Vec<U3Derivation> {
    // An unlimited meter never trips, so Err is unreachable here.
    derive_metered(catalog, visible_constraints, valid, &BudgetMeter::unlimited())
        .unwrap_or_default()
}

/// [`derive()`] under a resource budget. Charges per candidate
/// (remainder, constraint) pair and inside the implication prover;
/// propagates exhaustion so the caller fails closed.
pub fn derive_metered(
    catalog: &Catalog,
    visible_constraints: &BTreeSet<Ident>,
    valid: &SpjBlock,
    meter: &BudgetMeter,
) -> Result<Vec<U3Derivation>> {
    let mut out = Vec::new();
    if valid.scans.len() < 2 {
        return Ok(out);
    }
    let flat = valid.flat_arity();
    let inclusions: Vec<InclusionDependency> = catalog
        .all_inclusions()
        .into_iter()
        .filter(|d| visible_constraints.contains(&d.name))
        .collect();

    for r_idx in 0..valid.scans.len() {
        let Some(mut split) = RemainderSplit::new(valid, r_idx) else {
            continue;
        };
        split.pj.sort_unstable();
        split.pj.dedup();
        let rs = split.rs;

        // A_c: projection expressions that only touch core columns.
        // Condition 1(a)/(b) of U3a is satisfied by construction of the
        // partition.
        let core_projection: Vec<&ScalarExpr> = valid
            .projection
            .iter()
            .filter(|e| e.referenced_cols().iter().all(|&i| !split.in_rem(i)))
            .collect();
        if core_projection.is_empty() {
            continue;
        }

        let (rem_table, rem_schema) = split.remainder_scan();

        for dep in &inclusions {
            meter.charge(PHASE, 1)?;
            if &dep.dst_table != rem_table {
                continue;
            }
            // The dep's destination columns must be exactly the
            // remainder-side join attributes.
            let dep_dst_flat: Vec<usize> = match dep
                .dst_columns
                .iter()
                .map(|c| rem_schema.index_of(c).map(|i| rs + i))
                .collect::<Option<Vec<_>>>()
            {
                Some(v) => v,
                None => continue,
            };
            let rem_join_cols: BTreeSet<usize> = split.pj.iter().map(|&(_, r)| r).collect();
            if rem_join_cols != dep_dst_flat.iter().copied().collect() {
                continue;
            }

            // Locate a core instance of dep.src_table whose dep-source
            // columns are, under Pc, equal to the corresponding core-side
            // join attributes.
            let mut matched = false;
            let mut matched_obligations: Vec<Obligation> = Vec::new();
            for (c_idx, (c_table, c_schema)) in valid.scans.iter().enumerate() {
                if c_idx == r_idx || c_table != &dep.src_table {
                    continue;
                }
                let (cs, _) = valid.scan_range(c_idx);
                let dep_src_flat: Vec<usize> = match dep
                    .src_columns
                    .iter()
                    .map(|c| c_schema.index_of(c).map(|i| cs + i))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(v) => v,
                    None => break,
                };
                // For each dep column pair k: the core join column that
                // joins to dep_dst_flat[k] must equal dep_src_flat[k]
                // under Pc (directly the same column or provably equal).
                let mut eq_needed = Vec::new();
                let mut align_ok = true;
                for (k, &dst) in dep_dst_flat.iter().enumerate() {
                    let Some(&(core_col, _)) = split.pj.iter().find(|&&(_, r)| r == dst) else {
                        align_ok = false;
                        break;
                    };
                    if core_col != dep_src_flat[k] {
                        eq_needed.push(ScalarExpr::eq(
                            ScalarExpr::Col(core_col.min(dep_src_flat[k])),
                            ScalarExpr::Col(core_col.max(dep_src_flat[k])),
                        ));
                    }
                }
                if !align_ok {
                    continue;
                }
                let pc = &split.pc;
                let mut obligations: Vec<Obligation> = Vec::new();
                if !eq_needed.is_empty() {
                    if !implies_metered(pc, &eq_needed, flat, meter)? {
                        continue;
                    }
                    obligations.push(Obligation {
                        premise: pc.clone(),
                        conclusion: eq_needed.clone(),
                        arity: flat,
                    });
                }

                // Pc must imply the dep's source filter (bound over the
                // core instance), and the dep's target filter must imply
                // Pr (bound over the remainder instance).
                if let Some(f) = &dep.src_filter {
                    let Ok(bound) =
                        fgac_algebra::bind_table_expr(catalog, c_table, f, &Default::default())
                    else {
                        continue;
                    };
                    let shifted = bound.map_cols(&|i| cs + i);
                    if !implies_metered(pc, std::slice::from_ref(&shifted), flat, meter)? {
                        continue;
                    }
                    obligations.push(Obligation {
                        premise: pc.clone(),
                        conclusion: vec![shifted],
                        arity: flat,
                    });
                }
                {
                    let dst_conjuncts: Vec<ScalarExpr> = match &dep.dst_filter {
                        Some(f) => {
                            let Ok(bound) = fgac_algebra::bind_table_expr(
                                catalog,
                                rem_table,
                                f,
                                &Default::default(),
                            ) else {
                                continue;
                            };
                            vec![bound.map_cols(&|i| rs + i)]
                        }
                        None => Vec::new(),
                    };
                    if !implies_metered(&dst_conjuncts, &split.pr, flat, meter)? {
                        continue;
                    }
                    obligations.push(Obligation {
                        premise: dst_conjuncts,
                        conclusion: split.pr.clone(),
                        arity: flat,
                    });
                }
                matched = true;
                matched_obligations = obligations;
                break;
            }
            if !matched {
                continue;
            }

            // Build the core block (U3a/U3b): remove the remainder scan,
            // shift offsets, project A_c, DISTINCT.
            let core = SpjBlock {
                scans: split.core_scans(),
                conjuncts: split.core_conjuncts(),
                projection: core_projection
                    .iter()
                    .map(|e| e.map_cols(&|i| split.core_col(i)))
                    .collect(),
                distinct: true,
            };

            // U3c: remainder join attributes must appear in the valid
            // block's projection (condition 1d), and q_rj =
            // `select A_rj from Rr where Pr` must itself be valid
            // (condition 3) — returned as a witness for the caller.
            let rem_join_visible = split
                .pj
                .iter()
                .all(|&(_, r)| valid.projection.contains(&ScalarExpr::Col(r)));
            let multiplicity_witness =
                (rem_join_visible && !valid.distinct).then(|| split.remainder(Vec::new(), false));

            out.push(U3Derivation {
                core,
                multiplicity_witness,
                constraint: dep.name.clone(),
                remainder_table: rem_table.clone(),
                obligations: matched_obligations,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::Plan;
    use fgac_types::{Column, DataType, Schema};

    /// Example 5.1/5.2 setup: RegStudents view over Registered ⋈
    /// Students, with "every student registers for ≥1 course".
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
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        c.add_inclusion_dependency(InclusionDependency {
            name: Ident::new("all_registered"),
            src_table: Ident::new("students"),
            src_columns: vec![Ident::new("student_id")],
            src_filter: None,
            dst_table: Ident::new("registered"),
            dst_columns: vec![Ident::new("student_id")],
            dst_filter: None,
        })
        .unwrap();
        c
    }

    /// RegStudents: π_{R.course_id, S.name, S.type}(R ⋈ S). Flat order:
    /// registered(0,1), students(2,3,4).
    fn reg_students() -> SpjBlock {
        let p = Plan::scan(
            "registered",
            catalog().table(&Ident::new("registered")).unwrap().schema.clone(),
        )
        .join(
            Plan::scan(
                "students",
                catalog().table(&Ident::new("students")).unwrap().schema.clone(),
            ),
            vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2))],
        )
        .project(vec![
            ScalarExpr::col(1),
            ScalarExpr::col(3),
            ScalarExpr::col(4),
        ]);
        SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap()
    }

    fn visible(names: &[&str]) -> BTreeSet<Ident> {
        names.iter().map(Ident::new).collect()
    }

    #[test]
    fn example_5_2_derives_distinct_students_projection() {
        let cat = catalog();
        let ds = derive(&cat, &visible(&["all_registered"]), &reg_students());
        // One derivation: remainder = registered, core = students.
        let d = ds
            .iter()
            .find(|d| d.remainder_table == Ident::new("registered"))
            .expect("derivation for remainder=registered");
        assert_eq!(d.core.scans.len(), 1);
        assert_eq!(d.core.scans[0].0, Ident::new("students"));
        assert!(d.core.distinct, "U3a derives SELECT DISTINCT");
        // A_c = name, type (course_id is a remainder attribute).
        assert_eq!(
            d.core.projection,
            vec![ScalarExpr::Col(1), ScalarExpr::Col(2)]
        );
        assert_eq!(d.constraint, Ident::new("all_registered"));
        // Remainder join attr (R.student_id) is NOT in the view
        // projection, so no U3c multiplicity witness.
        assert!(d.multiplicity_witness.is_none());
    }

    #[test]
    fn invisible_constraint_blocks_derivation() {
        let cat = catalog();
        let ds = derive(&cat, &visible(&[]), &reg_students());
        assert!(ds.is_empty());
    }

    #[test]
    fn example_5_3_conditional_inclusion() {
        // View restricted to full-time students; constraint only covers
        // full-time students.
        let mut cat = catalog();
        cat.add_inclusion_dependency(InclusionDependency {
            name: Ident::new("ft_registered"),
            src_table: Ident::new("students"),
            src_columns: vec![Ident::new("student_id")],
            src_filter: Some(fgac_sql::parse_expr("type = 'FullTime'").unwrap()),
            dst_table: Ident::new("registered"),
            dst_columns: vec![Ident::new("student_id")],
            dst_filter: None,
        })
        .unwrap();
        // σ_{S.type='FullTime'}(RegStudents) as a block.
        let mut v = reg_students();
        v.conjuncts.push(ScalarExpr::eq(
            ScalarExpr::Col(4),
            ScalarExpr::lit("FullTime"),
        ));
        let ds = derive(&cat, &visible(&["ft_registered"]), &v);
        assert!(
            ds.iter().any(|d| d.constraint == Ident::new("ft_registered")),
            "Pc = (type='FullTime') implies the constraint's source filter"
        );

        // Without the type restriction, the conditional constraint must
        // NOT fire (Pc = true does not imply type='FullTime').
        let ds = derive(&cat, &visible(&["ft_registered"]), &reg_students());
        assert!(ds.iter().all(|d| d.constraint != Ident::new("ft_registered")));
    }

    #[test]
    fn u3c_witness_when_join_attrs_projected() {
        // View that projects the remainder join attribute too:
        // π_{R.student_id, R.course_id, S.name}(R ⋈ S), remainder = S?
        // Use remainder = registered with R.student_id projected.
        let cat = catalog();
        let p = Plan::scan(
            "registered",
            cat.table(&Ident::new("registered")).unwrap().schema.clone(),
        )
        .join(
            Plan::scan(
                "students",
                cat.table(&Ident::new("students")).unwrap().schema.clone(),
            ),
            vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2))],
        )
        .project(vec![
            ScalarExpr::col(0), // R.student_id (the join attr)
            ScalarExpr::col(1),
            ScalarExpr::col(3),
        ]);
        let v = SpjBlock::decompose(&fgac_algebra::normalize(&p)).unwrap();
        let ds = derive(&cat, &visible(&["all_registered"]), &v);
        let d = ds
            .iter()
            .find(|d| d.remainder_table == Ident::new("registered"))
            .unwrap();
        let w = d.multiplicity_witness.as_ref().expect("U3c witness");
        // q_rj = select student_id from registered.
        assert_eq!(w.scans[0].0, Ident::new("registered"));
        assert_eq!(w.projection, vec![ScalarExpr::Col(0)]);
        assert!(!w.distinct);
    }

    #[test]
    fn cross_conjunct_that_is_not_equijoin_blocks() {
        let cat = catalog();
        let mut v = reg_students();
        // Add R.course_id <> S.name — a non-equi cross conjunct.
        v.conjuncts.push(ScalarExpr::cmp(
            CmpOp::NotEq,
            ScalarExpr::Col(1),
            ScalarExpr::Col(3),
        ));
        let ds = derive(&cat, &visible(&["all_registered"]), &v);
        assert!(ds.is_empty());
    }
}
