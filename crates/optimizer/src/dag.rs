//! The AND-OR DAG (Figure 1 of the paper).
//!
//! Rectangular *equivalence nodes* (OR nodes) represent a logical
//! expression; circular *operation nodes* (AND nodes) represent one way
//! to compute it from child equivalence nodes. Hash-consing on
//! `(operator, canonical child ids)` gives the **unification** of
//! Roy et al. [25]: when two DAGs (e.g. a query and an authorization
//! view) contain a common subexpression, they share the equivalence
//! node — the basis of validity testing (Section 5.6.2).
//!
//! The structure is a congruence-closed e-graph: merging two equivalence
//! nodes re-canonicalizes their parents, which can cascade further
//! merges.

use fgac_algebra::{normalize, AggExpr, Plan, ScalarExpr};
use fgac_types::{Ident, Schema};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Id of an equivalence (OR) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EqId(pub u32);

/// Id of an operation (AND) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// The payload of an operation node. Children (equivalence-node inputs)
/// are stored separately on [`OpNode`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operator {
    Scan { table: Ident, schema: Schema },
    Select { conjuncts: Vec<ScalarExpr> },
    Project { exprs: Vec<ScalarExpr> },
    Distinct,
    Join { conjuncts: Vec<ScalarExpr> },
    Aggregate { group_by: Vec<ScalarExpr>, aggs: Vec<AggExpr> },
}

impl Operator {
    /// Output arity given child arities.
    fn arity(&self, child_arities: &[usize]) -> usize {
        match self {
            Operator::Scan { schema, .. } => schema.len(),
            Operator::Select { .. } | Operator::Distinct => child_arities[0],
            Operator::Project { exprs } => exprs.len(),
            Operator::Join { .. } => child_arities[0] + child_arities[1],
            Operator::Aggregate { group_by, aggs } => group_by.len() + aggs.len(),
        }
    }

    pub fn expected_children(&self) -> usize {
        match self {
            Operator::Scan { .. } => 0,
            Operator::Join { .. } => 2,
            _ => 1,
        }
    }
}

/// An operation (AND) node.
#[derive(Debug, Clone)]
pub struct OpNode {
    pub op: Operator,
    pub children: Vec<EqId>,
    /// The equivalence class this operation computes.
    pub class: EqId,
}

/// An equivalence (OR) node.
#[derive(Debug, Clone, Default)]
struct EqData {
    ops: Vec<OpId>,
    parents: Vec<OpId>,
    arity: usize,
}

/// Counters for experiment E1 (Figure 1 reproduction) and E2/E3
/// overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DagStats {
    pub eq_nodes: usize,
    pub op_nodes: usize,
}

/// The AND-OR DAG.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    ops: Vec<OpNode>,
    eqs: Vec<EqData>,
    /// Union-find over equivalence ids.
    uf: Vec<u32>,
    /// Hash-consing index on canonical (operator, children).
    index: HashMap<(Operator, Vec<EqId>), OpId>,
    /// Classes whose parents must be re-canonicalized.
    dirty: Vec<EqId>,
    /// Number of canonical classes: +1 per new class, −1 per union.
    live: usize,
    /// Per op: its rules' inputs changed since they last ran on it.
    op_dirty: Vec<bool>,
    /// Per class: its subsumption/rollup inputs changed since they last
    /// ran on it.
    class_dirty: Vec<bool>,
}

impl Dag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical representative of an equivalence id.
    pub fn find(&self, id: EqId) -> EqId {
        let mut c = id.0;
        while self.uf[c as usize] != c {
            c = self.uf[c as usize];
        }
        EqId(c)
    }

    fn find_compress(&mut self, id: EqId) -> EqId {
        let root = self.find(id);
        let mut c = id.0;
        while self.uf[c as usize] != root.0 {
            let next = self.uf[c as usize];
            self.uf[c as usize] = root.0;
            c = next;
        }
        root
    }

    /// Number of live (canonical) equivalence nodes and operation nodes.
    pub fn stats(&self) -> DagStats {
        DagStats {
            eq_nodes: self.live,
            op_nodes: self.ops.len(),
        }
    }

    /// The operation nodes of an equivalence class.
    pub fn ops_of(&self, id: EqId) -> &[OpId] {
        &self.eqs[self.find(id).0 as usize].ops
    }

    /// The parent operation nodes consuming this class.
    pub fn parents_of(&self, id: EqId) -> &[OpId] {
        &self.eqs[self.find(id).0 as usize].parents
    }

    /// Output arity of a class.
    pub fn arity(&self, id: EqId) -> usize {
        self.eqs[self.find(id).0 as usize].arity
    }

    pub fn op(&self, id: OpId) -> &OpNode {
        &self.ops[id.0 as usize]
    }

    /// Clears and returns `op`'s dirty flag. A structural rule on an op
    /// reads only the op and the members of its child classes, so the op
    /// is dirty from its creation, and again whenever its children are
    /// re-canonicalized or a child class gains a member or takes part in
    /// a merge. A rule run on an op that is not dirty adds nothing.
    pub(crate) fn take_op_dirty(&mut self, id: OpId) -> bool {
        std::mem::take(&mut self.op_dirty[id.0 as usize])
    }

    /// Clears and returns `class`'s dirty flag. Subsumption and rollup
    /// on a class read only its parent ops and their classes, so the
    /// class is dirty from its creation, and again whenever it gains a
    /// parent or one of its parents changes class.
    pub(crate) fn take_class_dirty(&mut self, id: EqId) -> bool {
        std::mem::take(&mut self.class_dirty[id.0 as usize])
    }

    /// Marks every consumer of canonical `class` dirty: its members
    /// changed.
    fn dirty_parents(&mut self, class: EqId) {
        for &p in &self.eqs[class.0 as usize].parents {
            self.op_dirty[p.0 as usize] = true;
        }
    }

    /// The canonical class an operation belongs to.
    pub fn class_of(&self, id: OpId) -> EqId {
        self.find(self.ops[id.0 as usize].class)
    }

    /// All canonical equivalence ids.
    pub fn classes(&self) -> Vec<EqId> {
        (0..self.uf.len() as u32)
            .map(EqId)
            .filter(|&e| self.find(e) == e)
            .collect()
    }

    /// All operation ids.
    pub fn all_ops(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    fn new_class(&mut self, arity: usize) -> EqId {
        let id = EqId(self.uf.len() as u32);
        self.uf.push(id.0);
        self.eqs.push(EqData {
            ops: Vec::new(),
            parents: Vec::new(),
            arity,
        });
        self.class_dirty.push(true);
        self.live += 1;
        id
    }

    /// Inserts an operation with the given children, hash-consing. If an
    /// identical operation exists, returns its class; otherwise creates
    /// the operation (in a fresh class unless `into` is given, in which
    /// case the operation is added to that class).
    ///
    /// If the operation already exists in a *different* class than
    /// `into`, the classes are merged (this is unification).
    pub fn add_op(&mut self, op: Operator, children: Vec<EqId>, into: Option<EqId>) -> EqId {
        debug_assert_eq!(op.expected_children(), children.len());
        let children: Vec<EqId> = children.iter().map(|&c| self.find_compress(c)).collect();
        let key = (op.clone(), children.clone());
        match self.index.entry(key) {
            Entry::Occupied(o) => {
                let existing = *o.get();
                let class = self.class_of(existing);
                if let Some(target) = into {
                    let target = self.find(target);
                    if target != class {
                        self.merge(target, class);
                        return self.find(target);
                    }
                }
                class
            }
            Entry::Vacant(v) => {
                let op_id = OpId(self.ops.len() as u32);
                v.insert(op_id);
                let child_arities: Vec<usize> = children
                    .iter()
                    .map(|&c| self.eqs[c.0 as usize].arity)
                    .collect();
                let arity = op.arity(&child_arities);
                let class = match into {
                    Some(c) => {
                        let c = self.find(c);
                        debug_assert_eq!(
                            self.eqs[c.0 as usize].arity, arity,
                            "operator arity must match its class"
                        );
                        c
                    }
                    None => self.new_class(arity),
                };
                self.ops.push(OpNode {
                    op,
                    children: children.clone(),
                    class,
                });
                self.op_dirty.push(true);
                // `op_id` is the newest op, so these lists stay sorted; a
                // join of a class with itself lists its parent once.
                self.eqs[class.0 as usize].ops.push(op_id);
                self.dirty_parents(class);
                for &c in &children {
                    let parents = &mut self.eqs[c.0 as usize].parents;
                    if parents.last() != Some(&op_id) {
                        parents.push(op_id);
                    }
                    self.class_dirty[c.0 as usize] = true;
                }
                class
            }
        }
    }

    /// Merges two equivalence classes (they compute the same relation),
    /// then restores congruence: parents whose canonical signatures now
    /// collide are merged too.
    pub fn merge(&mut self, a: EqId, b: EqId) {
        let (a, b) = (self.find_compress(a), self.find_compress(b));
        if a == b {
            return;
        }
        debug_assert_eq!(
            self.eqs[a.0 as usize].arity, self.eqs[b.0 as usize].arity,
            "cannot merge classes of different arity"
        );
        self.union(a, b);
        self.rebuild();
    }

    /// Makes canonical `b` a member of canonical `a`, moving its op and
    /// parent lists, and queues `a` for re-canonicalization. The consumers
    /// of both classes see new members, `a` gains `b`'s parents, and the
    /// children of `b`'s ops see a parent change class: all go dirty. (A
    /// child id not yet re-canonicalized is stale only because of an
    /// earlier union in this rebuild, which already dirtied its class.)
    fn union(&mut self, a: EqId, b: EqId) {
        self.uf[b.0 as usize] = a.0;
        self.live -= 1;
        let b_data = std::mem::take(&mut self.eqs[b.0 as usize]);
        for &op in &b_data.ops {
            let node = &mut self.ops[op.0 as usize];
            node.class = a;
            for &c in &node.children {
                self.class_dirty[c.0 as usize] = true;
            }
        }
        self.eqs[a.0 as usize].ops.extend(b_data.ops);
        self.eqs[a.0 as usize].parents.extend(b_data.parents);
        self.dirty_parents(a);
        self.class_dirty[a.0 as usize] = true;
        self.dirty.push(a);
    }

    /// Restores the hash-consing invariant after merges.
    fn rebuild(&mut self) {
        // Only a union extends a class's lists out of order: sort and
        // dedup the classes that took one, not every class.
        let mut touched: Vec<EqId> = Vec::new();
        while let Some(class) = self.dirty.pop() {
            let class = self.find_compress(class);
            touched.push(class);
            let parents = self.eqs[class.0 as usize].parents.clone();
            for op_id in parents {
                let (op, old_children) = {
                    let node = &self.ops[op_id.0 as usize];
                    (node.op.clone(), node.children.clone())
                };
                let new_children: Vec<EqId> =
                    old_children.iter().map(|&c| self.find_compress(c)).collect();
                if new_children == old_children {
                    continue;
                }
                self.ops[op_id.0 as usize].children = new_children.clone();
                self.op_dirty[op_id.0 as usize] = true;
                let key = (op, new_children);
                match self.index.entry(key) {
                    Entry::Occupied(o) => {
                        let other = *o.get();
                        if other != op_id {
                            // Congruence: op_id and other compute the same
                            // thing; merge their classes.
                            let (ca, cb) = (self.class_of(op_id), self.class_of(other));
                            if ca != cb {
                                let (ca, cb) = (self.find_compress(ca), self.find_compress(cb));
                                self.union(ca, cb);
                            }
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(op_id);
                    }
                }
            }
        }
        for class in touched {
            if self.find(class) != class {
                continue;
            }
            let data = &mut self.eqs[class.0 as usize];
            data.ops.sort_unstable();
            data.ops.dedup();
            data.parents.sort_unstable();
            data.parents.dedup();
        }
    }

    /// Inserts a (normalized) plan, returning its equivalence class.
    pub fn insert_plan(&mut self, plan: &Plan) -> EqId {
        let plan = normalize(plan);
        self.insert_normalized(&plan)
    }

    fn insert_normalized(&mut self, plan: &Plan) -> EqId {
        match plan {
            Plan::Scan { table, schema } => self.add_op(
                Operator::Scan {
                    table: table.clone(),
                    schema: schema.clone(),
                },
                vec![],
                None,
            ),
            Plan::Select { input, conjuncts } => {
                let child = self.insert_normalized(input);
                self.add_op(
                    Operator::Select {
                        conjuncts: conjuncts.clone(),
                    },
                    vec![child],
                    None,
                )
            }
            Plan::Project { input, exprs } => {
                let child = self.insert_normalized(input);
                self.add_op(
                    Operator::Project {
                        exprs: exprs.clone(),
                    },
                    vec![child],
                    None,
                )
            }
            Plan::Distinct { input } => {
                let child = self.insert_normalized(input);
                self.add_op(Operator::Distinct, vec![child], None)
            }
            Plan::Join {
                left,
                right,
                conjuncts,
            } => {
                let l = self.insert_normalized(left);
                let r = self.insert_normalized(right);
                self.add_op(
                    Operator::Join {
                        conjuncts: conjuncts.clone(),
                    },
                    vec![l, r],
                    None,
                )
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.insert_normalized(input);
                self.add_op(
                    Operator::Aggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    vec![child],
                    None,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::CmpOp;
    use fgac_types::{Column, DataType};

    fn schema(cols: &[&str]) -> Schema {
        Schema::new(cols.iter().map(|c| Column::new(*c, DataType::Int)).collect())
    }

    fn scan(t: &str) -> Plan {
        Plan::scan(t, schema(&["a", "b"]))
    }

    #[test]
    fn hash_consing_shares_identical_subplans() {
        let mut dag = Dag::new();
        let p1 = scan("t").select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1))]);
        let p2 = scan("t").select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1))]);
        let e1 = dag.insert_plan(&p1);
        let e2 = dag.insert_plan(&p2);
        assert_eq!(dag.find(e1), dag.find(e2));
        assert_eq!(dag.stats().op_nodes, 2); // scan + select
    }

    #[test]
    fn different_predicates_stay_separate() {
        let mut dag = Dag::new();
        let e1 = dag.insert_plan(
            &scan("t").select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1))]),
        );
        let e2 = dag.insert_plan(
            &scan("t").select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(2))]),
        );
        assert_ne!(dag.find(e1), dag.find(e2));
    }

    #[test]
    fn normalization_unifies_variants() {
        let mut dag = Dag::new();
        // Stacked selects vs merged select.
        let a = scan("t")
            .select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1))])
            .select(vec![ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(2))]);
        let b = scan("t").select(vec![
            ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(2)),
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)),
        ]);
        let e1 = dag.insert_plan(&a);
        let e2 = dag.insert_plan(&b);
        assert_eq!(dag.find(e1), dag.find(e2));
    }

    #[test]
    fn merge_cascades_congruence() {
        let mut dag = Dag::new();
        // f(x) where x = scan(t) select ..., and f(y) where y = scan(u):
        // merging x and y must merge f(x) and f(y).
        let x = dag.insert_plan(&scan("t"));
        let y = dag.insert_plan(&scan("u"));
        let fx = dag.add_op(Operator::Distinct, vec![x], None);
        let fy = dag.add_op(Operator::Distinct, vec![y], None);
        assert_ne!(dag.find(fx), dag.find(fy));
        dag.merge(x, y);
        assert_eq!(dag.find(fx), dag.find(fy));
        // The kept count agrees with a walk of the union-find.
        assert_eq!(dag.stats().eq_nodes, dag.classes().len());
    }

    #[test]
    fn add_op_into_class_unifies() {
        let mut dag = Dag::new();
        let t = dag.insert_plan(&scan("t"));
        let sel = dag.add_op(
            Operator::Select {
                conjuncts: vec![ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(0),
                    ScalarExpr::lit(5),
                )],
            },
            vec![t],
            None,
        );
        // Re-adding the same op "into" another class merges them.
        let u = dag.insert_plan(&scan("u"));
        let su = dag.add_op(
            Operator::Select {
                conjuncts: vec![ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(0),
                    ScalarExpr::lit(5),
                )],
            },
            vec![t],
            Some(u),
        );
        assert_eq!(dag.find(sel), dag.find(su));
        assert_eq!(dag.find(sel), dag.find(u));
    }

    #[test]
    fn figure_one_initial_dag_shape() {
        // Figure 1(b): query A ⋈ B ⋈ C as a left-deep tree has 5 eq nodes
        // (A, B, C, A⋈B, A⋈B⋈C) and 5 op nodes (3 scans + 2 joins).
        let mut dag = Dag::new();
        let p = scan("a")
            .join(
                scan("b"),
                vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2))],
            )
            .join(
                scan("c"),
                vec![ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::col(4))],
            );
        dag.insert_plan(&p);
        let stats = dag.stats();
        assert_eq!(stats.eq_nodes, 5);
        assert_eq!(stats.op_nodes, 5);
    }

    #[test]
    fn parents_tracked() {
        let mut dag = Dag::new();
        let t = dag.insert_plan(&scan("t"));
        let _d = dag.add_op(Operator::Distinct, vec![t], None);
        assert_eq!(dag.parents_of(t).len(), 1);
    }
}
