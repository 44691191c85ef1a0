//! The view side of a cold proof (Section 5.6).
//!
//! A cold check unifies the query's DAG with the DAG of the views "that
//! can possibly be of use". The view half depends only on the principal's
//! grants at one policy epoch, the session's parameters, the options the
//! build reads and the query's relevance components, so it is built once
//! and every check starts from a copy of it:
//!
//! * a [`ViewSide`], per principal and [`ParamScope`]: the granted views
//!   instantiated and normalized, in grant order, with their U1 steps;
//!   the `skipped` rule lines; the access-pattern views, their
//!   capabilities and the tables they cover (Q001); and the connected
//!   components of the view–table graph, which are exactly the transitive
//!   relevance closure a query's tables reach;
//! * a [`ViewDag`] per component set a query touches: the relevant views'
//!   DAG after insert → distinct elimination → `expand` → distinct
//!   elimination, with the view roots.
//!
//! A check clones the `ViewDag` of its component set, inserts its query
//! and access-pattern instantiations, and expands again; the DAG's dirty
//! flags confine that expansion to the overlay and the view classes it
//! touches. The principal's [`crate::PrincipalCaps`] memoize the side, so
//! its lifetime is the caps' (epoch stamp and sweep). A validator without
//! caps builds the same side and consumes its DAG without a copy.

use super::access_pattern::{self, ApCapability};
use super::{distinct_elimination, CheckOptions, PHASE};
use crate::authview::AuthorizationView;
use crate::grants::Grants;
use fgac_algebra::{normalize, ParamScope, Plan, SpjBlock};
use fgac_analyze::{RuleId, Step};
use fgac_optimizer::{expand, Dag, EqId, ExpandOptions};
use fgac_storage::Database;
use fgac_types::{BudgetMeter, Ident, Result, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Most component-set DAGs one view side keeps. A check whose set finds
/// the memo full builds its DAG and uses it without storing it.
const MAX_VIEW_DAGS: usize = 64;

/// Everything a [`ViewSide`] is built from besides the grants and the
/// catalog at the caps' epoch: the principal, the session's parameters
/// and the options the build reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ViewSideKey {
    user: String,
    params: ParamScope,
    expand: ExpandOptions,
    prune: bool,
    access_patterns: bool,
}

impl ViewSideKey {
    pub(crate) fn new(user: &str, params: &ParamScope, options: &CheckOptions) -> Self {
        ViewSideKey {
            user: user.to_string(),
            params: params.clone(),
            expand: options.expand,
            prune: options.prune_irrelevant_views,
            access_patterns: options.enable_access_patterns,
        }
    }
}

/// An instantiated authorization view entering the check: either a plain
/// granted view or an access-pattern view instantiated at a query
/// constant, whose U1 step pins the substituted parameter so the
/// certificate checker can re-derive the instantiation from the base
/// view's catalog definition.
#[derive(Debug, Clone)]
pub(super) struct RegView {
    /// Display name used in the human-readable rule trace.
    pub display: Ident,
    pub plan: Plan,
    /// The U1 step instantiating the view; its block is the view's
    /// decomposed plan.
    pub u1: Step,
}

impl RegView {
    pub fn new(display: Ident, base: Ident, pin: Option<(String, Value)>, plan: Plan) -> Self {
        let mut u1 = Step::new(RuleId::U1);
        u1.view = Some(base);
        u1.block = SpjBlock::decompose(&plan);
        u1.pins = pin.into_iter().collect();
        u1.note = format!("instantiated authorization view {display}");
        RegView { display, plan, u1 }
    }
}

/// The view side of one principal's cold proofs under one key (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct ViewSide {
    key: ViewSideKey,
    /// The granted non-access-pattern views that instantiated, in grant
    /// order.
    views: Vec<RegView>,
    /// Per component, its views' positions in `views`, ascending.
    members: Vec<Vec<usize>>,
    /// The component of every table some view scans.
    component_of: HashMap<Ident, u32>,
    /// `view … skipped` rule lines, in grant order.
    pub(super) skipped: Vec<String>,
    pub(super) ap_views: Vec<AuthorizationView>,
    /// Empty unless the key enables access patterns.
    pub(super) capabilities: Vec<ApCapability>,
    /// Tables the access-pattern views scan (Q001 coverage).
    ap_covered: BTreeSet<Ident>,
    /// Component set → its view DAG; `None` for a side no caps keep.
    dags: Option<Mutex<HashMap<Vec<u32>, Arc<ViewDag>>>>,
}

/// The relevant views of one component set and their expanded DAG.
#[derive(Debug, Clone)]
pub(super) struct ViewDag {
    /// Positions in [`ViewSide`]'s views, in grant order.
    pub views: Vec<usize>,
    pub dag: Dag,
    /// The root class of each view, in the order of `views`.
    pub roots: Vec<EqId>,
}

impl ViewSide {
    /// Instantiates `key`'s principal's granted views, charging one step
    /// per grant. `memoize` keeps the component-set DAGs for later checks.
    pub(super) fn build(
        db: &Database,
        grants: &Grants,
        key: ViewSideKey,
        meter: &BudgetMeter,
        memoize: bool,
    ) -> Result<ViewSide> {
        let catalog = db.catalog();
        let mut views = Vec::new();
        let mut skipped = Vec::new();
        let mut ap_views = Vec::new();
        for name in grants.views_for(&key.user) {
            meter.charge(PHASE, 1)?;
            let Some(def) = catalog.view(&name) else {
                continue;
            };
            if !def.authorization {
                continue;
            }
            let view = AuthorizationView::new(def.name.clone(), def.query.clone());
            if view.is_access_pattern() {
                ap_views.push(view);
                continue;
            }
            let Ok(bound) = view.instantiate(catalog, &key.params) else {
                skipped.push(format!("view {name} skipped: parameters missing in this session"));
                continue;
            };
            views.push(RegView::new(name.clone(), name, None, normalize(&bound.plan)));
        }
        let capabilities = if key.access_patterns {
            ap_views
                .iter()
                .filter_map(|view| access_pattern::capability(catalog, view, &key.params))
                .collect()
        } else {
            Vec::new()
        };
        let mut ap_covered = BTreeSet::new();
        for view in &ap_views {
            if let Ok(bound) = view.instantiate(catalog, &key.params) {
                ap_covered.extend(bound.plan.scanned_tables());
            }
        }
        let (members, component_of) = components(&views);
        Ok(ViewSide {
            key,
            views,
            members,
            component_of,
            skipped,
            ap_views,
            capabilities,
            ap_covered,
            dags: memoize.then(Default::default),
        })
    }

    pub(crate) fn key(&self) -> &ViewSideKey {
        &self.key
    }

    /// The components whose views are relevant to a query over `tables`:
    /// those of its tables when pruning, every one otherwise. Sorted.
    pub(super) fn components_of(&self, tables: &BTreeSet<Ident>) -> Vec<u32> {
        if !self.key.prune {
            return (0..self.members.len() as u32).collect();
        }
        let mut set: Vec<u32> = tables
            .iter()
            .filter_map(|t| self.component_of.get(t).copied())
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// How many views the component set holds.
    pub(super) fn count(&self, set: &[u32]) -> usize {
        set.iter().map(|&c| self.members[c as usize].len()).sum()
    }

    pub(super) fn view(&self, i: usize) -> &RegView {
        &self.views[i]
    }

    /// Whether some granted view scans `table`: an instantiated view (it
    /// is relevant to every query over `table`) or an access-pattern one.
    pub(super) fn covers(&self, table: &Ident) -> bool {
        self.component_of.contains_key(table) || self.ap_covered.contains(table)
    }

    /// The view DAG of component set `set`, owned by the caller: a copy
    /// of the memoized one, built and memoized on first use.
    pub(super) fn dag(&self, set: &[u32], db: &Database) -> ViewDag {
        let Some(dags) = &self.dags else {
            return self.build_dag(set, db);
        };
        let memo = dags.lock().get(set).cloned();
        let shared = match memo {
            Some(shared) => shared,
            None => {
                let built = self.build_dag(set, db);
                let mut dags = dags.lock();
                if dags.len() >= MAX_VIEW_DAGS && !dags.contains_key(set) {
                    return built;
                }
                // First build wins on a benign race; both are identical.
                Arc::clone(dags.entry(set.to_vec()).or_insert_with(|| Arc::new(built)))
            }
        };
        (*shared).clone()
    }

    fn build_dag(&self, set: &[u32], db: &Database) -> ViewDag {
        let mut views: Vec<usize> = set
            .iter()
            .flat_map(|&c| self.members[c as usize].iter().copied())
            .collect();
        views.sort_unstable();
        let mut dag = Dag::new();
        let roots = views.iter().map(|&i| dag.insert_plan(&self.views[i].plan)).collect();
        distinct_elimination(&mut dag, db);
        expand(&mut dag, &self.key.expand);
        distinct_elimination(&mut dag, db);
        ViewDag { views, dag, roots }
    }
}

/// The connected components of the view–table graph (a view joins the
/// tables it scans): each component's views in ascending order, and the
/// component of every scanned table. Components are numbered in the order
/// of their first view; a view that scans no table is one on its own.
fn components(views: &[RegView]) -> (Vec<Vec<usize>>, HashMap<Ident, u32>) {
    // Union-find over views: a view joins the first view that scanned
    // each of its tables.
    let mut parent: Vec<usize> = (0..views.len()).collect();
    let mut first: HashMap<Ident, usize> = HashMap::new();
    for (i, rv) in views.iter().enumerate() {
        for t in rv.plan.scanned_tables() {
            let j = *first.entry(t).or_insert(i);
            let (a, b) = (root(&mut parent, i), root(&mut parent, j));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut id_of_root: HashMap<usize, u32> = HashMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut component = Vec::with_capacity(views.len());
    for i in 0..views.len() {
        let r = root(&mut parent, i);
        let id = *id_of_root.entry(r).or_insert_with(|| {
            members.push(Vec::new());
            (members.len() - 1) as u32
        });
        members[id as usize].push(i);
        component.push(id);
    }
    let component_of = first
        .into_iter()
        .map(|(t, i)| (t, component[i]))
        .collect();
    (members, component_of)
}

/// The union-find root of `i`, halving the path on the way.
fn root(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}
