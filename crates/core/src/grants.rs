//! Grants: which authorization views, integrity constraints, and update
//! authorizations each user (or role) holds.
//!
//! Section 4.1: "an authorization view can be treated just like other
//! privileges in SQL"; Section 7 notes role-based access control
//! composes with authorization views "by granting authorization views to
//! roles" — so grants target *principals* (users or roles) and a user's
//! effective set is the union over their roles.

use fgac_sql::Authorize;
use fgac_types::Ident;
use std::collections::{BTreeMap, BTreeSet};

/// Grant tables for views, constraint visibility, and update
/// authorizations.
#[derive(Debug, Clone, Default)]
pub struct Grants {
    /// principal -> authorization view names.
    views: BTreeMap<String, BTreeSet<Ident>>,
    /// principal -> visible integrity constraint names (U3a condition 2:
    /// "the relevant integrity constraints are visible to the user").
    constraints: BTreeMap<String, BTreeSet<Ident>>,
    /// principal -> update authorizations (Section 4.4).
    update_auths: BTreeMap<String, Vec<Authorize>>,
    /// user -> roles, sorted and unique: one vector per user, not a
    /// B-tree node.
    roles: BTreeMap<String, Vec<String>>,
    /// principal -> views revoked from that principal. Advisory
    /// tombstones for the policy analyzer's `P003` lint (a revocation
    /// that a role grant still shadows); not part of durable state and
    /// not consulted by any validity check.
    revoked_views: BTreeMap<String, BTreeSet<Ident>>,
}

impl Grants {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants an authorization view to a user or role.
    pub fn grant_view(&mut self, principal: impl Into<String>, view: impl Into<Ident>) {
        let principal = principal.into();
        let view = view.into();
        // A re-grant supersedes any earlier revocation tombstone.
        if let Some(set) = self.revoked_views.get_mut(&principal) {
            set.remove(&view);
            if set.is_empty() {
                self.revoked_views.remove(&principal);
            }
        }
        self.views.entry(principal).or_default().insert(view);
    }

    pub fn revoke_view(&mut self, principal: &str, view: &Ident) {
        self.revoked_views
            .entry(principal.to_string())
            .or_default()
            .insert(view.clone());
        if let Some(set) = self.views.get_mut(principal) {
            set.remove(view);
            // Drop emptied entries so the grant table has one canonical
            // form — snapshot/recovery round-trips depend on it.
            if set.is_empty() {
                self.views.remove(principal);
            }
        }
    }

    /// Makes an integrity constraint visible to a user or role.
    pub fn grant_constraint(&mut self, principal: impl Into<String>, name: impl Into<Ident>) {
        self.constraints
            .entry(principal.into())
            .or_default()
            .insert(name.into());
    }

    /// Grants an update authorization (an `AUTHORIZE ...` statement) to a
    /// user or role.
    pub fn grant_update(&mut self, principal: impl Into<String>, auth: Authorize) {
        self.update_auths.entry(principal.into()).or_default().push(auth);
    }

    /// Adds a user to a role. Delegation chains (Section 6) can be
    /// resolved externally and granted here — "we can use any delegation
    /// specification technique to collect all available authorization
    /// views ... and then run our inferencing techniques on the resulting
    /// set".
    pub fn add_role(&mut self, user: impl Into<String>, role: impl Into<String>) {
        let (roles, role) = (self.roles.entry(user.into()).or_default(), role.into());
        if let Err(at) = roles.binary_search(&role) {
            roles.insert(at, role);
        }
    }

    fn principals_of<'a>(&'a self, user: &'a str) -> Vec<&'a str> {
        let mut out = vec![user];
        if let Some(roles) = self.roles.get(user) {
            out.extend(roles.iter().map(|s| s.as_str()));
        }
        out
    }

    /// The authorization views *available* to a user (Section 4.1),
    /// through direct grants and roles.
    pub fn views_for(&self, user: &str) -> Vec<Ident> {
        let mut out = BTreeSet::new();
        for p in self.principals_of(user) {
            if let Some(set) = self.views.get(p) {
                out.extend(set.iter().cloned());
            }
        }
        out.into_iter().collect()
    }

    /// The integrity constraints visible to a user.
    pub fn constraints_for(&self, user: &str) -> Vec<Ident> {
        let mut out = BTreeSet::new();
        for p in self.principals_of(user) {
            if let Some(set) = self.constraints.get(p) {
                out.extend(set.iter().cloned());
            }
        }
        out.into_iter().collect()
    }

    /// The update authorizations held by a user.
    pub fn update_auths_for(&self, user: &str) -> Vec<&Authorize> {
        let mut out = Vec::new();
        for p in self.principals_of(user) {
            if let Some(v) = self.update_auths.get(p) {
                out.extend(v.iter());
            }
        }
        out
    }

    /// The raw view-grant table (principal -> views). Snapshot/recovery
    /// support: iteration order is deterministic (BTreeMap).
    pub fn view_grants(&self) -> &BTreeMap<String, BTreeSet<Ident>> {
        &self.views
    }

    /// The raw constraint-visibility table (principal -> constraints).
    pub fn constraint_grants(&self) -> &BTreeMap<String, BTreeSet<Ident>> {
        &self.constraints
    }

    /// The raw update-authorization table (principal -> AUTHORIZE asts).
    pub fn update_grants(&self) -> &BTreeMap<String, Vec<Authorize>> {
        &self.update_auths
    }

    /// The raw role-membership table (user -> roles, sorted).
    pub fn role_memberships(&self) -> &BTreeMap<String, Vec<String>> {
        &self.roles
    }

    /// Revocation tombstones (principal -> views revoked from it),
    /// kept so the policy analyzer can flag revocations that a role
    /// grant shadows (`P003`). Advisory: excluded from snapshots and
    /// state fingerprints, and never consulted by validity checks.
    pub fn revoked_views(&self) -> &BTreeMap<String, BTreeSet<Ident>> {
        &self.revoked_views
    }

    /// Delegates a view grant from one user to another (Section 6:
    /// "Delegation can be done outside of our inferencing system: we can
    /// use any delegation specification technique to collect all
    /// available authorization views ... and then run our inferencing
    /// techniques on the resulting set"). The delegator must hold the
    /// view (directly or via a role).
    pub fn delegate_view(
        &mut self,
        from: &str,
        to: impl Into<String>,
        view: &Ident,
    ) -> fgac_types::Result<()> {
        if !self.views_for(from).contains(view) {
            return Err(fgac_types::Error::Unauthorized(format!(
                "user {from} does not hold view {view} and cannot delegate it"
            )));
        }
        self.grant_view(to, view.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_and_role_grants_union() {
        let mut g = Grants::new();
        g.grant_view("11", "mygrades");
        g.grant_view("student", "courselist");
        g.add_role("11", "student");
        let views = g.views_for("11");
        assert_eq!(views.len(), 2);
        assert!(views.contains(&Ident::new("mygrades")));
        assert!(views.contains(&Ident::new("courselist")));
        // Another user without the role sees nothing.
        assert!(g.views_for("12").is_empty());
    }

    #[test]
    fn revoke_removes_direct_grant() {
        let mut g = Grants::new();
        g.grant_view("11", "v");
        g.revoke_view("11", &Ident::new("v"));
        assert!(g.views_for("11").is_empty());
    }

    #[test]
    fn revocation_tombstones_recorded_and_cleared_by_regrant() {
        let mut g = Grants::new();
        g.grant_view("11", "v");
        g.revoke_view("11", &Ident::new("v"));
        let tomb = g.revoked_views().get("11").expect("tombstone recorded");
        assert!(tomb.contains(&Ident::new("v")));
        // Re-granting supersedes the tombstone entirely.
        g.grant_view("11", "v");
        assert!(g.revoked_views().get("11").is_none());
        assert!(g.views_for("11").contains(&Ident::new("v")));
    }

    #[test]
    fn constraint_visibility_tracked_separately() {
        let mut g = Grants::new();
        g.grant_view("11", "v");
        assert!(g.constraints_for("11").is_empty());
        g.grant_constraint("11", "ft_registered");
        assert_eq!(g.constraints_for("11"), vec![Ident::new("ft_registered")]);
    }

    #[test]
    fn delegation_requires_holding_the_view() {
        let mut g = Grants::new();
        g.grant_view("alice", "v");
        // Alice can delegate to Bob.
        g.delegate_view("alice", "bob", &Ident::new("v")).unwrap();
        assert!(g.views_for("bob").contains(&Ident::new("v")));
        // Carol holds nothing and cannot delegate.
        assert!(g.delegate_view("carol", "dave", &Ident::new("v")).is_err());
        // Delegation chains work (Bob -> Carol).
        g.delegate_view("bob", "carol", &Ident::new("v")).unwrap();
        assert!(g.views_for("carol").contains(&Ident::new("v")));
    }

    #[test]
    fn update_auths_accumulate() {
        let mut g = Grants::new();
        let fgac_sql::Statement::Authorize(a) = fgac_sql::parse_statement(
            "authorize insert on registered where student_id = $user_id",
        )
        .unwrap() else {
            panic!()
        };
        g.grant_update("student", a.clone());
        g.add_role("11", "student");
        assert_eq!(g.update_auths_for("11").len(), 1);
        assert_eq!(g.update_auths_for("99").len(), 0);
    }
}
