//! Case-insensitive SQL identifiers.

use std::fmt;
use std::sync::Arc;

/// A SQL identifier, normalized to lowercase at construction.
///
/// SQL identifiers are case-insensitive; normalizing once keeps every
/// downstream comparison (catalog lookups, column resolution, DAG
/// signatures) a plain string comparison.
///
/// The text is shared: a clone is a reference-count increment, so the
/// schemas, plans and certificates that copy a name do not copy its
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct Ident(Arc<str>);

impl Ident {
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Ident(name.to_ascii_lowercase().into())
        } else {
            Ident(name.into())
        }
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        // `self` is lowercase already.
        self.0.eq_ignore_ascii_case(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(Ident::new("Students"), Ident::new("STUDENTS"));
        assert_eq!(Ident::new("grades").as_str(), "grades");
    }

    #[test]
    fn compares_against_str() {
        let id = Ident::new("Grades");
        assert!(id == *"GRADES");
        assert!(id == *"grades");
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Ident::new("MyGrades").to_string(), "mygrades");
    }

    #[test]
    fn clones_share_the_text() {
        let id = Ident::new("student_id");
        assert!(std::ptr::eq(id.as_str(), id.clone().as_str()));
        assert_eq!(format!("{id:?}"), r#"Ident("student_id")"#);
    }
}
