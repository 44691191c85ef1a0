//! Token definitions for the SQL lexer.

use fgac_types::Value;
use std::fmt;

/// SQL keywords recognized by the lexer.
///
/// Keywords are matched case-insensitively; anything not listed here
/// lexes as an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "each variant is the keyword it names")]
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Limit,
    As,
    And,
    Or,
    Not,
    Is,
    Null,
    True,
    False,
    Between,
    In,
    Like,
    Join,
    Inner,
    On,
    Create,
    Table,
    View,
    Authorization,
    Insert,
    Into,
    Values,
    Update,
    Set,
    Delete,
    Authorize,
    Grant,
    Primary,
    Key,
    Foreign,
    References,
    Inclusion,
    Dependency,
    Integer,
    Varchar,
    Double,
    Boolean,
    Old,
    New,
    Union,
    All,
    Analyze,
    Policy,
    For,
    To,
    Role,
    Constraint,
    Explain,
    Flow,
}

impl Keyword {
    /// Parses a keyword from a raw word, case-insensitively.
    pub fn from_word(word: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Select,
            "DISTINCT" => Distinct,
            "FROM" => From,
            "WHERE" => Where,
            "GROUP" => Group,
            "BY" => By,
            "HAVING" => Having,
            "ORDER" => Order,
            "ASC" => Asc,
            "DESC" => Desc,
            "LIMIT" => Limit,
            "AS" => As,
            "AND" => And,
            "OR" => Or,
            "NOT" => Not,
            "IS" => Is,
            "NULL" => Null,
            "TRUE" => True,
            "FALSE" => False,
            "BETWEEN" => Between,
            "IN" => In,
            "LIKE" => Like,
            "JOIN" => Join,
            "INNER" => Inner,
            "ON" => On,
            "CREATE" => Create,
            "TABLE" => Table,
            "VIEW" => View,
            "AUTHORIZATION" => Authorization,
            "INSERT" => Insert,
            "INTO" => Into,
            "VALUES" => Values,
            "UPDATE" => Update,
            "SET" => Set,
            "DELETE" => Delete,
            "AUTHORIZE" => Authorize,
            "GRANT" => Grant,
            "PRIMARY" => Primary,
            "KEY" => Key,
            "FOREIGN" => Foreign,
            "REFERENCES" => References,
            "INCLUSION" => Inclusion,
            "DEPENDENCY" => Dependency,
            "INTEGER" | "INT" => Integer,
            "VARCHAR" | "TEXT" | "STRING" => Varchar,
            "DOUBLE" | "FLOAT" | "REAL" => Double,
            "BOOLEAN" | "BOOL" => Boolean,
            "OLD" => Old,
            "NEW" => New,
            "UNION" => Union,
            "ALL" => All,
            "ANALYZE" => Analyze,
            "POLICY" => Policy,
            "FOR" => For,
            "TO" => To,
            "ROLE" => Role,
            "CONSTRAINT" => Constraint,
            "EXPLAIN" => Explain,
            "FLOW" => Flow,
            _ => return None,
        })
    }

    /// Context-sensitive keywords: words that head the `GRANT`/`ANALYZE
    /// POLICY` statements but stay valid identifiers everywhere else,
    /// so pre-existing schemas and queries using e.g. a column named
    /// `role` or a table named `policy` keep parsing. Returns the
    /// identifier spelling (the lexer lowercases identifiers).
    pub fn soft_ident(self) -> Option<&'static str> {
        use Keyword::*;
        Some(match self {
            Analyze => "analyze",
            Policy => "policy",
            For => "for",
            To => "to",
            Role => "role",
            Constraint => "constraint",
            Explain => "explain",
            Flow => "flow",
            _ => return None,
        })
    }
}

/// A lexical token with its source offset (byte index), used for error
/// reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// The kinds of tokens the lexer produces.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Keyword(Keyword),
    /// Unquoted identifier (already lowercased by the lexer).
    Ident(String),
    /// A literal value: string, integer, double.
    Literal(Value),
    /// Session parameter `$name` (Section 2: `$user-id` etc.).
    Param(String),
    /// Access-pattern parameter `$$name` (Section 2: `$$1`).
    AccessParam(String),
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Literal(v) => write!(f, "literal {v}"),
            TokenKind::Param(p) => write!(f, "${p}"),
            TokenKind::AccessParam(p) => write!(f, "$${p}"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_word("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_word("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_word("int"), Some(Keyword::Integer));
        assert_eq!(Keyword::from_word("grades"), None);
    }
}
