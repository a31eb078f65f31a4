//! Cell values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single dataframe cell.
///
/// `Uri` and `Str` are kept distinct so knowledge-graph identity survives
/// the trip through a dataframe (the paper's KG-embedding case study filters
/// on "object is an entity", i.e. a URI).
#[derive(Debug, Clone)]
pub enum Cell {
    /// Missing value (pandas `NaN`/`None`).
    Null,
    /// An RDF resource identifier.
    Uri(Arc<str>),
    /// A string value.
    Str(Arc<str>),
    /// An integer.
    Int(i64),
    /// A double.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Cell {
    /// URI constructor.
    pub fn uri(s: impl Into<Arc<str>>) -> Self {
        Cell::Uri(s.into())
    }

    /// String constructor.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Cell::Str(s.into())
    }

    /// Is this cell null?
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Is this cell a URI?
    pub fn is_uri(&self) -> bool {
        matches!(self, Cell::Uri(_))
    }

    /// Numeric view (ints and floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(*i as f64),
            Cell::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view (URI string or string contents).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Cell::Uri(s) | Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering: Null < Bool < numbers < Str < Uri. Numbers compare by
    /// value across Int/Float.
    pub fn total_cmp(&self, other: &Cell) -> Ordering {
        fn rank(c: &Cell) -> u8 {
            match c {
                Cell::Null => 0,
                Cell::Bool(_) => 1,
                Cell::Int(_) | Cell::Float(_) => 2,
                Cell::Str(_) => 3,
                Cell::Uri(_) => 4,
            }
        }
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Str(a), Cell::Str(b)) | (Cell::Uri(a), Cell::Uri(b)) => {
                a.as_ref().cmp(b.as_ref())
            }
            _ => {
                if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
                    a.total_cmp(&b)
                } else {
                    rank(self).cmp(&rank(other))
                }
            }
        }
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Uri(a), Cell::Uri(b)) | (Cell::Str(a), Cell::Str(b)) => a == b,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Bool(a), Cell::Bool(b)) => a == b,
            (Cell::Float(a), Cell::Float(b)) => a.to_bits() == b.to_bits(),
            // Bit equality of the float image — exactly what `Hash` feeds, so
            // `Int(0) != Float(-0.0)` just as `Float(0.0) != Float(-0.0)`.
            (Cell::Int(a), Cell::Float(b)) | (Cell::Float(b), Cell::Int(a)) => {
                (*a as f64).to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for Cell {}

impl Hash for Cell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => 0u8.hash(state),
            Cell::Uri(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Cell::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            // Ints and integral floats must hash alike (they compare equal).
            Cell::Int(i) => {
                3u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Cell::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Cell::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Null => write!(f, ""),
            Cell::Uri(s) => write!(f, "<{s}>"),
            Cell::Str(s) => write!(f, "{s}"),
            Cell::Int(i) => write!(f, "{i}"),
            // `{x:?}` keeps a decimal point on integral values ("1.0", not
            // "1"), so a float cell's text form never collides with an
            // integer's and CSV round trips preserve the column's type.
            Cell::Float(x) => write!(f, "{x:?}"),
            Cell::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_across_numeric_types() {
        assert_eq!(Cell::Int(3), Cell::Float(3.0));
        assert_ne!(Cell::Int(3), Cell::Float(3.5));
        assert_ne!(Cell::Str("a".into()), Cell::Uri("a".into()));
    }

    #[test]
    fn hash_consistent_with_eq() {
        let mut set = HashSet::new();
        set.insert(Cell::Int(3));
        assert!(set.contains(&Cell::Float(3.0)));
        // Regression: `Int(0) == Float(-0.0)` held while the two hashed
        // apart and `Float(0.0) != Float(-0.0)` — neither hash-consistent
        // nor transitive.
        assert_eq!(Cell::Int(0), Cell::Float(0.0));
        assert_ne!(Cell::Int(0), Cell::Float(-0.0));
        assert_ne!(Cell::Float(0.0), Cell::Float(-0.0));
    }

    #[test]
    fn ordering() {
        assert_eq!(Cell::Null.total_cmp(&Cell::Int(0)), Ordering::Less);
        assert_eq!(Cell::Int(2).total_cmp(&Cell::Float(2.5)), Ordering::Less);
        assert_eq!(
            Cell::Str("a".into()).total_cmp(&Cell::Str("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn float_display_keeps_decimal_point() {
        assert_eq!(Cell::Float(1.0).to_string(), "1.0");
        assert_eq!(Cell::Float(2.5).to_string(), "2.5");
        assert_eq!(Cell::Int(1).to_string(), "1");
    }

    #[test]
    fn accessors() {
        assert_eq!(Cell::Int(7).as_f64(), Some(7.0));
        assert_eq!(Cell::uri("http://x").as_str(), Some("http://x"));
        assert!(Cell::Null.is_null());
        assert!(Cell::uri("http://x").is_uri());
        assert!(!Cell::str("x").is_uri());
    }
}
