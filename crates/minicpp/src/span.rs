//! Source positions. Every token and AST node records where it came from so
//! analyses can report human-meaningful locations (the paper's design-flow
//! reports name hotspot loops by line).

use std::fmt;

/// A half-open region of the original source text, line/column based
/// (1-indexed, like compilers report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First line of the region (1-based).
    pub line: u32,
    /// First column of the region (1-based).
    pub col: u32,
    /// Last line of the region (inclusive, 1-based).
    pub end_line: u32,
    /// Column one past the last character (1-based).
    pub end_col: u32,
}

impl Span {
    /// A span covering a single point.
    pub fn point(line: u32, col: u32) -> Self {
        Span {
            line,
            col,
            end_line: line,
            end_col: col,
        }
    }

    /// The synthetic span used for nodes created by transforms rather than
    /// parsed from source.
    pub const SYNTHETIC: Span = Span {
        line: 0,
        col: 0,
        end_line: 0,
        end_col: 0,
    };

    /// True if this node was created by a transform, not parsed.
    pub fn is_synthetic(&self) -> bool {
        self.line == 0
    }

    /// The smallest span covering both `self` and `other`. Synthetic spans
    /// are absorbed by real ones.
    pub fn merge(self, other: Span) -> Span {
        if self.is_synthetic() {
            return other;
        }
        if other.is_synthetic() {
            return self;
        }
        let (line, col) = if (self.line, self.col) <= (other.line, other.col) {
            (self.line, self.col)
        } else {
            (other.line, other.col)
        };
        let (end_line, end_col) =
            if (self.end_line, self.end_col) >= (other.end_line, other.end_col) {
                (self.end_line, self.end_col)
            } else {
                (other.end_line, other.end_col)
            };
        Span {
            line,
            col,
            end_line,
            end_col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "<synthetic>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_endpoints() {
        let a = Span {
            line: 1,
            col: 5,
            end_line: 1,
            end_col: 9,
        };
        let b = Span {
            line: 3,
            col: 1,
            end_line: 4,
            end_col: 2,
        };
        let m = a.merge(b);
        assert_eq!(
            m,
            Span {
                line: 1,
                col: 5,
                end_line: 4,
                end_col: 2
            }
        );
        assert_eq!(b.merge(a), m);
    }

    #[test]
    fn synthetic_is_absorbed() {
        let a = Span::point(2, 3);
        assert_eq!(Span::SYNTHETIC.merge(a), a);
        assert_eq!(a.merge(Span::SYNTHETIC), a);
        assert!(Span::SYNTHETIC.is_synthetic());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Span::point(7, 2).to_string(), "7:2");
        assert_eq!(Span::SYNTHETIC.to_string(), "<synthetic>");
    }
}
