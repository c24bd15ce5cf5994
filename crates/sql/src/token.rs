//! Tokens and keywords for the SQL lexer.

use std::fmt;

/// A half-open byte range `[start, end)` into the original SQL text.
///
/// Spans flow from the lexer through the parser into diagnostics: every
/// token records the bytes it was lexed from, statements record the union
/// of their tokens, and lint findings point back into the script the user
/// actually wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The source text this span points at (clamped to `src`).
    pub fn slice(self, src: &str) -> &str {
        let start = self.start.min(src.len());
        let end = self.end.clamp(start, src.len());
        &src[start..end]
    }
}

/// 1-based `(line, column)` of byte `offset` within `src`.
pub fn line_col_at(src: &str, offset: usize) -> (usize, usize) {
    let upto = &src.as_bytes()[..offset.min(src.len())];
    let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + upto
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(upto.len(), |nl| upto.len() - nl - 1);
    (line, col)
}

/// A lexical token with the byte span it was lexed from (for error
/// messages and lint diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte range of the token in the original SQL text.
    pub span: Span,
}

impl Token {
    /// Byte offset of the first character in the original SQL text.
    pub fn offset(&self) -> usize {
        self.span.start
    }
}

/// The kinds of tokens the lexer produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A reserved word, uppercased.
    Keyword(Keyword),
    /// An unquoted identifier (case-preserved) or a `"quoted"` identifier.
    Ident(String),
    /// A numeric literal, verbatim.
    Number(String),
    /// A `'string'` literal with quote escapes resolved.
    String(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `=>` (named-argument arrow in TVF calls)
    Arrow,
    /// `||` (string concatenation)
    Concat,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Number(s) => write!(f, "number {s}"),
            TokenKind::String(s) => write!(f, "string '{s}'"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Semicolon => f.write_str(";"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Percent => f.write_str("%"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::NotEq => f.write_str("<>"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::LtEq => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::GtEq => f.write_str(">="),
            TokenKind::Arrow => f.write_str("=>"),
            TokenKind::Concat => f.write_str("||"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),* $(,)?) => {
        /// Reserved words recognized by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($variant),*
        }

        impl Keyword {
            /// Look up a keyword from an identifier, case-insensitively.
            pub fn lookup(word: &str) -> Option<Keyword> {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    $($text => Some(Keyword::$variant),)*
                    _ => None,
                }
            }

            /// The canonical (uppercase) spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)*
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

keywords! {
    After => "AFTER",
    All => "ALL",
    Analyze => "ANALYZE",
    And => "AND",
    As => "AS",
    Asc => "ASC",
    Between => "BETWEEN",
    By => "BY",
    Case => "CASE",
    Cast => "CAST",
    Checkpoint => "CHECKPOINT",
    Create => "CREATE",
    Cross => "CROSS",
    Delay => "DELAY",
    Drop => "DROP",
    Desc => "DESC",
    Descriptor => "DESCRIPTOR",
    Distinct => "DISTINCT",
    Else => "ELSE",
    Emit => "EMIT",
    End => "END",
    Exists => "EXISTS",
    Explain => "EXPLAIN",
    False => "FALSE",
    For => "FOR",
    From => "FROM",
    Group => "GROUP",
    Having => "HAVING",
    Hour => "HOUR",
    Hours => "HOURS",
    If => "IF",
    In => "IN",
    Inner => "INNER",
    Insert => "INSERT",
    Interval => "INTERVAL",
    Into => "INTO",
    Is => "IS",
    Join => "JOIN",
    Left => "LEFT",
    Like => "LIKE",
    Limit => "LIMIT",
    Lint => "LINT",
    Millisecond => "MILLISECOND",
    Milliseconds => "MILLISECONDS",
    Minute => "MINUTE",
    Minutes => "MINUTES",
    Not => "NOT",
    Null => "NULL",
    Of => "OF",
    On => "ON",
    Or => "OR",
    Order => "ORDER",
    Outer => "OUTER",
    Partitioned => "PARTITIONED",
    Pipeline => "PIPELINE",
    Pipelines => "PIPELINES",
    Restore => "RESTORE",
    Second => "SECOND",
    Seconds => "SECONDS",
    Select => "SELECT",
    Set => "SET",
    Show => "SHOW",
    Sink => "SINK",
    Source => "SOURCE",
    Stream => "STREAM",
    System => "SYSTEM",
    Table => "TABLE",
    Temporal => "TEMPORAL",
    Then => "THEN",
    Time => "TIME",
    Timestamp => "TIMESTAMP",
    To => "TO",
    Trace => "TRACE",
    True => "TRUE",
    Union => "UNION",
    Watermark => "WATERMARK",
    When => "WHEN",
    Where => "WHERE",
    With => "WITH",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::lookup("select"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("SELECT"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("bidtime"), None);
    }

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Emit,
            Keyword::Stream,
            Keyword::Watermark,
            Keyword::Descriptor,
            Keyword::Interval,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn token_display() {
        assert_eq!(TokenKind::Arrow.to_string(), "=>");
        assert_eq!(TokenKind::Keyword(Keyword::Select).to_string(), "SELECT");
        assert_eq!(
            TokenKind::Ident("Bid".into()).to_string(),
            "identifier 'Bid'"
        );
    }
}
