//! Recursive-descent parser for the onesql dialect.

use onesql_types::{DataType, Error, Result};

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::{line_col_at, Keyword, Span, Token, TokenKind};

/// A parsed statement together with the byte range of the source text it
/// was parsed from (first token through last token, comments excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedStatement {
    /// The statement.
    pub statement: Statement,
    /// Byte range of the statement in the original script.
    pub span: Span,
}

/// Parse a single query (optionally `;`-terminated) from SQL text.
pub fn parse_query(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::with_source(tokens, sql);
    let query = parser.parse_query()?;
    while parser.consume(&TokenKind::Semicolon) {}
    parser.expect(&TokenKind::Eof)?;
    Ok(query)
}

/// Parse a single statement (optionally `;`-terminated) from SQL text.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::with_source(tokens, sql);
    let statement = parser.parse_statement()?;
    while parser.consume(&TokenKind::Semicolon) {}
    parser.expect(&TokenKind::Eof)?;
    Ok(statement)
}

/// Parse a `;`-separated script into its statements. The final `;` is
/// optional; empty statements (stray `;;`, trailing whitespace, comments)
/// are skipped.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    Ok(parse_script_spanned(sql)?
        .into_iter()
        .map(|s| s.statement)
        .collect())
}

/// Like [`parse_script`], but each statement keeps the byte span of the
/// script text it was parsed from — the input to lint diagnostics.
pub fn parse_script_spanned(sql: &str) -> Result<Vec<SpannedStatement>> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::with_source(tokens, sql);
    let mut statements = Vec::new();
    loop {
        while parser.consume(&TokenKind::Semicolon) {}
        if *parser.peek() == TokenKind::Eof {
            return Ok(statements);
        }
        let start = parser.current_span().start;
        let statement = parser.parse_statement()?;
        let span = Span::new(start, parser.prev_end());
        statements.push(SpannedStatement { statement, span });
        if *parser.peek() != TokenKind::Eof && !parser.consume(&TokenKind::Semicolon) {
            return Err(parser.unexpected("expected ';' between statements"));
        }
    }
}

/// The parser state: a token cursor plus the source text (for
/// line:column error positions).
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src: String,
}

impl Parser {
    /// Create a parser over a token stream (must end with `Eof`).
    ///
    /// Errors report byte offsets only; prefer [`Parser::with_source`]
    /// so they carry line:column positions too.
    pub fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            src: String::new(),
        }
    }

    /// Create a parser over a token stream with the text it was lexed
    /// from, so errors can report line:column positions.
    pub fn with_source(tokens: Vec<Token>, src: &str) -> Parser {
        Parser {
            tokens,
            pos: 0,
            src: src.to_string(),
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn current_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    /// Byte offset one past the last consumed token (statement extent).
    fn prev_end(&self) -> usize {
        match self.pos.checked_sub(1) {
            Some(prev) => self.tokens[prev.min(self.tokens.len() - 1)].span.end,
            None => 0,
        }
    }

    fn offset(&self) -> usize {
        self.current_span().start
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn consume(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn consume_keyword(&mut self, kw: Keyword) -> bool {
        self.consume(&TokenKind::Keyword(kw))
    }

    fn peek_keyword(&self, kw: Keyword) -> bool {
        *self.peek() == TokenKind::Keyword(kw)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.consume(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {kind}")))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn unexpected(&self, expected: &str) -> Error {
        let offset = self.offset();
        if self.src.is_empty() {
            return Error::parse(format!(
                "{expected}, found {} at byte offset {offset}",
                self.peek()
            ));
        }
        let (line, col) = line_col_at(&self.src, offset);
        Error::parse(format!(
            "{expected}, found {} at line {line}, column {col} (byte offset {offset})",
            self.peek()
        ))
    }

    /// Statement-layer keywords that are **not** reserved words of the
    /// query dialect (unlike, say, `CREATE` or `WITH`, which standard
    /// SQL reserves too): outside their introducing position they keep
    /// working as ordinary identifiers, so pre-existing queries with
    /// columns named `source`, `sink`, ... still parse. The lexer
    /// normalizes keywords, so the identifier comes back lowercased
    /// regardless of how it was written (name resolution is
    /// case-insensitive anyway; quote the identifier to keep exact
    /// case).
    fn soft_keyword(kind: &TokenKind) -> Option<String> {
        match kind {
            TokenKind::Keyword(
                kw @ (Keyword::Source
                | Keyword::Sink
                | Keyword::Temporal
                | Keyword::Partitioned
                | Keyword::If
                | Keyword::Explain
                | Keyword::Set
                | Keyword::Checkpoint
                | Keyword::Restore
                | Keyword::Pipeline
                | Keyword::Pipelines
                | Keyword::Show
                | Keyword::Analyze
                | Keyword::Lint
                | Keyword::Trace
                | Keyword::To),
            ) => Some(kw.as_str().to_ascii_lowercase()),
            _ => None,
        }
    }

    fn parse_identifier(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            ref other => match Parser::soft_keyword(other) {
                Some(name) => {
                    self.advance();
                    Ok(name)
                }
                None => Err(self.unexpected("expected identifier")),
            },
        }
    }

    // -- statements -------------------------------------------------------

    /// Parse one statement: a query, `CREATE ...`, `INSERT INTO ...`,
    /// `EXPLAIN ...`, or `DROP ...`.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Create) => {
                self.advance();
                self.parse_create()
            }
            TokenKind::Keyword(Keyword::Insert) => {
                self.advance();
                self.expect_keyword(Keyword::Into)?;
                let sink = self.parse_identifier()?;
                let query = self.parse_query()?;
                Ok(Statement::Insert { sink, query })
            }
            TokenKind::Keyword(Keyword::Explain) => {
                self.advance();
                if self.consume_keyword(Keyword::Analyze) {
                    Ok(Statement::ExplainAnalyze(self.parse_query()?))
                } else if self.consume_keyword(Keyword::Lint) {
                    // EXPLAIN LINT '<script>' lints a quoted script;
                    // EXPLAIN LINT <statement> lints one statement in
                    // the current session context.
                    if let TokenKind::String(script) = self.peek().clone() {
                        self.advance();
                        Ok(Statement::ExplainLint(LintTarget::Script(script)))
                    } else {
                        let inner = self.parse_statement()?;
                        Ok(Statement::ExplainLint(LintTarget::Statement(Box::new(
                            inner,
                        ))))
                    }
                } else {
                    Ok(Statement::Explain(self.parse_query()?))
                }
            }
            TokenKind::Keyword(Keyword::Show) => {
                self.advance();
                if self.consume_keyword(Keyword::Trace) {
                    let pipeline = if self.consume_keyword(Keyword::For) {
                        Some(self.parse_string("a pipeline label after FOR")?)
                    } else {
                        None
                    };
                    let limit =
                        if self.consume_keyword(Keyword::Limit) {
                            match self.advance() {
                                TokenKind::Number(n) => Some(n.parse::<u64>().map_err(|_| {
                                    Error::parse(format!("invalid LIMIT value '{n}'"))
                                })?),
                                _ => return Err(self.unexpected("expected integer after LIMIT")),
                            }
                        } else {
                            None
                        };
                    return Ok(Statement::ShowTrace { pipeline, limit });
                }
                self.expect_keyword(Keyword::Pipelines)?;
                Ok(Statement::ShowPipelines)
            }
            TokenKind::Keyword(Keyword::Set) => {
                self.advance();
                let name = self.parse_identifier()?;
                self.expect(&TokenKind::Eq)?;
                let value = self.parse_option_value(&name)?;
                Ok(Statement::Set { name, value })
            }
            TokenKind::Keyword(Keyword::Checkpoint) => {
                self.advance();
                self.expect_keyword(Keyword::Pipeline)?;
                let pipeline = self.parse_identifier()?;
                self.expect_keyword(Keyword::To)?;
                let path = self.parse_string("a checkpoint directory path after TO")?;
                Ok(Statement::CheckpointPipeline { pipeline, path })
            }
            TokenKind::Keyword(Keyword::Trace) => {
                self.advance();
                self.expect_keyword(Keyword::Pipeline)?;
                let pipeline = self.parse_identifier()?;
                self.expect_keyword(Keyword::To)?;
                let path = self.parse_string("an export file path after TO")?;
                Ok(Statement::TracePipeline { pipeline, path })
            }
            TokenKind::Keyword(Keyword::Restore) => {
                self.advance();
                self.expect_keyword(Keyword::Pipeline)?;
                let pipeline = self.parse_identifier()?;
                self.expect_keyword(Keyword::From)?;
                let path = self.parse_string("a checkpoint directory path after FROM")?;
                Ok(Statement::RestorePipeline { pipeline, path })
            }
            TokenKind::Keyword(Keyword::Drop) => {
                self.advance();
                let kind = if self.consume_keyword(Keyword::Source) {
                    DropKind::Source
                } else if self.consume_keyword(Keyword::Sink) {
                    DropKind::Sink
                } else if self.consume_keyword(Keyword::Stream) {
                    DropKind::Stream
                } else if self.consume_keyword(Keyword::Table) {
                    DropKind::Table
                } else {
                    return Err(self.unexpected("expected SOURCE, SINK, STREAM, or TABLE"));
                };
                let if_exists = if self.consume_keyword(Keyword::If) {
                    self.expect_keyword(Keyword::Exists)?;
                    true
                } else {
                    false
                };
                let name = self.parse_identifier()?;
                Ok(Statement::Drop {
                    kind,
                    if_exists,
                    name,
                })
            }
            _ => Ok(Statement::Query(self.parse_query()?)),
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        if self.consume_keyword(Keyword::Partitioned) {
            self.expect_keyword(Keyword::Source)?;
            return self.parse_create_source(true);
        }
        if self.consume_keyword(Keyword::Source) {
            return self.parse_create_source(false);
        }
        if self.consume_keyword(Keyword::Sink) {
            let name = self.parse_identifier()?;
            let options = self.parse_with_options()?;
            return Ok(Statement::CreateSink(CreateSink { name, options }));
        }
        if self.consume_keyword(Keyword::Stream) {
            let name = self.parse_identifier()?;
            let (columns, watermark) = self.parse_schema_clause()?;
            if columns.is_empty() {
                return Err(Error::parse(format!(
                    "CREATE STREAM {name} needs at least one column"
                )));
            }
            return Ok(Statement::CreateStream(CreateStream {
                name,
                columns,
                watermark,
            }));
        }
        if self.consume_keyword(Keyword::Temporal) {
            self.expect_keyword(Keyword::Table)?;
            let name = self.parse_identifier()?;
            let (columns, watermark) = self.parse_schema_clause()?;
            if let Some(wm) = watermark {
                return Err(Error::parse(format!(
                    "temporal table {name}: WATERMARK FOR {wm} is not \
                     meaningful on a table (watermarks describe streams)"
                )));
            }
            if columns.is_empty() {
                return Err(Error::parse(format!(
                    "CREATE TEMPORAL TABLE {name} needs at least one column"
                )));
            }
            let options = if self.peek_keyword(Keyword::With) {
                self.parse_with_options()?
            } else {
                Vec::new()
            };
            return Ok(Statement::CreateTemporalTable(CreateTemporalTable {
                name,
                columns,
                options,
            }));
        }
        Err(self.unexpected(
            "expected SOURCE, PARTITIONED SOURCE, SINK, STREAM, or TEMPORAL TABLE after CREATE",
        ))
    }

    fn parse_create_source(&mut self, partitioned: bool) -> Result<Statement> {
        let name = self.parse_identifier()?;
        let (columns, watermark) = if *self.peek() == TokenKind::LParen {
            self.parse_schema_clause()?
        } else {
            (Vec::new(), None)
        };
        let options = self.parse_with_options()?;
        Ok(Statement::CreateSource(CreateSource {
            name,
            partitioned,
            columns,
            watermark,
            options,
        }))
    }

    /// Parse `(<col type>, ..., [WATERMARK FOR col])`.
    fn parse_schema_clause(&mut self) -> Result<(Vec<ColumnDef>, Option<String>)> {
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        let mut watermark = None;
        loop {
            if self.consume_keyword(Keyword::Watermark) {
                self.expect_keyword(Keyword::For)?;
                let col = self.parse_identifier()?;
                if let Some(prev) = watermark.replace(col) {
                    return Err(Error::parse(format!(
                        "duplicate WATERMARK clause (already declared for '{prev}')"
                    )));
                }
            } else {
                let name = self.parse_identifier()?;
                let data_type = self.parse_data_type()?;
                columns.push(ColumnDef { name, data_type });
            }
            if !self.consume(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok((columns, watermark))
    }

    /// Parse a `'string'`, `number`, `-number`, or `TRUE`/`FALSE` option
    /// value — the right-hand side of a `WITH` pair or a `SET` statement.
    fn parse_option_value(&mut self, key: &str) -> Result<OptionValue> {
        match self.advance() {
            TokenKind::String(s) => Ok(OptionValue::String(s)),
            TokenKind::Number(n) => Ok(OptionValue::Number(n)),
            TokenKind::Minus => match self.advance() {
                TokenKind::Number(n) => Ok(OptionValue::Number(format!("-{n}"))),
                _ => Err(self.unexpected("expected number after '-'")),
            },
            TokenKind::Keyword(Keyword::True) => Ok(OptionValue::Bool(true)),
            TokenKind::Keyword(Keyword::False) => Ok(OptionValue::Bool(false)),
            _ => Err(self.unexpected(&format!(
                "expected a string, number, or boolean value for option '{key}'"
            ))),
        }
    }

    /// Parse a required `'string'` literal token.
    fn parse_string(&mut self, expected: &str) -> Result<String> {
        match self.advance() {
            TokenKind::String(s) => Ok(s),
            _ => Err(self.unexpected(&format!("expected {expected}"))),
        }
    }

    /// Parse `WITH (key = value, ...)`. The pair list may be empty.
    /// Keys are positionally unambiguous (always after `(` or `,`), so
    /// any keyword works as a key too — the net sink's `stream = '...'`
    /// must not collide with the STREAM keyword.
    fn parse_with_options(&mut self) -> Result<Vec<WithOption>> {
        self.expect_keyword(Keyword::With)?;
        self.expect(&TokenKind::LParen)?;
        let mut options = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let key = match self.peek().clone() {
                    TokenKind::Keyword(kw) => {
                        self.advance();
                        kw.as_str().to_string()
                    }
                    _ => self.parse_identifier()?,
                };
                self.expect(&TokenKind::Eq)?;
                let value = self.parse_option_value(&key)?;
                options.push(WithOption { key, value });
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(options)
    }

    // -- queries ----------------------------------------------------------

    /// Parse a query: body, `ORDER BY`, `LIMIT`, `EMIT`.
    pub fn parse_query(&mut self) -> Result<Query> {
        let body = self.parse_set_expr()?;
        let mut order_by = Vec::new();
        if self.consume_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.consume_keyword(Keyword::Desc) {
                    true
                } else {
                    self.consume_keyword(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.consume_keyword(Keyword::Limit) {
            match self.advance() {
                TokenKind::Number(n) => Some(
                    n.parse::<u64>()
                        .map_err(|_| Error::parse(format!("invalid LIMIT value '{n}'")))?,
                ),
                _ => return Err(self.unexpected("expected integer after LIMIT")),
            }
        } else {
            None
        };
        let emit = if self.consume_keyword(Keyword::Emit) {
            Some(self.parse_emit()?)
        } else {
            None
        };
        Ok(Query {
            body,
            order_by,
            limit,
            emit,
        })
    }

    fn parse_emit(&mut self) -> Result<Emit> {
        let mut emit = Emit {
            stream: self.consume_keyword(Keyword::Stream),
            ..Emit::default()
        };
        loop {
            if !self.consume_keyword(Keyword::After) {
                break;
            }
            if self.consume_keyword(Keyword::Watermark) {
                emit.after_watermark = true;
            } else if self.consume_keyword(Keyword::Delay) {
                // Parse above AND precedence so `AFTER DELAY d AND AFTER
                // WATERMARK` leaves the AND for the EMIT grammar.
                emit.after_delay = Some(self.parse_expr_prec(4)?);
            } else {
                return Err(self.unexpected("expected WATERMARK or DELAY after AFTER"));
            }
            if !self.consume_keyword(Keyword::And) {
                break;
            }
            // After AND we require another AFTER clause.
            if !self.peek_keyword(Keyword::After) {
                return Err(self.unexpected("expected AFTER following AND in EMIT clause"));
            }
        }
        if !emit.stream && !emit.after_watermark && emit.after_delay.is_none() {
            return Err(Error::parse(
                "EMIT requires at least one of STREAM, AFTER WATERMARK, AFTER DELAY",
            ));
        }
        Ok(emit)
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = SetExpr::Select(Box::new(self.parse_select()?));
        while self.peek_keyword(Keyword::Union) {
            self.advance();
            self.expect_keyword(Keyword::All).map_err(|_| {
                Error::parse("only UNION ALL is supported (bag semantics)".to_string())
            })?;
            let right = SetExpr::Select(Box::new(self.parse_select()?));
            left = SetExpr::UnionAll(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.consume_keyword(Keyword::Distinct);
        let mut projection = Vec::new();
        loop {
            projection.push(self.parse_select_item()?);
            if !self.consume(&TokenKind::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.consume_keyword(Keyword::From) {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let selection = if self.consume_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.consume_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.consume_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.consume(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*` (the alias may be a soft keyword, like any other
        // identifier position)
        let qualifier = match self.peek().clone() {
            TokenKind::Ident(name) => Some(name),
            ref other => Parser::soft_keyword(other),
        };
        if let Some(name) = qualifier {
            if *self.peek_ahead(1) == TokenKind::Dot && *self.peek_ahead(2) == TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_optional_alias(&mut self) -> Result<Option<String>> {
        if self.consume_keyword(Keyword::As) {
            return Ok(Some(self.parse_identifier()?));
        }
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Some(name))
            }
            ref other => match Parser::soft_keyword(other) {
                Some(name) => {
                    self.advance();
                    Ok(Some(name))
                }
                None => Ok(None),
            },
        }
    }

    // -- table references -------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.consume_keyword(Keyword::Cross) {
                self.expect_keyword(Keyword::Join)?;
                JoinKind::Cross
            } else if self.consume_keyword(Keyword::Left) {
                self.consume_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                JoinKind::Left
            } else if self.consume_keyword(Keyword::Inner) {
                self.expect_keyword(Keyword::Join)?;
                JoinKind::Inner
            } else if self.consume_keyword(Keyword::Join) {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_keyword(Keyword::On)?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        // Derived table: (SELECT ...) alias
        if self.consume(&TokenKind::LParen) {
            let query = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            let alias = self.parse_optional_alias()?.ok_or_else(|| {
                Error::parse("derived table (subquery in FROM) requires an alias")
            })?;
            return Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.parse_identifier()?;
        // Table-valued function: ident immediately followed by `(`.
        if *self.peek() == TokenKind::LParen {
            self.advance();
            let mut args = Vec::new();
            if *self.peek() != TokenKind::RParen {
                loop {
                    args.push(self.parse_tvf_arg()?);
                    if !self.consume(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            let alias = self.parse_optional_alias()?;
            return Ok(TableRef::TableFunction {
                call: TvfCall { name, args },
                alias,
            });
        }
        // Plain table, optional AS OF SYSTEM TIME, optional alias.
        let as_of = if self.peek_keyword(Keyword::As)
            && *self.peek_ahead(1) == TokenKind::Keyword(Keyword::Of)
        {
            self.advance(); // AS
            self.advance(); // OF
            self.expect_keyword(Keyword::System)?;
            self.expect_keyword(Keyword::Time)?;
            Some(self.parse_expr()?)
        } else {
            None
        };
        let alias = self.parse_optional_alias()?;
        Ok(TableRef::Table { name, alias, as_of })
    }

    fn parse_tvf_arg(&mut self) -> Result<TvfArg> {
        // Named argument: ident => value
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            if *self.peek_ahead(1) == TokenKind::Arrow {
                self.advance();
                self.advance();
                Some(n)
            } else {
                None
            }
        } else {
            None
        };
        let value = if self.consume_keyword(Keyword::Table) {
            // TABLE(Bid), TABLE (subquery), or TABLE Bid.
            if self.consume(&TokenKind::LParen) {
                let inner = self.parse_table_ref()?;
                self.expect(&TokenKind::RParen)?;
                TvfArgValue::Table(Box::new(inner))
            } else {
                let table = self.parse_identifier()?;
                TvfArgValue::Table(Box::new(TableRef::Table {
                    name: table,
                    alias: None,
                    as_of: None,
                }))
            }
        } else if self.consume_keyword(Keyword::Descriptor) {
            self.expect(&TokenKind::LParen)?;
            let col = self.parse_identifier()?;
            self.expect(&TokenKind::RParen)?;
            TvfArgValue::Descriptor(col)
        } else {
            TvfArgValue::Scalar(self.parse_expr()?)
        };
        Ok(TvfArg { name, value })
    }

    // -- expressions --------------------------------------------------------

    /// Parse an expression at the lowest precedence.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_expr_prec(1)
    }

    /// Precedence level used for postfix predicates (`IS NULL`, `BETWEEN`,
    /// `IN`, `LIKE`): binds tighter than `AND` (2), looser than `=` (4).
    const POSTFIX_PREC: u8 = 3;

    fn parse_expr_prec(&mut self, min_prec: u8) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            // Postfix predicates.
            if Self::POSTFIX_PREC >= min_prec {
                if self.peek_keyword(Keyword::Is) {
                    self.advance();
                    let negated = self.consume_keyword(Keyword::Not);
                    self.expect_keyword(Keyword::Null)?;
                    left = Expr::IsNull {
                        expr: Box::new(left),
                        negated,
                    };
                    continue;
                }
                let negated = if self.peek_keyword(Keyword::Not)
                    && matches!(
                        self.peek_ahead(1),
                        TokenKind::Keyword(Keyword::Between | Keyword::In | Keyword::Like)
                    ) {
                    self.advance();
                    true
                } else {
                    false
                };
                if self.consume_keyword(Keyword::Between) {
                    let low = self.parse_expr_prec(5)?;
                    self.expect_keyword(Keyword::And)?;
                    let high = self.parse_expr_prec(5)?;
                    left = Expr::Between {
                        expr: Box::new(left),
                        low: Box::new(low),
                        high: Box::new(high),
                        negated,
                    };
                    continue;
                }
                if self.consume_keyword(Keyword::In) {
                    self.expect(&TokenKind::LParen)?;
                    let mut list = Vec::new();
                    loop {
                        list.push(self.parse_expr()?);
                        if !self.consume(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    left = Expr::InList {
                        expr: Box::new(left),
                        list,
                        negated,
                    };
                    continue;
                }
                if self.consume_keyword(Keyword::Like) {
                    let pattern = self.parse_expr_prec(5)?;
                    left = Expr::Like {
                        expr: Box::new(left),
                        pattern: Box::new(pattern),
                        negated,
                    };
                    continue;
                }
                if negated {
                    return Err(self.unexpected("expected BETWEEN, IN, or LIKE after NOT"));
                }
            }
            // Binary operators.
            let Some(op) = self.peek_binary_op() else {
                break;
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.advance();
            let right = self.parse_expr_prec(prec + 1)?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        Some(match self.peek() {
            TokenKind::Keyword(Keyword::Or) => BinaryOp::Or,
            TokenKind::Keyword(Keyword::And) => BinaryOp::And,
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            TokenKind::Plus => BinaryOp::Plus,
            TokenKind::Minus => BinaryOp::Minus,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            TokenKind::Concat => BinaryOp::Concat,
            _ => return None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek_keyword(Keyword::Not)
            && !matches!(
                self.peek_ahead(1),
                TokenKind::Keyword(Keyword::Between | Keyword::In | Keyword::Like)
            )
        {
            self.advance();
            let expr = self.parse_expr_prec(Self::POSTFIX_PREC)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        if self.consume(&TokenKind::Minus) {
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.consume(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            TokenKind::String(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Keyword(Keyword::Interval) => {
                self.advance();
                self.parse_interval_literal()
            }
            TokenKind::Keyword(Keyword::Timestamp) => {
                self.advance();
                match self.advance() {
                    TokenKind::String(s) => Ok(Expr::Literal(Literal::Timestamp(s))),
                    _ => Err(self.unexpected("expected string after TIMESTAMP")),
                }
            }
            TokenKind::Keyword(Keyword::Case) => {
                self.advance();
                self.parse_case()
            }
            TokenKind::Keyword(Keyword::Cast) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_keyword(Keyword::As)?;
                let to = self.parse_data_type()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(expr),
                    to,
                })
            }
            TokenKind::Keyword(Keyword::Exists) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Exists(Box::new(q)))
            }
            TokenKind::LParen => {
                self.advance();
                if self.peek_keyword(Keyword::Select) {
                    let q = self.parse_query()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Subquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(e)
                }
            }
            TokenKind::Ident(name) => {
                self.advance();
                self.parse_ident_expr(name)
            }
            ref other => match Parser::soft_keyword(other) {
                Some(name) => {
                    self.advance();
                    self.parse_ident_expr(name)
                }
                None => Err(self.unexpected("expected expression")),
            },
        }
    }

    /// Continuation of a primary expression that started with an
    /// identifier (or a soft keyword acting as one): a function call, a
    /// qualified column, or a bare column.
    fn parse_ident_expr(&mut self, name: String) -> Result<Expr> {
        if *self.peek() == TokenKind::LParen {
            self.advance();
            let distinct = self.consume_keyword(Keyword::Distinct);
            let mut args = Vec::new();
            if *self.peek() != TokenKind::RParen {
                loop {
                    if self.consume(&TokenKind::Star) {
                        args.push(Expr::Wildcard);
                    } else {
                        args.push(self.parse_expr()?);
                    }
                    if !self.consume(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Function {
                name,
                args,
                distinct,
            });
        }
        // Qualified column?
        if self.consume(&TokenKind::Dot) {
            let col = self.parse_identifier()?;
            return Ok(Expr::qcol(name, col));
        }
        Ok(Expr::col(name))
    }

    fn parse_interval_literal(&mut self) -> Result<Expr> {
        let value = match self.advance() {
            TokenKind::String(s) => s,
            TokenKind::Number(n) => n,
            _ => return Err(self.unexpected("expected interval magnitude")),
        };
        let unit = match self.advance() {
            TokenKind::Keyword(Keyword::Millisecond | Keyword::Milliseconds) => {
                IntervalUnit::Millisecond
            }
            TokenKind::Keyword(Keyword::Second | Keyword::Seconds) => IntervalUnit::Second,
            TokenKind::Keyword(Keyword::Minute | Keyword::Minutes) => IntervalUnit::Minute,
            TokenKind::Keyword(Keyword::Hour | Keyword::Hours) => IntervalUnit::Hour,
            _ => {
                return Err(
                    self.unexpected("expected interval unit (MILLISECOND/SECOND/MINUTE/HOUR)")
                )
            }
        };
        Ok(Expr::Literal(Literal::Interval { value, unit }))
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if !self.peek_keyword(Keyword::When) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.consume_keyword(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_keyword(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(Error::parse("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.consume_keyword(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let name = match self.advance() {
            TokenKind::Ident(n) => n,
            TokenKind::Keyword(Keyword::Timestamp) => "TIMESTAMP".to_string(),
            TokenKind::Keyword(Keyword::Interval) => "INTERVAL".to_string(),
            other => {
                return Err(Error::parse(format!(
                    "expected type name in CAST, found {other}"
                )))
            }
        };
        DataType::from_sql_name(&name)
            .ok_or_else(|| Error::parse(format!("unknown type name '{name}' in CAST")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(sql: &str) -> Query {
        let q1 = parse_query(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
        let printed = q1.to_string();
        let q2 =
            parse_query(&printed).unwrap_or_else(|e| panic!("reparse failed for {printed}: {e}"));
        assert_eq!(q1, q2, "round trip mismatch for {sql} -> {printed}");
        q1
    }

    #[test]
    fn simple_select() {
        let q = round_trip("SELECT price, item FROM Bid WHERE price > 3");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert_eq!(s.projection.len(), 2);
        assert!(s.selection.is_some());
    }

    #[test]
    fn select_star_and_qualified_star() {
        round_trip("SELECT * FROM Bid");
        let q = round_trip("SELECT B.* FROM Bid AS B");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert_eq!(s.projection[0], SelectItem::QualifiedWildcard("B".into()));
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = round_trip(
            "SELECT item, SUM(price) AS total FROM Bid GROUP BY item \
             HAVING SUM(price) > 10 ORDER BY total DESC, item LIMIT 5",
        );
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
    }

    #[test]
    fn tumble_tvf_named_args() {
        let q = round_trip(
            "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '10' MINUTE) AS TumbleBid",
        );
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let TableRef::TableFunction { call, alias } = &s.from[0] else {
            panic!("expected TVF")
        };
        assert_eq!(call.name, "Tumble");
        assert_eq!(call.args.len(), 3);
        assert_eq!(call.args[0].name.as_deref(), Some("data"));
        assert!(matches!(call.args[0].value, TvfArgValue::Table(_)));
        assert!(matches!(
            call.args[1].value,
            TvfArgValue::Descriptor(ref c) if c == "bidtime"
        ));
        assert_eq!(alias.as_deref(), Some("TumbleBid"));
    }

    #[test]
    fn tvf_table_arg_without_parens() {
        // Listing 7 uses `data => TABLE Bids`.
        let q = round_trip(
            "SELECT * FROM Hop(data => TABLE Bids, timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES)",
        );
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert!(matches!(s.from[0], TableRef::TableFunction { .. }));
    }

    #[test]
    fn full_nexmark_q7() {
        // The paper's Listing 2, lightly normalized.
        let sql = "
            SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.itemid
            FROM Bid,
              (SELECT MAX(TumbleBid.price) maxPrice,
                      TumbleBid.wstart wstart, TumbleBid.wend wend
               FROM Tumble(data => TABLE(Bid),
                           timecol => DESCRIPTOR(bidtime),
                           dur => INTERVAL '10' MINUTE) TumbleBid
               GROUP BY TumbleBid.wstart, TumbleBid.wend) MaxBid
            WHERE Bid.price = MaxBid.maxPrice AND
                  Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
                  Bid.bidtime < MaxBid.wend;";
        let q = round_trip(sql);
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert_eq!(s.from.len(), 2);
        assert!(matches!(&s.from[1], TableRef::Derived { alias, .. } if alias == "MaxBid"));
    }

    #[test]
    fn emit_clauses() {
        let q = round_trip("SELECT * FROM Bid EMIT STREAM");
        assert_eq!(
            q.emit,
            Some(Emit {
                stream: true,
                after_watermark: false,
                after_delay: None
            })
        );

        let q = round_trip("SELECT * FROM Bid EMIT AFTER WATERMARK");
        assert!(q.emit.as_ref().unwrap().after_watermark);
        assert!(!q.emit.as_ref().unwrap().stream);

        let q = round_trip("SELECT * FROM Bid EMIT STREAM AFTER WATERMARK");
        assert!(q.emit.as_ref().unwrap().after_watermark);
        assert!(q.emit.as_ref().unwrap().stream);

        let q = round_trip("SELECT * FROM Bid EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES");
        assert!(q.emit.as_ref().unwrap().after_delay.is_some());

        let q = round_trip(
            "SELECT * FROM Bid EMIT AFTER DELAY INTERVAL '6' MINUTES AND AFTER WATERMARK",
        );
        let emit = q.emit.unwrap();
        assert!(emit.after_watermark);
        assert!(emit.after_delay.is_some());

        assert!(parse_query("SELECT * FROM Bid EMIT").is_err());
        assert!(parse_query("SELECT * FROM Bid EMIT AFTER").is_err());
    }

    #[test]
    fn joins() {
        let q = round_trip(
            "SELECT * FROM Auction A JOIN Bid B ON A.id = B.auction \
             LEFT JOIN Person P ON A.seller = P.id",
        );
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let TableRef::Join { kind, .. } = &s.from[0] else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::Left);
        round_trip("SELECT * FROM A CROSS JOIN B");
        round_trip("SELECT * FROM A INNER JOIN B ON A.x = B.x");
    }

    #[test]
    fn as_of_system_time() {
        let q = round_trip("SELECT * FROM Rates AS OF SYSTEM TIME TIMESTAMP '9:30' R");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let TableRef::Table { as_of, alias, .. } = &s.from[0] else {
            panic!()
        };
        assert!(as_of.is_some());
        assert_eq!(alias.as_deref(), Some("R"));
    }

    #[test]
    fn expression_precedence() {
        let q = round_trip("SELECT 1 + 2 * 3 FROM T");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");

        let q = round_trip("SELECT a OR b AND c = d + e FROM T");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(expr.to_string(), "(a OR (b AND (c = (d + e))))");
    }

    #[test]
    fn postfix_predicates() {
        round_trip("SELECT * FROM T WHERE x IS NULL");
        round_trip("SELECT * FROM T WHERE x IS NOT NULL");
        round_trip("SELECT * FROM T WHERE x BETWEEN 1 AND 10 AND y = 2");
        round_trip("SELECT * FROM T WHERE x NOT BETWEEN 1 AND 10");
        round_trip("SELECT * FROM T WHERE x IN (1, 2, 3)");
        round_trip("SELECT * FROM T WHERE x NOT IN (1, 2)");
        round_trip("SELECT * FROM T WHERE name LIKE 'item%'");
        round_trip("SELECT * FROM T WHERE name NOT LIKE '%x_'");
        // NOT as logical operator applies after postfix binding.
        let q = round_trip("SELECT * FROM T WHERE NOT x IS NULL AND y = 1");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert_eq!(
            s.selection.as_ref().unwrap().to_string(),
            "((NOT ((x) IS NULL)) AND (y = 1))"
        );
    }

    #[test]
    fn case_cast_functions() {
        round_trip("SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM T");
        round_trip("SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM T");
        round_trip("SELECT CAST(price AS DOUBLE) FROM T");
        round_trip("SELECT CAST(t AS TIMESTAMP) FROM T");
        round_trip("SELECT COUNT(*), COUNT(DISTINCT item), MAX(price) FROM T");
        assert!(parse_query("SELECT CASE END FROM T").is_err());
    }

    #[test]
    fn scalar_subquery_and_exists() {
        let q = round_trip("SELECT * FROM Bid B WHERE B.price = (SELECT MAX(price) FROM Bid)");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert!(s.selection.as_ref().unwrap().to_string().contains("SELECT"));
        round_trip("SELECT * FROM T WHERE EXISTS (SELECT 1 FROM U)");
    }

    #[test]
    fn union_all() {
        let q = round_trip("SELECT a FROM T UNION ALL SELECT b FROM U UNION ALL SELECT c FROM V");
        assert!(matches!(q.body, SetExpr::UnionAll(_, _)));
        assert!(parse_query("SELECT a FROM T UNION SELECT b FROM U").is_err());
    }

    #[test]
    fn interval_literals() {
        round_trip("SELECT INTERVAL '10' MINUTE FROM T");
        round_trip("SELECT INTERVAL '6' MINUTES FROM T");
        round_trip("SELECT INTERVAL '1' HOUR FROM T");
        round_trip("SELECT INTERVAL '500' MILLISECONDS FROM T");
        assert!(parse_query("SELECT INTERVAL '10' FORTNIGHT FROM T").is_err());
    }

    #[test]
    fn timestamp_literals() {
        let q = round_trip("SELECT * FROM T WHERE bidtime >= TIMESTAMP '8:07'");
        assert!(q.to_string().contains("TIMESTAMP '8:07'"));
    }

    #[test]
    fn select_without_from() {
        round_trip("SELECT 1, 2 + 3");
    }

    #[test]
    fn derived_table_requires_alias() {
        assert!(parse_query("SELECT * FROM (SELECT 1)").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT 1 FROM T extra garbage here").is_err());
        assert!(parse_query("SELECT 1; SELECT 2").is_err());
    }

    #[test]
    fn error_mentions_offset() {
        let err = parse_query("SELECT FROM").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
    }

    #[test]
    fn parse_errors_pin_line_and_column() {
        // `FROM` with no select list: the offending token is FROM at
        // byte 7 on line 1.
        let err = parse_query("SELECT FROM").unwrap_err().to_string();
        assert!(err.contains("line 1, column 8"), "{err}");
        assert!(err.contains("byte offset 7"), "{err}");
        assert!(err.contains("FROM"), "{err}");

        // Multi-line script: the error names the line the bad token is on.
        let err = parse_script("SELECT 1;\nSELECT 2;\nSELECT FROM x;")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3, column 8"), "{err}");

        // Statement-level errors carry positions too.
        let err = parse_statement("CREATE SOURCE s (x INT)\n  WITH (path = )")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn script_statements_carry_spans() {
        let script = "SELECT 1;  -- comment\n  SELECT 22 FROM Bid ;";
        let spanned = parse_script_spanned(script).unwrap();
        assert_eq!(spanned.len(), 2);
        assert_eq!(spanned[0].span.slice(script), "SELECT 1");
        assert_eq!(spanned[1].span.slice(script), "SELECT 22 FROM Bid");
        // Spans exclude the statement separator and surrounding trivia.
        assert_eq!(spanned[0].span, Span::new(0, 8));
    }

    #[test]
    fn unary_ops() {
        round_trip("SELECT -x, NOT y, -(x + 1) FROM T");
        let q = round_trip("SELECT 3 - -2 FROM T");
        assert!(q.to_string().contains("(3 - (-2))"), "{q}");
    }

    #[test]
    fn multiple_trailing_semicolons_accepted() {
        assert!(parse_query("SELECT 1;").is_ok());
        assert!(parse_query("SELECT 1;;").is_ok());
        assert!(parse_query("SELECT 1 ; -- done\n").is_ok());
        assert!(parse_query("SELECT 1; SELECT 2").is_err());
    }

    fn round_trip_stmt(sql: &str) -> Statement {
        let s1 = parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
        let printed = s1.to_string();
        let s2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed}: {e}"));
        assert_eq!(s1, s2, "round trip mismatch for {sql} -> {printed}");
        s1
    }

    #[test]
    fn create_source_with_schema_and_watermark() {
        let s = round_trip_stmt(
            "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, item STRING, \
             WATERMARK FOR bidtime) WITH (connector = 'file', path = '/tmp/b.csv', \
             format = 'csv', header = TRUE, lateness_ms = 500)",
        );
        let Statement::CreateSource(c) = s else {
            panic!("expected CreateSource")
        };
        assert!(!c.partitioned);
        assert_eq!(c.name, "Bid");
        assert_eq!(c.columns.len(), 3);
        assert_eq!(c.columns[1].data_type, DataType::Int);
        assert_eq!(c.watermark.as_deref(), Some("bidtime"));
        assert_eq!(c.options.len(), 5);
        assert_eq!(c.options[3].value, OptionValue::Bool(true));
        assert_eq!(c.options[4].value, OptionValue::Number("500".into()));
    }

    #[test]
    fn create_partitioned_source_without_schema() {
        let s = round_trip_stmt(
            "CREATE PARTITIONED SOURCE nex WITH (connector = 'nexmark', \
             seed = 7, events = 6000, partitions = 4)",
        );
        let Statement::CreateSource(c) = s else {
            panic!()
        };
        assert!(c.partitioned);
        assert!(c.columns.is_empty());
        assert!(c.watermark.is_none());
    }

    #[test]
    fn create_sink_stream_and_temporal_table() {
        let s = round_trip_stmt("CREATE SINK out WITH (connector = 'changelog')");
        assert!(matches!(s, Statement::CreateSink(_)));

        let s = round_trip_stmt(
            "CREATE STREAM Person (id INT, name STRING, dateTime TIMESTAMP, \
             WATERMARK FOR dateTime)",
        );
        let Statement::CreateStream(c) = s else {
            panic!()
        };
        assert_eq!(c.columns.len(), 3);
        assert_eq!(c.watermark.as_deref(), Some("dateTime"));

        let s = round_trip_stmt(
            "CREATE TEMPORAL TABLE Rates (currency STRING, rate INT) WITH (key = 'currency')",
        );
        assert!(matches!(s, Statement::CreateTemporalTable(_)));
        round_trip_stmt("CREATE TEMPORAL TABLE Flat (x INT)");
    }

    #[test]
    fn insert_into_select_emit() {
        let s = round_trip_stmt(
            "INSERT INTO out SELECT price FROM Bid WHERE price > 2 EMIT STREAM AFTER WATERMARK",
        );
        let Statement::Insert { sink, query } = s else {
            panic!()
        };
        assert_eq!(sink, "out");
        assert!(query.emit.is_some());
    }

    #[test]
    fn explain_and_drop() {
        let s = round_trip_stmt("EXPLAIN SELECT price FROM Bid");
        assert!(matches!(s, Statement::Explain(_)));
        let s = round_trip_stmt("DROP SOURCE Bid");
        assert!(matches!(
            s,
            Statement::Drop {
                kind: DropKind::Source,
                if_exists: false,
                ..
            }
        ));
        let s = round_trip_stmt("DROP SINK IF EXISTS out");
        assert!(matches!(
            s,
            Statement::Drop {
                kind: DropKind::Sink,
                if_exists: true,
                ..
            }
        ));
        round_trip_stmt("DROP STREAM S");
        round_trip_stmt("DROP TABLE T");
        assert!(parse_statement("DROP DATABASE x").is_err());
    }

    #[test]
    fn set_statement() {
        let s = round_trip_stmt("SET workers = 4");
        let Statement::Set { name, value } = s else {
            panic!("expected Set")
        };
        assert_eq!(name, "workers");
        assert_eq!(value, OptionValue::Number("4".into()));

        round_trip_stmt("SET max_idle_rounds = 0");
        let s = round_trip_stmt("set MAX_BATCH = 1024");
        assert!(matches!(s, Statement::Set { .. }), "case-insensitive");

        assert!(parse_statement("SET workers").is_err(), "missing =");
        assert!(parse_statement("SET workers = ").is_err(), "missing value");
        assert!(parse_statement("SET = 4").is_err(), "missing knob name");
    }

    #[test]
    fn checkpoint_and_restore_pipeline() {
        let s = round_trip_stmt("CHECKPOINT PIPELINE out TO '/tmp/ckpt'");
        let Statement::CheckpointPipeline { pipeline, path } = s else {
            panic!("expected CheckpointPipeline")
        };
        assert_eq!(pipeline, "out");
        assert_eq!(path, "/tmp/ckpt");

        let s = round_trip_stmt("RESTORE PIPELINE out FROM '/tmp/ckpt'");
        let Statement::RestorePipeline { pipeline, path } = s else {
            panic!("expected RestorePipeline")
        };
        assert_eq!(pipeline, "out");
        assert_eq!(path, "/tmp/ckpt");

        // Paths with embedded quotes round-trip through the escaping.
        let s = round_trip_stmt("CHECKPOINT PIPELINE p TO '/od''d/dir'");
        let Statement::CheckpointPipeline { path, .. } = s else {
            panic!()
        };
        assert_eq!(path, "/od'd/dir");

        assert!(parse_statement("CHECKPOINT out TO '/x'").is_err());
        assert!(parse_statement("CHECKPOINT PIPELINE out TO 17").is_err());
        assert!(parse_statement("RESTORE PIPELINE out TO '/x'").is_err());
    }

    #[test]
    fn new_statement_keywords_stay_usable_as_identifiers() {
        // SET / CHECKPOINT / RESTORE / PIPELINE / TO are soft: queries
        // written before the statements existed keep parsing.
        round_trip("SELECT set, checkpoint, restore FROM pipeline");
        round_trip("SELECT t.to FROM T AS t");
        round_trip_stmt("DROP STREAM pipeline");
        // And so are SHOW / PIPELINES / ANALYZE.
        round_trip("SELECT show, analyze FROM pipelines");
        round_trip_stmt("DROP STREAM show");
    }

    #[test]
    fn show_pipelines_parses_and_round_trips() {
        let s = round_trip_stmt("SHOW PIPELINES");
        assert_eq!(s, Statement::ShowPipelines);
        let s = round_trip_stmt("show pipelines;");
        assert_eq!(s, Statement::ShowPipelines);
        let err = parse_statement("SHOW TABLES").unwrap_err().to_string();
        assert!(err.contains("PIPELINES"), "{err}");
    }

    #[test]
    fn explain_analyze_parses_and_round_trips() {
        let s = round_trip_stmt("EXPLAIN ANALYZE SELECT price FROM Bid WHERE price > 2");
        let Statement::ExplainAnalyze(q) = s else {
            panic!("expected ExplainAnalyze");
        };
        assert!(q.to_string().contains("WHERE"));
        // Plain EXPLAIN still parses as before.
        let s = round_trip_stmt("EXPLAIN SELECT price FROM Bid");
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn explain_lint_parses_and_round_trips() {
        // Statement form.
        let s = round_trip_stmt("EXPLAIN LINT INSERT INTO out SELECT price FROM Bid EMIT STREAM");
        let Statement::ExplainLint(LintTarget::Statement(inner)) = s else {
            panic!("expected ExplainLint(Statement)");
        };
        assert!(matches!(*inner, Statement::Insert { .. }));

        // Script form: a quoted script (with '' escapes round-tripping).
        let s = round_trip_stmt("EXPLAIN LINT 'CREATE SINK out WITH (connector = ''file'')'");
        let Statement::ExplainLint(LintTarget::Script(script)) = s else {
            panic!("expected ExplainLint(Script)");
        };
        assert!(script.contains("connector = 'file'"), "{script}");

        // LINT stays usable as an identifier.
        round_trip("SELECT lint FROM T");
        round_trip_stmt("DROP STREAM lint");
    }

    #[test]
    fn bare_query_is_a_statement() {
        let s = round_trip_stmt("SELECT 1");
        assert!(matches!(s, Statement::Query(_)));
    }

    #[test]
    fn script_parses_multiple_statements() {
        let script = "
            -- declare the topology
            CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
              WITH (connector = 'channel');
            CREATE SINK out WITH (connector = 'changelog');;

            INSERT INTO out SELECT price FROM Bid EMIT STREAM;
        ";
        let statements = parse_script(script).unwrap();
        assert_eq!(statements.len(), 3);
        assert!(matches!(statements[0], Statement::CreateSource(_)));
        assert!(matches!(statements[2], Statement::Insert { .. }));

        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script(" ;; -- nothing\n").unwrap().is_empty());
        assert!(parse_script("SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn statement_parse_errors_are_descriptive() {
        let err = parse_statement("CREATE VIEW v").unwrap_err().to_string();
        assert!(err.contains("TEMPORAL TABLE"), "{err}");
        let err = parse_statement("CREATE SOURCE s (x INT) WITH (path = )")
            .unwrap_err()
            .to_string();
        assert!(err.contains("option 'path'"), "{err}");
        let err = parse_statement(
            "CREATE SOURCE s (x INT, WATERMARK FOR a, WATERMARK FOR b) WITH (connector = 'c')",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("duplicate WATERMARK"), "{err}");
        assert!(parse_statement("CREATE TEMPORAL TABLE t (x INT, WATERMARK FOR x)").is_err());
        assert!(parse_statement("INSERT INTO").is_err());
        assert!(parse_statement("CREATE STREAM s ()").is_err());
    }

    #[test]
    fn statement_keywords_stay_usable_as_identifiers() {
        // SOURCE / SINK / TEMPORAL / PARTITIONED / IF / EXPLAIN are
        // statement-layer words, not reserved words of the query
        // dialect: columns, tables, and aliases with those names keep
        // parsing (unlike CREATE / WITH / INSERT, which standard SQL
        // reserves too).
        let q = round_trip("SELECT source, B.sink, temporal AS x FROM Bid B WHERE if > 1");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert_eq!(s.projection.len(), 3);
        round_trip("SELECT * FROM source");
        round_trip("SELECT * FROM Bid partitioned");
        round_trip("SELECT explain(x) FROM T");
        let q = round_trip("SELECT source.* FROM Bid source");
        let SetExpr::Select(s) = &q.body else {
            panic!()
        };
        assert!(matches!(
            &s.projection[0],
            SelectItem::QualifiedWildcard(a) if a == "source"
        ));
        // DDL positions still accept them as object names.
        round_trip_stmt("CREATE SINK sink WITH (connector = 'changelog')");
        round_trip_stmt("DROP SOURCE source");
    }

    #[test]
    fn negative_option_numbers() {
        let s = round_trip_stmt("CREATE SINK s WITH (offset = -5)");
        let Statement::CreateSink(c) = s else {
            panic!()
        };
        assert_eq!(c.options[0].value, OptionValue::Number("-5".into()));
    }

    #[test]
    fn keywords_work_as_option_keys() {
        // `stream` (the net sink's required option) is a reserved word;
        // WITH keys are positionally unambiguous so keywords are fine.
        let s = round_trip_stmt("CREATE SINK s WITH (stream = 'Mid', table = 'x', if = TRUE)");
        let Statement::CreateSink(c) = s else {
            panic!()
        };
        assert_eq!(c.options[0].key, "STREAM");
        assert_eq!(c.options[0].value, OptionValue::String("Mid".into()));
    }
}
