//! Recursive-descent parser for the GCX XQuery fragment.
//!
//! The grammar, one `parse_*` method per production:
//!
//! ```text
//! seq      ::= single ("," single)*
//! single   ::= "for" $var "in" path ("where" cond)? "return" single
//!            | "if" "(" cond ")" "then" single ("else" single)?
//!            | agg "(" path ")"            agg ::= count | sum | min | max | avg
//!            | "<" name (name "=" string)* ("/>" | ">" content* "</" name ">")
//!            | "(" seq? ")" | path | string | number | "signOff" "(" path "," rN ")"
//! content  ::= "{" seq "}" | constructor
//! cond     ::= and ("or" and)*             and ::= prim ("and" prim)*
//! prim     ::= "not" "(" cond ")" | "exists" "(" path ")" | "true()" | "false()"
//!            | strfn "(" operand "," operand ")" | "(" cond ")"
//!            | operand cmp operand         cmp ::= = | != | < | <= | > | >=
//! operand  ::= path | string | number
//! path     ::= ($var | "/" | "//" step) (("/" | "//") step)*
//! step     ::= (axis "::" | "@")? (name | "*" | "text()" | "node()") ("[" integer "]")?
//! ```
//!
//! Keywords (`for`, `in`, `where`, `return`, `if`, `then`, `else`, `and`,
//! `or`, `not`, `exists`, aggregate names, `signOff`) are matched
//! contextually — they are valid element and step names elsewhere, as in
//! real XQuery.
//!
//! `signOff(path, rN)` is parsed so that pretty-printed rewritten queries
//! round-trip; user queries normally never contain it.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};

/// Parse query text into an (un-normalized) expression.
pub fn parse(input: &str) -> Result<Expr, QueryError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let expr = p.parse_seq()?;
    p.expect_eof()?;
    Ok(expr)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.toks[self.pos].kind.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError::new(QueryErrorKind::Parse(msg.into()), self.span())
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), QueryError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {}", self.peek().describe())))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        match self.peek() {
            TokenKind::Name(n) if n == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Name(n) if n == kw)
    }

    fn expect_eof(&self) -> Result<(), QueryError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected {} after query", self.peek().describe())))
        }
    }

    // ---- expressions -------------------------------------------------------

    fn parse_seq(&mut self) -> Result<Expr, QueryError> {
        let mut items = vec![self.parse_single()?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            items.push(self.parse_single()?);
        }
        // Preserve explicit sequences even of length 1; Expr::seq collapses.
        Ok(Expr::seq(items))
    }

    fn parse_single(&mut self) -> Result<Expr, QueryError> {
        match self.peek().clone() {
            TokenKind::Name(n) if n == "for" => self.parse_for(),
            TokenKind::Name(n) if n == "if" => self.parse_if(),
            TokenKind::Name(n) if n == "signOff" => self.parse_signoff(),
            TokenKind::Name(n) if AGG_NAMES.contains(&n.as_str()) => self.parse_aggregate(&n),
            TokenKind::TagOpen(name) => self.parse_constructor(&name),
            TokenKind::LParen => {
                self.bump();
                if matches!(self.peek(), TokenKind::RParen) {
                    self.bump();
                    return Ok(Expr::Empty);
                }
                let inner = self.parse_seq()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            TokenKind::Var(_) | TokenKind::Slash | TokenKind::DoubleSlash => {
                Ok(Expr::Path(self.parse_path()?))
            }
            TokenKind::StringLit(s) => {
                self.bump();
                Ok(Expr::StringLit(s))
            }
            TokenKind::NumberLit(v) => {
                self.bump();
                Ok(Expr::NumberLit(v))
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_for(&mut self) -> Result<Expr, QueryError> {
        self.expect_keyword("for")?;
        let TokenKind::Var(name) = self.peek().clone() else {
            return Err(self.err("expected a variable after `for`"));
        };
        self.bump();
        self.expect_keyword("in")?;
        let source = self.parse_path()?;
        let where_clause = if self.at_keyword("where") {
            self.bump();
            Some(self.parse_cond()?)
        } else {
            None
        };
        self.expect_keyword("return")?;
        let body = self.parse_single()?;
        Ok(Expr::For {
            var: Var {
                name,
                id: VarId::UNASSIGNED,
            },
            source,
            where_clause,
            body: Box::new(body),
        })
    }

    fn parse_if(&mut self) -> Result<Expr, QueryError> {
        self.expect_keyword("if")?;
        self.expect(&TokenKind::LParen, "`(` after `if`")?;
        let cond = self.parse_cond()?;
        self.expect(&TokenKind::RParen, "`)` after condition")?;
        self.expect_keyword("then")?;
        let then_branch = self.parse_single()?;
        let else_branch = if self.at_keyword("else") {
            self.bump();
            self.parse_single()?
        } else {
            Expr::Empty
        };
        Ok(Expr::If {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        })
    }

    fn parse_signoff(&mut self) -> Result<Expr, QueryError> {
        self.expect_keyword("signOff")?;
        self.expect(&TokenKind::LParen, "`(` after `signOff`")?;
        let target = self.parse_path()?;
        self.expect(&TokenKind::Comma, "`,` in signOff")?;
        let role = match self.bump() {
            TokenKind::Name(n) => parse_role_name(&n)
                .ok_or_else(|| self.err(format!("expected a role (rN), found `{n}`")))?,
            other => {
                return Err(self.err(format!("expected a role (rN), found {}", other.describe())))
            }
        };
        self.expect(&TokenKind::RParen, "`)` after signOff")?;
        Ok(Expr::SignOff { target, role })
    }

    fn parse_aggregate(&mut self, name: &str) -> Result<Expr, QueryError> {
        // Aggregates look like `count($x/p)`; a bare name NOT followed by `(`
        // is not valid expression syntax in this fragment anyway.
        let func = match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => unreachable!("checked by caller"),
        };
        self.bump();
        self.expect(&TokenKind::LParen, "`(` after aggregate function")?;
        let arg = self.parse_path()?;
        self.expect(&TokenKind::RParen, "`)` after aggregate argument")?;
        Ok(Expr::Aggregate { func, arg })
    }

    fn parse_constructor(&mut self, name: &str) -> Result<Expr, QueryError> {
        let name = name.to_string();
        self.bump();
        // Literal attributes.
        let mut attrs = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Name(attr_name) => {
                    self.bump();
                    self.expect(&TokenKind::Eq, "`=` after attribute name")?;
                    match self.bump() {
                        TokenKind::StringLit(v) => attrs.push((attr_name, v)),
                        other => {
                            return Err(self.err(format!(
                                "constructor attributes must be string literals, found {}",
                                other.describe()
                            )))
                        }
                    }
                }
                TokenKind::SlashGt => {
                    self.bump();
                    return Ok(Expr::Element {
                        name,
                        attrs,
                        content: Box::new(Expr::Empty),
                    });
                }
                TokenKind::Gt => {
                    self.bump();
                    break;
                }
                other => {
                    return Err(self.err(format!(
                        "expected attribute, `>` or `/>` in constructor, found {}",
                        other.describe()
                    )))
                }
            }
        }
        // Content: `{ expr }` blocks and nested constructors, until `</name>`.
        let mut items = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::TagClose(n) => {
                    if n != name {
                        return Err(self.err(format!("constructor `<{name}>` closed by `</{n}>`")));
                    }
                    self.bump();
                    break;
                }
                TokenKind::LBrace => {
                    self.bump();
                    items.push(self.parse_seq()?);
                    self.expect(&TokenKind::RBrace, "`}`")?;
                }
                TokenKind::TagOpen(n) => {
                    items.push(self.parse_constructor(&n)?);
                }
                TokenKind::Eof => {
                    return Err(self.err(format!("unclosed constructor `<{name}>`")));
                }
                other => {
                    return Err(self.err(format!(
                        "raw text is not allowed in constructor content \
                         (use a string literal in braces), found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Expr::Element {
            name,
            attrs,
            content: Box::new(Expr::seq(items)),
        })
    }

    // ---- conditions --------------------------------------------------------

    fn parse_cond(&mut self) -> Result<Cond, QueryError> {
        let mut lhs = self.parse_cond_and()?;
        while self.at_keyword("or") {
            self.bump();
            let rhs = self.parse_cond_and()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cond_and(&mut self) -> Result<Cond, QueryError> {
        let mut lhs = self.parse_cond_prim()?;
        while self.at_keyword("and") {
            self.bump();
            let rhs = self.parse_cond_prim()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cond_prim(&mut self) -> Result<Cond, QueryError> {
        match self.peek().clone() {
            TokenKind::Name(n) if n == "not" => {
                self.bump();
                self.expect(&TokenKind::LParen, "`(` after `not`")?;
                let inner = self.parse_cond()?;
                self.expect(&TokenKind::RParen, "`)` after `not(...)`")?;
                Ok(Cond::Not(Box::new(inner)))
            }
            TokenKind::Name(n) if n == "exists" => {
                self.bump();
                self.expect(&TokenKind::LParen, "`(` after `exists`")?;
                let path = self.parse_path()?;
                self.expect(&TokenKind::RParen, "`)` after `exists(...)`")?;
                Ok(Cond::Exists(path))
            }
            TokenKind::Name(n) if n == "true" => {
                self.bump();
                self.expect(&TokenKind::LParen, "`(` after `true`")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(Cond::True)
            }
            TokenKind::Name(n) if n == "false" => {
                self.bump();
                self.expect(&TokenKind::LParen, "`(` after `false`")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(Cond::False)
            }
            TokenKind::Name(n) if STRFN_NAMES.contains(&n.as_str()) => {
                let func = match n.as_str() {
                    "contains" => StrFunc::Contains,
                    "starts-with" => StrFunc::StartsWith,
                    "ends-with" => StrFunc::EndsWith,
                    _ => unreachable!("checked above"),
                };
                self.bump();
                self.expect(&TokenKind::LParen, "`(` after string function")?;
                let haystack = self.parse_operand()?;
                self.expect(&TokenKind::Comma, "`,` between string-function arguments")?;
                let needle = self.parse_operand()?;
                self.expect(&TokenKind::RParen, "`)` after string function")?;
                Ok(Cond::StringFn {
                    func,
                    haystack,
                    needle,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.parse_cond()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            _ => {
                let lhs = self.parse_operand()?;
                let op = match self.bump() {
                    TokenKind::Eq => CmpOp::Eq,
                    TokenKind::Ne => CmpOp::Ne,
                    TokenKind::Lt => CmpOp::Lt,
                    TokenKind::Le => CmpOp::Le,
                    TokenKind::Gt => CmpOp::Gt,
                    TokenKind::Ge => CmpOp::Ge,
                    other => {
                        return Err(self.err(format!(
                            "expected a comparison operator, found {}",
                            other.describe()
                        )))
                    }
                };
                let rhs = self.parse_operand()?;
                Ok(Cond::Compare { op, lhs, rhs })
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, QueryError> {
        match self.peek().clone() {
            TokenKind::Var(_) | TokenKind::Slash | TokenKind::DoubleSlash => {
                Ok(Operand::Path(self.parse_path()?))
            }
            TokenKind::StringLit(s) => {
                self.bump();
                Ok(Operand::StringLit(s))
            }
            TokenKind::NumberLit(v) => {
                self.bump();
                Ok(Operand::NumberLit(v))
            }
            other => Err(self.err(format!(
                "expected a path, string or number operand, found {}",
                other.describe()
            ))),
        }
    }

    // ---- paths -------------------------------------------------------------

    fn parse_path(&mut self) -> Result<PathExpr, QueryError> {
        let span = self.span();
        let (root, mut steps) = match self.peek().clone() {
            TokenKind::Var(name) => {
                self.bump();
                (
                    PathRoot::Var(Var {
                        name,
                        id: VarId::UNASSIGNED,
                    }),
                    Vec::new(),
                )
            }
            TokenKind::Slash => {
                self.bump();
                // `/` alone (document node) or `/step...`. A lone `/`
                // directly followed by a context keyword is ambiguous
                // (`for $x in / return ...`, `if (1 <= / and ...)`); like
                // XQuery's leading-lone-slash rule we resolve in favour of
                // the keyword. Paths to elements *named* like keywords must
                // use the explicit axis: `/child::return`.
                let keyword_follows = ["return", "where", "and", "or", "then", "else"]
                    .iter()
                    .any(|kw| self.at_keyword(kw));
                if self.at_step_start() && !keyword_follows {
                    let step = self.parse_step_body(Axis::Child)?;
                    (PathRoot::Root, vec![step])
                } else {
                    (PathRoot::Root, Vec::new())
                }
            }
            TokenKind::DoubleSlash => {
                self.bump();
                if !self.at_step_start() {
                    return Err(self.err("expected a step after `//`"));
                }
                let step = self.parse_step_body(Axis::Descendant)?;
                (PathRoot::Root, vec![step])
            }
            other => return Err(self.err(format!("expected a path, found {}", other.describe()))),
        };
        loop {
            match self.peek() {
                TokenKind::Slash => {
                    self.bump();
                    steps.push(self.parse_step_body(Axis::Child)?);
                }
                TokenKind::DoubleSlash => {
                    self.bump();
                    steps.push(self.parse_step_body(Axis::Descendant)?);
                }
                _ => break,
            }
        }
        Ok(PathExpr { root, steps, span })
    }

    fn at_step_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Name(_) | TokenKind::Star | TokenKind::At
        )
    }

    /// Parse a step body; `default_axis` is Child for `/`, Descendant for `//`.
    fn parse_step_body(&mut self, default_axis: Axis) -> Result<Step, QueryError> {
        let mut axis = default_axis;
        // Explicit axis? `name::`.
        if let TokenKind::Name(n) = self.peek() {
            if matches!(self.peek2(), TokenKind::ColonColon) {
                let explicit = match n.as_str() {
                    "child" => Axis::Child,
                    "descendant" => Axis::Descendant,
                    "descendant-or-self" => Axis::DescendantOrSelf,
                    "self" => Axis::SelfAxis,
                    "attribute" => Axis::Attribute,
                    other => {
                        return Err(self.err(format!("unsupported axis `{other}`")));
                    }
                };
                if default_axis == Axis::Descendant {
                    // `$x//child::a` means descendant-or-self step then child.
                    // We do not support combining the `//` abbreviation with
                    // explicit axes; keep the fragment unambiguous.
                    return Err(self.err("explicit axis not allowed after `//`"));
                }
                axis = explicit;
                self.bump(); // axis name
                self.bump(); // ::
            }
        }
        if matches!(self.peek(), TokenKind::At) {
            if axis != default_axis {
                return Err(self.err("`@` cannot follow an explicit axis"));
            }
            self.bump();
            axis = Axis::Attribute;
        }
        // Node test.
        let test = match self.peek().clone() {
            TokenKind::Star => {
                self.bump();
                NodeTest::Star
            }
            TokenKind::Name(n) if n == "text" && matches!(self.peek2(), TokenKind::LParen) => {
                self.bump();
                self.bump();
                self.expect(&TokenKind::RParen, "`)` after `text(`")?;
                NodeTest::Text
            }
            TokenKind::Name(n) if n == "node" && matches!(self.peek2(), TokenKind::LParen) => {
                self.bump();
                self.bump();
                self.expect(&TokenKind::RParen, "`)` after `node(`")?;
                NodeTest::AnyNode
            }
            TokenKind::Name(n) => {
                self.bump();
                NodeTest::Name(n)
            }
            other => {
                return Err(self.err(format!("expected a node test, found {}", other.describe())))
            }
        };
        // Optional positional predicate.
        let pred = if matches!(self.peek(), TokenKind::LBracket) {
            self.bump();
            let k = match self.bump() {
                TokenKind::NumberLit(v) if v.fract() == 0.0 && v >= 1.0 && v <= u32::MAX as f64 => {
                    v as u32
                }
                other => {
                    return Err(self.err(format!(
                        "expected a positive integer position, found {}",
                        other.describe()
                    )))
                }
            };
            self.expect(&TokenKind::RBracket, "`]`")?;
            Some(Pred::Position(k))
        } else {
            None
        };
        // Attribute steps: no predicates, element-only tests.
        if axis == Axis::Attribute {
            if pred.is_some() {
                return Err(self.err("predicates are not allowed on attribute steps"));
            }
            if matches!(test, NodeTest::Text | NodeTest::AnyNode) {
                return Err(self.err("attribute steps take a name or `*` test"));
            }
        }
        Ok(Step { axis, test, pred })
    }
}

const AGG_NAMES: [&str; 5] = ["count", "sum", "min", "max", "avg"];
const STRFN_NAMES: [&str; 3] = ["contains", "starts-with", "ends-with"];

/// Parse a role name of the form `rN` (1-based in surface syntax).
fn parse_role_name(name: &str) -> Option<RoleId> {
    let digits = name.strip_prefix('r')?;
    let n: u32 = digits.parse().ok()?;
    if n == 0 {
        return None;
    }
    Some(RoleId(n - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(input: &str) -> Expr {
        parse(input).unwrap_or_else(|e| panic!("parse failed: {e}\n{input}"))
    }

    #[test]
    fn parses_paper_running_example() {
        let q = p(r#"
            <r> {
              for $bib in /bib return
                (for $x in $bib/* return
                   if (not(exists($x/price))) then $x else (),
                 for $b in $bib/book return $b/title)
            } </r>
        "#);
        let Expr::Element { name, content, .. } = q else {
            panic!("expected element")
        };
        assert_eq!(name, "r");
        let Expr::For {
            var, source, body, ..
        } = *content
        else {
            panic!("expected for")
        };
        assert_eq!(var.name, "bib");
        assert_eq!(source.root, PathRoot::Root);
        assert_eq!(source.steps, vec![Step::child("bib")]);
        assert!(matches!(*body, Expr::Sequence(_)));
    }

    #[test]
    fn empty_sequence() {
        assert_eq!(p("()"), Expr::Empty);
    }

    #[test]
    fn sequence_flattening_via_seq() {
        let q = p("'a', 'b', 'c'");
        let Expr::Sequence(items) = q else { panic!() };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn where_clause_kept_by_parser() {
        let q = p("for $x in /a where exists($x/b) return $x");
        let Expr::For { where_clause, .. } = q else {
            panic!()
        };
        assert!(where_clause.is_some());
    }

    #[test]
    fn if_without_else_defaults_empty() {
        let q = p("if (true()) then 'x'");
        let Expr::If { else_branch, .. } = q else {
            panic!()
        };
        assert_eq!(*else_branch, Expr::Empty);
    }

    #[test]
    fn nested_constructors_without_braces() {
        let q = p("<a><b/></a>");
        let Expr::Element { content, .. } = q else {
            panic!()
        };
        assert!(matches!(*content, Expr::Element { .. }));
    }

    #[test]
    fn constructor_attributes_literal() {
        let q = p(r#"<a k="v" l="w"/>"#);
        let Expr::Element { attrs, .. } = q else {
            panic!()
        };
        assert_eq!(
            attrs,
            vec![("k".into(), "v".into()), ("l".into(), "w".into())]
        );
    }

    #[test]
    fn computed_attribute_rejected() {
        assert!(parse("<a k={$x}/>").is_err());
    }

    #[test]
    fn raw_text_in_constructor_rejected() {
        let err = parse("<a>hello</a>").unwrap_err();
        assert!(err.to_string().contains("raw text"), "{err}");
    }

    #[test]
    fn mismatched_constructor_close_rejected() {
        assert!(parse("<a>{ 'x' }</b>").is_err());
    }

    #[test]
    fn descendant_shortcut() {
        let q = p("//item");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.steps[0].axis, Axis::Descendant);
        assert_eq!(pe.steps[0].test, NodeTest::Name("item".into()));
    }

    #[test]
    fn explicit_axes() {
        let q = p("$x/descendant-or-self::node()");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(pe.steps[0].test, NodeTest::AnyNode);
    }

    #[test]
    fn attribute_step() {
        let q = p("$p/@id");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.steps[0].axis, Axis::Attribute);
        assert_eq!(pe.steps[0].test, NodeTest::Name("id".into()));
        assert!(pe.ends_in_attribute());
    }

    #[test]
    fn positional_predicate() {
        let q = p("$x/price[1]");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.steps[0].pred, Some(Pred::Position(1)));
    }

    #[test]
    fn zero_position_rejected() {
        assert!(parse("$x/price[0]").is_err());
    }

    #[test]
    fn conditions_parse_with_precedence() {
        let q = p("if (exists($x/a) and not(exists($x/b)) or true()) then 'y'");
        let Expr::If { cond, .. } = q else { panic!() };
        // `or` at top, `and` below.
        assert!(matches!(cond, Cond::Or(_, _)));
    }

    #[test]
    fn comparisons_all_ops() {
        for (src, op) in [
            ("$a/x = 1", CmpOp::Eq),
            ("$a/x != 1", CmpOp::Ne),
            ("$a/x < 1", CmpOp::Lt),
            ("$a/x <= 1", CmpOp::Le),
            ("$a/x > 1", CmpOp::Gt),
            ("$a/x >= 1", CmpOp::Ge),
        ] {
            let q = p(&format!("if ({src}) then 'y'"));
            let Expr::If {
                cond: Cond::Compare { op: parsed, .. },
                ..
            } = q
            else {
                panic!("{src}")
            };
            assert_eq!(parsed, op, "{src}");
        }
    }

    #[test]
    fn join_comparison_between_paths() {
        let q = p("if ($t/buyer/@person = $p/@id) then $t");
        let Expr::If {
            cond: Cond::Compare { lhs, rhs, .. },
            ..
        } = q
        else {
            panic!()
        };
        assert!(matches!(lhs, Operand::Path(_)));
        assert!(matches!(rhs, Operand::Path(_)));
    }

    #[test]
    fn aggregates_parse() {
        let q = p("count($x/item)");
        assert!(matches!(
            q,
            Expr::Aggregate {
                func: AggFunc::Count,
                ..
            }
        ));
        let q = p("sum(/site/open_auctions/open_auction/initial)");
        assert!(matches!(
            q,
            Expr::Aggregate {
                func: AggFunc::Sum,
                ..
            }
        ));
    }

    #[test]
    fn signoff_round_trip_tokens() {
        let q = p("signOff($x/price[1], r4)");
        let Expr::SignOff { target, role } = q else {
            panic!()
        };
        assert_eq!(role, RoleId(3));
        assert_eq!(target.steps.len(), 1);
    }

    #[test]
    fn root_only_path() {
        let q = p("/");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.root, PathRoot::Root);
        assert!(pe.steps.is_empty());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("$x $y").is_err());
    }

    #[test]
    fn unclosed_constructor_rejected() {
        assert!(parse("<a>{ 'x' }").is_err());
    }

    #[test]
    fn keywords_usable_as_step_names() {
        let q = p("$x/return/item");
        let Expr::Path(pe) = q else { panic!() };
        assert_eq!(pe.steps[0].test, NodeTest::Name("return".into()));
    }

    #[test]
    fn error_positions_are_meaningful() {
        let err = parse("for $x in\n  !").unwrap_err();
        assert_eq!(err.span.line, 2);
    }
}
