//! Recursive-descent parser for type-system documents.
//!
//! The grammar is the June 2018 spec's `TypeSystemDefinition` production.
//! Keywords (`type`, `interface`, …) are contextual: they are ordinary
//! names everywhere except at definition heads, exactly as in the spec.

use crate::ast::*;
use crate::source::{Cursor, ParseError, ParseErrorKind, Span};
use crate::token::TokenKind;

/// The SDL grammar's productions, over the shared token cursor.
impl Cursor<TokenKind> {
    /// Parses a complete document.
    pub(crate) fn parse_document(mut self) -> Result<Document, ParseError> {
        let mut definitions = Vec::new();
        while self.peek().kind != TokenKind::Eof {
            definitions.push(self.parse_definition()?);
        }
        Ok(Document { definitions })
    }

    fn parse_description(&mut self) -> Option<String> {
        if let TokenKind::Str { value, .. } = &self.peek().kind {
            let v = value.clone();
            self.bump();
            Some(v)
        } else {
            None
        }
    }

    fn parse_definition(&mut self) -> Result<Definition, ParseError> {
        let description = self.parse_description();
        let TokenKind::Name(kw) = &self.peek().kind else {
            return Err(self.unexpected("a type-system definition"));
        };
        match kw.as_str() {
            "schema" => {
                if description.is_some() {
                    // The June 2018 grammar does not allow a description on
                    // `schema`; tolerate and drop it (lenient like graphql-js).
                }
                self.parse_schema_def().map(Definition::Schema)
            }
            "scalar" => self
                .parse_scalar(description)
                .map(|d| Definition::Type(TypeDef::Scalar(d))),
            "type" => self
                .parse_object(description)
                .map(|d| Definition::Type(TypeDef::Object(d))),
            "interface" => self
                .parse_interface(description)
                .map(|d| Definition::Type(TypeDef::Interface(d))),
            "union" => self
                .parse_union(description)
                .map(|d| Definition::Type(TypeDef::Union(d))),
            "enum" => self
                .parse_enum(description)
                .map(|d| Definition::Type(TypeDef::Enum(d))),
            "input" => self
                .parse_input_object(description)
                .map(|d| Definition::Type(TypeDef::InputObject(d))),
            "directive" => self
                .parse_directive_def(description)
                .map(Definition::Directive),
            "query" | "mutation" | "subscription" | "fragment" => Err(ParseError::new(
                ParseErrorKind::ExecutableOnly(format!("executable definition `{kw}`")),
                self.pos(),
            )),
            "extend" => {
                self.bump();
                let TokenKind::Name(kw2) = &self.peek().kind else {
                    return Err(self.unexpected("a type keyword after `extend`"));
                };
                let inner = match kw2.as_str() {
                    "scalar" => TypeDef::Scalar(self.parse_scalar(None)?),
                    "type" => TypeDef::Object(self.parse_object(None)?),
                    "interface" => TypeDef::Interface(self.parse_interface(None)?),
                    "union" => TypeDef::Union(self.parse_union(None)?),
                    "enum" => TypeDef::Enum(self.parse_enum(None)?),
                    "input" => TypeDef::InputObject(self.parse_input_object(None)?),
                    other => {
                        return Err(ParseError::new(
                            ParseErrorKind::Unexpected {
                                expected: "a type keyword after `extend`".into(),
                                found: format!("name `{other}`"),
                            },
                            self.pos(),
                        ));
                    }
                };
                Ok(Definition::Extend(inner))
            }
            _ => Err(self.unexpected("a type-system definition")),
        }
    }

    fn parse_schema_def(&mut self) -> Result<SchemaDef, ParseError> {
        let start = self.keyword("schema")?;
        let directives = self.parse_directive_uses()?;
        self.expect(TokenKind::BraceL)?;
        let mut operations = Vec::new();
        while self.peek().kind != TokenKind::BraceR {
            let (op_name, op_span) = self.name("a name")?;
            let kind = match op_name.as_str() {
                "query" => OperationKind::Query,
                "mutation" => OperationKind::Mutation,
                "subscription" => OperationKind::Subscription,
                other => {
                    return Err(ParseError::new(
                        ParseErrorKind::Unexpected {
                            expected: "`query`, `mutation` or `subscription`".into(),
                            found: format!("name `{other}`"),
                        },
                        op_span.start,
                    ));
                }
            };
            self.expect(TokenKind::Colon)?;
            let (ty, _) = self.name("a name")?;
            operations.push((kind, ty));
        }
        let end = self.expect(TokenKind::BraceR)?;
        Ok(SchemaDef {
            directives,
            operations,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_scalar(&mut self, description: Option<String>) -> Result<ScalarTypeDef, ParseError> {
        let start = self.keyword("scalar")?;
        let (name, name_span) = self.name("a name")?;
        let directives = self.parse_directive_uses()?;
        Ok(ScalarTypeDef {
            description,
            name,
            directives,
            span: Span {
                start: start.start,
                end: name_span.end,
            },
        })
    }

    fn parse_implements(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = Vec::new();
        if self.eat_keyword("implements") {
            // Optional leading `&`.
            self.eat(TokenKind::Amp);
            loop {
                let (n, _) = self.name("a name")?;
                names.push(n);
                if !self.eat(TokenKind::Amp) {
                    break;
                }
            }
        }
        Ok(names)
    }

    fn parse_object(&mut self, description: Option<String>) -> Result<ObjectTypeDef, ParseError> {
        let start = self.keyword("type")?;
        let (name, mut end) = self.name("a name")?;
        let implements = self.parse_implements()?;
        let directives = self.parse_directive_uses()?;
        let fields = if self.peek().kind == TokenKind::BraceL {
            let (fs, close) = self.parse_field_block()?;
            end = close;
            fs
        } else {
            Vec::new()
        };
        Ok(ObjectTypeDef {
            description,
            name,
            implements,
            directives,
            fields,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_interface(
        &mut self,
        description: Option<String>,
    ) -> Result<InterfaceTypeDef, ParseError> {
        let start = self.keyword("interface")?;
        let (name, mut end) = self.name("a name")?;
        let directives = self.parse_directive_uses()?;
        let fields = if self.peek().kind == TokenKind::BraceL {
            let (fs, close) = self.parse_field_block()?;
            end = close;
            fs
        } else {
            Vec::new()
        };
        Ok(InterfaceTypeDef {
            description,
            name,
            directives,
            fields,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_union(&mut self, description: Option<String>) -> Result<UnionTypeDef, ParseError> {
        let start = self.keyword("union")?;
        let (name, mut end) = self.name("a name")?;
        let directives = self.parse_directive_uses()?;
        let mut members = Vec::new();
        if self.eat(TokenKind::Eq) {
            self.eat(TokenKind::Pipe);
            loop {
                let (m, m_span) = self.name("a name")?;
                end = m_span;
                members.push(m);
                if !self.eat(TokenKind::Pipe) {
                    break;
                }
            }
        }
        Ok(UnionTypeDef {
            description,
            name,
            directives,
            members,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_enum(&mut self, description: Option<String>) -> Result<EnumTypeDef, ParseError> {
        let start = self.keyword("enum")?;
        let (name, mut end) = self.name("a name")?;
        let directives = self.parse_directive_uses()?;
        let mut values = Vec::new();
        if self.eat(TokenKind::BraceL) {
            while self.peek().kind != TokenKind::BraceR {
                let v_description = self.parse_description();
                let (v_name, v_span) = self.name("a name")?;
                if matches!(v_name.as_str(), "true" | "false" | "null") {
                    return Err(ParseError::new(
                        ParseErrorKind::Unexpected {
                            expected: "an enum value name".into(),
                            found: format!("reserved name `{v_name}`"),
                        },
                        v_span.start,
                    ));
                }
                let v_directives = self.parse_directive_uses()?;
                values.push(EnumValueDef {
                    description: v_description,
                    name: v_name,
                    directives: v_directives,
                });
            }
            end = self.expect(TokenKind::BraceR)?;
        }
        Ok(EnumTypeDef {
            description,
            name,
            directives,
            values,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_input_object(
        &mut self,
        description: Option<String>,
    ) -> Result<InputObjectTypeDef, ParseError> {
        let start = self.keyword("input")?;
        let (name, mut end) = self.name("a name")?;
        let directives = self.parse_directive_uses()?;
        let mut fields = Vec::new();
        if self.eat(TokenKind::BraceL) {
            while self.peek().kind != TokenKind::BraceR {
                fields.push(self.parse_input_value()?);
            }
            end = self.expect(TokenKind::BraceR)?;
        }
        Ok(InputObjectTypeDef {
            description,
            name,
            directives,
            fields,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_directive_def(
        &mut self,
        description: Option<String>,
    ) -> Result<DirectiveDef, ParseError> {
        let start = self.keyword("directive")?;
        self.expect(TokenKind::At)?;
        let (name, _) = self.name("a name")?;
        let args = if self.peek().kind == TokenKind::ParenL {
            self.parse_arguments_definition()?
        } else {
            Vec::new()
        };
        if !self.eat_keyword("on") {
            return Err(self.unexpected("keyword `on`"));
        }
        self.eat(TokenKind::Pipe);
        let mut locations = Vec::new();
        let mut end;
        loop {
            let (loc, loc_span) = self.name("a name")?;
            end = loc_span;
            locations.push(loc);
            if !self.eat(TokenKind::Pipe) {
                break;
            }
        }
        Ok(DirectiveDef {
            description,
            name,
            args,
            locations,
            span: Span {
                start: start.start,
                end: end.end,
            },
        })
    }

    fn parse_field_block(&mut self) -> Result<(Vec<FieldDef>, Span), ParseError> {
        self.expect(TokenKind::BraceL)?;
        let mut fields = Vec::new();
        while self.peek().kind != TokenKind::BraceR {
            fields.push(self.parse_field()?);
        }
        let close = self.expect(TokenKind::BraceR)?;
        Ok((fields, close))
    }

    fn parse_field(&mut self) -> Result<FieldDef, ParseError> {
        let description = self.parse_description();
        let (name, name_span) = self.name("a name")?;
        let args = if self.peek().kind == TokenKind::ParenL {
            self.parse_arguments_definition()?
        } else {
            Vec::new()
        };
        self.expect(TokenKind::Colon)?;
        let ty = self.parse_type()?;
        let directives = self.parse_directive_uses()?;
        Ok(FieldDef {
            description,
            name,
            args,
            ty,
            directives,
            span: name_span,
        })
    }

    fn parse_arguments_definition(&mut self) -> Result<Vec<InputValueDef>, ParseError> {
        self.expect(TokenKind::ParenL)?;
        let mut args = Vec::new();
        while self.peek().kind != TokenKind::ParenR {
            args.push(self.parse_input_value()?);
        }
        self.expect(TokenKind::ParenR)?;
        Ok(args)
    }

    fn parse_input_value(&mut self) -> Result<InputValueDef, ParseError> {
        let description = self.parse_description();
        let (name, name_span) = self.name("a name")?;
        self.expect(TokenKind::Colon)?;
        let ty = self.parse_type()?;
        let default = if self.eat(TokenKind::Eq) {
            Some(self.parse_const_value()?)
        } else {
            None
        };
        let directives = self.parse_directive_uses()?;
        Ok(InputValueDef {
            description,
            name,
            ty,
            default,
            directives,
            span: name_span,
        })
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let inner = if self.peek().kind == TokenKind::BracketL {
            self.nested(|p| {
                p.bump();
                let t = p.parse_type()?;
                p.expect(TokenKind::BracketR)?;
                Ok(Type::List(Box::new(t)))
            })?
        } else {
            let (n, _) = self.name("a name")?;
            Type::Named(n)
        };
        if self.eat(TokenKind::Bang) {
            Ok(Type::NonNull(Box::new(inner)))
        } else {
            Ok(inner)
        }
    }

    fn parse_const_value(&mut self) -> Result<ConstValue, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(ConstValue::Int(i))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(ConstValue::Float(x))
            }
            TokenKind::Str { value, .. } => {
                self.bump();
                Ok(ConstValue::String(value))
            }
            TokenKind::Name(n) => {
                self.bump();
                match n.as_str() {
                    "true" => Ok(ConstValue::Bool(true)),
                    "false" => Ok(ConstValue::Bool(false)),
                    "null" => Ok(ConstValue::Null),
                    _ => Ok(ConstValue::Enum(n)),
                }
            }
            TokenKind::BracketL => self.nested(|p| {
                p.bump();
                let mut items = Vec::new();
                while p.peek().kind != TokenKind::BracketR {
                    items.push(p.parse_const_value()?);
                }
                p.bump();
                Ok(ConstValue::List(items))
            }),
            TokenKind::BraceL => self.nested(|p| {
                p.bump();
                let mut fields = Vec::new();
                while p.peek().kind != TokenKind::BraceR {
                    let (k, _) = p.name("a name")?;
                    p.expect(TokenKind::Colon)?;
                    let v = p.parse_const_value()?;
                    fields.push((k, v));
                }
                p.bump();
                Ok(ConstValue::Object(fields))
            }),
            TokenKind::Dollar => Err(ParseError::new(
                ParseErrorKind::ExecutableOnly("variable value".to_owned()),
                self.pos(),
            )),
            _ => Err(self.unexpected("a constant value")),
        }
    }

    fn parse_directive_uses(&mut self) -> Result<Vec<DirectiveUse>, ParseError> {
        let mut out = Vec::new();
        while self.peek().kind == TokenKind::At {
            let at = self.bump();
            let (name, mut end) = self.name("a name")?;
            let mut args = Vec::new();
            if self.eat(TokenKind::ParenL) {
                while self.peek().kind != TokenKind::ParenR {
                    let (k, _) = self.name("a name")?;
                    self.expect(TokenKind::Colon)?;
                    let v = self.parse_const_value()?;
                    args.push((k, v));
                }
                end = self.expect(TokenKind::ParenR)?;
            }
            out.push(DirectiveUse {
                name,
                args,
                span: Span {
                    start: at.start,
                    end: end.end,
                },
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, MAX_DEPTH};

    #[test]
    fn nesting_is_bounded_with_a_located_error() {
        let list = |n: usize| format!("type A {{ x: {}Int{} }}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&list(MAX_DEPTH)).is_ok());
        let err = parse(&list(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep(MAX_DEPTH));
        // `type A { x: ` is 12 columns; the error names the 65th `[`.
        assert_eq!((err.pos.line, err.pos.column), (1, 13 + MAX_DEPTH as u32));
        assert!(err.to_string().contains("nesting deeper than 64 levels"));
        let value = |n: usize| {
            format!(
                "type A @d(a: {}1{}) {{ x: Int }}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        assert!(parse(&value(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&value(MAX_DEPTH + 1)).unwrap_err().kind,
            ParseErrorKind::TooDeep(MAX_DEPTH)
        );
        // What used to overflow the stack, in all three recursive shapes.
        for hostile in [
            list(300_000),
            value(300_000),
            format!("type A @d(a: {}", "{a:".repeat(300_000)),
        ] {
            assert_eq!(
                parse(&hostile).unwrap_err().kind,
                ParseErrorKind::TooDeep(MAX_DEPTH)
            );
        }
        // The guard counts what is open, not what has been seen.
        let wide = format!("type A {{ {} }}", "x: [[Int]] ".repeat(MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn parses_example_3_1() {
        let doc = parse(
            r#"
            type UserSession {
                id: ID! @required
                user: User! @required
                startTime: Time! @required
                endTime: Time!
            }
            type User {
                id: ID! @required
                login: String! @required
                nicknames: [String!]!
            }
            scalar Time
            "#,
        )
        .unwrap();
        assert_eq!(doc.definitions.len(), 3);
        let session = doc.object_types().next().unwrap();
        assert_eq!(session.name, "UserSession");
        assert_eq!(session.fields.len(), 4);
        assert_eq!(session.fields[0].ty.to_string(), "ID!");
        assert_eq!(session.fields[0].directives[0].name, "required");
        let user = doc.object_types().nth(1).unwrap();
        assert_eq!(user.fields[2].ty.to_string(), "[String!]!");
        assert!(matches!(doc.type_def("Time"), Some(TypeDef::Scalar(_))));
    }

    #[test]
    fn parses_key_directive_with_list_argument() {
        let doc =
            parse(r#"type User @key(fields: ["id"]) @key(fields: ["login"]) { id: ID! }"#).unwrap();
        let user = doc.object_types().next().unwrap();
        assert_eq!(user.directives.len(), 2);
        assert_eq!(
            user.directives[0].arg("fields"),
            Some(&ConstValue::List(vec![ConstValue::String("id".into())]))
        );
    }

    #[test]
    fn parses_union_and_interface_from_examples_3_9_and_3_10() {
        let doc = parse(
            r#"
            type Person { name: String! favoriteFood: Food }
            union Food = Pizza | Pasta
            type Pizza { name: String! toppings: [String!]! }
            type Pasta { name: String! }
            interface FoodI { name: String! }
            type Pizza2 implements FoodI { name: String! }
            "#,
        )
        .unwrap();
        let food = doc.union_types().next().unwrap();
        assert_eq!(food.members, vec!["Pizza", "Pasta"]);
        let pizza2 = doc.object_types().find(|o| o.name == "Pizza2").unwrap();
        assert_eq!(pizza2.implements, vec!["FoodI"]);
    }

    #[test]
    fn parses_field_arguments_from_example_3_12() {
        let doc = parse(
            r#"type UserSession {
                user(certainty: Float! comment: String): User! @required
            }"#,
        )
        .unwrap();
        let f = &doc.object_types().next().unwrap().fields[0];
        assert_eq!(f.args.len(), 2);
        assert_eq!(f.args[0].name, "certainty");
        assert_eq!(f.args[0].ty.to_string(), "Float!");
        assert_eq!(f.args[1].ty.to_string(), "String");
    }

    #[test]
    fn parses_default_values_and_enums_from_figure_1() {
        let doc = parse(
            r#"
            type Starship {
                id: ID!
                name: String
                length(unit: LenUnit = METER): Float
            }
            enum LenUnit { METER FEET }
            "#,
        )
        .unwrap();
        let starship = doc.object_types().next().unwrap();
        let len = &starship.fields[2];
        assert_eq!(len.args[0].default, Some(ConstValue::Enum("METER".into())));
        let TypeDef::Enum(e) = doc.type_def("LenUnit").unwrap() else {
            panic!("LenUnit should be an enum");
        };
        assert_eq!(e.values.len(), 2);
        assert_eq!(e.values[0].name, "METER");
    }

    #[test]
    fn parses_schema_block() {
        let doc = parse("schema { query: Query mutation: M }").unwrap();
        let Definition::Schema(s) = &doc.definitions[0] else {
            panic!("expected schema def");
        };
        assert_eq!(s.operations.len(), 2);
        assert_eq!(s.operations[0], (OperationKind::Query, "Query".into()));
    }

    #[test]
    fn parses_directive_definition() {
        let doc = parse("directive @key(fields: [String!]!) on OBJECT | INTERFACE").unwrap();
        let Definition::Directive(d) = &doc.definitions[0] else {
            panic!("expected directive def");
        };
        assert_eq!(d.name, "key");
        assert_eq!(d.args[0].ty.to_string(), "[String!]!");
        assert_eq!(d.locations, vec!["OBJECT", "INTERFACE"]);
    }

    #[test]
    fn parses_input_object() {
        let doc = parse("input Point { x: Float! y: Float! = 0.0 }").unwrap();
        let TypeDef::InputObject(io) = doc.type_def("Point").unwrap() else {
            panic!("expected input object");
        };
        assert_eq!(io.fields.len(), 2);
        assert_eq!(io.fields[1].default, Some(ConstValue::Float(0.0)));
    }

    #[test]
    fn descriptions_attach_to_definitions_and_fields() {
        let doc = parse(
            r#"
            "A user of the system"
            type User {
                """The login
                name"""
                login: String!
            }
            "#,
        )
        .unwrap();
        let user = doc.object_types().next().unwrap();
        assert_eq!(user.description.as_deref(), Some("A user of the system"));
        assert_eq!(
            user.fields[0].description.as_deref(),
            Some("The login\nname")
        );
    }

    #[test]
    fn implements_with_ampersands() {
        let doc = parse("type T implements A & B & C { f: Int }").unwrap();
        assert_eq!(
            doc.object_types().next().unwrap().implements,
            vec!["A", "B", "C"]
        );
    }

    #[test]
    fn leading_pipe_in_union_is_allowed() {
        let doc = parse("union U = | A | B").unwrap();
        assert_eq!(doc.union_types().next().unwrap().members, vec!["A", "B"]);
    }

    #[test]
    fn executable_definitions_are_rejected() {
        let err = parse("query Q { hero }").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::ExecutableOnly(_)));
    }

    #[test]
    fn type_extensions_parse() {
        let doc = parse(
            r#"
            type User { id: ID! }
            extend type User implements Node { email: String }
            extend enum Unit { MILE }
            extend union Food = Soup
            extend interface Node { id: ID! }
            extend scalar Time @fancy
            "#,
        )
        .unwrap();
        let extends: Vec<&TypeDef> = doc
            .definitions
            .iter()
            .filter_map(|d| match d {
                Definition::Extend(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(extends.len(), 5);
        let TypeDef::Object(o) = extends[0] else {
            panic!("expected object extension");
        };
        assert_eq!(o.name, "User");
        assert_eq!(o.implements, vec!["Node"]);
        assert_eq!(o.fields.len(), 1);
        assert!(parse("extend frobnicate User { }").is_err());
        assert!(parse("extend").is_err());
    }

    #[test]
    fn missing_colon_in_field_is_an_error() {
        let err = parse("type T { f Int }").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
        assert_eq!(err.pos.line, 1);
    }

    #[test]
    fn reserved_enum_values_are_rejected() {
        assert!(parse("enum E { OK true }").is_err());
        assert!(parse("enum E { null }").is_err());
    }

    #[test]
    fn nested_const_values() {
        let doc = parse(
            r#"type T @meta(cfg: {depth: 2, tags: ["a", "b"], on: true, none: null}) { f: Int }"#,
        )
        .unwrap();
        let t = doc.object_types().next().unwrap();
        let ConstValue::Object(fields) = t.directives[0].arg("cfg").unwrap() else {
            panic!("expected object");
        };
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0], ("depth".into(), ConstValue::Int(2)));
        assert_eq!(fields[2], ("on".into(), ConstValue::Bool(true)));
    }

    #[test]
    fn deeply_wrapped_types_parse() {
        let doc = parse("type T { f: [[Int!]]! }").unwrap();
        let f = &doc.object_types().next().unwrap().fields[0];
        assert_eq!(f.ty.to_string(), "[[Int!]]!");
        assert_eq!(f.ty.depth(), 4);
    }

    #[test]
    fn empty_document_parses() {
        assert_eq!(parse("").unwrap().definitions.len(), 0);
        assert_eq!(parse("  # only a comment\n").unwrap().definitions.len(), 0);
    }

    #[test]
    fn variable_default_is_rejected() {
        let err = parse("type T { f(a: Int = $v): Int }").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::ExecutableOnly(_)));
    }
}
