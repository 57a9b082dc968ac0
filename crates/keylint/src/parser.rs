//! Item-level parse of one source file.
//!
//! This is not a full Rust parser — it recognizes exactly the shapes the
//! rules need: struct definitions (with derive lists and field types),
//! `impl` blocks (trait + self type + body token range), macro invocations
//! with their argument identifiers, `.method()` chains, `Vec::from` calls,
//! `unsafe` blocks, and `let`/parameter bindings. Everything else is
//! skipped token by token, so unrecognized syntax degrades to "no
//! findings", never to a crash.

use crate::lexer::{lex, Comment, Tok, TokKind};

/// A struct or enum definition.
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct`/`enum` keyword.
    pub line: u32,
    /// Derived trait names with the line of the `#[derive]` attribute.
    pub derives: Vec<(String, u32)>,
    /// Named fields (empty for tuple/unit structs and enums).
    pub fields: Vec<Field>,
}

/// One named struct field.
#[derive(Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Every identifier appearing in the field's type (`Option<MontCtx>`
    /// yields `["Option", "MontCtx"]`).
    pub type_idents: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplDef {
    /// Trait being implemented (last path segment), if any.
    pub trait_name: Option<String>,
    /// Self type (last path segment).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token index range of the body (between the braces, exclusive).
    pub body: (usize, usize),
}

/// One identifier inside a macro invocation's arguments.
#[derive(Debug)]
pub struct ArgIdent {
    /// The identifier text.
    pub text: String,
    /// Whether it is a field/method access (`.text`).
    pub after_dot: bool,
    /// Whether a field/method access follows (`text.…`) — the binding
    /// itself is not being rendered, one of its members is.
    pub before_dot: bool,
    /// Members accessed after this identifier in its postfix chain
    /// (`a.b().c` yields `[b, c]` for `a` and `[c]` for `b`), so a
    /// sanitizer later in the chain (`.len()`) can clear the value.
    pub rest: Vec<String>,
}

/// A macro invocation (`name!(…)`).
#[derive(Debug)]
pub struct MacroCall {
    /// Macro name (no `!`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Identifiers inside the arguments.
    pub args: Vec<ArgIdent>,
    /// Token index of the macro name (to locate the enclosing fn).
    pub tok_index: usize,
}

/// A `.clone()` / `.to_vec()` / `.to_owned()` style call.
#[derive(Debug)]
pub struct MethodCall {
    /// Method name.
    pub method: String,
    /// 1-based line.
    pub line: u32,
    /// Receiver chain, root first: `self.key.clone()` → `["self", "key"]`.
    /// Interior calls are kept by name: `m.patterns().to_vec()` →
    /// `["m", "patterns"]`. Empty when the receiver is not a simple chain.
    pub chain: Vec<String>,
    /// Token index of the method name (to locate the enclosing impl).
    pub tok_index: usize,
}

/// A `Vec::from(arg)` call.
#[derive(Debug)]
pub struct FromCall {
    /// 1-based line.
    pub line: u32,
    /// Identifiers in the argument list.
    pub args: Vec<String>,
    /// Token index of the `Vec` ident (to locate the enclosing fn).
    pub tok_index: usize,
}

/// One function/method call site: `helper(args…)`, `Type::assoc(args…)`,
/// or `recv.method(args…)`. The interprocedural engine resolves the callee
/// against workspace function definitions and consults its summary.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// The path segment before a `::`, if any (`KeyMaterial` in
    /// `KeyMaterial::from_private(…)`); used to match impl owners.
    pub qualifier: Option<String>,
    /// Whether this is a `.method(…)` call on a receiver.
    pub method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Token index of the callee name.
    pub tok_index: usize,
    /// Identifier chains per argument position (top-level commas split).
    pub args: Vec<Vec<SourceRef>>,
    /// Token index range of the argument parens (open, close).
    pub arg_span: (usize, usize),
}

/// A `let` binding or function parameter with a resolvable type.
#[derive(Debug)]
pub struct Binding {
    /// Bound name.
    pub name: String,
    /// Identifiers of the annotated type, if any.
    pub type_idents: Vec<String>,
    /// `T` from an initializer of the form `= T::…`, if any.
    pub ctor: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// Token index of the bound name (to locate the enclosing fn).
    pub tok_index: usize,
}

/// A function definition with its body token range. The intra-procedural
/// pass is scoped to these; the interprocedural engine connects them
/// through call-site summaries.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (parameters live between here and
    /// the body, so scope containment uses this as the range start).
    pub sig_start: usize,
    /// Token index range of the body (between the braces, exclusive).
    pub body: (usize, usize),
    /// Whether the signature declares a `->` return type.
    pub has_ret: bool,
    /// Identifier chains of every `return expr` plus the tail expression
    /// (only collected when `has_ret`; unit returns carry nothing).
    pub returns: Vec<SourceRef>,
}

/// One identifier chain on the right-hand side of an assignment:
/// `key.d()` → `["key", "d"]`, root first. Call-argument and index
/// tokens are skipped while the chain is walked, so `key.d().rotate(1)`
/// still yields `["key", "d", "rotate"]`; `&`, `*`, `?` and `as` casts
/// pass through.
#[derive(Debug)]
pub struct SourceRef {
    /// Segment names, root first.
    pub chain: Vec<String>,
    /// Token index of the root segment (for `self` → impl resolution).
    pub tok_index: usize,
}

/// One assignment statement the taint engine propagates through: a `let`
/// (including tuple/struct destructuring) or a plain `name = expr;`
/// rebinding at statement position.
#[derive(Debug)]
pub struct Assign {
    /// Names bound on the left-hand side (several for destructuring).
    pub names: Vec<String>,
    /// Identifier chains appearing in the initializer.
    pub sources: Vec<SourceRef>,
    /// 1-based line of the first bound name.
    pub line: u32,
    /// Token index of the statement start (to locate the enclosing fn).
    pub tok_index: usize,
    /// Token range of the initializer (call sites inside it are resolved
    /// against function summaries instead of raw argument chains).
    pub rhs_span: (usize, usize),
}

/// Everything the rules need to know about one file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Struct/enum definitions.
    pub structs: Vec<StructDef>,
    /// Impl blocks.
    pub impls: Vec<ImplDef>,
    /// Macro invocations.
    pub macros: Vec<MacroCall>,
    /// Copy-flavored method calls.
    pub method_calls: Vec<MethodCall>,
    /// `Vec::from` calls.
    pub from_calls: Vec<FromCall>,
    /// Lines of `unsafe {` blocks.
    pub unsafe_blocks: Vec<u32>,
    /// Let bindings and fn parameters.
    pub bindings: Vec<Binding>,
    /// Function definitions with body spans.
    pub fns: Vec<FnDef>,
    /// Assignment statements (let + plain rebinding) for taint tracking.
    pub assigns: Vec<Assign>,
    /// Function/method call sites (for summary resolution and S008).
    pub calls: Vec<CallSite>,
    /// Token ranges of `loop`/`while`/`for` bodies (between the braces,
    /// exclusive) — the back-edge pass re-seeds taint across these.
    pub loops: Vec<(usize, usize)>,
    /// All line comments.
    pub comments: Vec<Comment>,
    /// The full token stream (rules peek at impl bodies through it).
    pub toks: Vec<Tok>,
}

impl FileModel {
    /// The innermost impl whose body contains token index `ti`.
    #[must_use]
    pub fn impl_at(&self, ti: usize) -> Option<&ImplDef> {
        self.impls
            .iter()
            .filter(|im| im.body.0 <= ti && ti < im.body.1)
            .min_by_key(|im| im.body.1 - im.body.0)
    }

    /// The innermost fn whose signature-to-body range contains token
    /// index `ti` (parameters included, hence `sig_start`).
    #[must_use]
    pub fn fn_at(&self, ti: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.sig_start <= ti && ti < f.body.1)
            .min_by_key(|f| f.body.1 - f.sig_start)
    }

    /// Identifier texts inside an impl body.
    pub fn body_idents<'a>(&'a self, im: &'a ImplDef) -> impl Iterator<Item = &'a str> {
        self.toks[im.body.0..im.body.1]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// String-literal contents inside an impl body.
    pub fn body_strings<'a>(&'a self, im: &'a ImplDef) -> impl Iterator<Item = &'a str> {
        self.toks[im.body.0..im.body.1]
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
    }
}

/// Methods S005 watches for.
const COPY_METHODS: &[&str] = &["clone", "to_vec", "to_owned"];

/// Parses `src` (read from `path`, which is stored on the model verbatim).
#[must_use]
pub fn parse_file(path: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    let toks = lexed.toks;
    let mut m = FileModel {
        path: path.to_string(),
        comments: lexed.comments,
        ..FileModel::default()
    };

    let mut pending_derives: Vec<(String, u32)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") if is(&toks, i + 1, "[") => {
                if is(&toks, i + 2, "derive") && is(&toks, i + 3, "(") {
                    let close = match_balanced(&toks, i + 3, "(", ")");
                    for tok in &toks[i + 4..close] {
                        if tok.kind == TokKind::Ident {
                            pending_derives.push((tok.text.clone(), tok.line));
                        }
                    }
                    i = close + 1;
                } else {
                    // Skip any other attribute without touching pending
                    // derives (attributes can stack above one item).
                    i = match_balanced(&toks, i + 1, "[", "]") + 1;
                }
            }
            (TokKind::Ident, "struct" | "enum") => {
                let is_struct = t.text == "struct";
                let Some(name_tok) = toks.get(i + 1) else { break };
                let mut s = StructDef {
                    name: name_tok.text.clone(),
                    line: t.line,
                    derives: std::mem::take(&mut pending_derives),
                    fields: Vec::new(),
                };
                let mut j = i + 2;
                j = skip_generics(&toks, j);
                // where-clause before the body.
                while j < toks.len() && !matches!(toks[j].text.as_str(), "{" | "(" | ";") {
                    j += 1;
                }
                if is_struct && is(&toks, j, "{") {
                    let close = match_balanced(&toks, j, "{", "}");
                    parse_fields(&toks, j + 1, close, &mut s.fields);
                    j = close;
                } else if is(&toks, j, "{") || is(&toks, j, "(") {
                    // Enum body or tuple struct: skip (field-name
                    // heuristics do not apply), derives still checked.
                    let (open, cl) = if toks[j].text == "{" { ("{", "}") } else { ("(", ")") };
                    j = match_balanced(&toks, j, open, cl);
                }
                m.structs.push(s);
                i = j + 1;
            }
            (TokKind::Ident, "impl") if at_item_position(&toks, i) => {
                if let Some((im, next)) = parse_impl(&toks, i) {
                    m.impls.push(im);
                    i = next; // body start: keep scanning inside the impl
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "unsafe") if is(&toks, i + 1, "{") => {
                m.unsafe_blocks.push(t.line);
                i += 1;
            }
            // Loop headers: record the body token range so the back-edge
            // pass can re-seed taint that survives an iteration. `for<'a>`
            // higher-ranked bounds are not loops.
            (TokKind::Ident, "loop" | "while" | "for") if !is(&toks, i + 1, "<") => {
                let open = if t.text == "loop" {
                    is(&toks, i + 1, "{").then_some(i + 1)
                } else {
                    let b = rhs_end(&toks, i + 1, true);
                    is(&toks, b, "{").then_some(b)
                };
                if let Some(o) = open {
                    let close = match_balanced(&toks, o, "{", "}");
                    m.loops.push((o + 1, close));
                }
                i += 1;
            }
            (TokKind::Ident, "let") => {
                if let Some(b) = parse_let(&toks, i) {
                    m.bindings.push(b);
                }
                // In `if let`/`while let` the "initializer" is a scrutinee
                // followed by a block; stop at the block so body chains
                // don't flow into the pattern's bindings.
                let conditional = i
                    .checked_sub(1)
                    .and_then(|p| toks.get(p))
                    .is_some_and(|p| matches!(p.text.as_str(), "if" | "while"));
                if let Some(a) = parse_assign(&toks, i + 1, i, conditional) {
                    m.assigns.push(a);
                }
                i += 1;
            }
            (TokKind::Ident, "fn") => {
                if let Some(f) = parse_fn_def(&toks, i) {
                    m.fns.push(f);
                }
                parse_fn_params(&toks, i, &mut m.bindings);
                // Drop derives that were aimed at a function attribute.
                pending_derives.clear();
                i += 1;
            }
            (TokKind::Ident, "Vec")
                if is(&toks, i + 1, ":")
                    && is(&toks, i + 2, ":")
                    && is(&toks, i + 3, "from")
                    && is(&toks, i + 4, "(") =>
            {
                let close = match_balanced(&toks, i + 4, "(", ")");
                let args = toks[i + 5..close]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                m.from_calls.push(FromCall {
                    line: t.line,
                    args,
                    tok_index: i,
                });
                i += 5; // still scan the argument tokens
            }
            (TokKind::Ident, _) if is(&toks, i + 1, "!") && opens_delim(&toks, i + 2) => {
                let (open, cl) = delim_pair(&toks[i + 2].text);
                let close = match_balanced(&toks, i + 2, open, cl);
                let mut args = Vec::new();
                for (k, tok) in toks[i + 3..close].iter().enumerate() {
                    if tok.kind == TokKind::Ident {
                        args.push(ArgIdent {
                            text: tok.text.clone(),
                            after_dot: toks[i + 2 + k].text == ".",
                            before_dot: toks.get(i + 4 + k).is_some_and(|t| t.text == "."),
                            rest: chain_members(&toks, i + 4 + k),
                        });
                    }
                }
                m.macros.push(MacroCall {
                    name: t.text.clone(),
                    line: t.line,
                    args,
                    tok_index: i,
                });
                i += 3; // keep scanning inside the macro arguments
            }
            // Plain rebinding at statement position: `name = expr;` (not
            // `==`, not a `=>` match arm, not a `let` — that has its own
            // branch above).
            (TokKind::Ident, _)
                if is(&toks, i + 1, "=")
                    && !matches!(
                        toks.get(i + 2).map(|t| t.text.as_str()),
                        Some("=" | ">")
                    )
                    && i.checked_sub(1)
                        .and_then(|p| toks.get(p))
                        .is_none_or(|p| matches!(p.text.as_str(), ";" | "{" | "}")) =>
            {
                let end = rhs_end(&toks, i + 2, false);
                let (sources, _) = collect_chains(&toks, i + 2, end);
                m.assigns.push(Assign {
                    names: vec![t.text.clone()],
                    sources,
                    line: t.line,
                    tok_index: i,
                    rhs_span: (i + 2, end),
                });
                i += 2;
            }
            // Call sites: `callee(…)`, `Path::callee(…)`, `recv.callee(…)`.
            // Tuple-struct constructors match too; they resolve to no
            // workspace fn and fall back to the intra-procedural rules.
            (TokKind::Ident, _)
                if is(&toks, i + 1, "(")
                    && !matches!(
                        t.text.as_str(),
                        "if" | "while" | "for" | "match" | "loop" | "return" | "in" | "as"
                            | "move" | "else" | "fn"
                    )
                    && i.checked_sub(1)
                        .and_then(|p| toks.get(p))
                        .is_none_or(|p| p.text != "fn") =>
            {
                let mut call = parse_call_site(&toks, i);
                // `Self::helper(…)` resolves against the enclosing impl's
                // type, same as the compiler; the impl was recorded before
                // its body was scanned, so the lookup sees it.
                if call.qualifier.as_deref() == Some("Self") {
                    call.qualifier = m.impl_at(i).map(|im| im.type_name.clone());
                }
                m.calls.push(call);
                i += 2; // keep scanning inside the arguments
            }
            (TokKind::Punct, ".")
                if matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident
                    && COPY_METHODS.contains(&n.text.as_str()))
                    && is(&toks, i + 2, "(") =>
            {
                let method = toks[i + 1].text.clone();
                m.method_calls.push(MethodCall {
                    method,
                    line: toks[i + 1].line,
                    chain: walk_chain_back(&toks, i),
                    tok_index: i + 1,
                });
                i += 2;
            }
            _ => i += 1,
        }
    }
    m.toks = toks;
    m
}

fn is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

fn opens_delim(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i), Some(t) if matches!(t.text.as_str(), "(" | "[" | "{"))
}

fn delim_pair(open: &str) -> (&'static str, &'static str) {
    match open {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    }
}

/// Index of the token closing the delimiter opened at `open_idx`.
/// Tolerates unbalanced input by returning the end of the stream.
fn match_balanced(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].text == open {
            depth += 1;
        } else if toks[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Skips a `<…>` generics list if one starts at `j`.
fn skip_generics(toks: &[Tok], j: usize) -> usize {
    if !is(toks, j, "<") {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    toks.len()
}

/// Parses `name: Type` pairs between `start` and `end` (exclusive),
/// tracking delimiter depth so nested generics don't split fields.
fn parse_fields(toks: &[Tok], start: usize, end: usize, out: &mut Vec<Field>) {
    let mut j = start;
    while j < end {
        // Skip attributes and visibility before the field name.
        if is(toks, j, "#") && is(toks, j + 1, "[") {
            j = match_balanced(toks, j + 1, "[", "]") + 1;
            continue;
        }
        if is(toks, j, "pub") {
            j += 1;
            if is(toks, j, "(") {
                j = match_balanced(toks, j, "(", ")") + 1;
            }
            continue;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind == TokKind::Ident && is(toks, j + 1, ":") {
            let name = name_tok.text.clone();
            let line = name_tok.line;
            let mut k = j + 2;
            let mut type_idents = Vec::new();
            let mut depth = 0i32;
            while k < end {
                match toks[k].text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {
                        if toks[k].kind == TokKind::Ident {
                            type_idents.push(toks[k].text.clone());
                        }
                    }
                }
                k += 1;
            }
            out.push(Field {
                name,
                type_idents,
                line,
            });
            j = k + 1;
        } else {
            j += 1;
        }
    }
}

/// Is the `impl` at index `i` an item (not `-> impl Trait` / `impl Trait`
/// in argument position)? Items follow `;`, `}`, `]` (attribute close),
/// `unsafe`, or start the file.
fn at_item_position(toks: &[Tok], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| toks.get(p)) {
        None => true,
        Some(prev) => matches!(prev.text.as_str(), ";" | "}" | "]" | "unsafe" | "{"),
    }
}

/// Parses an impl header starting at `i` (`impl`). Returns the def and the
/// token index just after the body's opening brace.
fn parse_impl(toks: &[Tok], i: usize) -> Option<(ImplDef, usize)> {
    let line = toks[i].line;
    let mut j = skip_generics(toks, i + 1);
    // First path: idents and `::`/`<…>` until `for` or `{`.
    let (first, after_first) = read_path(toks, j)?;
    j = after_first;
    let (trait_name, type_name, body_open) = if is(toks, j, "for") {
        let (second, after_second) = read_path(toks, j + 1)?;
        (Some(first), second, seek(toks, after_second, "{")?)
    } else {
        (None, first, seek(toks, j, "{")?)
    };
    let close = match_balanced(toks, body_open, "{", "}");
    Some((
        ImplDef {
            trait_name,
            type_name,
            line,
            body: (body_open + 1, close),
        },
        body_open + 1,
    ))
}

/// Reads a type path, returning its last meaningful segment (skipping
/// generic arguments) and the index after the path.
fn read_path(toks: &[Tok], start: usize) -> Option<(String, usize)> {
    let mut j = start;
    let mut last = None;
    loop {
        // `&`, `'a`, `mut`, `dyn` prefixes.
        while matches!(toks.get(j), Some(t) if matches!(t.text.as_str(), "&" | "mut" | "dyn")
            || t.kind == TokKind::Lifetime)
        {
            j += 1;
        }
        let t = toks.get(j)?;
        if t.kind != TokKind::Ident || matches!(t.text.as_str(), "for" | "where") {
            break;
        }
        last = Some(t.text.clone());
        j += 1;
        j = skip_generics(toks, j);
        if is(toks, j, ":") && is(toks, j + 1, ":") {
            j += 2;
        } else {
            break;
        }
    }
    last.map(|l| (l, j))
}

/// First index at or after `j` whose token text equals `what`.
fn seek(toks: &[Tok], j: usize, what: &str) -> Option<usize> {
    (j..toks.len()).find(|&k| toks[k].text == what)
}

/// Walks the receiver chain backwards from the `.` at `dot_idx`. Produces
/// the chain root-first; interior calls contribute their method name (the
/// argument tokens are skipped over).
fn walk_chain_back(toks: &[Tok], dot_idx: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot_idx; // sits on a `.`
    loop {
        // Before the dot: ident, or `)`/`]` closing a call we skip back over.
        let Some(prev) = j.checked_sub(1) else { break };
        match toks[prev].text.as_str() {
            ")" | "]" => {
                let (open, close) = if toks[prev].text == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 0i32;
                let mut k = prev;
                loop {
                    if toks[k].text == close {
                        depth += 1;
                    } else if toks[k].text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(k2) = k.checked_sub(1) else { return Vec::new() };
                    k = k2;
                }
                // Expect `ident (` — a call; otherwise give up on the chain.
                let Some(m) = k.checked_sub(1) else { return Vec::new() };
                if toks[m].kind != TokKind::Ident {
                    return Vec::new();
                }
                chain.push(toks[m].text.clone());
                j = m;
            }
            _ if toks[prev].kind == TokKind::Ident => {
                chain.push(toks[prev].text.clone());
                j = prev;
            }
            _ => break,
        }
        // Continue only through `.`; anything else ends the chain.
        match j.checked_sub(1) {
            Some(p) if toks[p].text == "." => j = p,
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Parses `let [mut] name [: Type] [= RHS]` starting at the `let`.
fn parse_let(toks: &[Tok], i: usize) -> Option<Binding> {
    let mut j = i + 1;
    if is(toks, j, "mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None; // destructuring patterns: out of scope
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    let tok_index = j;
    j += 1;
    let mut type_idents = Vec::new();
    if is(toks, j, ":") {
        let mut depth = 0i32;
        j += 1;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "=" | ";" if depth <= 0 => break,
                _ => {
                    if t.kind == TokKind::Ident {
                        type_idents.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
    }
    let mut ctor = None;
    if is(toks, j, "=") {
        if let Some(t) = toks.get(j + 1) {
            if t.kind == TokKind::Ident && is(toks, j + 2, ":") && is(toks, j + 3, ":") {
                ctor = Some(t.text.clone());
            }
        }
    }
    Some(Binding {
        name,
        type_idents,
        ctor,
        line,
        tok_index,
    })
}

/// Records `name: Type` parameters of the fn whose `fn` keyword is at `i`.
fn parse_fn_params(toks: &[Tok], i: usize, out: &mut Vec<Binding>) {
    let mut j = i + 1;
    if toks.get(j).is_none_or(|t| t.kind != TokKind::Ident) {
        return;
    }
    j = skip_generics(toks, j + 1);
    if !is(toks, j, "(") {
        return;
    }
    let close = match_balanced(toks, j, "(", ")");
    let mut k = j + 1;
    while k < close {
        if toks[k].kind == TokKind::Ident && toks[k].text != "self" && is(toks, k + 1, ":") {
            let name = toks[k].text.clone();
            let line = toks[k].line;
            let mut type_idents = Vec::new();
            let mut depth = 0i32;
            // Idents inside parens are not this binding's type: they are the
            // *argument* types of a closure bound (`f: impl Fn(&Secret)`),
            // and tainting `f` with them poisons every other `f` in the file.
            let mut paren_depth = 0i32;
            let mut p = k + 2;
            while p < close {
                match toks[p].text.as_str() {
                    "(" => {
                        depth += 1;
                        paren_depth += 1;
                    }
                    ")" => {
                        depth -= 1;
                        paren_depth -= 1;
                    }
                    "<" | "[" => depth += 1,
                    ">" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {
                        if toks[p].kind == TokKind::Ident && paren_depth == 0 {
                            type_idents.push(toks[p].text.clone());
                        }
                    }
                }
                p += 1;
            }
            out.push(Binding {
                name,
                type_idents,
                ctor: None,
                line,
                tok_index: k,
            });
            k = p + 1;
        } else {
            k += 1;
        }
    }
}

/// Parses the fn header at `i` (`fn`) into a [`FnDef`]. Returns `None`
/// for bodyless declarations (trait methods ending in `;`).
fn parse_fn_def(toks: &[Tok], i: usize) -> Option<FnDef> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = skip_generics(toks, i + 2);
    if !is(toks, j, "(") {
        return None;
    }
    let params_close = match_balanced(toks, j, "(", ")");
    j = params_close + 1;
    // Return type / where clause: neither contains `{`, so the first `{`
    // or `;` decides whether there is a body.
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "{" => {
                let close = match_balanced(toks, j, "{", "}");
                let has_ret = (params_close + 1..j)
                    .any(|k| toks[k].text == "-" && is(toks, k + 1, ">"));
                let returns = if has_ret {
                    collect_returns(toks, (j + 1, close))
                } else {
                    Vec::new()
                };
                return Some(FnDef {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    sig_start: i,
                    body: (j + 1, close),
                    has_ret,
                    returns,
                });
            }
            ";" => return None,
            _ => j += 1,
        }
    }
    None
}

/// Identifier chains flowing out of a fn body: every `return expr` plus
/// the tail expression (the region after the last top-level `;` or block
/// statement; a trailing `}` not followed by `else` ends a statement, so
/// an `if`/`match` tail falls back to the start of that statement).
fn collect_returns(toks: &[Tok], body: (usize, usize)) -> Vec<SourceRef> {
    let (b0, b1) = body;
    let mut out = Vec::new();
    let mut j = b0;
    while j < b1 {
        if toks[j].kind == TokKind::Ident && toks[j].text == "return" {
            let end = rhs_end(toks, j + 1, false).min(b1);
            out.extend(collect_chains(toks, j + 1, end).0);
            j = end.max(j + 1);
        } else {
            j += 1;
        }
    }
    // Tail expression: track top-level statement boundaries.
    let mut tail = b0;
    let mut prev_tail = b0;
    let mut depth = 0i32;
    for k in b0..b1 {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 && !is(toks, k + 1, "else") {
                    prev_tail = tail;
                    tail = k + 1;
                }
            }
            ";" if depth == 0 => {
                prev_tail = tail;
                tail = k + 1;
            }
            _ => {}
        }
    }
    let start = if tail >= b1 { prev_tail } else { tail };
    out.extend(collect_chains(toks, start, b1).0);
    out
}

/// Parses the call whose callee identifier sits at `i` (the `(` is at
/// `i + 1`): splits arguments on top-level commas into per-position
/// source chains and records the qualifier/method shape for resolution.
fn parse_call_site(toks: &[Tok], i: usize) -> CallSite {
    let open = i + 1;
    let close = match_balanced(toks, open, "(", ")");
    let mut args = Vec::new();
    let mut seg_start = open + 1;
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < close {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                args.push(collect_chains(toks, seg_start, k).0);
                seg_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    if seg_start < close {
        args.push(collect_chains(toks, seg_start, close).0);
    }
    let prev = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| t.text.as_str());
    let method = prev == Some(".");
    let qualifier = (!method
        && prev == Some(":")
        && i >= 3
        && toks[i - 2].text == ":"
        && toks[i - 3].kind == TokKind::Ident)
        .then(|| toks[i - 3].text.clone());
    CallSite {
        callee: toks[i].text.clone(),
        qualifier,
        method,
        line: toks[i].line,
        tok_index: i,
        args,
        arg_span: (open, close),
    }
}

/// Index of the token ending the initializer that starts at `start`: the
/// first top-level `;` or `else` (let-else), or the end of the stream.
/// With `stop_at_brace` (if/while-let scrutinees) a top-level `{` also
/// terminates, so the condition's block is not mistaken for the RHS.
fn rhs_end(toks: &[Tok], start: usize, stop_at_brace: bool) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "{" if stop_at_brace && depth == 0 => return j,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j; // ran off the enclosing block
                }
                depth -= 1;
            }
            ";" | "else" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Pattern-side keywords that never bind a value.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "_"];

/// Walks the postfix chain starting at `j` (just past its root): returns
/// the `.ident` projections in order, with call/index argument groups and
/// `?` skipped.
fn chain_members(toks: &[Tok], mut j: usize) -> Vec<String> {
    let mut members = Vec::new();
    loop {
        match toks.get(j).map(|x| x.text.as_str()) {
            Some("(") => j = match_balanced(toks, j, "(", ")") + 1,
            Some("[") => j = match_balanced(toks, j, "[", "]") + 1,
            Some("?") => j += 1,
            Some(".") if toks.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident) => {
                members.push(toks[j + 1].text.clone());
                j += 2;
            }
            _ => return members,
        }
    }
}

/// Collects every identifier chain in `toks[start..end]`: each ident not
/// preceded by `.` (and not a macro name) roots a chain extended through
/// `.ident` projections, with call/index argument groups and `?` skipped.
/// Returns the chains plus nothing else of interest.
fn collect_chains(toks: &[Tok], start: usize, end: usize) -> (Vec<SourceRef>, usize) {
    let mut out = Vec::new();
    let mut k = start;
    while k < end {
        let t = &toks[k];
        let prev_is_dot = k
            .checked_sub(1)
            .and_then(|p| toks.get(p))
            .is_some_and(|p| p.text == ".");
        if t.kind == TokKind::Ident
            && !prev_is_dot
            && !is(toks, k + 1, "!")
            && !PATTERN_KEYWORDS.contains(&t.text.as_str())
        {
            let mut chain = vec![t.text.clone()];
            chain.extend(chain_members(toks, k + 1));
            out.push(SourceRef {
                chain,
                tok_index: k,
            });
        }
        k += 1;
    }
    (out, end)
}

/// Parses the general `let` form for taint: destructuring patterns, type
/// annotations, and the initializer's source chains. `start` is the token
/// after `let`; `let_index` anchors the statement for scope lookup;
/// `stop_at_brace` marks if/while-let scrutinees.
fn parse_assign(toks: &[Tok], start: usize, let_index: usize, stop_at_brace: bool) -> Option<Assign> {
    // Pattern side: up to the top-level `=` (or `;` for uninitialized).
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut j = start;
    let eq = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return None; // ran off the enclosing block: not a let
                }
                depth -= 1;
            }
            ";" if depth == 0 => return None, // no initializer: nothing flows
            "=" if depth == 0 && !is(toks, j + 1, "=") => break j,
            ":" if depth == 0 && !is(toks, j + 1, ":") && !is_prev(toks, j, ":") => {
                // Top-level type annotation: skip to the `=`/`;`.
                let mut d2 = 0i32;
                j += 1;
                loop {
                    let t = toks.get(j)?;
                    match t.text.as_str() {
                        "<" | "(" | "[" => d2 += 1,
                        ">" | ")" | "]" => d2 -= 1,
                        "=" if d2 <= 0 => break,
                        ";" if d2 <= 0 => return None,
                        _ => {}
                    }
                    j += 1;
                }
                continue; // re-examine the `=` under the normal arm
            }
            _ => {
                if t.kind == TokKind::Ident && !PATTERN_KEYWORDS.contains(&t.text.as_str()) {
                    let next = toks.get(j + 1).map(|x| x.text.as_str());
                    let next2 = toks.get(j + 2).map(|x| x.text.as_str());
                    // `path::seg` heads/tails, `Foo {` / `Some(` ctor
                    // heads, and `field:` labels inside braces are not
                    // bound names. A top-level `name:` IS one — that
                    // colon starts the type annotation.
                    let path_head = next == Some(":") && next2 == Some(":");
                    let field_label = next == Some(":") && !path_head && depth > 0;
                    let ctor_head = matches!(next, Some("{" | "("));
                    let path_tail =
                        j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":";
                    if !path_head && !field_label && !ctor_head && !path_tail {
                        names.push(t.text.clone());
                    }
                }
            }
        }
        j += 1;
    };
    if names.is_empty() {
        return None;
    }
    let line = toks.get(start).map_or(toks[eq].line, |t| t.line);
    let end = rhs_end(toks, eq + 1, stop_at_brace);
    let (sources, _) = collect_chains(toks, eq + 1, end);
    Some(Assign {
        names,
        sources,
        line,
        tok_index: let_index,
        rhs_span: (eq + 1, end),
    })
}

fn is_prev(toks: &[Tok], j: usize, text: &str) -> bool {
    j.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|p| p.text == text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_with_derives_and_fields() {
        let m = parse_file(
            "t.rs",
            "#[derive(Debug, Clone)]\npub struct Key { pub d: BigUint, n: Option<MontCtx> }",
        );
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(s.name, "Key");
        assert_eq!(s.derives.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>(), ["Debug", "Clone"]);
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "d");
        assert_eq!(s.fields[1].type_idents, ["Option", "MontCtx"]);
    }

    #[test]
    fn generics_in_fields_do_not_split() {
        let m = parse_file("t.rs", "struct S { map: HashMap<String, Vec<u8>>, next: u32 }");
        assert_eq!(m.structs[0].fields.len(), 2);
        assert_eq!(m.structs[0].fields[1].name, "next");
    }

    #[test]
    fn impls_record_trait_and_type() {
        let m = parse_file(
            "t.rs",
            "impl Drop for Key { fn drop(&mut self) { secure_zero(&mut self.buf); } }\nimpl Key { fn id(&self) -> u32 { 0 } }",
        );
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("Drop"));
        assert_eq!(m.impls[0].type_name, "Key");
        assert!(m.body_idents(&m.impls[0]).any(|t| t == "secure_zero"));
        assert_eq!(m.impls[1].trait_name, None);
    }

    #[test]
    fn closure_bound_args_do_not_taint_the_binding() {
        // `f` takes a closure *over* a secret type; the binding itself is
        // not secret-typed, and must not shadow other `f`s in the file.
        let m = parse_file(
            "t.rs",
            "fn with_key<T>(f: impl FnOnce(&RsaPrivateKey) -> T, key: &RsaPrivateKey) -> T { f(key) }",
        );
        let f = m.bindings.iter().find(|b| b.name == "f").unwrap();
        assert!(!f.type_idents.contains(&"RsaPrivateKey".to_string()), "{:?}", f.type_idents);
        let key = m.bindings.iter().find(|b| b.name == "key").unwrap();
        assert!(key.type_idents.contains(&"RsaPrivateKey".to_string()));
    }

    #[test]
    fn return_position_impl_is_not_an_item() {
        let m = parse_file("t.rs", "fn f() -> impl Iterator<Item = u8> { std::iter::empty() }");
        assert!(m.impls.is_empty());
    }

    #[test]
    fn macro_args_capture_idents_and_dots() {
        let m = parse_file("t.rs", r#"fn f(key: RsaPrivateKey) { println!("{:?}", key.d); }"#);
        let mac = m.macros.iter().find(|c| c.name == "println").unwrap();
        assert!(mac.args.iter().any(|a| a.text == "key" && !a.after_dot));
        assert!(mac.args.iter().any(|a| a.text == "d" && a.after_dot));
        // The fn param was recorded too.
        assert!(m.bindings.iter().any(|b| b.name == "key" && b.type_idents == ["RsaPrivateKey"]));
    }

    #[test]
    fn method_chains_walk_back_through_calls() {
        let m = parse_file("t.rs", "fn f() { let v = material.patterns().to_vec(); }");
        let c = &m.method_calls[0];
        assert_eq!(c.method, "to_vec");
        assert_eq!(c.chain, ["material", "patterns"]);
    }

    #[test]
    fn self_field_chain() {
        let m = parse_file("t.rs", "impl S { fn f(&self) -> K { self.key.clone() } }");
        assert_eq!(m.method_calls[0].chain, ["self", "key"]);
        let im = m.impl_at(m.method_calls[0].tok_index).unwrap();
        assert_eq!(im.type_name, "S");
    }

    #[test]
    fn clone_inside_macro_args_is_seen() {
        let m = parse_file("t.rs", r#"fn f() { log(format!("{:?}", key.clone())); }"#);
        assert_eq!(m.method_calls.len(), 1);
        assert_eq!(m.method_calls[0].chain, ["key"]);
    }

    #[test]
    fn unsafe_blocks_and_fns_differ() {
        let m = parse_file(
            "t.rs",
            "unsafe fn g() {}\nfn f() {\n    unsafe { std::ptr::null::<u8>(); }\n}",
        );
        assert_eq!(m.unsafe_blocks, vec![3]);
    }

    #[test]
    fn let_bindings_record_annotation_and_ctor() {
        let m = parse_file(
            "t.rs",
            "fn f() { let a: Vec<u8> = vec![]; let b = RsaPrivateKey::generate(); let mut c = 3; }",
        );
        let a = m.bindings.iter().find(|b| b.name == "a").unwrap();
        assert_eq!(a.type_idents, ["Vec", "u8"]);
        let b = m.bindings.iter().find(|b| b.name == "b").unwrap();
        assert_eq!(b.ctor.as_deref(), Some("RsaPrivateKey"));
        assert!(m.bindings.iter().any(|b| b.name == "c"));
    }

    #[test]
    fn vec_from_records_args() {
        let m = parse_file("t.rs", "fn f() { let v = Vec::from(key_bytes); }");
        assert_eq!(m.from_calls.len(), 1);
        assert_eq!(m.from_calls[0].args, ["key_bytes"]);
    }

    #[test]
    fn fn_defs_record_body_spans() {
        let m = parse_file(
            "t.rs",
            "fn outer() {\n    let x = 1;\n    fn inner() { let y = 2; }\n}\n",
        );
        assert_eq!(m.fns.len(), 2);
        let y = m.bindings.iter().find(|b| b.name == "y").unwrap();
        assert_eq!(m.fn_at(y.tok_index).unwrap().name, "inner");
        let x = m.bindings.iter().find(|b| b.name == "x").unwrap();
        assert_eq!(m.fn_at(x.tok_index).unwrap().name, "outer");
    }

    #[test]
    fn assigns_capture_rebinding_chains() {
        let m = parse_file(
            "t.rs",
            "fn f(key: RsaPrivateKey) { let tmp = key.d(); let out = tmp; sink = out; }",
        );
        assert_eq!(m.assigns.len(), 3);
        assert_eq!(m.assigns[0].names, ["tmp"]);
        assert_eq!(m.assigns[0].sources[0].chain, ["key", "d"]);
        assert_eq!(m.assigns[1].sources[0].chain, ["tmp"]);
        assert_eq!(m.assigns[2].names, ["sink"]);
        assert_eq!(m.assigns[2].sources[0].chain, ["out"]);
    }

    #[test]
    fn destructuring_binds_all_names() {
        let m = parse_file(
            "t.rs",
            "fn f() { let (a, b) = (key.d(), 1); let Foo { d: x, q } = key; }",
        );
        assert_eq!(m.assigns[0].names, ["a", "b"]);
        assert!(m.assigns[0].sources.iter().any(|s| s.chain == ["key", "d"]));
        assert_eq!(m.assigns[1].names, ["x", "q"]);
    }

    #[test]
    fn annotated_let_still_binds() {
        let m = parse_file("t.rs", "fn f() { let v: Vec<u8> = key.to_bytes(); }");
        assert_eq!(m.assigns[0].names, ["v"]);
        assert!(m.assigns[0]
            .sources
            .iter()
            .any(|s| s.chain == ["key", "to_bytes"]));
    }

    #[test]
    fn if_let_rhs_stops_at_the_block() {
        let m = parse_file("t.rs", "fn f() { if let Some(x) = opt { other.d(); } }");
        let a = &m.assigns[0];
        assert_eq!(a.names, ["x"]);
        assert!(a.sources.iter().any(|s| s.chain == ["opt"]));
        assert!(a.sources.iter().all(|s| s.chain[0] != "other"));
    }

    #[test]
    fn chains_pass_through_calls_and_question_marks() {
        let m = parse_file("t.rs", "fn f() { let x = key.d()?.rotate(1).len(); }");
        assert!(m.assigns[0]
            .sources
            .iter()
            .any(|s| s.chain == ["key", "d", "rotate", "len"]));
    }

    #[test]
    fn call_sites_record_args_and_shape() {
        let m = parse_file(
            "t.rs",
            "fn f(key: K) { let tmp = helper(&key.d(), 1); obj.push_to(tmp); KeyMaterial::from_private(&key); }",
        );
        let helper = m.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert!(!helper.method);
        assert_eq!(helper.qualifier, None);
        assert_eq!(helper.args.len(), 2);
        assert!(helper.args[0].iter().any(|s| s.chain == ["key", "d"]));
        let push = m.calls.iter().find(|c| c.callee == "push_to").unwrap();
        assert!(push.method);
        assert!(push.args[0].iter().any(|s| s.chain == ["tmp"]));
        let fp = m.calls.iter().find(|c| c.callee == "from_private").unwrap();
        assert_eq!(fp.qualifier.as_deref(), Some("KeyMaterial"));
        // The fn definition itself is not a call site.
        assert!(m.calls.iter().all(|c| c.callee != "f"));
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_enclosing_impl_type() {
        let m = parse_file(
            "t.rs",
            "impl Guard { fn f(&self, key: K) { Self::helper(key); } fn helper(k: K) {} }\nfn free() { Self::orphan(1); }",
        );
        let helper = m.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(helper.qualifier.as_deref(), Some("Guard"));
        // `Self::` outside any impl cannot resolve; the qualifier drops
        // and the call degrades to unresolved (legacy behavior).
        let orphan = m.calls.iter().find(|c| c.callee == "orphan").unwrap();
        assert_eq!(orphan.qualifier, None);
    }

    #[test]
    fn nested_calls_are_both_recorded() {
        let m = parse_file("t.rs", "fn f() { outer(inner(x)); }");
        assert!(m.calls.iter().any(|c| c.callee == "outer"));
        assert!(m.calls.iter().any(|c| c.callee == "inner"));
    }

    #[test]
    fn returns_capture_tail_and_return_stmts() {
        let m = parse_file(
            "t.rs",
            "fn a(v: B) -> B { if early { return v; } let w = v; w }\nfn b(v: B) { v; }",
        );
        let a = m.fns.iter().find(|f| f.name == "a").unwrap();
        assert!(a.has_ret);
        assert!(a.returns.iter().any(|s| s.chain == ["v"]));
        assert!(a.returns.iter().any(|s| s.chain == ["w"]));
        let b = m.fns.iter().find(|f| f.name == "b").unwrap();
        assert!(!b.has_ret && b.returns.is_empty());
    }

    #[test]
    fn tail_if_else_falls_back_to_the_statement() {
        let m = parse_file("t.rs", "fn f(x: B) -> B { if c { x } else { y } }");
        let f = &m.fns[0];
        assert!(f.returns.iter().any(|s| s.chain == ["x"]), "{:?}", f.returns);
        assert!(f.returns.iter().any(|s| s.chain == ["y"]));
    }

    #[test]
    fn loop_bodies_are_spanned() {
        let m = parse_file(
            "t.rs",
            "fn f() { loop { a(); } while x < 2 { b(); } for i in 0..3 { c(); } }",
        );
        assert_eq!(m.loops.len(), 3);
        for &(open, close) in &m.loops {
            assert!(open < close);
        }
        // `for<'a>` bounds are not loops.
        let hr = parse_file("t.rs", "fn g<F: for<'a> Fn(&'a u8)>(f: F) { f(&0); }");
        assert!(hr.loops.is_empty());
    }

    #[test]
    fn derives_do_not_leak_across_items() {
        let m = parse_file(
            "t.rs",
            "#[derive(Clone)]\nstruct A;\nstruct B { x: u8 }",
        );
        assert_eq!(m.structs[0].derives.len(), 1);
        assert!(m.structs[1].derives.is_empty());
    }
}
