//! The eight key-hygiene rules and the secret-type fixpoint they share.
//!
//! Each rule maps to a leak channel from the memory-disclosure literature:
//! stray copies via `Clone`/`Copy` (S001) and `.clone()`-family calls
//! (S005), secrets escaping through `Debug` (S002) or format/log macros
//! (S004), key bytes surviving free because `Drop` never zeroed them
//! (S003), unaudited `unsafe` that could alias key memory (S006), tainted
//! buffers freed without zeroing on a fallible path (S007), and tainted
//! values handed to functions whose summaries sink them at any call depth
//! (S008 — see [`crate::callgraph`]).

use std::collections::{BTreeSet, HashMap};

use crate::callgraph::{Summaries, TraceStep};
use crate::config::Config;
use crate::lexer::TokKind;
use crate::parser::{FileModel, FnDef, StructDef};
use crate::taint::FileTaint;

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No `Clone`/`Copy` on secret types.
    S001,
    /// No derived (or non-redacting) `Debug` on secret types.
    S002,
    /// Secret types must zero their memory on drop.
    S003,
    /// No secret values in format/print/log macros.
    S004,
    /// No `.clone()`/`.to_vec()`/`.to_owned()`/`Vec::from` on secret
    /// expressions outside blessed modules.
    S005,
    /// `unsafe` blocks need a `// SAFETY:` justification.
    S006,
    /// No `heap_free` of a secret-tainted buffer in a fallible function
    /// unless it was zeroed first (or `heap_free_zeroed` is used).
    S007,
    /// No tainted value passed to a non-sanitizer function whose summary
    /// sinks it (directly or at any call depth).
    S008,
}

/// How serious a finding is. Both levels fail the build; the distinction
/// feeds reporting and lets future rules downgrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Definite hygiene violation.
    Error,
    /// Process violation (missing justification rather than a leak).
    Warning,
}

impl RuleId {
    /// All rules, in ID order.
    pub const ALL: [RuleId; 8] = [
        RuleId::S001,
        RuleId::S002,
        RuleId::S003,
        RuleId::S004,
        RuleId::S005,
        RuleId::S006,
        RuleId::S007,
        RuleId::S008,
    ];

    /// Stable textual ID.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::S001 => "S001",
            RuleId::S002 => "S002",
            RuleId::S003 => "S003",
            RuleId::S004 => "S004",
            RuleId::S005 => "S005",
            RuleId::S006 => "S006",
            RuleId::S007 => "S007",
            RuleId::S008 => "S008",
        }
    }

    /// Parses `"S001"` … `"S008"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        Self::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Severity of findings from this rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            RuleId::S006 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description used in reports.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::S001 => "secret type must not implement Clone/Copy",
            RuleId::S002 => "secret type must not expose its bytes via Debug",
            RuleId::S003 => "secret type must zero its memory on drop",
            RuleId::S004 => "secret value must not reach a format/log macro",
            RuleId::S005 => "secret bytes duplicated outside a blessed module",
            RuleId::S006 => "unsafe block lacks a `// SAFETY:` comment",
            RuleId::S007 => "secret buffer freed without zeroing on a fallible path",
            RuleId::S008 => "secret value passed to a function that sinks it",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Line-stable subject (type name, binding, chain) for baseline keying.
    pub symbol: String,
    /// Human-readable detail.
    pub message: String,
    /// Call-path trace for interprocedural findings (caller-side hop
    /// first, sink last); empty for single-site rules.
    pub trace: Vec<TraceStep>,
}

/// Computes the set of secret type names over the whole workspace:
/// config-listed seeds, structs with two or more CRT-component field
/// names, and — to a fixpoint — any struct embedding a secret type in a
/// field. `public_types` are exempt.
#[must_use]
pub fn secret_types(models: &[FileModel], cfg: &Config) -> BTreeSet<String> {
    let mut secret: BTreeSet<String> = cfg.secret_types.iter().cloned().collect();
    let structs: Vec<&StructDef> = models.iter().flat_map(|m| &m.structs).collect();
    for s in &structs {
        let hits = s
            .fields
            .iter()
            .filter(|f| cfg.secret_field_names.contains(&f.name))
            .count();
        if hits >= 2 {
            secret.insert(s.name.clone());
        }
    }
    loop {
        let mut grew = false;
        for s in &structs {
            if secret.contains(&s.name) {
                continue;
            }
            let embeds = s
                .fields
                .iter()
                .any(|f| f.type_idents.iter().any(|t| secret.contains(t)));
            if embeds {
                secret.insert(s.name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for public in &cfg.public_types {
        secret.remove(public);
    }
    secret
}

/// Runs every rule over every file. Suppression comments are already
/// honored: suppressed findings are simply absent.
#[must_use]
pub fn check(models: &[FileModel], cfg: &Config) -> Vec<Finding> {
    let secret = secret_types(models, cfg);
    let summaries = Summaries::compute(models, &secret, cfg);
    let mut out = Vec::new();
    for m in models {
        let mut file_findings = Vec::new();
        let taint = FileTaint::compute(m, models, &secret, cfg, Some(&summaries));
        check_derives_and_impls(m, &secret, cfg, &mut file_findings);
        check_drop_zeroing(m, models, &secret, cfg, &mut file_findings);
        check_format_macros(m, &taint, cfg, &mut file_findings);
        check_copies(m, &taint, cfg, &mut file_findings);
        check_unsafe(m, &mut file_findings);
        check_error_path_frees(m, &taint, cfg, &mut file_findings);
        check_call_sinks(m, &taint, &mut file_findings);
        let suppressed = suppressed_lines(m);
        file_findings.retain(|f| {
            !suppressed
                .get(&f.rule)
                .is_some_and(|lines| lines.contains(&f.line))
        });
        out.append(&mut file_findings);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// S001 + S002: derives and trait impls on secret types.
fn check_derives_and_impls(
    m: &FileModel,
    secret: &BTreeSet<String>,
    _cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for s in &m.structs {
        if !secret.contains(&s.name) {
            continue;
        }
        for (d, line) in &s.derives {
            match d.as_str() {
                "Clone" | "Copy" => out.push(Finding {
                    rule: RuleId::S001,
                    file: m.path.clone(),
                    line: *line,
                    symbol: s.name.clone(),
                    message: format!(
                        "secret type `{}` derives `{d}`; key material must not be \
                         implicitly copyable",
                        s.name
                    ),
                    trace: Vec::new(),
                }),
                "Debug" => out.push(Finding {
                    rule: RuleId::S002,
                    file: m.path.clone(),
                    line: *line,
                    symbol: s.name.clone(),
                    message: format!(
                        "secret type `{}` derives `Debug`, which prints raw key \
                         material; write a redacting impl instead",
                        s.name
                    ),
                    trace: Vec::new(),
                }),
                _ => {}
            }
        }
    }
    for im in &m.impls {
        if !secret.contains(&im.type_name) {
            continue;
        }
        match im.trait_name.as_deref() {
            Some("Clone" | "Copy") => out.push(Finding {
                rule: RuleId::S001,
                file: m.path.clone(),
                line: im.line,
                symbol: im.type_name.clone(),
                message: format!(
                    "manual `{}` impl on secret type `{}`; use an explicit, \
                     greppable duplication method instead",
                    im.trait_name.as_deref().unwrap_or(""),
                    im.type_name
                ),
                trace: Vec::new(),
            }),
            Some("Debug") => {
                let redacts = m.body_strings(im).any(|s| s.contains("<redacted>"));
                if !redacts {
                    out.push(Finding {
                        rule: RuleId::S002,
                        file: m.path.clone(),
                        line: im.line,
                        symbol: im.type_name.clone(),
                        message: format!(
                            "`Debug` impl on secret type `{}` does not contain the \
                             literal `<redacted>`; it may print key material",
                            im.type_name
                        ),
                        trace: Vec::new(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Field classification for the S003 delegation check and the taint
/// engine's chain walk.
pub(crate) enum FieldKind {
    /// Contains a secret type — its own Drop handles zeroing.
    Secret,
    /// A raw buffer (Vec/String/…) that could hold key bytes.
    Buffer,
    /// Scalars, handles, and opaque non-buffer types.
    Other,
}

pub(crate) fn classify_field(type_idents: &[String], secret: &BTreeSet<String>) -> FieldKind {
    if type_idents.iter().any(|t| secret.contains(t)) {
        return FieldKind::Secret;
    }
    const BUFFERS: &[&str] = &["Vec", "VecDeque", "String", "str", "BigUint"];
    if type_idents.iter().any(|t| BUFFERS.contains(&t.as_str())) {
        return FieldKind::Buffer;
    }
    FieldKind::Other
}

/// S003: each secret struct defined in `m` needs either a Drop impl that
/// calls a zeroing routine (the impl may live in any file), or full
/// delegation — at least one secret-typed field and no raw buffers, so
/// dropping the fields zeroes everything.
fn check_drop_zeroing(
    m: &FileModel,
    all: &[FileModel],
    secret: &BTreeSet<String>,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for s in &m.structs {
        if !secret.contains(&s.name) {
            continue;
        }
        let drop_impl = all.iter().find_map(|f| {
            f.impls
                .iter()
                .find(|im| im.trait_name.as_deref() == Some("Drop") && im.type_name == s.name)
                .map(|im| (f, im))
        });
        if let Some((f, im)) = drop_impl {
            let zeroes = f
                .body_idents(im)
                .any(|t| cfg.zero_markers.iter().any(|z| z == t));
            if !zeroes {
                out.push(Finding {
                    rule: RuleId::S003,
                    file: m.path.clone(),
                    line: s.line,
                    symbol: s.name.clone(),
                    message: format!(
                        "`Drop` impl for secret type `{}` never calls a zeroing \
                         routine ({})",
                        s.name,
                        cfg.zero_markers.join("/")
                    ),
                    trace: Vec::new(),
                });
            }
            continue;
        }
        let mut secret_fields = 0usize;
        let mut buffer_field: Option<&str> = None;
        for f in &s.fields {
            match classify_field(&f.type_idents, secret) {
                FieldKind::Secret => secret_fields += 1,
                FieldKind::Buffer => buffer_field = Some(&f.name),
                FieldKind::Other => {}
            }
        }
        let delegates = secret_fields > 0 && buffer_field.is_none();
        if !delegates {
            let why = match buffer_field {
                Some(name) => format!("raw buffer field `{name}` would be freed unzeroed"),
                None => "no field zeroes itself on drop".to_string(),
            };
            out.push(Finding {
                rule: RuleId::S003,
                file: m.path.clone(),
                line: s.line,
                symbol: s.name.clone(),
                message: format!(
                    "secret type `{}` has no `Drop` zeroing its memory and cannot \
                     delegate: {why}",
                    s.name
                ),
                trace: Vec::new(),
            });
        }
    }
}

/// Macros S004 watches: anything that renders values into text. The
/// summary engine shares this list for its sink scan.
pub(crate) const SINK_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "format", "format_args", "write", "writeln",
    "panic", "log", "trace", "debug", "info", "warn", "error",
];

/// S004: tainted bindings (or secret accessors) in sink macro args. A
/// bare argument leaks when the taint engine says the name carries secret
/// material at the macro's line — this covers secret-typed bindings
/// directly and values laundered through intermediates
/// (`let tmp = key.d(); println!("{tmp}")`).
fn check_format_macros(
    m: &FileModel,
    taint: &FileTaint<'_>,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for mac in &m.macros {
        if !SINK_MACROS.contains(&mac.name.as_str()) {
            continue;
        }
        for arg in &mac.args {
            let leaking = if arg.after_dot {
                // A sanitizer later in the chain (`.patterns().len()`)
                // renders metadata, not the member — as it does in a `let`.
                (cfg.accessors.contains(&arg.text) || cfg.secret_field_names.contains(&arg.text))
                    && !arg.rest.iter().any(|m| cfg.sanitizers.contains(m))
            } else {
                // A bare tainted binding is being rendered whole; if a `.`
                // follows, only the accessed member matters (checked above).
                !arg.before_dot && taint.tainted_at(&arg.text, mac.line)
            };
            if leaking {
                out.push(Finding {
                    rule: RuleId::S004,
                    file: m.path.clone(),
                    line: mac.line,
                    symbol: format!("{}!({})", mac.name, arg.text),
                    message: format!(
                        "`{}!` receives secret value `{}{}`; formatting copies key \
                         material into unprotected heap memory",
                        mac.name,
                        if arg.after_dot { "." } else { "" },
                        arg.text
                    ),
                    trace: Vec::new(),
                });
                break; // one finding per macro call is enough
            }
        }
    }
}

/// S005: copy-flavored calls on secret expressions, plus `Vec::from` of a
/// tainted binding. Chain resolution lives in the taint engine
/// ([`FileTaint::copy_is_secret`]): typed field-by-field walks plus
/// laundered-local propagation. Files under `allowed_paths` are the
/// blessed custody layer and are exempt.
fn check_copies(m: &FileModel, taint: &FileTaint<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.allowed_paths.iter().any(|p| m.path.starts_with(p.as_str())) {
        return;
    }
    for call in &m.method_calls {
        if taint.copy_is_secret(&call.chain, call.tok_index, call.line) {
            let expr = format!("{}.{}()", call.chain.join("."), call.method);
            out.push(Finding {
                rule: RuleId::S005,
                file: m.path.clone(),
                line: call.line,
                symbol: expr.clone(),
                message: format!(
                    "`{expr}` duplicates secret bytes outside a blessed module; \
                     use the type's explicit duplication method or move custody \
                     into the keyguard layer"
                ),
                trace: Vec::new(),
            });
        }
    }
    for fc in &m.from_calls {
        if let Some(arg) = fc.args.iter().find(|a| taint.tainted_at(a, fc.line)) {
            out.push(Finding {
                rule: RuleId::S005,
                file: m.path.clone(),
                line: fc.line,
                symbol: format!("Vec::from({arg})"),
                message: format!(
                    "`Vec::from({arg})` copies secret bytes into an unmanaged \
                     allocation"
                ),
                trace: Vec::new(),
            });
        }
    }
}

/// S006: every `unsafe {` needs a `// SAFETY:` comment within the three
/// preceding lines (or on the same line).
fn check_unsafe(m: &FileModel, out: &mut Vec<Finding>) {
    for &line in &m.unsafe_blocks {
        let justified = m.comments.iter().any(|c| {
            c.text.trim_start().starts_with("SAFETY")
                && c.line <= line
                && c.line + 3 >= line
        });
        if !justified {
            out.push(Finding {
                rule: RuleId::S006,
                file: m.path.clone(),
                line,
                symbol: format!("unsafe@{line}"),
                message: "unsafe block without a preceding `// SAFETY:` comment \
                          explaining why key memory cannot be exposed"
                    .to_string(),
                trace: Vec::new(),
            });
        }
    }
}

/// S007: inside a fallible function (one whose body contains `?` or a
/// `return` of an `Err`), a `heap_free` of a secret-tainted binding is
/// flagged unless the binding was zeroed earlier in the function (a
/// configured zero marker or `heap_free_zeroed` applied to the same
/// name). On the happy path a later zeroing pass may clean up, but an
/// early error return skips it, leaving key bytes in the freed chunk —
/// exactly the partial-failure leak the fault sweeps hunt dynamically.
fn check_error_path_frees(
    m: &FileModel,
    taint: &FileTaint<'_>,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for f in &m.fns {
        for site in fallible_frees(m, f, cfg) {
            let leak = site
                .candidates
                .iter()
                .find(|(name, line)| taint.tainted_at(name, *line));
            if let Some((name, _)) = leak {
                out.push(Finding {
                    rule: RuleId::S007,
                    file: m.path.clone(),
                    line: site.line,
                    symbol: format!("heap_free({name})"),
                    message: format!(
                        "`heap_free({name})` frees secret-tainted memory in a \
                         fallible function without zeroing it first; an early \
                         error return leaves key bytes in the freed chunk — \
                         zero `{name}` ({}) or use `heap_free_zeroed`",
                        cfg.zero_markers.join("/")
                    ),
                    trace: Vec::new(),
                });
            }
        }
    }
}

/// A `heap_free(…)` call in a fallible function whose arguments were not
/// zeroed earlier — the S007 candidate sites, shared with the summary
/// engine's sink scan.
pub(crate) struct FreeSite {
    /// 1-based line of the `heap_free` call.
    pub line: u32,
    /// `(name, line)` of each freed identifier lacking earlier zeroing.
    pub candidates: Vec<(String, u32)>,
}

/// Scans fn `f` for `heap_free` calls on fallible paths (a body with `?`
/// or a `return`+`Err`), returning each call's unzeroed argument names.
pub(crate) fn fallible_frees(m: &FileModel, f: &FnDef, cfg: &Config) -> Vec<FreeSite> {
    let body = &m.toks[f.body.0..f.body.1.min(m.toks.len())];
    let has_try = body
        .iter()
        .any(|t| matches!(t.kind, TokKind::Punct) && t.text == "?");
    let returns_err = body
        .iter()
        .any(|t| matches!(t.kind, TokKind::Ident) && t.text == "return")
        && body
            .iter()
            .any(|t| matches!(t.kind, TokKind::Ident) && t.text == "Err");
    if !has_try && !returns_err {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let is_free = matches!(body[i].kind, TokKind::Ident)
            && body[i].text == "heap_free"
            && body
                .get(i + 1)
                .is_some_and(|t| matches!(t.kind, TokKind::Punct) && t.text == "(");
        if !is_free {
            i += 1;
            continue;
        }
        // Walk the argument list to its matching close paren, collecting
        // the identifiers that name what is being freed.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut args: Vec<(&str, u32)> = Vec::new();
        while j < body.len() {
            let t = &body[j];
            if matches!(t.kind, TokKind::Punct) {
                if t.text == "(" {
                    depth += 1;
                } else if t.text == ")" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            } else if matches!(t.kind, TokKind::Ident) {
                args.push((&t.text, t.line));
            }
            j += 1;
        }
        let candidates = args
            .iter()
            .filter(|(name, _)| !zeroed_earlier(body, i, name, cfg))
            .map(|&(n, l)| (n.to_string(), l))
            .collect();
        out.push(FreeSite {
            line: body[i].line,
            candidates,
        });
        i = j.max(i + 1);
    }
    out
}

/// S008: a grounded-tainted value passed into a function whose summary
/// (or `[summaries] sinks` override) sinks the corresponding parameter —
/// the laundering happens at any call depth, so the finding carries the
/// call-path trace down to the concrete sink.
fn check_call_sinks(m: &FileModel, taint: &FileTaint<'_>, out: &mut Vec<Finding>) {
    for hit in taint.call_sinks() {
        let call = &m.calls[hit.call];
        out.push(Finding {
            rule: RuleId::S008,
            file: m.path.clone(),
            line: call.line,
            symbol: format!("{}({})", call.callee, hit.root),
            message: format!(
                "secret value `{}` is passed to `{}`, which leads to a {} at \
                 call depth {}; see the finding's trace for the laundering \
                 chain",
                hit.root,
                call.callee,
                hit.trace.kind,
                hit.trace.path.len().max(1)
            ),
            trace: hit.trace.path,
        });
    }
}

/// Was `name` passed to a zeroing routine (a configured marker or
/// `heap_free_zeroed`) somewhere in `body[..before]`? The name must appear
/// in the same statement as the marker, i.e. before the next `;`.
fn zeroed_earlier(body: &[crate::lexer::Tok], before: usize, name: &str, cfg: &Config) -> bool {
    for (i, t) in body[..before].iter().enumerate() {
        let marker = matches!(t.kind, TokKind::Ident)
            && (t.text == "heap_free_zeroed" || cfg.zero_markers.iter().any(|z| z == &t.text));
        if !marker {
            continue;
        }
        for u in &body[i + 1..before] {
            if matches!(u.kind, TokKind::Punct) && u.text == ";" {
                break;
            }
            if matches!(u.kind, TokKind::Ident) && u.text == name {
                return true;
            }
        }
    }
    false
}

/// Detects same-named structs defined with *different* field shapes in
/// multiple files: `struct_def` resolution is first-match, so such a
/// clash would silently guess. Identical re-definitions (and same-named
/// enums/tuple structs, which carry no fields) stay quiet.
#[must_use]
pub fn struct_ambiguities(models: &[FileModel]) -> Vec<String> {
    let mut by_name: std::collections::BTreeMap<&str, Vec<(&FileModel, &StructDef)>> =
        std::collections::BTreeMap::new();
    for m in models {
        for s in &m.structs {
            by_name.entry(&s.name).or_default().push((m, s));
        }
    }
    let mut out = Vec::new();
    for (name, defs) in by_name {
        if defs.len() < 2 {
            continue;
        }
        let shape = |s: &StructDef| -> Vec<(String, Vec<String>)> {
            s.fields
                .iter()
                .map(|f| (f.name.clone(), f.type_idents.clone()))
                .collect()
        };
        let first = shape(defs[0].1);
        if defs[1..].iter().any(|(_, s)| shape(s) != first) {
            let sites: Vec<String> = defs
                .iter()
                .map(|(m, s)| format!("{}:{}", m.path, s.line))
                .collect();
            out.push(format!(
                "struct `{name}` is defined with different field shapes at {}; \
                 field-type resolution uses the first definition — rename one \
                 or align the shapes",
                sites.join(", ")
            ));
        }
    }
    out
}

/// Parses `// keylint: allow(S001, S005) -- reason` comments. A
/// suppression covers findings on its own line and on the next line that
/// holds any token (so it can sit directly above the offending item).
/// The summary engine shares this so suppressed sinks do not propagate
/// into caller findings.
pub(crate) fn suppressed_lines(m: &FileModel) -> HashMap<RuleId, BTreeSet<u32>> {
    let mut map: HashMap<RuleId, BTreeSet<u32>> = HashMap::new();
    for c in &m.comments {
        let Some(rest) = c.text.trim_start().strip_prefix("keylint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let mut parts = rest.splitn(2, ')');
        let Some(ids) = parts.next() else {
            continue;
        };
        // A suppression without a reason is not honored: the comment must
        // read `keylint: allow(S00x) -- reason`.
        let tail = parts.next().unwrap_or("").trim_start();
        if !tail.starts_with("--") || tail.trim_start_matches('-').trim().is_empty() {
            continue;
        }
        let next_tok_line = m
            .toks
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > c.line)
            .min();
        for id in ids.split(',') {
            if let Some(rule) = RuleId::parse(id.trim()) {
                let entry = map.entry(rule).or_default();
                entry.insert(c.line);
                if let Some(next) = next_tok_line {
                    entry.insert(next);
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let cfg = Config::default();
        let models = vec![parse_file("test.rs", src)];
        check(&models, &cfg)
    }

    #[test]
    fn fixpoint_flags_crt_field_names_and_embedding() {
        let cfg = Config::default();
        let models = vec![parse_file(
            "t.rs",
            "struct Mystery { d: U, p: U, q: U }\nstruct Holder { inner: Mystery, n: u32 }\nstruct Clean { n: u32 }",
        )];
        let s = secret_types(&models, &cfg);
        assert!(s.contains("Mystery"));
        assert!(s.contains("Holder"));
        assert!(!s.contains("Clean"));
    }

    #[test]
    fn public_types_are_exempt() {
        let cfg = Config::default();
        let models = vec![parse_file(
            "t.rs",
            "struct RsaPublicKey { n: BigUint, e: BigUint }",
        )];
        assert!(!secret_types(&models, &cfg).contains("RsaPublicKey"));
    }

    #[test]
    fn s001_fires_on_derive_and_manual_impl() {
        let f = run("#[derive(Clone)]\nstruct RsaPrivateKey { d: u8 }\nimpl Clone for SecretBuf { fn clone(&self) -> Self { todo!() } }");
        let s001: Vec<_> = f.iter().filter(|f| f.rule == RuleId::S001).collect();
        assert_eq!(s001.len(), 2);
        assert_eq!(s001[0].line, 1);
    }

    #[test]
    fn s002_allows_redacting_debug() {
        let ok = run(
            "struct RsaPrivateKey { d: u8 }\nimpl Debug for RsaPrivateKey { fn fmt(&self) -> String { String::from(\"RsaPrivateKey(<redacted>)\") } }\nimpl Drop for RsaPrivateKey { fn drop(&mut self) { zeroize(self) } }",
        );
        assert!(ok.iter().all(|f| f.rule != RuleId::S002));
        let bad = run("#[derive(Debug)]\nstruct RsaPrivateKey { d: u8 }");
        assert!(bad.iter().any(|f| f.rule == RuleId::S002));
    }

    #[test]
    fn s003_delegation_and_buffers() {
        // Own Drop with marker: clean.
        assert!(run("struct SecretBuf { b: Vec<u8> }\nimpl Drop for SecretBuf { fn drop(&mut self) { secure_zero(&mut self.b) } }")
            .iter()
            .all(|f| f.rule != RuleId::S003));
        // Drop without marker: flagged.
        assert!(run("struct SecretBuf { b: Vec<u8> }\nimpl Drop for SecretBuf { fn drop(&mut self) { self.b.clear() } }")
            .iter()
            .any(|f| f.rule == RuleId::S003));
        // Delegation through a secret field: clean.
        assert!(run("struct CrtEngine { key: RsaPrivateKey, ops: u64 }")
            .iter()
            .all(|f| f.rule != RuleId::S003));
        // Raw buffer blocks delegation.
        assert!(run("struct CrtEngine { key: RsaPrivateKey, scratch: Vec<u64> }")
            .iter()
            .any(|f| f.rule == RuleId::S003 && f.message.contains("scratch")));
    }

    #[test]
    fn s004_binding_and_accessor() {
        let f = run("fn f(key: RsaPrivateKey) { println!(\"{:?}\", key); }");
        assert!(f.iter().any(|x| x.rule == RuleId::S004));
        let f2 = run("fn f(s: &Server) { format!(\"{:?}\", s.key()); }");
        assert!(f2.iter().any(|x| x.rule == RuleId::S004));
        let clean = run("fn f(n: u32) { println!(\"{n}\"); }");
        assert!(clean.iter().all(|x| x.rule != RuleId::S004));
    }

    #[test]
    fn s005_chains_and_vec_from() {
        let f = run("fn f(key: RsaPrivateKey) { let k2 = key.clone(); }");
        assert!(f.iter().any(|x| x.rule == RuleId::S005));
        let f2 = run("struct Srv { key: RsaPrivateKey }\nimpl Srv { fn k(&self) -> RsaPrivateKey { self.key.clone() } }");
        assert!(f2.iter().any(|x| x.rule == RuleId::S005));
        let f3 = run("fn f(material: KeyMaterial) { let v = material.limb_bytes().to_vec(); }");
        assert!(f3.iter().any(|x| x.rule == RuleId::S005));
        let f4 = run("fn f(key: RsaPrivateKey) { let v = Vec::from(key); }");
        assert!(f4.iter().any(|x| x.rule == RuleId::S005));
        let clean = run("fn f(names: Vec<String>) { let n2 = names.clone(); }");
        assert!(clean.iter().all(|x| x.rule != RuleId::S005));
    }

    #[test]
    fn s005_respects_allowed_paths() {
        let mut cfg = Config::default();
        cfg.allowed_paths = vec!["crates/keyguard".into()];
        let models = vec![parse_file(
            "crates/keyguard/src/host.rs",
            "fn f(key: RsaPrivateKey) { let k2 = key.clone(); }",
        )];
        assert!(check(&models, &cfg).iter().all(|f| f.rule != RuleId::S005));
    }

    #[test]
    fn s006_requires_nearby_safety_comment() {
        let bad = run("fn f() { unsafe { () } }");
        assert!(bad.iter().any(|x| x.rule == RuleId::S006));
        let ok = run("fn f() {\n    // SAFETY: no key memory involved\n    unsafe { () }\n}");
        assert!(ok.iter().all(|x| x.rule != RuleId::S006));
        let far = run("// SAFETY: too far away\n\n\n\n\nfn f() { unsafe { () } }");
        assert!(far.iter().any(|x| x.rule == RuleId::S006));
    }

    #[test]
    fn s007_flags_unzeroed_free_on_fallible_paths_only() {
        // Fallible fn (uses `?`), tainted buffer freed raw: flagged.
        let bad = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) -> SimResult<()> {\n    let buf = key.d();\n    k.write(buf)?;\n    k.heap_free(pid, buf)?;\n    Ok(())\n}",
        );
        assert!(bad.iter().any(|x| x.rule == RuleId::S007), "{bad:?}");
        // Zeroed first: clean.
        let zeroed = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) -> SimResult<()> {\n    let buf = key.d();\n    secure_zero(buf);\n    k.heap_free(pid, buf)?;\n    Ok(())\n}",
        );
        assert!(zeroed.iter().all(|x| x.rule != RuleId::S007), "{zeroed:?}");
        // heap_free_zeroed: clean (different callee, and also a marker).
        let hfz = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) -> SimResult<()> {\n    let buf = key.d();\n    k.heap_free_zeroed(pid, buf)?;\n    Ok(())\n}",
        );
        assert!(hfz.iter().all(|x| x.rule != RuleId::S007), "{hfz:?}");
        // Infallible fn: out of scope, the Drop rules own that path.
        let infallible = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) {\n    let buf = key.d();\n    k.heap_free(pid, buf);\n}",
        );
        assert!(infallible.iter().all(|x| x.rule != RuleId::S007));
        // Untainted buffer: clean even on a fallible path.
        let clean = run(
            "fn f(k: &mut Kernel) -> SimResult<()> {\n    let buf = k.heap_alloc(pid, 64)?;\n    k.heap_free(pid, buf)?;\n    Ok(())\n}",
        );
        assert!(clean.iter().all(|x| x.rule != RuleId::S007));
    }

    #[test]
    fn s007_return_err_counts_as_fallible() {
        let bad = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) -> SimResult<()> {\n    let buf = key.d();\n    if bad { return Err(SimError::OutOfMemory); }\n    k.heap_free(pid, buf);\n    Ok(())\n}",
        );
        assert!(bad.iter().any(|x| x.rule == RuleId::S007));
    }

    #[test]
    fn s007_zero_marker_on_other_binding_does_not_launder() {
        // Zeroing a *different* buffer must not excuse this free.
        let bad = run(
            "fn f(key: RsaPrivateKey, k: &mut Kernel) -> SimResult<()> {\n    let buf = key.d();\n    let other = vec![0u8; 8];\n    secure_zero(other);\n    k.heap_free(pid, buf)?;\n    Ok(())\n}",
        );
        assert!(bad.iter().any(|x| x.rule == RuleId::S007), "{bad:?}");
    }

    #[test]
    fn suppressions_cover_next_item_line() {
        let f = run(
            "// keylint: allow(S001) -- test exemption\n#[derive(Clone)]\nstruct RsaPrivateKey { d: u8 }\nimpl Drop for RsaPrivateKey { fn drop(&mut self) { zeroize(self) } }",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::S001));
        // A different rule is not suppressed by that comment.
        let f2 = run(
            "// keylint: allow(S002) -- wrong rule\n#[derive(Clone)]\nstruct RsaPrivateKey { d: u8 }\nimpl Drop for RsaPrivateKey { fn drop(&mut self) { zeroize(self) } }",
        );
        assert!(f2.iter().any(|x| x.rule == RuleId::S001));
    }

    #[test]
    fn suppression_without_reason_is_ignored() {
        let f = run(
            "// keylint: allow(S001)\n#[derive(Clone)]\nstruct RsaPrivateKey { d: u8 }\nimpl Drop for RsaPrivateKey { fn drop(&mut self) { zeroize(self) } }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::S001));
    }

    #[test]
    fn s008_fires_on_call_into_sinking_fn_with_trace() {
        let f = run(
            "fn log_value(v: &BigUint) {\n    println!(\"{}\", v);\n}\nfn user(key: RsaPrivateKey) {\n    let tmp = key.d();\n    log_value(&tmp);\n}",
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RuleId::S008)
            .expect("S008 should fire");
        assert_eq!(hit.line, 6);
        assert!(hit.symbol.contains("log_value"));
        assert!(hit.trace.len() >= 2, "{:?}", hit.trace);
        // Caller-side hop first, sink last.
        assert_eq!(hit.trace[0].line, 6);
        assert_eq!(hit.trace.last().unwrap().line, 2);
    }

    #[test]
    fn s008_respects_sanitizer_callees() {
        let f = run(
            "fn digest_len(v: &BigUint) -> usize { v.len() }\nfn user(key: RsaPrivateKey) {\n    let n = digest_len(&key);\n    println!(\"{}\", n);\n}",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::S008), "{f:?}");
        assert!(f.iter().all(|x| x.rule != RuleId::S004), "{f:?}");
    }

    #[test]
    fn struct_ambiguity_warns_only_on_shape_clash() {
        let clash = struct_ambiguities(&[
            parse_file("a.rs", "struct Frame { data: Vec<u8> }"),
            parse_file("b.rs", "struct Frame { id: u32 }"),
        ]);
        assert_eq!(clash.len(), 1);
        assert!(clash[0].contains("Frame"), "{clash:?}");
        let same = struct_ambiguities(&[
            parse_file("a.rs", "struct Frame { data: Vec<u8> }"),
            parse_file("c.rs", "struct Frame { data: Vec<u8> }"),
        ]);
        assert!(same.is_empty(), "{same:?}");
    }
}
