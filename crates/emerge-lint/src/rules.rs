//! The five rule families plus the waiver audit.
//!
//! Every rule reports `Finding`s; the engine subtracts waivered findings
//! (marking the waiver used) and then reports any *unused* waiver as a
//! finding of its own, so stale waivers cannot linger after the code
//! they excused is fixed.

use crate::analyze::{FileModel, MIN_WAIVER_REASON, WAIVABLE_RULES};
use crate::lexer::{TokKind, Token};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Facts about the file being linted that rules scope themselves by.
pub struct RuleCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Crate name (`emerge-crypto`, ...) or `""` for the root package.
    pub krate: &'a str,
}

impl RuleCtx<'_> {
    fn stem(&self) -> &str {
        let base = self.path.rsplit('/').next().unwrap_or(self.path);
        base.strip_suffix(".rs").unwrap_or(base)
    }
}

/// Hot-path functions beyond the `*_into` / `*_pooled` naming convention:
/// the pooled trial pipeline's steady-state entry points whose allocation
/// freedom the PR 6 counting-allocator test asserts at runtime.
///
/// Entries match bare `fn` names, so each must name a function that
/// exists (`tests/lint_cli.rs` checks this against the real workspace).
pub const HOT_PATH_FNS: &[&str] = &[
    "rebuild",
    "resample",
    "reset",
    "open_segment",
    "protocol_trial_digest",
    "run_trial",
    "set_sender",
];

/// Identifier substrings treated as secret material by the constant-time
/// rule (scoped to `emerge-crypto`).
const SECRETISH: &[&str] = &["tag", "mac", "secret", "digest", "key"];

pub fn run_all(ctx: &RuleCtx<'_>, model: &FileModel<'_>) -> Vec<Finding> {
    let mut raw = Vec::new();
    rule_unsafe_audit(ctx, model, &mut raw);
    rule_panic_freedom(ctx, model, &mut raw);
    if ctx.krate == "emerge-crypto" {
        rule_constant_time(ctx, model, &mut raw);
    }
    rule_hot_path_alloc(ctx, model, &mut raw);
    if ctx.stem() == "wire" || ctx.stem() == "package" {
        rule_wire_hygiene(ctx, model, &mut raw);
    }

    // Apply waivers: a finding is dropped when a well-formed waiver for
    // its rule sits on the same line or directly above.
    let mut used = vec![false; model.waivers.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        match model.waiver_for(f.rule, f.line) {
            Some(idx) if waiver_is_well_formed(model, idx) => used[idx] = true,
            _ => findings.push(f),
        }
    }

    // Waiver audit: malformed or unused waivers are findings themselves.
    for (idx, w) in model.waivers.iter().enumerate() {
        if !WAIVABLE_RULES.contains(&w.rule.as_str()) {
            findings.push(Finding {
                file: ctx.path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!(
                    "unknown waiver rule `{}` (waivable rules: {})",
                    w.rule,
                    WAIVABLE_RULES.join(", ")
                ),
            });
        } else if w.reason.len() < MIN_WAIVER_REASON {
            findings.push(Finding {
                file: ctx.path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!(
                    "waiver reason too short ({} chars, need >= {}): a waiver must say *why* the invariant holds",
                    w.reason.len(),
                    MIN_WAIVER_REASON
                ),
            });
        } else if !used[idx] {
            findings.push(Finding {
                file: ctx.path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!(
                    "unused LINT-WAIVER({}): no matching finding on this or the next code line — delete the stale waiver",
                    w.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn waiver_is_well_formed(model: &FileModel<'_>, idx: usize) -> bool {
    let w = &model.waivers[idx];
    WAIVABLE_RULES.contains(&w.rule.as_str()) && w.reason.len() >= MIN_WAIVER_REASON
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe-audit — every `unsafe` keyword needs a SAFETY justification
// in the comment block directly above (or a `# Safety` rustdoc section for
// `unsafe fn`). Applies to test code too, and cannot be waived.
// ---------------------------------------------------------------------------
fn rule_unsafe_audit(ctx: &RuleCtx<'_>, model: &FileModel<'_>, out: &mut Vec<Finding>) {
    for t in model.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !model.comment_near_above(t.line, 8, &["SAFETY:", "# Safety"]) {
            out.push(Finding {
                file: ctx.path.to_string(),
                line: t.line,
                rule: "unsafe",
                message:
                    "`unsafe` without a `// SAFETY:` justification in the preceding comment block"
                        .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: panic-freedom — no unwrap/expect/panic!/assert! family in
// non-test code. `debug_assert*` is allowed (compiled out of release
// builds); invariant-backed sites carry a panic waiver comment whose
// reason states why the invariant holds.
// ---------------------------------------------------------------------------
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

fn rule_panic_freedom(ctx: &RuleCtx<'_>, model: &FileModel<'_>, out: &mut Vec<Finding>) {
    let toks = model.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || model.is_test(i) {
            continue;
        }
        let name = toks[i].text.as_str();
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());

        let method_call = PANIC_METHODS.contains(&name) && prev == Some(".") && next == Some("(");
        let macro_call = PANIC_MACROS.contains(&name)
            && next == Some("!")
            // Not a method or path segment named like a macro.
            && prev != Some(".")
            && prev != Some("::");
        if method_call || macro_call {
            let what = if method_call {
                format!(".{name}()")
            } else {
                format!("{name}!")
            };
            out.push(Finding {
                file: ctx.path.to_string(),
                line: toks[i].line,
                rule: "panic",
                message: format!(
                    "`{what}` in non-test code: return an error or add `// LINT-WAIVER(panic): <why the invariant holds>`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: constant-time discipline (emerge-crypto only) — flags
// (a) `==`/`!=` where a nearby operand identifier names secret material
//     (tag/mac/secret/digest/key), unless the comparison is over lengths;
// (b) indexing a SCREAMING_CASE lookup table with a value-derived index
//     (an `as usize` cast inside the brackets — loop counters are already
//     usize and do not trip this).
// The designated constant-time path is `hmac::verify_tag` / `ct_eq`-style
// accumulator loops, which compare an all-public difference accumulator
// and therefore do not trip (a).
// ---------------------------------------------------------------------------
fn rule_constant_time(ctx: &RuleCtx<'_>, model: &FileModel<'_>, out: &mut Vec<Finding>) {
    let toks = model.tokens;
    for i in 0..toks.len() {
        if model.is_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            if comparison_is_over_lengths(toks, i) {
                continue;
            }
            let window_secret = window_idents(toks, i, 6).find(|id| {
                let lower = id.to_ascii_lowercase();
                SECRETISH.iter().any(|s| lower.contains(s))
            });
            if let Some(id) = window_secret {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: t.line,
                    rule: "ct",
                    message: format!(
                        "`{}` near secret-named operand `{}`: use the constant-time `verify_tag`/`ct_eq` path or waive with the timing argument",
                        t.text, id
                    ),
                });
            }
        }
        // (b) secret-indexed table lookup: CONST_TABLE[ ... as usize ... ]
        if t.kind == TokKind::Ident
            && is_screaming_case(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.text == "[")
        {
            let mut depth = 0i64;
            let mut j = i + 1;
            let mut cast_in_index = false;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "as" if toks[j].kind == TokKind::Ident
                        && toks.get(j + 1).is_some_and(|n| n.text == "usize") =>
                    {
                        cast_in_index = true;
                    }
                    _ => {}
                }
                j += 1;
            }
            if cast_in_index {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: t.line,
                    rule: "ct",
                    message: format!(
                        "value-derived index into lookup table `{}`: a data-dependent load leaks the operand through the cache — use a branchless kernel or waive with the reason the operand is public",
                        t.text
                    ),
                });
            }
        }
    }
}

/// `a.len() == b`, `x != y.len()`, `.is_empty()` comparisons are about
/// public sizes, not secret contents. Bare size variables (`len`,
/// `*_len`, `count`, `*_count`) compared directly count too.
fn comparison_is_over_lengths(toks: &[Token], op: usize) -> bool {
    let is_size_ident = |t: &Token| {
        t.kind == TokKind::Ident
            && (t.text == "len"
                || t.text.ends_with("_len")
                || t.text == "count"
                || t.text.ends_with("_count"))
    };
    if op >= 1 && is_size_ident(&toks[op - 1]) {
        return true;
    }
    if toks.get(op + 1).is_some_and(is_size_ident) {
        return true;
    }
    // Left operand ends with `.len()` / `.is_empty()`.
    if op >= 4
        && toks[op - 1].text == ")"
        && toks[op - 2].text == "("
        && (toks[op - 3].text == "len" || toks[op - 3].text == "is_empty")
        && toks[op - 4].text == "."
    {
        return true;
    }
    // Right operand contains `.len()` / `.is_empty()` before any
    // expression terminator.
    let mut j = op + 1;
    while j + 2 < toks.len() {
        match toks[j].text.as_str() {
            ";" | "{" | "," => break,
            "." if toks[j + 1].text == "len" || toks[j + 1].text == "is_empty" => return true,
            _ => {}
        }
        j += 1;
        if j > op + 8 {
            break;
        }
    }
    false
}

fn window_idents(toks: &[Token], center: usize, radius: usize) -> impl Iterator<Item = &str> {
    let lo = center.saturating_sub(radius);
    let hi = (center + radius + 1).min(toks.len());
    toks[lo..hi]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn is_screaming_case(s: &str) -> bool {
    s.len() >= 3
        && s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

// ---------------------------------------------------------------------------
// Rule 4: hot-path allocation discipline — functions on the pooled
// pipeline (`*_into`, `*_pooled`, plus HOT_PATH_FNS) must not call
// allocating constructors. This makes the PR 6 counting-allocator test a
// static invariant rather than a runtime-only one.
// ---------------------------------------------------------------------------
const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from", "from_iter"]),
    (
        "String",
        &[
            "new",
            "with_capacity",
            "from",
            "from_utf8",
            "from_utf8_lossy",
        ],
    ),
    ("Box", &["new"]),
    ("Rc", &["new"]),
    ("Arc", &["new"]),
    ("HashMap", &["new", "with_capacity"]),
    ("HashSet", &["new", "with_capacity"]),
    ("BTreeMap", &["new"]),
    ("VecDeque", &["new", "with_capacity"]),
];
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "clone",
    "into_owned",
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];

fn rule_hot_path_alloc(ctx: &RuleCtx<'_>, model: &FileModel<'_>, out: &mut Vec<Finding>) {
    for f in &model.fns {
        let hot = f.name.ends_with("_into")
            || f.name.ends_with("_pooled")
            || HOT_PATH_FNS.contains(&f.name.as_str());
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        if !hot || model.is_test(body_start) {
            continue;
        }
        let toks = model.tokens;
        for i in body_start..=body_end.min(toks.len().saturating_sub(1)) {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let next = toks.get(i + 1).map(|t| t.text.as_str());

            let mut hit: Option<String> = None;
            if ALLOC_MACROS.contains(&name) && next == Some("!") && prev != Some(".") {
                hit = Some(format!("{name}!"));
            } else if ALLOC_METHODS.contains(&name) && prev == Some(".") && next == Some("(") {
                hit = Some(format!(".{name}()"));
            } else if next == Some("::") {
                if let Some((_, ctors)) = ALLOC_PATHS.iter().find(|(ty, _)| *ty == name) {
                    if let Some(ctor) = toks.get(i + 2) {
                        // Skip over a turbofish: `Vec::<u8>::new`.
                        let ctor_name = if ctor.text == "<" {
                            let mut j = i + 2;
                            let mut angle = 0i64;
                            while j < toks.len() {
                                match toks[j].text.as_str() {
                                    "<" => angle += 1,
                                    ">" => {
                                        angle -= 1;
                                        if angle == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                j += 1;
                            }
                            toks.get(j + 2).map(|t| t.text.as_str())
                        } else {
                            Some(ctor.text.as_str())
                        };
                        if let Some(c) = ctor_name {
                            if ctors.contains(&c) {
                                hit = Some(format!("{name}::{c}"));
                            }
                        }
                    }
                }
            }
            if let Some(what) = hit {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: toks[i].line,
                    rule: "alloc",
                    message: format!(
                        "`{what}` inside hot-path fn `{}`: the pooled pipeline must not allocate — reuse workspace buffers or waive with the reason no heap allocation occurs",
                        f.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: wire hygiene — truncating `as` casts in wire/package modules.
// A silent `as u16` on a length is exactly how a 70,000-byte segment
// becomes a 4,464-byte one on the wire; use `try_from` + an error.
// ---------------------------------------------------------------------------
const TRUNCATING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn rule_wire_hygiene(ctx: &RuleCtx<'_>, model: &FileModel<'_>, out: &mut Vec<Finding>) {
    let toks = model.tokens;
    for i in 0..toks.len() {
        if model.is_test(i) {
            continue;
        }
        if toks[i].kind == TokKind::Ident && toks[i].text == "as" {
            // `as` inside a `use x as y;` rename has an ident after it too,
            // but renames never target primitive types.
            if let Some(target) = toks.get(i + 1) {
                if TRUNCATING_TARGETS.contains(&target.text.as_str()) {
                    // A literal cast like `0xFF as u8` cannot truncate at
                    // runtime; still noisy, but the compiler already
                    // warns on overflow there. Skip literal operands.
                    let prev_literal = i
                        .checked_sub(1)
                        .is_some_and(|p| toks[p].kind == TokKind::Literal);
                    if !prev_literal {
                        out.push(Finding {
                            file: ctx.path.to_string(),
                            line: toks[i].line,
                            rule: "wire",
                            message: format!(
                                "truncating `as {}` cast in a wire/package module: use `{}::try_from` and surface the error, or waive with the range argument",
                                target.text, target.text
                            ),
                        });
                    }
                }
            }
        }
    }
}
