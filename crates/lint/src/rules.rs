//! The per-file rules: R1–R5 as lexical checks over masked lines, R8 over
//! the parsed match facts.
//!
//! Every lexical rule receives lines that have already had comments and
//! string literals blanked out by the tokenizer, so the matching here can
//! stay simple without producing false positives from prose. R8 consumes
//! [`crate::parser`] facts instead — wildcard detection needs real arm
//! structure, not line patterns. The scoping matrix (which crates / file
//! kinds a rule applies to) lives in [`crate::scope`].
//!
//! Rules here report *raw* findings: inline suppressions are applied by the
//! caller ([`crate::scan_workspace`] / [`crate::scan_source`]), which also
//! tracks which suppressions actually absorbed something — a dead
//! `allow(...)` is itself a finding.

use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::FileFacts;
use crate::scope::FileInfo;
use crate::tokenizer::SourceFile;

/// Runs every applicable per-file rule; returns raw findings with inline
/// suppressions NOT yet applied.
pub fn local_rules(info: &FileInfo, src: &SourceFile, facts: &FileFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if crate::scope::r1_applies(info) {
        r1_unit_safety(info, src, &mut out);
    }
    if crate::scope::r2_applies(info) {
        r2_panic_freedom(info, src, &mut out);
    }
    if crate::scope::r3_applies(info) {
        r3_actuator_containment(info, src, &mut out);
    }
    if crate::scope::r4_applies(info) {
        r4_float_hygiene(info, src, &mut out);
    }
    if crate::scope::r5_applies(info) {
        r5_determinism(info, src, &mut out);
    }
    if crate::scope::r8_applies(info) {
        r8_enum_exhaustiveness(info, src, facts, &mut out);
    }
    if crate::scope::concurrency_applies(info) {
        r12_expect_policy(info, src, facts, &mut out);
        r14_static_mut(info, src, &mut out);
    }
    out
}

/// One inline suppression site, as the workspace pass needs it.
#[derive(Debug, Clone)]
pub struct SuppressionSite {
    /// 1-based line the suppression applies to.
    pub line: usize,
    /// Covered rules; empty means all.
    pub rules: Vec<Rule>,
}

/// Everything the workspace pass needs from one file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Raw local findings (R1–R5, R8, R12, R14), before suppression
    /// filtering.
    pub raw_diags: Vec<Diagnostic>,
    /// Inline suppression sites, sorted by line.
    pub suppressions: Vec<SuppressionSite>,
    /// The parsed facts the workspace rules (R6/R7, R12–R14) consume.
    pub facts: FileFacts,
}

/// Tokenizes + parses + rules one file: raw local findings, suppression
/// sites, and the parsed facts. Also returns the tokenized source, so the
/// semantic layer can lower it without tokenizing the file again.
pub fn analyze_file(info: &FileInfo, source: &str) -> (FileAnalysis, SourceFile) {
    let src = crate::tokenizer::tokenize(source);
    let facts = crate::parser::parse(&src);
    let raw_diags = local_rules(info, &src, &facts);
    let mut suppressions: Vec<SuppressionSite> = src
        .suppressions
        .iter()
        .flat_map(|(&line, sups)| {
            sups.iter().map(move |s| SuppressionSite {
                line,
                rules: s.rules.clone(),
            })
        })
        .collect();
    suppressions.sort_by(|a, b| (a.line, &a.rules).cmp(&(b.line, &b.rules)));
    let analysis = FileAnalysis {
        raw_diags,
        suppressions,
        facts,
    };
    (analysis, src)
}

fn diag(rule: Rule, info: &FileInfo, line_idx: usize, snippet: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: info.rel.clone(),
        line: line_idx + 1,
        snippet: snippet.trim().to_string(),
        message,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `hay` contains `needle` delimited by non-identifier characters.
fn has_token(hay: &str, needle: &str) -> bool {
    find_token(hay, needle).is_some()
}

/// Finds `needle` in `hay` at an identifier boundary.
fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Whether the line contains a call of `.name(` (e.g. `.unwrap()`), with a
/// word boundary after the method name so `.unwrap_or()` never matches.
fn has_method_call(code: &str, name: &str) -> bool {
    let mut from = 0;
    let pat = format!(".{name}");
    while let Some(pos) = code[from..].find(&pat) {
        let at = from + pos;
        let after = at + pat.len();
        let rest = &code[after..];
        let boundary = rest.chars().next().is_none_or(|c| !is_ident_char(c));
        if boundary && rest.trim_start().starts_with('(') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Whether the line invokes the macro `name!`.
fn has_macro(code: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
        let rest = &code[at + name.len()..];
        if before_ok && rest.starts_with('!') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Keywords that can directly precede `[` without it being an index
/// expression (`&mut [u8; 8]`, `return [0; 4]`, `x as [u8; 2]`, …).
const PRE_BRACKET_KEYWORDS: [&str; 12] = [
    "mut", "ref", "dyn", "as", "in", "return", "else", "match", "if", "move", "impl", "break",
];

/// Whether the line contains an index expression `expr[…]`: a `[` whose
/// previous non-space token ends an expression (identifier, `)` or `]`) and
/// is not a keyword. Array literals, slice types, attributes, and `vec![…]`
/// all have a non-expression token before the bracket and do not match.
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let before: Vec<char> = chars[..i]
            .iter()
            .rev()
            .skip_while(|c| c.is_whitespace())
            .copied()
            .collect();
        let Some(&p) = before.first() else { continue };
        if !(is_ident_char(p) || p == ')' || p == ']') {
            continue;
        }
        let word: String = before
            .iter()
            .take_while(|c| is_ident_char(**c))
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if PRE_BRACKET_KEYWORDS.contains(&word.as_str()) {
            continue;
        }
        // A lifetime before the bracket (`&'static [u8]`) is a slice type.
        if before.get(word.chars().count()) == Some(&'\'') {
            continue;
        }
        return true;
    }
    false
}

// ---------------------------------------------------------------- R1 ----

/// R1: scan `pub fn` signatures for raw `f64`/`f32` parameters or returns.
fn r1_unit_safety(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lines = &src.lines;
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.in_test || !is_pub_fn(&line.code) {
            i += 1;
            continue;
        }
        // Accumulate the signature until the body `{` or a trailing `;`.
        let mut sig = String::new();
        let mut end = i;
        for (j, l) in lines.iter().enumerate().skip(i).take(24) {
            let code = &l.code;
            let stop = code.find('{').map(|p| (p, true)).or_else(|| {
                // A `;` ends a trait-method declaration.
                code.rfind(';').map(|p| (p, false))
            });
            match stop {
                Some((p, _)) => {
                    sig.push_str(&code[..p]);
                    end = j;
                    break;
                }
                None => {
                    sig.push_str(code);
                    sig.push(' ');
                    end = j;
                }
            }
        }
        if has_token(&sig, "f64") || has_token(&sig, "f32") {
            out.push(diag(
                Rule::UnitSafety,
                info,
                i,
                &lines[i].raw,
                "public API passes a raw float; use a `units::` newtype (Speed, Distance, \
                 Angle, Accel, Seconds) or allow with a reason if genuinely dimensionless"
                    .to_string(),
            ));
        }
        i = end + 1;
    }
}

/// Whether the masked line starts a `pub fn` (not `pub(crate)`, which is
/// not public API).
fn is_pub_fn(code: &str) -> bool {
    let Some(pos) = find_token(code, "pub") else {
        return false;
    };
    let rest = code[pos + 3..].trim_start();
    if rest.starts_with('(') {
        return false; // pub(crate) / pub(super)
    }
    // Skip qualifiers between `pub` and `fn`.
    let mut rest = rest;
    for q in ["const", "async", "unsafe", "extern"] {
        if let Some(r) = rest.strip_prefix(q) {
            rest = r.trim_start();
        }
    }
    rest.starts_with("fn ") || rest == "fn"
}

// ---------------------------------------------------------------- R2 ----

/// R2: panic-freedom in non-test library code of the safety-path crates.
fn r2_panic_freedom(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for method in ["unwrap", "expect"] {
            if has_method_call(code, method) {
                out.push(diag(
                    Rule::PanicFreedom,
                    info,
                    i,
                    &line.raw,
                    format!(
                        "`.{method}()` can panic in safety-path library code; return a \
                         `Result`, use a checked alternative, or allow with a reason"
                    ),
                ));
            }
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            if has_macro(code, mac) {
                out.push(diag(
                    Rule::PanicFreedom,
                    info,
                    i,
                    &line.raw,
                    format!("`{mac}!` aborts the control loop; safety-path code must degrade, not die"),
                ));
            }
        }
        if has_index_expr(code) {
            out.push(diag(
                Rule::PanicFreedom,
                info,
                i,
                &line.raw,
                "indexing panics on out-of-bounds; use `.get(…)`, iterators, or allow with \
                 a reason proving the bound"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------- R3 ----

/// Actuator command fields whose mutation is contained by R3.
const ACTUATOR_FIELDS: [&str; 8] = [
    "accel", "steer", "gas", "brake", "accel_cmd", "brake_cmd", "steer_cmd", "gas_cmd",
];

/// R3: writes to actuator command fields outside the designated modules.
fn r3_actuator_containment(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(field) = actuator_write(&line.code) {
            out.push(diag(
                Rule::ActuatorContainment,
                info,
                i,
                &line.raw,
                format!(
                    "write to actuator command field `.{field}` outside \
                     openadas::safety/openadas::controls/attack mutation points"
                ),
            ));
        }
    }
}

/// Detects `.field =` / `.field +=` style assignments to an actuator field.
fn actuator_write(code: &str) -> Option<&'static str> {
    for field in ACTUATOR_FIELDS {
        let pat = format!(".{field}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&pat) {
            let at = from + pos;
            let after = at + pat.len();
            let rest = &code[after..];
            // Word boundary: `.steering` must not match field `steer`.
            if rest.chars().next().is_some_and(is_ident_char) {
                from = at + 1;
                continue;
            }
            let t = rest.trim_start();
            let mut cs = t.chars();
            match (cs.next(), cs.next()) {
                (Some('='), second) if second != Some('=') && second != Some('>') => {
                    return Some(field);
                }
                (Some('+' | '-' | '*' | '/'), Some('=')) => {
                    return Some(field);
                }
                _ => {}
            }
            from = at + 1;
        }
    }
    None
}

// ---------------------------------------------------------------- R4 ----

/// R4: float `==`/`!=` and NaN-unchecked `partial_cmp().unwrap()`.
fn r4_float_hygiene(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if let Some(op) = float_eq_compare(code) {
            out.push(diag(
                Rule::FloatHygiene,
                info,
                i,
                &line.raw,
                format!(
                    "`{op}` on a floating-point value; compare with an epsilon or restructure \
                     (exact float equality is how attack values slip through checks)"
                ),
            ));
        }
        if code.contains("partial_cmp")
            && (has_method_call(code, "unwrap") || has_method_call(code, "expect"))
        {
            out.push(diag(
                Rule::FloatHygiene,
                info,
                i,
                &line.raw,
                "`partial_cmp(…).unwrap()` panics on NaN; use `total_cmp` or handle `None`"
                    .to_string(),
            ));
        }
    }
}

/// Detects `==` / `!=` where either operand looks like a float: a numeric
/// literal containing `.`, or an `f64::`/`f32::` associated constant.
fn float_eq_compare(code: &str) -> Option<&'static str> {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    for i in 0..n.saturating_sub(1) {
        let op = match (chars[i], chars[i + 1]) {
            ('=', '=') => "==",
            ('!', '=') => "!=",
            _ => continue,
        };
        // Skip `<=`, `>=`, `===`-ish and `=>`/pattern arms.
        if i > 0 && matches!(chars[i - 1], '<' | '>' | '=' | '!') {
            continue;
        }
        if i + 2 < n && chars[i + 2] == '=' {
            continue;
        }
        let left: String = chars[..i].iter().collect();
        let right: String = chars[i + 2..].iter().collect();
        let lhs = left.trim_end().rsplit([' ', '(', ',']).next();
        let rhs = right.trim_start().split([' ', ')', ',', ';']).next();
        if lhs.is_some_and(looks_float) || rhs.is_some_and(looks_float) {
            return Some(op);
        }
    }
    None
}

/// Whether a single operand token looks like a float expression.
fn looks_float(tok: &str) -> bool {
    let tok = tok.trim();
    if tok.contains("f64::") || tok.contains("f32::") {
        return true;
    }
    // Numeric literal with a decimal point: 0.0, 2.5f64, -1.25e3.
    let t = tok.trim_start_matches(['-', '*', '&', '(']);
    let mut saw_digit = false;
    let mut saw_dot = false;
    for c in t.chars() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' if saw_digit => saw_dot = true,
            'e' | 'E' | '+' | '-' => {}
            'f' if saw_digit => break, // f64 suffix
            _ if !saw_digit => return false,
            _ => break,
        }
    }
    saw_digit && saw_dot
}

// ---------------------------------------------------------------- R5 ----

/// Tokens that introduce wall-clock time or entropy into the simulation.
const NONDETERMINISM: [(&str, &str); 6] = [
    ("std::time", "wall-clock time breaks trace replay"),
    ("SystemTime", "wall-clock time breaks trace replay"),
    ("Instant", "wall-clock time breaks trace replay"),
    ("from_entropy", "entropy-seeded RNG breaks trace replay"),
    ("thread_rng", "thread-local entropy RNG breaks trace replay"),
    ("random", "implicit entropy breaks trace replay"),
];

/// R5: determinism — only seeded randomness, no wall-clock reads.
fn r5_determinism(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for (tok, why) in NONDETERMINISM {
            let hit = if tok.contains("::") {
                code.contains(tok)
            } else {
                has_token(code, tok)
            };
            if hit {
                out.push(diag(
                    Rule::Determinism,
                    info,
                    i,
                    &line.raw,
                    format!("`{tok}` outside the seeded harness plumbing: {why}"),
                ));
                break; // one diagnostic per line is enough
            }
        }
    }
}

// ---------------------------------------------------------------- R8 ----

/// R8: no wildcard `_ =>` arm in a match that also names a safety-critical
/// enum. The heuristic: an arm pattern containing `Enum::Variant` with
/// `Enum` in [`crate::scope::R8_ENUMS`] marks the match as a safety-enum
/// dispatch; a bare `_` arm (guarded or not) in the same match then hides
/// future variants. Arms belong to their innermost match, so an inner
/// tuple/Option match with a legitimate wildcard does not poison the outer
/// safety-enum dispatch (and vice versa).
fn r8_enum_exhaustiveness(
    info: &FileInfo,
    src: &SourceFile,
    facts: &FileFacts,
    out: &mut Vec<Diagnostic>,
) {
    for m in &facts.matches {
        if m.is_test {
            continue;
        }
        let mut heads: Vec<&str> = m
            .arms
            .iter()
            .flat_map(|a| a.enum_heads.iter())
            .map(String::as_str)
            .filter(|h| crate::scope::R8_ENUMS.contains(h))
            .collect();
        heads.sort_unstable();
        heads.dedup();
        if heads.is_empty() {
            continue;
        }
        for arm in m.arms.iter().filter(|a| a.wildcard) {
            let raw = src
                .lines
                .get(arm.line.saturating_sub(1))
                .map(|l| l.raw.trim().to_string())
                .unwrap_or_else(|| arm.pat.clone());
            out.push(Diagnostic {
                rule: Rule::EnumExhaustiveness,
                severity: Severity::Error,
                file: info.rel.clone(),
                line: arm.line,
                snippet: raw,
                message: format!(
                    "wildcard `_ =>` arm in a match over safety enum {}; name the \
                     remaining variants so adding one is a compile error, not a \
                     silently-ignored attack mode",
                    heads.join("/"),
                ),
            });
        }
    }
}

// --------------------------------------------------- R12/R14 (local) ----

/// The marker a file's docs must carry for `.lock().expect(…)` to be
/// acceptable under R12: a paragraph starting `lock poisoning policy:`
/// explaining why dying on poison is the right failure mode here (or why
/// poison is unreachable). Files that instead recover via
/// `PoisonError::into_inner` never produce the finding in the first place.
pub const POISON_POLICY_MARKER: &str = "lock poisoning policy:";

/// R12 (local half): every `Mutex::lock` guard consumed by
/// `.expect(…)`/`.unwrap()` must be covered by a documented poisoning
/// policy in the same file. Without one, a panic in any other guard holder
/// turns every later lock attempt into a cascade of worker deaths — the
/// exact failure mode the pool's panic latch exists to prevent.
fn r12_expect_policy(
    info: &FileInfo,
    src: &SourceFile,
    facts: &FileFacts,
    out: &mut Vec<Diagnostic>,
) {
    let documented = src
        .lines
        .iter()
        .any(|l| l.raw.contains(POISON_POLICY_MARKER));
    if documented {
        return;
    }
    for f in facts.fns.iter().filter(|f| !f.is_test) {
        for ev in &f.locks {
            if ev.op == crate::parser::LockOp::Acquire && ev.expect {
                let snippet = src
                    .lines
                    .get(ev.line.saturating_sub(1))
                    .map(|l| l.raw.trim().to_string())
                    .unwrap_or_default();
                out.push(diag(
                    Rule::LockDiscipline,
                    info,
                    ev.line.saturating_sub(1),
                    &snippet,
                    format!(
                        "`.lock()` guard on `{}` consumed by expect/unwrap with no \
                         documented poisoning policy; recover with \
                         `.unwrap_or_else(PoisonError::into_inner)` or document a \
                         `{POISON_POLICY_MARKER}` in this file",
                        ev.what
                    ),
                ));
            }
        }
    }
}

/// R14 (local half): `static mut` is shared mutable state with no
/// synchronization story at all — any access order is a data race the
/// compiler cannot see, and campaign results touching one are
/// scheduling-dependent by construction.
fn r14_static_mut(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(pos) = find_token(&line.code, "static") {
            if line.code[pos + "static".len()..].trim_start().starts_with("mut ") {
                out.push(diag(
                    Rule::SharedStateDeterminism,
                    info,
                    i,
                    &line.raw,
                    "`static mut` is unsynchronized shared mutable state; use an \
                     atomic, a `Mutex`, or thread-local state instead"
                        .into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::classify;
    use crate::tokenizer::tokenize;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let info = classify(path);
        let file = tokenize(src);
        let facts = crate::parser::parse(&file);
        let mut out = local_rules(&info, &file, &facts);
        out.retain(|d| !file.is_suppressed(d.line, d.rule));
        out
    }

    #[test]
    fn r8_flags_wildcard_over_safety_enum() {
        let d = check(
            "crates/core/src/x.rs",
            "fn f(t: AttackType) -> u8 {\n  match t {\n    AttackType::Acceleration => 1,\n    _ => 0,\n  }\n}\n",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == Rule::EnumExhaustiveness).count(),
            1,
            "{d:?}"
        );
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn r8_ignores_non_safety_enums_tests_and_inner_matches() {
        // Wildcard over a non-safety enum: fine.
        let d = check(
            "crates/core/src/x.rs",
            "fn f(p: Payload) -> u8 {\n  match p {\n    Payload::Tick => 1,\n    _ => 0,\n  }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::EnumExhaustiveness), "{d:?}");
        // Inner tuple match with a wildcard nested under safety-enum arms:
        // the wildcard belongs to the inner match, no finding.
        let d = check(
            "crates/core/src/x.rs",
            "fn f(a: AttackAction, x: Option<u8>) -> bool {\n\
             match a {\n\
               AttackAction::Accelerate => match (x, x) {\n\
                 (Some(_), Some(_)) => true,\n\
                 _ => false,\n\
               },\n\
               AttackAction::Decelerate => false,\n\
               AttackAction::Steer(_) => false,\n\
             }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::EnumExhaustiveness), "{d:?}");
        // Test code is exempt.
        let d = check(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n  fn f(t: AttackType) -> u8 {\n    match t { AttackType::Acceleration => 1, _ => 0 }\n  }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::EnumExhaustiveness), "{d:?}");
    }

    #[test]
    fn r8_wildcard_respects_inline_allow() {
        let d = check(
            "crates/core/src/x.rs",
            "fn f(t: AttackType) -> u8 {\n  match t {\n    AttackType::Acceleration => 1,\n    _ => 0, // adas-lint: allow(R8, reason = \"forward-compat shim\")\n  }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::EnumExhaustiveness), "{d:?}");
    }

    #[test]
    fn r1_flags_raw_f64_pub_fn() {
        let d = check(
            "crates/openadas/src/x.rs",
            "pub fn set_speed(&mut self, speed: f64) {}\n",
        );
        assert!(d.iter().any(|d| d.rule == Rule::UnitSafety), "{d:?}");
    }

    #[test]
    fn r1_ignores_newtype_api_and_private_fn() {
        let d = check(
            "crates/openadas/src/x.rs",
            "pub fn set_speed(&mut self, speed: Speed) {}\nfn helper(x: f64) {}\npub(crate) fn h2(x: f64) {}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::UnitSafety), "{d:?}");
    }

    #[test]
    fn r2_flags_unwrap_and_indexing_but_not_unwrap_or() {
        let d = check(
            "crates/canbus/src/x.rs",
            "fn f(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }\nfn g(v: &[u8]) -> u8 { v[0] }\nfn h(o: Option<u8>) -> u8 { o.unwrap() }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::PanicFreedom).count(), 2, "{d:?}");
    }

    #[test]
    fn r2_skips_tests_and_other_crates() {
        let d = check(
            "crates/canbus/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check("crates/platform/src/x.rs", "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n");
        assert!(d.iter().all(|d| d.rule != Rule::PanicFreedom), "{d:?}");
    }

    #[test]
    fn r3_flags_actuator_write_outside_designated_modules() {
        let d = check("crates/platform/src/x.rs", "fn f(c: &mut CarControl) { c.accel = a; }\n");
        assert!(d.iter().any(|d| d.rule == Rule::ActuatorContainment), "{d:?}");
        let d = check(
            "crates/core/src/corruption.rs",
            "fn f(c: &mut CarControl) { c.accel = a; }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::ActuatorContainment), "{d:?}");
    }

    #[test]
    fn r3_ignores_reads_comparisons_and_longer_fields() {
        let d = check(
            "crates/platform/src/x.rs",
            "fn f(c: &C) { if c.accel == x {} let v = c.steer; s.steering_angle = q; }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::ActuatorContainment), "{d:?}");
    }

    #[test]
    fn r4_flags_float_eq_and_nan_unchecked_sort() {
        let d = check("crates/driving-sim/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert!(d.iter().any(|d| d.rule == Rule::FloatHygiene), "{d:?}");
        let d = check(
            "crates/platform/src/x.rs",
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        );
        assert!(d.iter().any(|d| d.rule == Rule::FloatHygiene), "{d:?}");
    }

    #[test]
    fn r4_ignores_integer_eq() {
        let d = check("crates/platform/src/x.rs", "fn f(x: usize) -> bool { x == 0 || x != 3 }\n");
        assert!(d.iter().all(|d| d.rule != Rule::FloatHygiene), "{d:?}");
    }

    #[test]
    fn r5_flags_wall_clock_and_entropy() {
        for bad in [
            "use std::time::Instant;\n",
            "let t = SystemTime::now();\n",
            "let rng = StdRng::from_entropy();\n",
        ] {
            let d = check("crates/driving-sim/src/x.rs", bad);
            assert!(d.iter().any(|d| d.rule == Rule::Determinism), "{bad}: {d:?}");
        }
        let d = check(
            "crates/driving-sim/src/x.rs",
            "let rng = StdRng::seed_from_u64(seed);\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::Determinism), "{d:?}");
    }

    #[test]
    fn r5_exempts_bench_crate() {
        let d = check(
            "crates/bench/benches/x.rs",
            "let t0 = std::time::Instant::now();\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suppression_silences_a_finding() {
        let d = check(
            "crates/canbus/src/x.rs",
            "fn h(o: Option<u8>) -> u8 { o.unwrap() } // adas-lint: allow(R2, reason = \"demo\")\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r12_expect_without_poisoning_policy_fires() {
        let d = check(
            "crates/platform/src/pool.rs",
            "fn f(&self) { let g = self.state.lock().expect(\"pool lock\"); }\n",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == Rule::LockDiscipline).count(),
            1,
            "{d:?}"
        );
        assert!(d[0].message.contains("poisoning policy"), "{}", d[0].message);
    }

    #[test]
    fn r12_documented_policy_or_recovery_is_silent() {
        // A `lock poisoning policy:` paragraph anywhere in the file covers
        // every expect-consumed guard in it.
        let d = check(
            "crates/platform/src/pool.rs",
            "//! lock poisoning policy: workers never panic while holding these.\n\
             fn f(&self) { let g = self.state.lock().expect(\"pool lock\"); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
        // Recovery via `PoisonError::into_inner` never sets the expect flag.
        let d = check(
            "crates/platform/src/pool.rs",
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
    }

    #[test]
    fn r12_is_scoped_to_concurrency_crates_and_skips_tests() {
        // The lint crate itself is outside the concurrency scope.
        let d = check(
            "crates/lint/src/x.rs",
            "fn f(&self) { let g = self.state.lock().expect(\"x\"); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
        let d = check(
            "crates/platform/src/pool.rs",
            "#[cfg(test)]\nmod tests {\n  fn t(&self) { let g = self.state.lock().expect(\"x\"); }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
    }

    #[test]
    fn r14_static_mut_fires_outside_tests() {
        let d = check(
            "crates/platform/src/x.rs",
            "static mut COUNTER: u64 = 0;\n",
        );
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == Rule::SharedStateDeterminism)
                .count(),
            1,
            "{d:?}"
        );
        // `static` without `mut` (and test code) stay silent.
        let d = check(
            "crates/platform/src/x.rs",
            "static NAME: &str = \"pool\";\n#[cfg(test)]\nmod tests {\n  static mut T: u64 = 0;\n}\n",
        );
        assert!(
            d.iter().all(|d| d.rule != Rule::SharedStateDeterminism),
            "{d:?}"
        );
    }
}
