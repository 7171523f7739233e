//! The JSON string escaper shared by every hand-written JSON emitter in the
//! workspace (campaignd's responses and events, adas-lint's reports).

/// Escapes `s` for embedding between the quotes of a JSON string literal:
/// quote and backslash are backslash-escaped, `\n`/`\r`/`\t` use their
/// short forms, other control characters become `\u00XX`, and everything
/// else (non-ASCII included) passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escape_table() {
        for (input, expected) in [
            ("", ""),
            ("plain", "plain"),
            ("a\"b", "a\\\"b"),
            ("a\\b", "a\\\\b"),
            ("a\"b\\c\nd", "a\\\"b\\\\c\\nd"),
            ("\n\r\t", "\\n\\r\\t"),
            ("\u{0}", "\\u0000"),
            ("\u{8}\u{c}", "\\u0008\\u000c"),
            ("\u{1b}[0m", "\\u001b[0m"),
            ("\u{1f}", "\\u001f"),
            (" ~\u{7f}", " ~\u{7f}"),
            ("Δv ≤ 2 m/s² → ok", "Δv ≤ 2 m/s² → ok"),
            ("🚗", "🚗"),
        ] {
            assert_eq!(escape(input), expected, "escape({input:?})");
        }
    }
}
