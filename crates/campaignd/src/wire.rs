//! Minimal flat-JSON wire codec for the job API.
//!
//! Like every report writer in this workspace, campaignd hand-rolls its
//! JSON with `std` only. Parsing is scoped to
//! exactly what job submissions need: one flat object whose values are
//! strings, unsigned integers, booleans, or arrays of `[int, int]` pairs
//! (the chaos knobs). Anything else is a parse error, not a guess.

use std::collections::BTreeMap;

/// A value in a flat job-submission object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer.
    UInt(u64),
    /// A boolean.
    Bool(bool),
    /// An array of `[a, b]` integer pairs.
    Pairs(Vec<(u64, u64)>),
}

/// Parsed key → value map (keys are unescaped JSON strings).
pub type Object = BTreeMap<String, Value>;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1);
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    }
                    self.pos += 2;
                }
                Some(&b) if b >= 0x20 => {
                    // Raw UTF-8 passes through byte-wise; keys and enum
                    // tokens the daemon actually interprets are ASCII.
                    out.push(b as char);
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn uint(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digit at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("integer overflow at byte {start}"))
    }

    fn pairs(&mut self) -> Result<Vec<(u64, u64)>, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.eat(b'[')?;
            let a = self.uint()?;
            self.eat(b',')?;
            let b = self.uint()?;
            self.eat(b']')?;
            out.push((a, b));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => Ok(Value::Pairs(self.pairs()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b) if b.is_ascii_digit() => Ok(Value::UInt(self.uint()?)),
            _ => Err(format!("unsupported value at byte {}", self.pos)),
        }
    }
}

/// Parses one flat JSON object. Trailing bytes after the closing brace
/// (other than whitespace) are an error.
pub fn parse_object(bytes: &[u8]) -> Result<Object, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    cur.eat(b'{')?;
    let mut out = Object::new();
    if cur.peek() == Some(b'}') {
        cur.pos += 1;
    } else {
        loop {
            let key = cur.string()?;
            cur.eat(b':')?;
            let value = cur.value()?;
            out.insert(key, value);
            match cur.peek() {
                Some(b',') => cur.pos += 1,
                Some(b'}') => {
                    cur.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", cur.pos)),
            }
        }
    }
    cur.skip_ws();
    if cur.pos != bytes.len() {
        return Err(format!("trailing bytes at {}", cur.pos));
    }
    Ok(out)
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_submission() {
        let obj = parse_object(
            br#"{"kind": "resilience", "base_seed": 7, "reps": 2,
                "defense": "degrade", "panic_cells": [[3, 1], [10, 2]],
                "delay_cells": [], "strict": true}"#,
        )
        .unwrap();
        assert_eq!(obj["kind"], Value::Str("resilience".into()));
        assert_eq!(obj["base_seed"], Value::UInt(7));
        assert_eq!(obj["panic_cells"], Value::Pairs(vec![(3, 1), (10, 2)]));
        assert_eq!(obj["delay_cells"], Value::Pairs(vec![]));
        assert_eq!(obj["strict"], Value::Bool(true));
    }

    #[test]
    fn rejects_trailing_garbage_and_nesting() {
        assert!(parse_object(b"{} x").is_err());
        assert!(parse_object(br#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_object(br#"{"a": -1}"#).is_err());
        assert!(parse_object(br#"{"a": 1"#).is_err());
        assert!(parse_object(b"").is_err());
        assert!(parse_object(br#"{"a": [[1]]}"#).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd";
        let doc = format!(r#"{{"k": "{}"}}"#, escape(nasty));
        let obj = parse_object(doc.as_bytes()).unwrap();
        assert_eq!(obj["k"], Value::Str(nasty.to_string()));
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_object(b"{}").unwrap().is_empty());
        assert!(parse_object(b"  { }  ").unwrap().is_empty());
    }
}
