//! The workspace's JSON text rules. Every hand-written `rocc-*/v1` JSON
//! artifact embeds strings through [`escape`]; the engine's trace,
//! metrics and profile documents write floats through [`number`].

/// Escape a string for embedding in a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n` / `\r` / `\t` use their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
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

/// An `f64` as a JSON number: Rust's shortest round-trip form. JSON has
/// no NaN or infinity; a non-finite value is written as `0`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r\t"), "\\r\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain µs"), "plain µs");
    }

    #[test]
    fn number_is_shortest_form_and_finite() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-2.5e-7), "-0.00000025");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }
}
