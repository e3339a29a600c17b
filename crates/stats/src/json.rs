//! The workspace's one JSON string escaper. Every hand-written
//! `rocc-*/v1` JSON artifact embeds strings through [`escape`].

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
}
