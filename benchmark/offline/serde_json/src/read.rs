//! JSON text → `Value`. A recursive-descent parser over bytes (RFC 8259).

use crate::{Error, Result};
use serde::value::{Map, Number, Value};

/// Nesting beyond this is refused instead of overflowing the stack; the
/// real serde_json uses the same limit.
const MAX_DEPTH: usize = 128;

pub(crate) fn parse(input: &[u8]) -> Result<Value> {
    let mut p = Parser {
        input,
        at: 0,
        depth: 0,
    };
    p.skip_whitespace();
    let value = p.value()?;
    p.skip_whitespace();
    if p.at < input.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::syntax(message, self.input, self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect_word(&mut self, word: &[u8], value: Value) -> Result<Value> {
        if self.input[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("expected ident"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'n') => self.expect_word(b"null", Value::Null),
            Some(b't') => self.expect_word(b"true", Value::Bool(true)),
            Some(b'f') => self.expect_word(b"false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value> {
        self.at += 1; // [
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => return Err(self.error("expected `,` or `]`")),
                None => return Err(self.error("EOF while parsing a list")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.at += 1; // {
        let mut map = Map::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'"') => {}
                Some(_) => return Err(self.error("key must be a string")),
                None => return Err(self.error("EOF while parsing an object")),
            }
            let key = self.string()?;
            self.skip_whitespace();
            match self.peek() {
                Some(b':') => self.at += 1,
                Some(_) => return Err(self.error("expected `:`")),
                None => return Err(self.error("EOF while parsing an object")),
            }
            self.skip_whitespace();
            let value = self.value()?;
            // A repeated key keeps its last value, as serde_json's Value does.
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Object(map));
                }
                Some(_) => return Err(self.error("expected `,` or `}`")),
                None => return Err(self.error("EOF while parsing an object")),
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.at += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("invalid number"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.at])
            .expect("a number is ASCII by construction");
        // Integers that fit 64 bits stay exact; wider ones fall through to
        // the nearest float, as in serde_json.
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Number(Number::from(i)));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Number::from_f64(f)
            .map(Value::Number)
            .ok_or_else(|| self.error("number out of range"))
    }

    fn hex4(&mut self) -> Result<u16> {
        let digits = self
            .input
            .get(self.at..self.at + 4)
            .ok_or_else(|| self.error("EOF while parsing a string"))?;
        let mut code = 0u16;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                b'A'..=b'F' => d - b'A' + 10,
                _ => return Err(self.error("invalid escape")),
            };
            code = code << 4 | u16::from(nibble);
        }
        self.at += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String> {
        self.at += 1; // opening quote
        let mut out: Vec<u8> = Vec::new();
        loop {
            let run_start = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1F)) {
                self.at += 1;
            }
            out.extend_from_slice(&self.input[run_start..self.at]);
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid unicode code point"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("EOF while parsing a string"))?;
                    self.at += 1;
                    let ch = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(_) => {
                    return Err(self
                        .error("control character (\\u0000-\\u001F) found while parsing a string"))
                }
            }
        }
    }

    /// The part of `\uXXXX` after the `u`, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if self.input.get(self.at..self.at + 2) != Some(b"\\u") {
                    return Err(self.error("unexpected end of hex escape"));
                }
                self.at += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error("lone leading surrogate in hex escape"));
                }
                0x10000 + ((u32::from(first) - 0xD800) << 10) + (u32::from(second) - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("lone trailing surrogate in hex escape")),
            _ => u32::from(first),
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }
}
