//! A minimal JSON reader (the workspace is offline: no serde). It reads two
//! documents this package itself defines: a child run's result object, for
//! `--calibrate` and the all-workloads mode, and `BENCHMARK.json`, for the
//! catalogue test.

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.error("trailing characters"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Value::Obj),
            Some(b'[') => self.members(b']', Parser::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    /// Comma-separated members up to `close`; the opener is at `self.pos`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(member(self)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8")),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    out.push(match e {
                        b'"' | b'\\' | b'/' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        _ => return Err(self.error("unsupported escape")),
                    });
                }
                _ => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_object() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_us": {"value": 1.25e2, "unit": "us"}, "x": {"value": -3, "unit": "1/s"}}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.get("op_us").unwrap().get("value").unwrap().as_f64(), Some(125.0));
        assert_eq!(metrics.get("x").unwrap().get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(metrics.as_object().unwrap().len(), 2);
    }

    #[test]
    fn parses_nesting_escapes_and_empties() {
        let v = parse(" [ {}, [], null, false, \"a\\\"b\\n\" ] ").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0], Value::Obj(vec![]));
        assert_eq!(a[2], Value::Null);
        assert_eq!(a[4].as_str(), Some("a\"b\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1} x", "\"open", "tru", "[1 2]"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
