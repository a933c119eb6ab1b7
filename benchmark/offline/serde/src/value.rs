//! The self-describing tree every (de)serialization passes through. It has
//! the shape of `serde_json::Value`, which re-exports it.

use std::ops::Index;

/// A JSON number. Integers keep all 64 bits — a satellite id or byte count
/// must never round through an `f64`.
#[derive(Debug, Clone, Copy)]
pub struct Number(N);

#[derive(Debug, Clone, Copy)]
enum N {
    PosInt(u64),
    /// Always negative; non-negative integers are `PosInt`.
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// `None` for NaN and the infinities, which JSON cannot express.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// Every number reads as a float (integers above 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        })
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.0, other.0) {
            (N::PosInt(a), N::PosInt(b)) => a == b,
            (N::NegInt(a), N::NegInt(b)) => a == b,
            (N::Float(a), N::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Number {
        Number(N::PosInt(u))
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Number {
        if i < 0 {
            Number(N::NegInt(i))
        } else {
            Number(N::PosInt(i as u64))
        }
    }
}

/// A JSON object that keeps its members in insertion order, so a derived
/// struct serializes its fields in declaration order like real serde does.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    pub fn with_capacity(capacity: usize) -> Map {
        Map {
            entries: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Replaces the value of an existing key in place, otherwise appends.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Appends without looking for an existing key. For callers that
    /// produce each key once (derived structs).
    pub fn push_unique(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
    }

    /// Removes and returns the first member under `key`. The order of the
    /// other members is not kept (`swap_remove`): only parsing uses this,
    /// and a parsed object is consumed, never written back.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.swap_remove(at).1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Map {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member of an object by key; `None` on a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// `value["key"]`; a missing key or a non-object reads as `Null`.
impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[3]`; out of range or a non-array reads as `Null`.
impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, at: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(at).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::Number(u.into())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Number(i.into())
    }
}

/// Non-finite floats become `Null`, as `serde_json` writes them.
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}
