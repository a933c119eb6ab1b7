//! `Serialize` / `Deserialize` for the std types the kessler crates put in
//! derived structs.

use crate::__private::{de_value, invalid_type, ser_value, Error};
use crate::de::Error as _;
use crate::value::{Map, Value};
use crate::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

// ---- scalars -------------------------------------------------------------

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::from(*self as u64))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                let v = d.deserialize_value()?;
                let out = match &v {
                    Value::Number(n) if !n.is_f64() => match n.as_u64() {
                        Some(u) => <$t>::try_from(u).map_err(|_| {
                            Error::new(format!(
                                "invalid value: integer `{u}`, expected {}", stringify!($t)
                            ))
                        }),
                        None => Err(Error::new(format!(
                            "invalid value: integer `{}`, expected {}",
                            n.as_i64().unwrap_or_default(), stringify!($t)
                        ))),
                    },
                    other => Err(invalid_type(other, stringify!($t))),
                };
                out.map_err(D::Error::custom)
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::from(*self as i64))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                let v = d.deserialize_value()?;
                let out = match &v {
                    Value::Number(n) if !n.is_f64() => match n.as_i64() {
                        Some(i) => <$t>::try_from(i).map_err(|_| {
                            Error::new(format!(
                                "invalid value: integer `{i}`, expected {}", stringify!($t)
                            ))
                        }),
                        None => Err(Error::new(format!(
                            "invalid value: integer `{}`, expected {}",
                            n.as_u64().unwrap_or_default(), stringify!($t)
                        ))),
                    },
                    other => Err(invalid_type(other, stringify!($t))),
                };
                out.map_err(D::Error::custom)
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

macro_rules! float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::from(*self as f64))
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                match d.deserialize_value()? {
                    Value::Number(n) => Ok(n.as_f64().expect("every number reads as f64") as $t),
                    other => Err(D::Error::custom(invalid_type(&other, stringify!($t)))),
                }
            }
        }
    )*};
}
float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<bool, D::Error> {
        match d.deserialize_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(D::Error::custom(invalid_type(&other, "a boolean"))),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::String(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::String(self.clone()))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<String, D::Error> {
        match d.deserialize_value()? {
            Value::String(s) => Ok(s),
            other => Err(D::Error::custom(invalid_type(&other, "a string"))),
        }
    }
}

// ---- the tree itself -----------------------------------------------------

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Value, D::Error> {
        d.deserialize_value()
    }
}

// ---- pointers and options ------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Box<T>, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.serialize_value(Value::Null),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Option<T>, D::Error> {
        match d.deserialize_value()? {
            Value::Null => Ok(None),
            other => de_value(other).map(Some),
        }
    }

    fn __missing_field(_field: &'static str) -> Result<Option<T>, Error> {
        Ok(None)
    }
}

// ---- sequences -----------------------------------------------------------

fn ser_seq<'a, T: Serialize + 'a, S: Serializer>(
    items: impl ExactSizeIterator<Item = &'a T>,
    s: S,
) -> Result<S::Ok, S::Error> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(ser_value::<T, S::Error>(item)?);
    }
    s.serialize_value(Value::Array(out))
}

fn de_seq<'de, D: Deserializer<'de>>(d: D, expected: &str) -> Result<Vec<Value>, D::Error> {
    match d.deserialize_value()? {
        Value::Array(items) => Ok(items),
        other => Err(D::Error::custom(invalid_type(&other, expected))),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ser_seq(self.iter(), s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ser_seq(self.iter(), s)
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Vec<T>, D::Error> {
        de_seq(d, "a sequence")?.into_iter().map(de_value).collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ser_seq(self.iter(), s)
    }
}

impl<'de, T: for<'a> Deserialize<'a>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<[T; N], D::Error> {
        let items: Vec<T> = de_seq(d, "an array")?
            .into_iter()
            .map(de_value)
            .collect::<Result<_, D::Error>>()?;
        let found = items.len();
        <[T; N]>::try_from(items).map_err(|_| {
            D::Error::custom(format!(
                "invalid length {found}, expected an array of length {N}"
            ))
        })
    }
}

macro_rules! tuple {
    ($len:expr => $($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_value(Value::Array(vec![
                    $(ser_value::<$name, S::Error>(&self.$idx)?),+
                ]))
            }
        }

        impl<'de, $($name: for<'a> Deserialize<'a>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<($($name,)+), D::Error> {
                let items = de_seq(d, "a tuple")?;
                if items.len() != $len {
                    return Err(D::Error::custom(format!(
                        "invalid length {}, expected a tuple of size {}", items.len(), $len
                    )));
                }
                let mut items = items.into_iter();
                Ok(($(
                    de_value::<$name, D::Error>(items.next().expect("length checked"))?,
                )+))
            }
        }
    };
}
tuple!(2 => A.0, B.1);
tuple!(3 => A.0, B.1, C.2);

// ---- maps ----------------------------------------------------------------

/// A map key as JSON writes it: strings as they are, integers in decimal.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Option<Self>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Option<String> {
        Some(key.to_string())
    }
}

macro_rules! int_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Option<$t> {
                key.parse().ok()
            }
        }
    )*};
}
int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn ser_map<'a, K: MapKey + 'a, V: Serialize + 'a, S: Serializer>(
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
    s: S,
) -> Result<S::Ok, S::Error> {
    let mut out = Map::with_capacity(entries.len());
    for (k, v) in entries {
        out.push_unique(k.to_key(), ser_value::<V, S::Error>(v)?);
    }
    s.serialize_value(Value::Object(out))
}

/// The entries of a JSON object, keys parsed and values deserialized,
/// collected into whichever map type is wanted.
fn de_map<'de, K, V, D, M>(d: D) -> Result<M, D::Error>
where
    K: MapKey,
    V: for<'a> Deserialize<'a>,
    D: Deserializer<'de>,
    M: FromIterator<(K, V)>,
{
    let map = match d.deserialize_value()? {
        Value::Object(map) => map,
        other => return Err(D::Error::custom(invalid_type(&other, "a map"))),
    };
    map.into_iter()
        .map(|(k, v)| {
            let key = K::from_key(&k)
                .ok_or_else(|| D::Error::custom(format!("invalid map key `{k}`")))?;
            Ok((key, de_value(v)?))
        })
        .collect()
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ser_map(self.iter(), s)
    }
}

impl<'de, K: MapKey + Ord, V: for<'a> Deserialize<'a>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<BTreeMap<K, V>, D::Error> {
        de_map(d)
    }
}

impl<K: MapKey, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ser_map(self.iter(), s)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: MapKey + Eq + Hash,
    V: for<'a> Deserialize<'a>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<HashMap<K, V, H>, D::Error> {
        de_map(d)
    }
}

// ---- std::time -----------------------------------------------------------

/// serde's own representation: `{"secs": u64, "nanos": u32}`.
impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut out = Map::with_capacity(2);
        out.push_unique("secs".to_string(), Value::from(self.as_secs()));
        out.push_unique("nanos".to_string(), Value::from(self.subsec_nanos() as u64));
        s.serialize_value(Value::Object(out))
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let parse = |v: Value| -> Result<Duration, Error> {
            let mut map = crate::__private::expect_object(v, "struct Duration")?;
            let secs: u64 = crate::__private::field(&mut map, "secs")?;
            let nanos: u32 = crate::__private::field(&mut map, "nanos")?;
            secs.checked_add(u64::from(nanos / 1_000_000_000))
                .map(|secs| Duration::new(secs, nanos % 1_000_000_000))
                .ok_or_else(|| Error::new("overflow deserializing Duration"))
        };
        parse(d.deserialize_value()?).map_err(D::Error::custom)
    }
}
