//! Offline stand-in for `serde` 1: the `Serialize` / `Deserialize` traits,
//! their derive macros and impls for the std types the kessler crates put
//! on the wire.
//!
//! The real serde streams values through a visitor protocol. This stand-in
//! goes through one self-describing tree instead — [`value::Value`] — which
//! is enough for a JSON-only code base: a `Serializer` accepts a finished
//! `Value`, a `Deserializer` gives one up. Code written against the usual
//! signatures (`fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok,
//! S::Error>`, `#[serde(with = "module")]` adapters, `de::Error::custom`)
//! compiles unchanged.

mod impls;
pub mod value;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use value::Value;

/// A data structure that can be turned into a [`Value`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for one serialized value.
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    /// Consumes the finished tree. The one primitive every `Serialize`
    /// impl ends in.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A data structure that can be rebuilt from a [`Value`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;

    /// What a struct field of this type becomes when its key is absent:
    /// an error, except for `Option`, which reads as `None`.
    #[doc(hidden)]
    fn __missing_field(field: &'static str) -> Result<Self, __private::Error> {
        Err(__private::Error::new(format!("missing field `{field}`")))
    }
}

/// A source of one serialized value.
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    /// Gives up the parsed tree. The one primitive every `Deserialize`
    /// impl starts from.
    fn deserialize_value(self) -> Result<Value, Self::Error>;
}

pub mod ser {
    pub use crate::{Serialize, Serializer};
    use std::fmt::Display;

    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }
}

pub mod de {
    pub use crate::{Deserialize, Deserializer};
    use std::fmt::Display;

    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

/// Support code for `serde_derive`, `serde_json` and the impls in this
/// crate. Not part of the serde surface.
#[doc(hidden)]
pub mod __private {
    use crate::value::{Map, Value};
    use crate::{de, ser, Deserialize, Deserializer, Serialize, Serializer};
    use std::fmt::{self, Display};

    /// The concrete error of the in-memory (de)serializers.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl Error {
        pub fn new(msg: impl Into<String>) -> Error {
            Error(msg.into())
        }
    }

    impl Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl ser::Error for Error {
        fn custom<T: Display>(msg: T) -> Error {
            Error(msg.to_string())
        }
    }

    impl de::Error for Error {
        fn custom<T: Display>(msg: T) -> Error {
            Error(msg.to_string())
        }
    }

    /// Serializer whose output is the tree itself.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Error;

        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
        }
    }

    /// Deserializer over an owned tree.
    pub struct ValueDeserializer(pub Value);

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = Error;

        fn deserialize_value(self) -> Result<Value, Error> {
            Ok(self.0)
        }
    }

    pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }

    pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer(value))
    }

    /// `to_value` with the error moved into the caller's serializer error.
    pub fn ser_value<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Value, E> {
        to_value(value).map_err(E::custom)
    }

    /// `from_value` with the error moved into the caller's deserializer
    /// error.
    pub fn de_value<T: for<'de> Deserialize<'de>, E: de::Error>(value: Value) -> Result<T, E> {
        from_value(value).map_err(E::custom)
    }

    pub fn type_name(value: &Value) -> &'static str {
        match value {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(n) if n.is_f64() => "a floating point number",
            Value::Number(_) => "an integer",
            Value::String(_) => "a string",
            Value::Array(_) => "a sequence",
            Value::Object(_) => "a map",
        }
    }

    pub fn invalid_type(value: &Value, expected: &str) -> Error {
        Error(format!(
            "invalid type: {}, expected {expected}",
            type_name(value)
        ))
    }

    pub fn expect_object(value: Value, expected: &str) -> Result<Map, Error> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(invalid_type(&other, expected)),
        }
    }

    fn in_field(field: &'static str, e: Error) -> Error {
        Error(format!("{}: in field `{field}`", e.0))
    }

    /// A struct field: present → parsed, absent → the type's own rule.
    pub fn field<T: for<'de> Deserialize<'de>>(
        map: &mut Map,
        key: &'static str,
    ) -> Result<T, Error> {
        match map.remove(key) {
            Some(v) => from_value(v).map_err(|e| in_field(key, e)),
            None => T::__missing_field(key),
        }
    }

    /// A `#[serde(default)]` / `#[serde(default = "path")]` field.
    pub fn field_or<T: for<'de> Deserialize<'de>>(
        map: &mut Map,
        key: &'static str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match map.remove(key) {
            Some(v) => from_value(v).map_err(|e| in_field(key, e)),
            None => Ok(default()),
        }
    }

    /// A `#[serde(with = "module")]` field; `default` is `None` when the
    /// field is required.
    pub fn field_with<T>(
        map: &mut Map,
        key: &'static str,
        parse: impl FnOnce(ValueDeserializer) -> Result<T, Error>,
        default: Option<fn() -> T>,
    ) -> Result<T, Error> {
        match (map.remove(key), default) {
            (Some(v), _) => parse(ValueDeserializer(v)).map_err(|e| in_field(key, e)),
            (None, Some(default)) => Ok(default()),
            (None, None) => Err(Error(format!("missing field `{key}`"))),
        }
    }

    /// The members of a `#[serde(flatten)]` field, spliced into the parent.
    pub fn flatten_into<T: Serialize + ?Sized>(out: &mut Map, value: &T) -> Result<(), Error> {
        match to_value(value)? {
            Value::Object(inner) => {
                for (k, v) in inner {
                    out.insert(k, v);
                }
                Ok(())
            }
            other => Err(Error(format!(
                "can only flatten structs and maps, got {}",
                type_name(&other)
            ))),
        }
    }

    /// The tag of an internally tagged enum.
    pub fn take_tag(map: &mut Map, tag: &'static str) -> Result<String, Error> {
        match map.remove(tag) {
            Some(Value::String(s)) => Ok(s),
            Some(other) => Err(invalid_type(&other, "a string variant tag")),
            None => Err(Error(format!("missing field `{tag}`"))),
        }
    }

    pub fn unknown_variant(found: &str, expected: &[&str]) -> Error {
        Error(format!(
            "unknown variant `{found}`, expected one of {}",
            expected
                .iter()
                .map(|v| format!("`{v}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}
