//! Offline stand-in for `serde_json` 1: JSON text ⇄ the `serde` stand-in's
//! [`Value`] tree ⇄ any `Serialize` / `Deserialize` type.
//!
//! Output is byte-compatible with the real crate for what the kessler
//! crates write: compact form without spaces, struct fields in declaration
//! order, integers exact over the whole `u64` / `i64` range, floats in
//! their shortest round-trip form with `.0` on integral values and an
//! exponent outside `[1e-5, 1e16)`, NaN and infinities as `null`, two-space
//! pretty printing.

mod read;
mod write;

pub use serde::value::{Map, Number, Value};

use serde::__private as private;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::{self, Display};
use std::io;

/// Any failure to write or read JSON: syntax, data shape, or I/O.
#[derive(Debug)]
pub struct Error {
    message: String,
}

pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }

    pub(crate) fn syntax(message: &str, input: &[u8], at: usize) -> Error {
        let at = at.min(input.len());
        let line = 1 + input[..at].iter().filter(|&&b| b == b'\n').count();
        let column = 1 + input[..at]
            .iter()
            .rev()
            .take_while(|&&b| b != b'\n')
            .count();
        Error::new(format!("{message} at line {line} column {column}"))
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::new(msg.to_string())
    }
}

impl From<private::Error> for Error {
    fn from(e: private::Error) -> Error {
        Error::new(e.to_string())
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::new(format!("io error: {e}"))
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(private::to_value(value)?)
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    Ok(private::from_value(value)?)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(128);
    write::compact(&to_value(value)?, &mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(256);
    write::pretty(&to_value(value)?, 0, &mut out);
    Ok(out)
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

pub fn from_slice<T: DeserializeOwned>(input: &[u8]) -> Result<T> {
    from_value(read::parse(input)?)
}

pub fn from_str<T: DeserializeOwned>(input: &str) -> Result<T> {
    from_slice(input.as_bytes())
}

pub fn from_reader<R: io::Read, T: DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    from_slice(&input)
}
