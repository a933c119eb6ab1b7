//! The stand-in against the wire format the kessler service documents:
//! every line below is byte-for-byte what real serde / serde_json produce
//! for the same declarations (lines taken from README.md and the
//! `service::proto` unit tests, which use these shapes).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

fn is_false(b: &bool) -> bool {
    !*b
}

fn default_variant() -> String {
    "grid".to_string()
}

mod duration_ms {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_secs_f64() * 1e3).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let ms = f64::deserialize(d)?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(serde::de::Error::custom("negative duration"));
        }
        Ok(Duration::from_secs_f64(ms / 1e3))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Elements {
    a: f64,
    e: f64,
    incl: f64,
    raan: f64,
    argp: f64,
    mean_anomaly: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd")]
enum Request {
    #[serde(rename = "ADD")]
    Add { id: u64, elements: Elements },
    #[serde(rename = "SCREEN")]
    Screen,
    #[serde(rename = "ADVANCE")]
    Advance { dt: f64 },
    #[serde(rename = "CANCEL")]
    Cancel { id: String },
    #[serde(rename = "SUBSCRIBE")]
    Subscribe {
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        assets: Vec<u64>,
        #[serde(default, skip_serializing_if = "is_false")]
        all: bool,
    },
    #[serde(rename = "UNSUBSCRIBE")]
    Unsubscribe {
        #[serde(default, skip_serializing_if = "Option::is_none")]
        sub_id: Option<String>,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    req_id: Option<String>,
    #[serde(flatten)]
    request: Request,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum EventKind {
    New,
    Updated,
    Retired,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Variant {
    Grid,
    Hybrid,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CatalogAck {
    id: u64,
    index: u32,
    n_satellites: usize,
    epoch: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Response {
    ok: bool,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    error: Option<String>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    req_id: Option<String>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    catalog: Option<CatalogAck>,
    #[serde(default, skip_serializing_if = "is_false")]
    not_applied: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    kind: EventKind,
    variant: Variant,
    #[serde(with = "duration_ms")]
    total: Duration,
    #[serde(default = "default_variant")]
    label: String,
    #[serde(skip)]
    scratch: u32,
    #[serde(rename = "perShard")]
    per_shard: BTreeMap<u32, u64>,
    pair: (u32, u32),
    matrix: [[f64; 2]; 2],
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    extra: BTreeMap<String, f64>,
}

fn round_trip<T>(line: &str) -> T
where
    T: Serialize + serde::de::DeserializeOwned + std::fmt::Debug,
{
    let value: T = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(serde_json::to_string(&value).unwrap(), line, "{value:?}");
    value
}

#[test]
fn golden_request_lines_round_trip_byte_for_byte() {
    let add: Request = round_trip(
        r#"{"cmd":"ADD","id":42,"elements":{"a":7000.0,"e":0.001,"incl":0.9,"raan":1.0,"argp":0.3,"mean_anomaly":0.2}}"#,
    );
    assert!(matches!(add, Request::Add { id: 42, elements } if elements.a == 7000.0));
    assert_eq!(
        round_trip::<Request>(r#"{"cmd":"SCREEN"}"#),
        Request::Screen
    );
    assert_eq!(
        round_trip::<Request>(r#"{"cmd":"ADVANCE","dt":30.0}"#),
        Request::Advance { dt: 30.0 }
    );
    assert_eq!(
        round_trip::<Request>(r#"{"cmd":"SUBSCRIBE","all":true}"#),
        Request::Subscribe {
            assets: vec![],
            all: true
        }
    );
    round_trip::<Request>(r#"{"cmd":"SUBSCRIBE","assets":[17,42]}"#);
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"cmd":"SUBSCRIBE"}"#).unwrap(),
        Request::Subscribe {
            assets: vec![],
            all: false
        }
    );
    assert_eq!(
        round_trip::<Request>(r#"{"cmd":"UNSUBSCRIBE"}"#),
        Request::Unsubscribe { sub_id: None }
    );
}

#[test]
fn flattened_envelope_keeps_the_tag_and_the_req_id() {
    let plain: Envelope = round_trip(r#"{"cmd":"SCREEN"}"#);
    assert_eq!(plain.req_id, None);
    // Written in declaration order: req_id first, then the flattened request.
    let tagged: Envelope = round_trip(r#"{"req_id":"job-1","cmd":"SCREEN"}"#);
    assert_eq!(tagged.req_id.as_deref(), Some("job-1"));
    // Read in any order.
    let cancel: Envelope =
        serde_json::from_str(r#"{"cmd":"CANCEL","id":"job-1","req_id":"c-9"}"#).unwrap();
    assert_eq!(cancel.req_id.as_deref(), Some("c-9"));
    assert_eq!(
        cancel.request,
        Request::Cancel {
            id: "job-1".to_string()
        }
    );
}

#[test]
fn golden_response_lines_round_trip_byte_for_byte() {
    round_trip::<Response>(r#"{"ok":true}"#);
    round_trip::<Response>(r#"{"ok":false,"error":"nope"}"#);
    round_trip::<Response>(r#"{"ok":true,"req_id":"job-1"}"#);
    round_trip::<Response>(
        r#"{"ok":true,"catalog":{"id":42,"index":5000,"n_satellites":5001,"epoch":5001}}"#,
    );
    round_trip::<Response>(r#"{"ok":false,"error":"disk","not_applied":true}"#);
}

#[test]
fn malformed_requests_are_errors_not_defaults() {
    for bad in [
        r#"{"id":1}"#,
        r#"{"cmd":"NOPE"}"#,
        r#"{"cmd":"ADD","id":1}"#,
        r#"{"cmd":"ADVANCE"}"#,
        r#"{"cmd":"CANCEL","id":7}"#,
        r#"{"cmd":"ADVANCE","dt":"soon"}"#,
        r#"{"cmd":"SCREEN"} trailing"#,
        r#"{"cmd":"SCREEN""#,
        r#"["cmd"]"#,
        "",
    ] {
        assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad}");
    }
    // Unknown keys are ignored, as serde does without deny_unknown_fields.
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"cmd":"SCREEN","later":[1,{"x":null}]}"#).unwrap(),
        Request::Screen
    );
}

#[test]
fn every_supported_attribute_in_one_struct() {
    let value = Everything {
        kind: EventKind::Retired,
        variant: Variant::Hybrid,
        total: Duration::from_micros(1500),
        label: "x".to_string(),
        scratch: 9,
        per_shard: BTreeMap::from([(3, 10), (11, 2)]),
        pair: (1, 2),
        matrix: [[1.0, 0.5], [0.0, -2.0]],
        extra: BTreeMap::new(),
    };
    let line = serde_json::to_string(&value).unwrap();
    assert_eq!(
        line,
        r#"{"kind":"retired","variant":"Hybrid","total":1.5,"label":"x","perShard":{"3":10,"11":2},"pair":[1,2],"matrix":[[1.0,0.5],[0.0,-2.0]]}"#
    );
    let back: Everything = serde_json::from_str(&line).unwrap();
    assert_eq!(
        back,
        Everything {
            scratch: 0,
            ..value.clone()
        }
    );
    // `default = "fn"` fills a missing key; a negative duration is refused
    // by the `with` adapter's own check.
    let sparse = r#"{"kind":"new","variant":"Grid","total":0.0,"perShard":{},"pair":[0,0],"matrix":[[0.0,0.0],[0.0,0.0]]}"#;
    assert_eq!(
        serde_json::from_str::<Everything>(sparse).unwrap().label,
        "grid"
    );
    assert!(serde_json::from_str::<Everything>(
        &sparse.replace("0.0,\"perShard", "-1.0,\"perShard")
    )
    .is_err());
    assert!(serde_json::from_str::<Everything>(&sparse.replace("\"new\"", "\"New\"")).is_err());
}

#[test]
fn integers_are_exact_over_the_whole_64_bit_range() {
    let ids = vec![0u64, 1, (1 << 53) + 1, u64::MAX];
    let line = serde_json::to_string(&ids).unwrap();
    assert_eq!(line, "[0,1,9007199254740993,18446744073709551615]");
    assert_eq!(serde_json::from_str::<Vec<u64>>(&line).unwrap(), ids);
    let signed = vec![i64::MIN, -1, 0, i64::MAX];
    let line = serde_json::to_string(&signed).unwrap();
    assert_eq!(line, "[-9223372036854775808,-1,0,9223372036854775807]");
    assert_eq!(serde_json::from_str::<Vec<i64>>(&line).unwrap(), signed);
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u64>("-1").is_err());
    assert!(serde_json::from_str::<u64>("1.0").is_err());
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
}

#[test]
fn floats_print_like_ryu_and_read_back_bit_identical() {
    for (f, text) in [
        (7000.0, "7000.0"),
        (0.001, "0.001"),
        (-0.0, "-0.0"),
        (1e-5, "0.00001"),
        (1.5e-5, "0.000015"),
        (1e-6, "1e-6"),
        (1e-7, "1e-7"),
        (1e15, "1000000000000000.0"),
        (1e16, "1e16"),
        (1.2345678901234568e17, "1.2345678901234568e17"),
        (0.1 + 0.2, "0.30000000000000004"),
        (f64::MAX, "1.7976931348623157e308"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        (5e-324, "5e-324"),
    ] {
        assert_eq!(serde_json::to_string(&f).unwrap(), text);
        let back: f64 = serde_json::from_str(text).unwrap();
        assert_eq!(back.to_bits(), f.to_bits(), "{text}");
    }
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&f64::INFINITY).unwrap(), "null");
    assert!(serde_json::from_str::<f64>("null").is_err());
    assert!(serde_json::from_str::<f64>("1e999").is_err());
    for bad in ["01", "1.", ".5", "-", "1e", "+1", "0x10"] {
        assert!(serde_json::from_str::<f64>(bad).is_err(), "{bad}");
    }
}

#[test]
fn strings_escape_and_unescape() {
    let s = "quote\" back\\ nl\n tab\t bell\u{07} é 🛰".to_string();
    let line = serde_json::to_string(&s).unwrap();
    assert_eq!(line, "\"quote\\\" back\\\\ nl\\n tab\\t bell\\u0007 é 🛰\"");
    assert_eq!(serde_json::from_str::<String>(&line).unwrap(), s);
    assert_eq!(
        serde_json::from_str::<String>(r#""é 🛰 \/""#).unwrap(),
        "é 🛰 /"
    );
    for bad in [
        r#""\ud83d""#,
        r#""\udef0""#,
        r#""\x""#,
        "\"raw\nnewline\"",
        r#""open"#,
    ] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn pretty_printing_matches_serde_json() {
    let ack = Response {
        ok: true,
        error: None,
        req_id: None,
        catalog: Some(CatalogAck {
            id: 1,
            index: 0,
            n_satellites: 1,
            epoch: 1,
        }),
        not_applied: false,
    };
    assert_eq!(
        serde_json::to_string_pretty(&ack).unwrap(),
        "{\n  \"ok\": true,\n  \"catalog\": {\n    \"id\": 1,\n    \"index\": 0,\n    \"n_satellites\": 1,\n    \"epoch\": 1\n  }\n}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&(Vec::<u8>::new(), vec![1u8])).unwrap(),
        "[\n  [],\n  [\n    1\n  ]\n]"
    );
}

#[test]
fn value_navigation_and_writer_reader_entry_points() {
    let v: serde_json::Value =
        serde_json::from_str(r#"{"a":{"b":[1,2.5,"x",null,true]},"n":18446744073709551615}"#)
            .unwrap();
    assert_eq!(v["a"]["b"][0].as_u64(), Some(1));
    assert_eq!(v["a"]["b"][1].as_f64(), Some(2.5));
    assert_eq!(v["a"]["b"][2].as_str(), Some("x"));
    assert!(v["a"]["b"][3].is_null());
    assert_eq!(v["a"]["b"][4].as_bool(), Some(true));
    assert_eq!(v["n"].as_u64(), Some(u64::MAX));
    assert!(v["missing"]["deeper"].is_null());

    let mut bytes = Vec::new();
    serde_json::to_writer(&mut bytes, &v).unwrap();
    let back: serde_json::Value = serde_json::from_reader(bytes.as_slice()).unwrap();
    assert_eq!(back, v);

    let typed: CatalogAck = serde_json::from_value(
        serde_json::to_value(&CatalogAck {
            id: 5,
            index: 4,
            n_satellites: 3,
            epoch: 2,
        })
        .unwrap(),
    )
    .unwrap();
    assert_eq!(typed.id, 5);

    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
}
