//! JSON-lines wire protocol.
//!
//! One JSON object per line in each direction. Requests carry a `"cmd"`
//! tag; responses always carry `"ok"` plus a command-specific payload
//! field. Everything rides on `serde_json` and std TCP — no framing
//! library, no async runtime — so `nc` is a perfectly good client:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! {"cmd":"ADD","id":42,"elements":{"a":7000.0,"e":0.001,"incl":0.9,"raan":1.0,"argp":0.3,"mean_anomaly":0.2}}
//! {"ok":true,"catalog":{"id":42,"index":0,"n_satellites":1,"epoch":1}}
//! {"cmd":"SCREEN"}
//! {"ok":true,"screen":{"variant":"grid","n_satellites":1,...}}
//! ```
//!
//! Every request may additionally carry a client-chosen `"req_id"` string
//! (see [`Envelope`]); the response echoes it, and `CANCEL <req_id>`
//! aborts the matching queued or in-flight screening job. Screen
//! responses carry the catalog `epoch` their snapshot was captured at and
//! a `stale` flag set when a newer result was adopted first.

use crate::error::ServiceError;
use kessler_core::timing::PhaseTimings;
use kessler_core::{Conjunction, FilterStatsSnapshot, ScreeningReport};
use kessler_orbits::KeplerElements;
use serde::{Deserialize, Serialize};

/// How many worst-case (smallest-PCA) conjunctions a screen response
/// carries inline; the full set stays server-side.
pub const TOP_CONJUNCTIONS: usize = 16;

/// Orbital elements as they appear on the wire: km and radians.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElementsSpec {
    /// Semi-major axis, km.
    pub a: f64,
    /// Eccentricity.
    pub e: f64,
    /// Inclination, rad.
    pub incl: f64,
    /// Right ascension of the ascending node, rad.
    pub raan: f64,
    /// Argument of perigee, rad.
    pub argp: f64,
    /// Mean anomaly at epoch, rad.
    pub mean_anomaly: f64,
}

impl ElementsSpec {
    /// Validate into proper elements (the server never stores unvalidated
    /// client input).
    pub fn into_elements(self) -> Result<KeplerElements, ServiceError> {
        KeplerElements::new(
            self.a,
            self.e,
            self.incl,
            self.raan,
            self.argp,
            self.mean_anomaly,
        )
        .map_err(|e| ServiceError::InvalidElements(e.to_string()))
    }

    pub fn from_elements(el: &KeplerElements) -> ElementsSpec {
        ElementsSpec {
            a: el.semi_major_axis,
            e: el.eccentricity,
            incl: el.inclination,
            raan: el.raan,
            argp: el.arg_perigee,
            mean_anomaly: el.mean_anomaly,
        }
    }
}

/// Client → server commands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd")]
pub enum Request {
    /// Insert a new satellite under a stable external id.
    #[serde(rename = "ADD")]
    Add { id: u64, elements: ElementsSpec },
    /// Replace the elements of an existing satellite.
    #[serde(rename = "UPDATE")]
    Update { id: u64, elements: ElementsSpec },
    /// Remove a satellite.
    #[serde(rename = "REMOVE")]
    Remove { id: u64 },
    /// Cold full screen of the current catalog.
    #[serde(rename = "SCREEN")]
    Screen,
    /// Delta re-screen of satellites changed since the last screen.
    #[serde(rename = "DELTA")]
    Delta,
    /// Slide the screening window forward by `dt` seconds.
    #[serde(rename = "ADVANCE")]
    Advance { dt: f64 },
    /// Service status and last-screen timings.
    #[serde(rename = "STATUS")]
    Status,
    /// Rolling metrics: per-phase quantiles, durability latencies,
    /// request counters.
    #[serde(rename = "METRICS")]
    Metrics,
    /// Abort the queued or in-flight screening job whose envelope carried
    /// this `req_id`.
    #[serde(rename = "CANCEL")]
    Cancel { id: String },
    /// Register this connection for conjunction push events: either an
    /// explicit asset-id set (events involving any listed id) or `all`.
    /// The subscription lives as long as the connection does.
    #[serde(rename = "SUBSCRIBE")]
    Subscribe {
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        assets: Vec<u64>,
        #[serde(default, skip_serializing_if = "is_false")]
        all: bool,
    },
    /// Tear down one subscription by id, or every subscription on this
    /// connection when `sub_id` is omitted.
    #[serde(rename = "UNSUBSCRIBE")]
    Unsubscribe {
        #[serde(default, skip_serializing_if = "Option::is_none")]
        sub_id: Option<String>,
    },
    /// Stop the server.
    #[serde(rename = "SHUTDOWN")]
    Shutdown,
}

/// A request plus the optional client-chosen `req_id` tag, flattened on
/// the wire: `{"cmd":"SCREEN","req_id":"job-1"}`. Responses echo the id,
/// which is also the handle `CANCEL` takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub req_id: Option<String>,
    #[serde(flatten)]
    pub request: Request,
}

impl Request {
    /// `true` for commands that mutate daemon state and therefore must be
    /// written to the WAL before they are acknowledged. SCREEN/DELTA/
    /// ADVANCE count: they move the engine's warm set and counters, which
    /// replay must reproduce.
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            Request::Status
                | Request::Metrics
                | Request::Cancel { .. }
                | Request::Subscribe { .. }
                | Request::Unsubscribe { .. }
                | Request::Shutdown
        )
    }

    /// The wire command word, for per-command metrics counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Add { .. } => "ADD",
            Request::Update { .. } => "UPDATE",
            Request::Remove { .. } => "REMOVE",
            Request::Screen => "SCREEN",
            Request::Delta => "DELTA",
            Request::Advance { .. } => "ADVANCE",
            Request::Status => "STATUS",
            Request::Metrics => "METRICS",
            Request::Cancel { .. } => "CANCEL",
            Request::Subscribe { .. } => "SUBSCRIBE",
            Request::Unsubscribe { .. } => "UNSUBSCRIBE",
            Request::Shutdown => "SHUTDOWN",
        }
    }
}

/// Server → client reply.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    pub ok: bool,
    /// Echo of the request's `req_id`, when the client supplied one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub req_id: Option<String>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// `true` on errors where the server guarantees the request changed
    /// nothing (degraded-mode rejection, full queue, rolled-back append):
    /// a client may retry such a request without risking a double-apply.
    #[serde(default, skip_serializing_if = "is_false")]
    pub not_applied: bool,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub catalog: Option<CatalogAck>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub screen: Option<ScreenSummary>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub advance: Option<AdvanceAck>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub status: Option<StatusInfo>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<crate::metrics::MetricsSnapshot>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub subscription: Option<SubscriptionAck>,
}

impl Response {
    pub fn ack() -> Response {
        Response {
            ok: true,
            ..Response::default()
        }
    }

    pub fn error(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(message.into()),
            ..Response::default()
        }
    }

    /// An error response that additionally guarantees the request was not
    /// applied, so the client may safely retry it.
    pub fn rejected(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(message.into()),
            not_applied: true,
            ..Response::default()
        }
    }

    pub fn with_catalog(ack: CatalogAck) -> Response {
        Response {
            ok: true,
            catalog: Some(ack),
            ..Response::default()
        }
    }

    pub fn with_screen(summary: ScreenSummary) -> Response {
        Response {
            ok: true,
            screen: Some(summary),
            ..Response::default()
        }
    }

    pub fn with_advance(ack: AdvanceAck) -> Response {
        Response {
            ok: true,
            advance: Some(ack),
            ..Response::default()
        }
    }

    pub fn with_status(status: StatusInfo) -> Response {
        Response {
            ok: true,
            status: Some(status),
            ..Response::default()
        }
    }

    pub fn with_metrics(metrics: crate::metrics::MetricsSnapshot) -> Response {
        Response {
            ok: true,
            metrics: Some(metrics),
            ..Response::default()
        }
    }

    pub fn with_subscription(ack: SubscriptionAck) -> Response {
        Response {
            ok: true,
            subscription: Some(ack),
            ..Response::default()
        }
    }
}

/// Acknowledgement of a SUBSCRIBE or UNSUBSCRIBE.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriptionAck {
    /// The subscription this request created or removed. On an
    /// UNSUBSCRIBE with no `sub_id` (drop everything) this is `"all"`.
    pub sub_id: String,
    /// `true` when the subscription matches every asset.
    #[serde(default, skip_serializing_if = "is_false")]
    pub all: bool,
    /// Number of asset ids the subscription filters on (0 for `all`).
    pub assets: usize,
    /// Subscriptions active on this connection after the request.
    pub active: usize,
}

/// The wire discriminator carried by every pushed event line. Responses
/// never carry a `"push"` key, so its presence alone classifies a line.
pub const PUSH_CONJUNCTION: &str = "conjunction";

/// What happened to a conjunction pair across one committed screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum EventKind {
    /// The pair entered the maintained set.
    New,
    /// The pair stayed but its conjunction geometry changed.
    Updated,
    /// The pair left the maintained set.
    Retired,
}

/// Server → subscriber push: one conjunction-pair delta event, emitted
/// when a screen commit changes the maintained pair set. Rides the same
/// JSON-lines stream as responses, distinguished by the `"push"` key
/// (see [`PUSH_CONJUNCTION`]); `id_lo`/`id_hi` are *external* asset ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PushEvent {
    /// Always [`PUSH_CONJUNCTION`] for conjunction delta events.
    pub push: String,
    /// The subscription this event matched.
    pub sub_id: String,
    pub kind: EventKind,
    /// Smaller external asset id of the pair.
    pub id_lo: u64,
    /// Larger external asset id of the pair.
    pub id_hi: u64,
    /// Time of closest approach of the pair's representative (smallest
    /// PCA) conjunction, s. For `retired`, the last known value.
    pub tca: f64,
    /// Point of closest approach of the representative conjunction, km.
    pub pca_km: f64,
    /// Conjunction events the pair has in the new maintained set
    /// (0 for `retired`).
    pub conjunctions: usize,
    /// Catalog epoch of the screen that produced the event.
    pub epoch: u64,
    /// `true` when the event came from a degraded-mode (ephemeral)
    /// screen: it describes the current catalog but was not adopted as
    /// the warm set and will not survive a restart.
    #[serde(default, skip_serializing_if = "is_false")]
    pub ephemeral: bool,
}

/// Acknowledgement of a catalog mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogAck {
    /// External id the command addressed.
    pub id: u64,
    /// Dense index the satellite occupies (for REMOVE: occupied).
    pub index: u32,
    /// Catalog size after the mutation.
    pub n_satellites: usize,
    /// Catalog epoch after the mutation.
    pub epoch: u64,
}

/// Summary of a SCREEN/DELTA run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScreenSummary {
    pub variant: String,
    pub n_satellites: usize,
    pub candidate_pairs: usize,
    pub conjunctions: usize,
    pub colliding_pairs: usize,
    /// Per-phase wall times, fractional milliseconds on the wire.
    pub timings: PhaseTimings,
    /// The up-to-[`TOP_CONJUNCTIONS`] smallest-PCA conjunctions.
    pub top: Vec<Conjunction>,
    /// Catalog epoch the screen's snapshot was captured at.
    #[serde(default)]
    pub epoch: u64,
    /// `true` when a result for a newer epoch was adopted before this one
    /// committed; the payload still describes the captured epoch, but the
    /// daemon's maintained set was not replaced by it.
    #[serde(default)]
    pub stale: bool,
    /// Orbital filter-chain counters, present on hybrid screens only.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub filter_stats: Option<FilterStatsSnapshot>,
    /// `true` when the screen ran in degraded mode: the result describes
    /// the current catalog but was not adopted as the warm set and will
    /// not survive a restart.
    #[serde(default, skip_serializing_if = "is_false")]
    pub ephemeral: bool,
    /// Always `None`: extraction runs on one grid whatever the snapshot
    /// layout, so there is no per-shard breakdown to report. Kept for the
    /// clients that still read it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shards: Option<ShardSummary>,
}

fn is_false(flag: &bool) -> bool {
    !*flag
}

impl ScreenSummary {
    pub fn from_report(report: &ScreeningReport) -> ScreenSummary {
        let mut top: Vec<Conjunction> = report.conjunctions.clone();
        top.sort_by(|a, b| a.pca_km.total_cmp(&b.pca_km));
        top.truncate(TOP_CONJUNCTIONS);
        ScreenSummary {
            variant: report.variant.clone(),
            n_satellites: report.n_satellites,
            candidate_pairs: report.candidate_pairs,
            conjunctions: report.conjunction_count(),
            colliding_pairs: report.colliding_pairs().len(),
            timings: report.timings,
            top,
            epoch: 0,
            stale: false,
            filter_stats: report.filter_stats,
            ephemeral: false,
            shards: None,
        }
    }
}

/// A screen's mirror copies among its grid inserts. Nothing fills it:
/// screens run on one grid (see [`ScreenSummary::shards`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Grid inserts into a shard that is not the satellite's home.
    pub mirrored_inserts: u64,
    /// Total grid inserts across shards and steps.
    pub total_inserts: u64,
}

/// Acknowledgement of an ADVANCE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdvanceAck {
    /// Conjunctions that slid out of the window.
    pub retired: usize,
    /// New conjunctions discovered in the exposed tail.
    pub discovered: usize,
    /// Absolute `(start, end)` of the window after the advance, s.
    pub window: (f64, f64),
}

/// STATUS payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusInfo {
    pub n_satellites: usize,
    /// Screening variant the daemon serves with ("grid" or "hybrid").
    /// Empty on payloads from servers predating the field.
    #[serde(default)]
    pub variant: String,
    /// Catalog mutation epoch.
    pub epoch: u64,
    /// Satellites changed since the last screen (what DELTA would process).
    pub pending_changes: usize,
    /// Conjunctions in the maintained set.
    pub live_conjunctions: usize,
    pub full_screens: u64,
    pub delta_screens: u64,
    /// Requests served since startup (all commands).
    pub requests_served: u64,
    pub uptime_ms: f64,
    /// Absolute `(start, end)` of the current screening window, s.
    pub window: (f64, f64),
    /// Variant and per-phase timings of the most recent screen, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub last_screen: Option<LastScreen>,
    /// `true` when this process restored catalog state from a snapshot
    /// and/or WAL tail rather than starting empty.
    #[serde(default)]
    pub recovered: bool,
    /// Operating mode: `"normal"`, or `"degraded"` while persistence is
    /// down and mutations are being rejected. Empty on payloads from
    /// servers predating the field, and on ephemeral (no-persistence)
    /// daemons it is always `"normal"`.
    #[serde(default)]
    pub mode: String,
    /// One-line metrics digest (full METRICS payload via the METRICS verb).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<String>,
}

/// Per-request observability hook: what the previous screen cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LastScreen {
    pub variant: String,
    pub timings: PhaseTimings,
    /// Filter-chain counters of that screen (hybrid only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub filter_stats: Option<FilterStatsSnapshot>,
}

impl LastScreen {
    pub fn from_report(report: &ScreeningReport) -> LastScreen {
        LastScreen {
            variant: report.variant.clone(),
            timings: report.timings,
            filter_stats: report.filter_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let spec = ElementsSpec {
            a: 7_000.0,
            e: 0.001,
            incl: 0.9,
            raan: 1.0,
            argp: 0.3,
            mean_anomaly: 0.2,
        };
        let requests = vec![
            Request::Add {
                id: 42,
                elements: spec,
            },
            Request::Update {
                id: 42,
                elements: spec,
            },
            Request::Remove { id: 42 },
            Request::Screen,
            Request::Delta,
            Request::Advance { dt: 60.0 },
            Request::Status,
            Request::Metrics,
            Request::Cancel {
                id: "job-1".to_string(),
            },
            Request::Subscribe {
                assets: vec![42, 99],
                all: false,
            },
            Request::Subscribe {
                assets: Vec::new(),
                all: true,
            },
            Request::Unsubscribe {
                sub_id: Some("sub-1".to_string()),
            },
            Request::Unsubscribe { sub_id: None },
            Request::Shutdown,
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "json: {json}");
        }
    }

    #[test]
    fn request_tag_is_the_command_word() {
        let json = serde_json::to_string(&Request::Screen).unwrap();
        assert_eq!(json, r#"{"cmd":"SCREEN"}"#);
        let req: Request = serde_json::from_str(r#"{"cmd":"ADVANCE","dt":30.0}"#).unwrap();
        assert_eq!(req, Request::Advance { dt: 30.0 });
    }

    #[test]
    fn envelopes_flatten_over_requests_and_default_req_id() {
        // No req_id on the wire: plain request, nothing extra serialized.
        let env: Envelope = serde_json::from_str(r#"{"cmd":"SCREEN"}"#).unwrap();
        assert_eq!(env.req_id, None);
        assert_eq!(env.request, Request::Screen);
        let json = serde_json::to_string(&env).unwrap();
        assert_eq!(json, r#"{"cmd":"SCREEN"}"#);
        // Tagged request round-trips with payload fields intact.
        let env = Envelope {
            req_id: Some("job-1".to_string()),
            request: Request::Advance { dt: 30.0 },
        };
        let json = serde_json::to_string(&env).unwrap();
        let back: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env, "json: {json}");
        // req_id order on the wire does not matter.
        let back: Envelope =
            serde_json::from_str(r#"{"cmd":"CANCEL","id":"job-1","req_id":"c-9"}"#).unwrap();
        assert_eq!(back.req_id.as_deref(), Some("c-9"));
        assert_eq!(
            back.request,
            Request::Cancel {
                id: "job-1".to_string()
            }
        );
    }

    #[test]
    fn responses_echo_req_ids_only_when_present() {
        let mut resp = Response::ack();
        resp.req_id = Some("job-1".to_string());
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(json, r#"{"ok":true,"req_id":"job-1"}"#);
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.req_id.as_deref(), Some("job-1"));
    }

    #[test]
    fn screen_summaries_default_epoch_and_stale_for_old_payloads() {
        let summary = ScreenSummary {
            variant: "grid".to_string(),
            n_satellites: 1,
            candidate_pairs: 0,
            conjunctions: 0,
            colliding_pairs: 0,
            timings: PhaseTimings::default(),
            top: Vec::new(),
            epoch: 9,
            stale: true,
            filter_stats: None,
            ephemeral: false,
            shards: None,
        };
        let mut value = serde_json::to_value(&summary).unwrap();
        if let serde_json::Value::Object(map) = &mut value {
            map.remove("epoch");
            map.remove("stale");
        }
        let back: ScreenSummary = serde_json::from_value(value).unwrap();
        assert_eq!(back.epoch, 0);
        assert!(!back.stale);
        assert!(back.filter_stats.is_none());
    }

    #[test]
    fn filter_stats_and_variant_fields_roundtrip_and_default() {
        let stats = FilterStatsSnapshot {
            tested: 10,
            excluded_apsis: 3,
            excluded_path: 2,
            excluded_time: 1,
            coplanar: 1,
            kept: 3,
        };
        let summary = ScreenSummary {
            variant: "hybrid".to_string(),
            n_satellites: 4,
            candidate_pairs: 6,
            conjunctions: 1,
            colliding_pairs: 1,
            timings: PhaseTimings::default(),
            top: Vec::new(),
            epoch: 2,
            stale: false,
            filter_stats: Some(stats),
            ephemeral: false,
            shards: None,
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: ScreenSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.filter_stats, Some(stats), "json: {json}");

        let last = LastScreen {
            variant: "hybrid".to_string(),
            timings: PhaseTimings::default(),
            filter_stats: Some(stats),
        };
        let json = serde_json::to_string(&last).unwrap();
        let back: LastScreen = serde_json::from_str(&json).unwrap();
        assert_eq!(back.filter_stats, Some(stats), "json: {json}");
        // Absent on the wire (grid screens, old servers) → None/empty.
        let grid_last = LastScreen {
            variant: "grid".to_string(),
            timings: PhaseTimings::default(),
            filter_stats: None,
        };
        let json = serde_json::to_string(&grid_last).unwrap();
        assert!(!json.contains("filter_stats"), "json: {json}");
        let back: LastScreen = serde_json::from_str(&json).unwrap();
        assert!(back.filter_stats.is_none());
        let status_json = r#"{"n_satellites":1,"epoch":1,"pending_changes":0,
            "live_conjunctions":0,"full_screens":0,"delta_screens":0,
            "requests_served":0,"uptime_ms":0.0,"window":[0.0,1.0]}"#;
        let back: StatusInfo = serde_json::from_str(status_json).unwrap();
        assert_eq!(back.variant, "", "pre-variant payloads default to empty");
        assert_eq!(back.mode, "", "pre-mode payloads default to empty");
    }

    #[test]
    fn not_applied_and_ephemeral_are_omitted_when_false() {
        // A plain error carries no not_applied key; a rejection does.
        let json = serde_json::to_string(&Response::error("nope")).unwrap();
        assert!(!json.contains("not_applied"), "json: {json}");
        let rejected = Response::rejected("service degraded (read-only): disk gone");
        assert!(!rejected.ok && rejected.not_applied);
        let json = serde_json::to_string(&rejected).unwrap();
        assert!(json.contains(r#""not_applied":true"#), "json: {json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(back.not_applied);
        // Old servers never send the key: it defaults to false.
        let back: Response = serde_json::from_str(r#"{"ok":false,"error":"x"}"#).unwrap();
        assert!(!back.not_applied);

        let mut summary = ScreenSummary {
            variant: "grid".to_string(),
            n_satellites: 1,
            candidate_pairs: 0,
            conjunctions: 0,
            colliding_pairs: 0,
            timings: PhaseTimings::default(),
            top: Vec::new(),
            epoch: 1,
            stale: false,
            filter_stats: None,
            ephemeral: false,
            shards: None,
        };
        let json = serde_json::to_string(&summary).unwrap();
        assert!(!json.contains("ephemeral"), "json: {json}");
        summary.ephemeral = true;
        let json = serde_json::to_string(&summary).unwrap();
        assert!(json.contains(r#""ephemeral":true"#), "json: {json}");
        let back: ScreenSummary = serde_json::from_str(&json).unwrap();
        assert!(back.ephemeral);
    }

    #[test]
    fn responses_omit_empty_payloads() {
        let json = serde_json::to_string(&Response::ack()).unwrap();
        assert_eq!(json, r#"{"ok":true}"#);
        let json = serde_json::to_string(&Response::error("nope")).unwrap();
        assert_eq!(json, r#"{"ok":false,"error":"nope"}"#);
        let back: Response = serde_json::from_str(r#"{"ok":true}"#).unwrap();
        assert!(back.ok && back.error.is_none() && back.screen.is_none());
    }

    #[test]
    fn every_response_payload_roundtrips() {
        let conj = Conjunction {
            id_lo: 1,
            id_hi: 2,
            tca: 120.5,
            pca_km: 3.25,
        };
        let payloads = vec![
            Response::with_catalog(CatalogAck {
                id: 42,
                index: 0,
                n_satellites: 1,
                epoch: 1,
            }),
            Response::with_screen(ScreenSummary {
                variant: "grid".to_string(),
                n_satellites: 100,
                candidate_pairs: 12,
                conjunctions: 3,
                colliding_pairs: 2,
                timings: PhaseTimings::default(),
                top: vec![conj],
                epoch: 5,
                stale: false,
                filter_stats: None,
                ephemeral: false,
                shards: None,
            }),
            Response::with_advance(AdvanceAck {
                retired: 2,
                discovered: 1,
                window: (60.0, 660.0),
            }),
            Response::with_status(StatusInfo {
                n_satellites: 100,
                variant: "grid".to_string(),
                epoch: 7,
                pending_changes: 3,
                live_conjunctions: 5,
                full_screens: 1,
                delta_screens: 4,
                requests_served: 9,
                uptime_ms: 1234.5,
                window: (0.0, 600.0),
                last_screen: Some(LastScreen {
                    variant: "grid-delta".to_string(),
                    timings: PhaseTimings::default(),
                    filter_stats: None,
                }),
                recovered: true,
                mode: "normal".to_string(),
                metrics: Some("no screens yet; queue hw 0".to_string()),
            }),
            Response::with_metrics(crate::metrics::MetricsSnapshot::default()),
        ];
        for response in payloads {
            let json = serde_json::to_string(&response).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back.ok, response.ok);
            assert_eq!(back.catalog, response.catalog, "json: {json}");
            assert_eq!(
                back.screen
                    .as_ref()
                    .map(|s| (&s.variant, s.conjunctions, s.top.clone())),
                response
                    .screen
                    .as_ref()
                    .map(|s| (&s.variant, s.conjunctions, s.top.clone())),
                "json: {json}"
            );
            assert_eq!(back.advance, response.advance, "json: {json}");
            assert_eq!(
                back.status
                    .as_ref()
                    .map(|s| (s.n_satellites, s.epoch, s.window)),
                response
                    .status
                    .as_ref()
                    .map(|s| (s.n_satellites, s.epoch, s.window)),
                "json: {json}"
            );
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        // Not JSON at all.
        assert!(serde_json::from_str::<Request>("nonsense {{{").is_err());
        // Valid JSON, no cmd tag.
        assert!(serde_json::from_str::<Request>(r#"{"id":1}"#).is_err());
        // Unknown command word.
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"NOPE"}"#).is_err());
        // Known command, missing required field.
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"ADD","id":1}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"ADVANCE"}"#).is_err());
        // Wrong field type.
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"REMOVE","id":"x"}"#).is_err());
    }

    #[test]
    fn mutations_are_exactly_the_wal_worthy_commands() {
        let spec = ElementsSpec {
            a: 7_000.0,
            e: 0.0,
            incl: 0.0,
            raan: 0.0,
            argp: 0.0,
            mean_anomaly: 0.0,
        };
        assert!(Request::Add {
            id: 1,
            elements: spec
        }
        .is_mutation());
        assert!(Request::Update {
            id: 1,
            elements: spec
        }
        .is_mutation());
        assert!(Request::Remove { id: 1 }.is_mutation());
        assert!(Request::Screen.is_mutation());
        assert!(Request::Delta.is_mutation());
        assert!(Request::Advance { dt: 1.0 }.is_mutation());
        assert!(!Request::Status.is_mutation());
        assert!(!Request::Metrics.is_mutation());
        assert!(!Request::Cancel {
            id: "job-1".to_string()
        }
        .is_mutation());
        assert!(!Request::Subscribe {
            assets: vec![1],
            all: false
        }
        .is_mutation());
        assert!(!Request::Unsubscribe { sub_id: None }.is_mutation());
        assert!(!Request::Shutdown.is_mutation());
    }

    #[test]
    fn subscribe_requests_default_their_optional_fields() {
        // Bare SUBSCRIBE parses (the server rejects it semantically).
        let req: Request = serde_json::from_str(r#"{"cmd":"SUBSCRIBE"}"#).unwrap();
        assert_eq!(
            req,
            Request::Subscribe {
                assets: Vec::new(),
                all: false
            }
        );
        // `all` subscriptions serialize without an empty assets array.
        let json = serde_json::to_string(&Request::Subscribe {
            assets: Vec::new(),
            all: true,
        })
        .unwrap();
        assert_eq!(json, r#"{"cmd":"SUBSCRIBE","all":true}"#);
        // UNSUBSCRIBE without sub_id drops everything on the connection.
        let req: Request = serde_json::from_str(r#"{"cmd":"UNSUBSCRIBE"}"#).unwrap();
        assert_eq!(req, Request::Unsubscribe { sub_id: None });
        assert_eq!(req.kind(), "UNSUBSCRIBE");
        assert_eq!(
            Request::Subscribe {
                assets: Vec::new(),
                all: true
            }
            .kind(),
            "SUBSCRIBE"
        );
    }

    #[test]
    fn subscription_acks_ride_responses() {
        let resp = Response::with_subscription(SubscriptionAck {
            sub_id: "sub-1".to_string(),
            all: false,
            assets: 2,
            active: 1,
        });
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.subscription, resp.subscription, "json: {json}");
        // Plain responses carry no subscription key (old-client safe).
        let json = serde_json::to_string(&Response::ack()).unwrap();
        assert!(!json.contains("subscription"), "json: {json}");
    }

    #[test]
    fn push_events_roundtrip_and_are_distinguishable_from_responses() {
        let event = PushEvent {
            push: PUSH_CONJUNCTION.to_string(),
            sub_id: "sub-1".to_string(),
            kind: EventKind::New,
            id_lo: 42,
            id_hi: 99,
            tca: 120.5,
            pca_km: 3.25,
            conjunctions: 2,
            epoch: 7,
            ephemeral: false,
        };
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.contains(r#""push":"conjunction""#), "json: {json}");
        assert!(json.contains(r#""kind":"new""#), "json: {json}");
        assert!(!json.contains("ephemeral"), "json: {json}");
        let back: PushEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
        // Push lines carry no "ok" field, so they never parse as a
        // Response — a client reading the stream cannot confuse the two.
        assert!(serde_json::from_str::<Response>(&json).is_err());
        // And responses never parse as pushes.
        let resp_json = serde_json::to_string(&Response::ack()).unwrap();
        assert!(serde_json::from_str::<PushEvent>(&resp_json).is_err());

        let mut tagged = event.clone();
        tagged.kind = EventKind::Retired;
        tagged.conjunctions = 0;
        tagged.ephemeral = true;
        let json = serde_json::to_string(&tagged).unwrap();
        assert!(json.contains(r#""kind":"retired""#), "json: {json}");
        assert!(json.contains(r#""ephemeral":true"#), "json: {json}");
        let back: PushEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn kind_matches_the_wire_tag() {
        for req in [Request::Screen, Request::Metrics, Request::Shutdown] {
            let json = serde_json::to_string(&req).unwrap();
            assert!(
                json.contains(&format!(r#""cmd":"{}""#, req.kind())),
                "json: {json}"
            );
        }
        assert_eq!(Request::Advance { dt: 1.0 }.kind(), "ADVANCE");
    }

    #[test]
    fn elements_spec_validates() {
        let bad = ElementsSpec {
            a: -1.0,
            e: 0.0,
            incl: 0.0,
            raan: 0.0,
            argp: 0.0,
            mean_anomaly: 0.0,
        };
        assert!(bad.into_elements().is_err());
        let good = ElementsSpec {
            a: 7_000.0,
            e: 0.0,
            incl: 0.0,
            raan: 0.0,
            argp: 0.0,
            mean_anomaly: 0.0,
        };
        let el = good.into_elements().unwrap();
        assert_eq!(ElementsSpec::from_elements(&el), good);
    }
}
