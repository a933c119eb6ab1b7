//! Subscription hub: SUBSCRIBE registrations and conjunction push fan-out.
//!
//! The hub keeps the last *published* pair set, keyed by external asset
//! ids, and diffs each committed screen against it to produce
//! `new`/`updated`/`retired` [`PushEvent`]s. Keying by external ids (not
//! dense catalog indices) makes the baseline survive the index churn
//! that `swap_remove` removals cause between commits.
//!
//! Each pair is summarised by its closest-approach conjunction (minimum
//! PCA) plus the conjunction count; the delta engine's invariant that a
//! warm screen is bit-identical to a cold one means unchanged pairs
//! compare exactly equal, so exact `f64` comparison never fires a
//! spurious `updated`.
//!
//! Lock order: the hub's mutex sits *after* the state lock and *before*
//! `IoHub::queue` and the metrics lock (publishers hold state while
//! fanning out; the event loop takes the hub alone).

use std::collections::{HashMap, HashSet};

use super::handlers::IoMsg;
use crate::delta::PairMap;
use crate::proto::{EventKind, PushEvent, SubscriptionAck, PUSH_CONJUNCTION};
use crate::sync::Mutex;

/// Closest-approach summary for one maintained pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairInfo {
    tca: f64,
    pca_km: f64,
    count: usize,
}

enum Filter {
    All,
    Assets(HashSet<u64>),
}

impl Filter {
    fn matches(&self, lo: u64, hi: u64) -> bool {
        match self {
            Filter::All => true,
            Filter::Assets(set) => set.contains(&lo) || set.contains(&hi),
        }
    }
}

struct Subscription {
    sub_id: String,
    all: bool,
    filter: Filter,
}

#[derive(Default)]
struct HubInner {
    /// Pair set as of the last publish (or prime), by external-id pair.
    published: HashMap<(u64, u64), PairInfo>,
    /// Connection id → its active subscriptions.
    subs: HashMap<u64, Vec<Subscription>>,
    next_sub: u64,
}

/// Registry of push subscriptions plus the published-pair baseline.
#[derive(Default)]
pub(crate) struct SubHub {
    inner: Mutex<HubInner>,
}

/// Translate a dense-index pair map into external-id pair summaries.
/// Pairs whose indices fall outside `ids` (stale beyond repair) are
/// skipped rather than published under a wrong identity.
fn pair_summaries(pairs: &PairMap, ids: &[u64]) -> HashMap<(u64, u64), PairInfo> {
    let mut out = HashMap::with_capacity(pairs.len());
    for (&(lo, hi), conjunctions) in pairs {
        if conjunctions.is_empty() {
            continue;
        }
        let (Some(&a), Some(&b)) = (ids.get(lo as usize), ids.get(hi as usize)) else {
            continue;
        };
        let key = if a <= b { (a, b) } else { (b, a) };
        let mut best = &conjunctions[0];
        for c in &conjunctions[1..] {
            if c.pca_km < best.pca_km {
                best = c;
            }
        }
        out.insert(
            key,
            PairInfo {
                tca: best.tca,
                pca_km: best.pca_km,
                count: conjunctions.len(),
            },
        );
    }
    out
}

impl SubHub {
    pub(crate) fn new() -> SubHub {
        SubHub::default()
    }

    /// Register a subscription for `conn`. The ack's `sub_id` is the
    /// request's `req_id` when one was supplied, else a generated name.
    pub(crate) fn subscribe(
        &self,
        conn: u64,
        req_id: Option<&str>,
        assets: &[u64],
        all: bool,
    ) -> Result<SubscriptionAck, String> {
        if !all && assets.is_empty() {
            return Err("SUBSCRIBE needs an asset list or \"all\": true".to_string());
        }
        let mut inner = self.inner.lock();
        let sub_id = match req_id {
            Some(id) => id.to_string(),
            None => {
                inner.next_sub += 1;
                format!("sub-{}", inner.next_sub)
            }
        };
        let subs = inner.subs.entry(conn).or_default();
        if subs.iter().any(|s| s.sub_id == sub_id) {
            return Err(format!(
                "subscription \"{sub_id}\" is already active on this connection"
            ));
        }
        let filter = if all {
            Filter::All
        } else {
            Filter::Assets(assets.iter().copied().collect())
        };
        let tracked = match &filter {
            Filter::All => 0,
            Filter::Assets(set) => set.len(),
        };
        subs.push(Subscription {
            sub_id: sub_id.clone(),
            all,
            filter,
        });
        let active = subs.len();
        Ok(SubscriptionAck {
            sub_id,
            all,
            assets: tracked,
            active,
        })
    }

    /// Drop one subscription by id, or every subscription on the
    /// connection when `sub_id` is `None`.
    pub(crate) fn unsubscribe(
        &self,
        conn: u64,
        sub_id: Option<&str>,
    ) -> Result<SubscriptionAck, String> {
        let mut inner = self.inner.lock();
        let Some(subs) = inner.subs.get_mut(&conn) else {
            return Err("no subscriptions are active on this connection".to_string());
        };
        match sub_id {
            None => {
                inner.subs.remove(&conn);
                Ok(SubscriptionAck {
                    sub_id: "all".to_string(),
                    all: false,
                    assets: 0,
                    active: 0,
                })
            }
            Some(id) => {
                let Some(pos) = subs.iter().position(|s| s.sub_id == id) else {
                    return Err(format!("no subscription \"{id}\" on this connection"));
                };
                let removed = subs.remove(pos);
                let tracked = match &removed.filter {
                    Filter::All => 0,
                    Filter::Assets(set) => set.len(),
                };
                let active = subs.len();
                if subs.is_empty() {
                    inner.subs.remove(&conn);
                }
                Ok(SubscriptionAck {
                    sub_id: removed.sub_id,
                    all: removed.all,
                    assets: tracked,
                    active,
                })
            }
        }
    }

    /// Tear down every subscription a disconnecting client held.
    pub(crate) fn drop_conn(&self, conn: u64) {
        self.inner.lock().subs.remove(&conn);
    }

    /// Total active subscriptions across all connections.
    pub(crate) fn active(&self) -> usize {
        self.inner.lock().subs.values().map(Vec::len).sum()
    }

    /// Whether a connection holds any subscription (subscribers are
    /// exempt from the idle-read reap).
    pub(crate) fn has_subs(&self, conn: u64) -> bool {
        self.inner.lock().subs.contains_key(&conn)
    }

    /// Set the baseline without emitting events — used after recovery so
    /// a restarted daemon's first screen doesn't replay every
    /// pre-existing pair as `new`.
    pub(crate) fn prime(&self, pairs: &PairMap, ids: &[u64]) {
        self.inner.lock().published = pair_summaries(pairs, ids);
    }

    /// Diff `pairs` against the published baseline, advance the baseline,
    /// and return one serialized push line per (matching subscription ×
    /// event). The baseline advances even with zero subscribers so a
    /// late subscriber only sees deltas from that point on — and so
    /// repeated degraded screens don't re-announce the same pairs.
    pub(crate) fn publish(
        &self,
        pairs: &PairMap,
        ids: &[u64],
        epoch: u64,
        ephemeral: bool,
    ) -> Vec<IoMsg> {
        let fresh = pair_summaries(pairs, ids);
        let mut inner = self.inner.lock();
        let mut events: Vec<(EventKind, (u64, u64), PairInfo)> = Vec::new();
        if inner.subs.values().any(|subs| !subs.is_empty()) {
            for (key, info) in &fresh {
                match inner.published.get(key) {
                    None => events.push((EventKind::New, *key, *info)),
                    Some(old) if old != info => events.push((EventKind::Updated, *key, *info)),
                    Some(_) => {}
                }
            }
            for (key, old) in &inner.published {
                if !fresh.contains_key(key) {
                    events.push((EventKind::Retired, *key, PairInfo { count: 0, ..*old }));
                }
            }
            events.sort_by_key(|(_, key, _)| *key);
        }
        inner.published = fresh;
        if events.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (&conn, subs) in &inner.subs {
            for sub in subs {
                for (kind, (lo, hi), info) in &events {
                    if !sub.filter.matches(*lo, *hi) {
                        continue;
                    }
                    let event = PushEvent {
                        push: PUSH_CONJUNCTION.to_string(),
                        sub_id: sub.sub_id.clone(),
                        kind: *kind,
                        id_lo: *lo,
                        id_hi: *hi,
                        tca: info.tca,
                        pca_km: info.pca_km,
                        conjunctions: info.count,
                        epoch,
                        ephemeral,
                    };
                    if let Ok(line) = serde_json::to_string(&event) {
                        out.push(IoMsg::Push { conn, line });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kessler_core::Conjunction;

    fn conj(lo: u32, hi: u32, tca: f64, pca_km: f64) -> Conjunction {
        Conjunction {
            id_lo: lo,
            id_hi: hi,
            tca,
            pca_km,
        }
    }

    fn pairs(entries: &[(u32, u32, f64, f64)]) -> PairMap {
        let mut map = PairMap::new();
        for &(lo, hi, tca, pca) in entries {
            map.entry((lo, hi))
                .or_default()
                .push(conj(lo, hi, tca, pca));
        }
        map
    }

    fn decode(msgs: &[IoMsg]) -> Vec<(u64, PushEvent)> {
        msgs.iter()
            .map(|msg| match msg {
                IoMsg::Push { conn, line } => (*conn, serde_json::from_str(line).unwrap()),
                IoMsg::Respond { .. } => panic!("publish only emits pushes"),
            })
            .collect()
    }

    #[test]
    fn diff_emits_new_updated_retired_in_external_ids() {
        let hub = SubHub::new();
        let ids = [100_u64, 200, 300];
        hub.subscribe(7, None, &[], true).unwrap();

        let first = hub.publish(
            &pairs(&[(0, 1, 5.0, 1.0), (1, 2, 6.0, 2.0)]),
            &ids,
            3,
            false,
        );
        let mut got = decode(&first);
        got.sort_by_key(|(_, e)| (e.id_lo, e.id_hi));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(conn, e)| {
            *conn == 7 && e.kind == EventKind::New && e.epoch == 3 && !e.ephemeral
        }));
        assert_eq!((got[0].1.id_lo, got[0].1.id_hi), (100, 200));
        assert_eq!((got[1].1.id_lo, got[1].1.id_hi), (200, 300));

        // Pair (0,1) tightens, (1,2) vanishes, (0,2) appears.
        let second = hub.publish(
            &pairs(&[(0, 1, 5.0, 0.5), (0, 2, 9.0, 4.0)]),
            &ids,
            4,
            false,
        );
        let mut got = decode(&second);
        got.sort_by_key(|(_, e)| (e.id_lo, e.id_hi));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1.kind, EventKind::Updated);
        assert_eq!((got[0].1.id_lo, got[0].1.id_hi), (100, 200));
        assert_eq!(got[0].1.pca_km, 0.5);
        assert_eq!(got[1].1.kind, EventKind::New);
        assert_eq!((got[1].1.id_lo, got[1].1.id_hi), (100, 300));
        assert_eq!(got[2].1.kind, EventKind::Retired);
        assert_eq!((got[2].1.id_lo, got[2].1.id_hi), (200, 300));
        assert_eq!(got[2].1.conjunctions, 0);

        // Identical set again: nothing fires.
        assert!(hub
            .publish(
                &pairs(&[(0, 1, 5.0, 0.5), (0, 2, 9.0, 4.0)]),
                &ids,
                5,
                false
            )
            .is_empty());
    }

    #[test]
    fn asset_filters_select_and_priming_suppresses_replay() {
        let hub = SubHub::new();
        let ids = [10_u64, 20, 30];
        hub.prime(&pairs(&[(0, 1, 1.0, 1.0)]), &ids);

        let ack = hub.subscribe(1, Some("watch-30"), &[30], false).unwrap();
        assert_eq!(ack.sub_id, "watch-30");
        assert_eq!(ack.assets, 1);

        // (0,1) was primed — only the new pair involving asset 30 pushes.
        let msgs = hub.publish(&pairs(&[(0, 1, 1.0, 1.0), (1, 2, 2.0, 0.2)]), &ids, 9, true);
        let got = decode(&msgs);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].1.id_lo, got[0].1.id_hi), (20, 30));
        assert_eq!(got[0].1.kind, EventKind::New);
        assert!(got[0].1.ephemeral);

        // Retirement of an unwatched pair stays filtered out.
        let msgs = hub.publish(&pairs(&[(1, 2, 2.0, 0.2)]), &ids, 10, false);
        assert!(decode(&msgs).is_empty());
    }

    #[test]
    fn subscribe_validates_and_unsubscribe_tears_down() {
        let hub = SubHub::new();
        assert!(hub.subscribe(1, None, &[], false).is_err());
        assert!(hub.unsubscribe(1, None).is_err());

        let a = hub.subscribe(1, None, &[5], false).unwrap();
        let b = hub.subscribe(1, None, &[], true).unwrap();
        assert_ne!(a.sub_id, b.sub_id);
        assert_eq!(b.active, 2);
        assert_eq!(hub.active(), 2);
        assert!(hub.has_subs(1));

        // Duplicate explicit id on the same connection is rejected.
        hub.subscribe(1, Some("dup"), &[], true).unwrap();
        assert!(hub.subscribe(1, Some("dup"), &[], true).is_err());
        // ...but is fine on another connection.
        hub.subscribe(2, Some("dup"), &[], true).unwrap();

        let gone = hub.unsubscribe(1, Some(&a.sub_id)).unwrap();
        assert_eq!(gone.sub_id, a.sub_id);
        assert!(hub.unsubscribe(1, Some("missing")).is_err());
        let all = hub.unsubscribe(1, None).unwrap();
        assert_eq!(all.active, 0);
        assert!(!hub.has_subs(1));
        assert_eq!(hub.active(), 1);

        hub.drop_conn(2);
        assert_eq!(hub.active(), 0);
    }

    #[test]
    fn baseline_advances_without_subscribers() {
        let hub = SubHub::new();
        let ids = [1_u64, 2];
        assert!(hub
            .publish(&pairs(&[(0, 1, 1.0, 1.0)]), &ids, 1, false)
            .is_empty());
        hub.subscribe(3, None, &[], true).unwrap();
        // The pair predates the subscription, so an unchanged set is quiet.
        assert!(hub
            .publish(&pairs(&[(0, 1, 1.0, 1.0)]), &ids, 2, false)
            .is_empty());
    }
}
