//! What every `ampc_obs::catalog!` enum must satisfy, checked by one helper
//! over all nine (the entries themselves are pinned in `catalogue_golden.rs`).

use adaptive_mpc_connectivity::net::protocol::{ErrorCode, Opcode};
use adaptive_mpc_connectivity::serve::{HealthState, IncidentOp};
use ampc_obs::fault::Site;
use ampc_obs::{CounterId, GaugeId, HistId, TraceKind};

/// `ALL` lists `COUNT` entries with distinct names, every entry comes back
/// from its own name and discriminant, and `$reprs` — candidate discriminants,
/// all of them where the type is narrow enough — yields no entry but the
/// declared ones. An enum that indexes a static array is `dense`: entry `i`
/// has discriminant `i`, so none indexes past `COUNT`. Returns the names.
macro_rules! check_catalogue {
    ($T:ty: $repr:ty, dense = $dense:expr, over $reprs:expr) => {{
        assert_eq!(<$T>::ALL.len(), <$T>::COUNT);
        for (i, entry) in <$T>::ALL.into_iter().enumerate() {
            assert!(!$dense || entry as usize == i, "{entry:?} is not entry {i}");
            assert_eq!(<$T>::from_repr(entry as $repr), Some(entry));
            assert_eq!(<$T>::from_name(entry.name()), Some(entry));
            assert!(!entry.help().is_empty(), "{entry:?}");
        }
        let accepted: Vec<$T> = $reprs.filter_map(<$T>::from_repr).collect();
        assert_eq!(accepted, <$T>::ALL, "from_repr accepts exactly the declared discriminants");
        assert_eq!(<$T>::from_name("no.such.entry"), None);
        let mut names = <$T>::ALL.map(<$T>::name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), <$T>::COUNT, "names are unique");
        names
    }};
}

#[test]
fn every_catalogue_roundtrips_with_unique_names() {
    // One Prometheus namespace: metric names are unique across the three.
    let mut metrics = check_catalogue!(CounterId: usize, dense = true, over 0..1024);
    metrics.extend(check_catalogue!(GaugeId: usize, dense = true, over 0..1024));
    metrics.extend(check_catalogue!(HistId: usize, dense = true, over 0..1024));
    metrics.sort_unstable();
    metrics.dedup();
    assert_eq!(metrics.len(), CounterId::COUNT + GaugeId::COUNT + HistId::COUNT);

    check_catalogue!(TraceKind: u64, dense = true, over 0..1024);
    check_catalogue!(Site: usize, dense = true, over 0..1024);
    check_catalogue!(HealthState: u8, dense = true, over 0..=u8::MAX);
    check_catalogue!(IncidentOp: u8, dense = true, over 0..=u8::MAX);
    check_catalogue!(Opcode: u8, dense = false, over 0..=u8::MAX);
    check_catalogue!(ErrorCode: u16, dense = false, over 0..=u16::MAX);
}
