//! The canonical hasher: stable 128-bit content keys.
//!
//! Cache keys must be *canonical*: two structurally identical inputs must
//! hash to the same [`Key`] in every process, on every thread count, for
//! every `HashMap` iteration order — and must keep doing so across runs,
//! because the keys name files on disk. The hasher therefore
//!
//! - consumes only **values** (never pointers, indices into hash tables,
//!   or iteration-order-dependent sequences),
//! - length-prefixes every variable-length field, so adjacent fields
//!   cannot alias (`"ab" + "c"` ≠ `"a" + "bc"`),
//! - tags every artifact kind with a domain string and a schema version,
//!   so a semantic change invalidates old entries by key (never by a
//!   format error), and
//! - offers [`CanonicalHasher::absorb_unordered`] for genuinely unordered
//!   collections (e.g. a netlist's `HashMap`-backed kind histogram): each
//!   element is hashed independently and the element keys are combined
//!   with commutative operators (XOR + wrapping sum + count), making the
//!   result independent of enumeration order.
//!
//! The mixer is two independent 64-bit FNV-1a-style streams with distinct
//! offset bases and multipliers, concatenated into a 128-bit key. This is
//! not a cryptographic hash; it defends against accidental collisions
//! (~2^-64 for a cache with millions of entries), not adversaries — the
//! store additionally checksums every payload on disk.

use std::fmt;

use warpstl_fault::{
    BridgeFault, BridgeKind, Fault, FaultList, FaultSimConfig, FaultStatus, SimGuide, SiteOverride,
};
use warpstl_netlist::{GateKind, Netlist, PatternSeq};

/// Bump when the fault engine's *observable semantics* change (detection
/// stamps, report rows): old fsim-stamp entries then miss by key.
/// v2: the guide's untestable bitmap prunes targets (pattern tallies and
/// the report's untestable row change with it).
/// v3: a fault-model tag domain-separates stuck-at from bridging entries
/// (see [`KeyedFault::MODEL_TAG`]) so cache entries never alias across
/// models.
/// v4: the engine simulates every target class in one pass, so dominated
/// classes carry their own first-detection stamps and activation tallies;
/// the guide keys only what it still carries.
pub const FSIM_SCHEMA: u32 = 4;

/// A 128-bit canonical content key. Displays as 32 lowercase hex digits —
/// the on-disk entry file stem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub u128);

impl Key {
    /// The all-zero key (placeholder when caching is disabled).
    pub const ZERO: Key = Key(0);

    /// The 32-hex-digit form used in entry file names.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
const PRIME_A: u64 = 0x0000_0100_0000_01b3; // FNV-1a prime
const OFFSET_B: u64 = 0x9e37_79b9_7f4a_7c15; // golden-ratio constant
const PRIME_B: u64 = 0xff51_afd7_ed55_8ccd; // splitmix64 mixer constant

/// The streaming canonical hasher. See the module docs for the rules
/// callers must follow to keep keys canonical.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    a: u64,
    b: u64,
}

impl Default for CanonicalHasher {
    fn default() -> CanonicalHasher {
        CanonicalHasher::new()
    }
}

impl CanonicalHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> CanonicalHasher {
        CanonicalHasher {
            a: OFFSET_A,
            b: OFFSET_B,
        }
    }

    /// Absorbs one byte into both streams.
    #[inline]
    pub fn byte(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(PRIME_A);
        self.b = (self.b ^ u64::from(v))
            .wrapping_mul(PRIME_B)
            .rotate_left(31);
    }

    /// Absorbs a byte slice (content only — prefix a length yourself when
    /// the field is variable-length next to another field).
    pub fn bytes(&mut self, v: &[u8]) {
        for &x in v {
            self.byte(x);
        }
    }

    /// Absorbs a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u128` (little-endian).
    pub fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Absorbs a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    /// Absorbs a string, length-prefixed.
    pub fn str(&mut self, v: &str) {
        self.len(v.len());
        self.bytes(v.as_bytes());
    }

    /// Absorbs an **unordered** collection: every element is hashed on its
    /// own (via `each`), and the element keys are folded with commutative
    /// operators, so the result is independent of iteration order — the
    /// escape hatch for `HashMap`-backed metadata.
    pub fn absorb_unordered<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut CanonicalHasher, T),
    ) {
        let mut xor = 0u128;
        let mut sum = 0u128;
        let mut count = 0u64;
        for item in items {
            let mut h = CanonicalHasher::new();
            each(&mut h, item);
            let k = h.finish().0;
            xor ^= k;
            sum = sum.wrapping_add(k);
            count += 1;
        }
        self.u128(xor);
        self.u128(sum);
        self.u64(count);
    }

    /// The 128-bit key over everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> Key {
        // One final avalanche round per stream so short inputs still
        // spread into the high bits.
        let mut a = self.a;
        a ^= a >> 33;
        a = a.wrapping_mul(PRIME_B);
        a ^= a >> 29;
        let mut b = self.b;
        b ^= b >> 31;
        b = b.wrapping_mul(PRIME_A | 1);
        b ^= b >> 27;
        Key((u128::from(a) << 64) | u128::from(b))
    }
}

fn gate_kind_code(kind: GateKind) -> u8 {
    match kind {
        GateKind::Input => 0,
        GateKind::Const0 => 1,
        GateKind::Const1 => 2,
        GateKind::Buf => 3,
        GateKind::Not => 4,
        GateKind::And => 5,
        GateKind::Or => 6,
        GateKind::Nand => 7,
        GateKind::Nor => 8,
        GateKind::Xor => 9,
        GateKind::Xnor => 10,
        GateKind::Mux => 11,
        GateKind::Dff => 12,
    }
}

/// The canonical key of a netlist's *structure*: name, gate array (kinds
/// and meaningful pins in definition order), port maps, flip-flop nets,
/// and the `HashMap`-backed kind histogram absorbed unordered. Everything
/// downstream of the netlist (fault universe enumeration, the static
/// analysis and its untestability proofs) is a pure function of this
/// structure, so it needs no separate key material.
#[must_use]
pub fn key_netlist(netlist: &Netlist) -> Key {
    let mut h = CanonicalHasher::new();
    h.str("warpstl.netlist/v1");
    h.str(netlist.name());
    h.len(netlist.gates().len());
    for gate in netlist.gates() {
        h.byte(gate_kind_code(gate.kind));
        h.len(gate.inputs().len());
        for pin in gate.inputs() {
            h.u32(pin.0);
        }
    }
    for ports in [netlist.inputs(), netlist.outputs()] {
        h.len(ports.width());
        for (name, range) in ports.iter() {
            h.str(name);
            h.len(range.start);
            h.len(range.end);
        }
        for net in ports.nets() {
            h.u32(net.0);
        }
    }
    h.len(netlist.dffs().len());
    for net in netlist.dffs() {
        h.u32(net.0);
    }
    // HashMap-backed metadata: order-independent by construction.
    h.absorb_unordered(netlist.kind_histogram(), |h, (name, count)| {
        h.str(name);
        h.len(count);
    });
    h.finish()
}

/// Absorbs one pattern stream: width, then every row's clock-cycle stamp
/// and packed words.
fn absorb_stream(h: &mut CanonicalHasher, seq: &PatternSeq) {
    h.len(seq.width());
    h.len(seq.len());
    for i in 0..seq.len() {
        h.u64(seq.cc(i));
        for &word in seq.row(i) {
            h.u64(word);
        }
    }
}

/// The fault-model half of [`key_fsim`]: what a model contributes to the
/// key beyond the shared material.
pub trait KeyedFault: SiteOverride {
    /// The fault-model tag: `0` = stuck-at, `1` = bridging. The models
    /// share the stamp payload format but never the key space.
    const MODEL_TAG: u8;

    /// Absorbs one fault's identity, ahead of its entry status.
    fn absorb_fault(&self, h: &mut CanonicalHasher);

    /// Absorbs the semantic shape of the simulation guide.
    fn absorb_guide(h: &mut CanonicalHasher, guide: &SimGuide<'_>);
}

/// Stuck-at universes are a pure function of the netlist structure, so the
/// faults themselves add nothing; the guide's untestable pruning is a
/// stuck-at construct and keys here.
impl KeyedFault for Fault {
    const MODEL_TAG: u8 = 0;

    fn absorb_fault(&self, _h: &mut CanonicalHasher) {}

    fn absorb_guide(h: &mut CanonicalHasher, guide: &SimGuide<'_>) {
        // The untestable bitmap changes the target set, and with it the
        // per-pattern tallies and the report's untestable row — so, unlike
        // `levels`, its *content* is key material.
        h.bool(guide.untestable.is_some());
        if let Some(unt) = guide.untestable {
            h.len(unt.len());
            for &u in unt {
                h.bool(u);
            }
        }
    }
}

/// Bridging universes are drawn by a seeded sampler, not derived from
/// structure alone, so the endpoint/kind triples are key material (two
/// configs sampling different pair sets must never alias). Bridging
/// guides carry only the levelization, which never keys.
impl KeyedFault for BridgeFault {
    const MODEL_TAG: u8 = 1;

    fn absorb_fault(&self, h: &mut CanonicalHasher) {
        h.u32(self.a.0);
        h.u32(self.b.0);
        h.byte(match self.kind {
            BridgeKind::And => 0,
            BridgeKind::Or => 1,
        });
    }

    fn absorb_guide(_h: &mut CanonicalHasher, guide: &SimGuide<'_>) {
        debug_assert!(
            guide.untestable.is_none(),
            "bridging guides carry only the levelization"
        );
    }
}

/// The canonical key of one fault-engine invocation: the fault-model tag,
/// netlist structure, the exact pattern stream, the fault list's *entry
/// state* (which faults are still undetected — drop mode's behavior
/// depends on it) with whatever identity the model keys per fault, the
/// semantic `FaultSimConfig` flag, and the guide shape the model keys.
/// A target mask ([`SimGuide::targets`]) changes the target set, so its
/// presence and content key too — but only when present: an unmasked run
/// absorbs nothing for it.
/// Deliberately excluded: `threads` (the engine is bit-identical across
/// worker counts), prior detection stamps (a run targets the undetected
/// faults and reads no earlier stamp; first-detection-wins keeps them),
/// and the list's run counter (replay stamps the warm list's own run
/// number, exactly as a live simulation would). The artifacts tests pin
/// both exclusions: lists differing only there key equal and run equal.
#[must_use]
pub fn key_fsim<F: KeyedFault>(
    netlist_key: Key,
    patterns: &PatternSeq,
    list: &FaultList<F>,
    config: &FaultSimConfig,
    guide: &SimGuide<'_>,
) -> Key {
    let mut h = CanonicalHasher::new();
    h.str("warpstl.fsim/v1");
    h.u32(FSIM_SCHEMA);
    h.byte(F::MODEL_TAG);
    h.u128(netlist_key.0);
    absorb_stream(&mut h, patterns);
    h.len(list.len());
    for id in 0..list.len() {
        list.fault(id).absorb_fault(&mut h);
        h.bool(matches!(list.status(id), FaultStatus::Undetected));
    }
    h.bool(config.drop_detected);
    F::absorb_guide(&mut h, guide);
    if let Some(mask) = guide.targets {
        h.str("targets");
        h.len(mask.len());
        for &m in mask {
            h.bool(m);
        }
    }
    h.finish()
}

/// The key of a detection pass
/// ([`fault_detect_instances`](warpstl_fault::fault_detect_instances)):
/// [`key_fsim`] of the same inputs under a detection tag. A detection
/// pass leaves the same fault-list delta as a run over the same inputs
/// but builds no report, so its entries carry no report rows; the tag
/// keeps a run from ever replaying one.
#[must_use]
pub(crate) fn key_detect<F: KeyedFault>(
    netlist_key: Key,
    patterns: &PatternSeq,
    list: &FaultList<F>,
    config: &FaultSimConfig,
    guide: &SimGuide<'_>,
) -> Key {
    let mut h = CanonicalHasher::new();
    h.str("warpstl.detect/v1");
    h.u128(key_fsim(netlist_key, patterns, list, config, guide).0);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::modules::ModuleKind;
    use warpstl_netlist::Builder;

    #[test]
    fn keys_are_deterministic_across_rebuilds() {
        let a = key_netlist(&ModuleKind::DecoderUnit.build());
        let b = key_netlist(&ModuleKind::DecoderUnit.build());
        assert_eq!(a, b);
        assert_ne!(a, key_netlist(&ModuleKind::Sfu.build()));
    }

    #[test]
    fn length_prefixes_prevent_aliasing() {
        let mut h1 = CanonicalHasher::new();
        h1.str("ab");
        h1.str("c");
        let mut h2 = CanonicalHasher::new();
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn unordered_absorb_ignores_iteration_order() {
        let items = [("and", 3usize), ("or", 7), ("not", 1), ("mux", 2)];
        let mut fwd = CanonicalHasher::new();
        fwd.absorb_unordered(items.iter(), |h, &(n, c)| {
            h.str(n);
            h.len(c);
        });
        let mut rev = CanonicalHasher::new();
        rev.absorb_unordered(items.iter().rev(), |h, &(n, c)| {
            h.str(n);
            h.len(c);
        });
        assert_eq!(fwd.finish(), rev.finish());

        // ...but not element content.
        let mut other = CanonicalHasher::new();
        other.absorb_unordered(items.iter(), |h, &(n, c)| {
            h.str(n);
            h.len(c + 1);
        });
        assert_ne!(fwd.finish(), other.finish());
    }

    #[test]
    fn fsim_key_tracks_list_state_but_not_threads() {
        let netlist = ModuleKind::Sfu.build();
        let nk = key_netlist(&netlist);
        let universe = warpstl_fault::FaultUniverse::enumerate(&netlist);
        let mut list = warpstl_fault::FaultList::new(&universe);
        let mut pats = PatternSeq::new(netlist.inputs().width());
        pats.push_value(0, 0xdead_beef);
        let guide = SimGuide::default();

        let base = key_fsim(nk, &pats, &list, &FaultSimConfig::default(), &guide);
        let threads8 = key_fsim(
            nk,
            &pats,
            &list,
            &FaultSimConfig {
                threads: 8,
                ..FaultSimConfig::default()
            },
            &guide,
        );
        assert_eq!(base, threads8, "thread count must not enter the key");

        // Likewise the cached levelization: a pure accelerator, never a
        // semantic input.
        let levels = netlist.levelize();
        let leveled = SimGuide {
            levels: Some(&levels),
            ..SimGuide::default()
        };
        assert_eq!(
            base,
            key_fsim(nk, &pats, &list, &FaultSimConfig::default(), &leveled),
            "levelization guide must not enter the key"
        );

        // The untestable bitmap is semantic: presence and content both key.
        let unt = vec![false; list.len()];
        let pruned = SimGuide {
            untestable: Some(&unt),
            ..SimGuide::default()
        };
        let pruned_key = key_fsim(nk, &pats, &list, &FaultSimConfig::default(), &pruned);
        assert_ne!(base, pruned_key, "untestable presence must enter the key");
        let mut unt2 = unt.clone();
        unt2[0] = true;
        let pruned2 = SimGuide {
            untestable: Some(&unt2),
            ..SimGuide::default()
        };
        assert_ne!(
            pruned_key,
            key_fsim(nk, &pats, &list, &FaultSimConfig::default(), &pruned2),
            "untestable content must enter the key"
        );

        list.begin_run();
        list.mark_detected(0, 1, 0);
        let after = key_fsim(nk, &pats, &list, &FaultSimConfig::default(), &guide);
        assert_ne!(base, after, "entry list state must enter the key");

        let non_drop = key_fsim(
            nk,
            &pats,
            &list,
            &FaultSimConfig {
                drop_detected: false,
                ..FaultSimConfig::default()
            },
            &guide,
        );
        assert_ne!(after, non_drop, "semantic config flags must enter the key");
    }

    #[test]
    fn fsim_key_absorbs_the_target_mask_only_when_present() {
        let netlist = ModuleKind::Sfu.build();
        let nk = key_netlist(&netlist);
        let universe = warpstl_fault::FaultUniverse::enumerate(&netlist);
        let list = warpstl_fault::FaultList::new(&universe);
        let mut pats = PatternSeq::new(netlist.inputs().width());
        pats.push_value(0, 0xdead_beef);
        let cfg = FaultSimConfig::default();
        let key = |targets: Option<&[bool]>| {
            let guide = SimGuide {
                targets,
                ..SimGuide::default()
            };
            key_fsim(nk, &pats, &list, &cfg, &guide)
        };

        // That an absent mask leaves the key bytes untouched is pinned by
        // `fsim_keys_match_the_pinned_hex_goldens`.
        let unmasked = key(None);
        // Presence keys: even a mask selecting every fault (same detected
        // set) is a different run shape.
        let all = vec![true; list.len()];
        assert_ne!(
            unmasked,
            key(Some(&all)),
            "mask presence must enter the key"
        );
        // Content keys, position by position.
        let mut one_out = all.clone();
        one_out[list.len() - 1] = false;
        assert_ne!(
            key(Some(&all)),
            key(Some(&one_out)),
            "mask content must enter the key"
        );
        let none = vec![false; list.len()];
        assert_ne!(key(Some(&none)), key(Some(&all)));
        // Length is content: a short mask (tail masked out) keys apart from
        // an explicit all-false one.
        assert_ne!(key(Some(&none)), key(Some(&none[..1])));
        // Same content, same key.
        assert_eq!(key(Some(&one_out)), key(Some(&one_out.clone())));

        // Bridging keys absorb the mask the same way.
        let bridges = warpstl_fault::BridgeUniverse::sample(
            &netlist,
            &warpstl_fault::BridgeConfig { pairs: 16, seed: 0 },
        );
        let br = bridges.new_list();
        let br_mask = vec![true; br.len()];
        let br_guide = SimGuide {
            targets: Some(&br_mask),
            ..SimGuide::default()
        };
        assert_ne!(
            key_fsim(nk, &pats, &br, &cfg, &SimGuide::default()),
            key_fsim(nk, &pats, &br, &cfg, &br_guide)
        );
    }

    #[test]
    fn stream_content_is_keyed_not_identity() {
        let mut b = Builder::new("t");
        let x = b.input("x");
        let y = b.not(x);
        b.output("y", y);
        let n = b.finish();
        let nk = key_netlist(&n);
        let universe = warpstl_fault::FaultUniverse::enumerate(&n);
        let list = warpstl_fault::FaultList::new(&universe);
        let guide = SimGuide::default();
        let cfg = FaultSimConfig::default();

        let mut p1 = PatternSeq::new(1);
        p1.push_bits(3, &[true]);
        let mut p2 = PatternSeq::new(1);
        p2.push_bits(3, &[true]);
        assert_eq!(
            key_fsim(nk, &p1, &list, &cfg, &guide),
            key_fsim(nk, &p2, &list, &cfg, &guide)
        );
        let mut p3 = PatternSeq::new(1);
        p3.push_bits(4, &[true]);
        assert_ne!(
            key_fsim(nk, &p1, &list, &cfg, &guide),
            key_fsim(nk, &p3, &list, &cfg, &guide)
        );
    }

    #[test]
    fn fault_models_never_alias_in_the_key_space() {
        // Regression: stuck-at and bridging entries over the same netlist,
        // the same pattern stream, and the same config must key apart —
        // otherwise a warm store could replay stamps of the wrong model.
        let netlist = ModuleKind::Sfu.build();
        let nk = key_netlist(&netlist);
        let cfg = FaultSimConfig::default();
        let mut pats = PatternSeq::new(netlist.inputs().width());
        pats.push_value(0, 0xdead_beef);

        let universe = warpstl_fault::FaultUniverse::enumerate(&netlist);
        let sa_list = warpstl_fault::FaultList::new(&universe);
        let sa_key = key_fsim(nk, &pats, &sa_list, &cfg, &SimGuide::default());

        let bridges = warpstl_fault::BridgeUniverse::sample(
            &netlist,
            &warpstl_fault::BridgeConfig::default(),
        );
        assert!(!bridges.is_empty());
        let br_list = bridges.new_list();
        let br_key = key_fsim(nk, &pats, &br_list, &cfg, &SimGuide::default());
        assert_ne!(sa_key, br_key, "stuck-at and bridging keys alias");

        // The sampled universe content is key material: a different seed
        // that draws a different pair set must change the key.
        let other = warpstl_fault::BridgeUniverse::sample(
            &netlist,
            &warpstl_fault::BridgeConfig { pairs: 3, seed: 7 },
        );
        if other.faults() != bridges.faults() {
            let other_key = key_fsim(nk, &pats, &other.new_list(), &cfg, &SimGuide::default());
            assert_ne!(br_key, other_key, "universe content must enter the key");
        }

        // List entry state keys, like the stuck-at path.
        let mut warm = bridges.new_list();
        warm.begin_run();
        warm.mark_detected(0, 1, 0);
        assert_ne!(
            br_key,
            key_fsim(nk, &pats, &warm, &cfg, &SimGuide::default())
        );
    }

    #[test]
    fn detection_keys_are_tagged_apart_from_run_keys() {
        let netlist = ModuleKind::Sfu.build();
        let nk = key_netlist(&netlist);
        let universe = warpstl_fault::FaultUniverse::enumerate(&netlist);
        let mut list = warpstl_fault::FaultList::new(&universe);
        let mut pats = PatternSeq::new(netlist.inputs().width());
        pats.push_value(0, 0xdead_beef);
        let (cfg, guide) = (FaultSimConfig::default(), SimGuide::default());
        let detect = key_detect(nk, &pats, &list, &cfg, &guide);
        assert_ne!(detect, key_fsim(nk, &pats, &list, &cfg, &guide));
        // Everything a run key absorbs, a detection key absorbs too.
        list.begin_run();
        list.mark_detected(0, 1, 0);
        assert_ne!(detect, key_detect(nk, &pats, &list, &cfg, &guide));
    }

    #[test]
    fn fsim_keys_match_the_pinned_hex_goldens() {
        // Keys name files on disk: a stuck-at and a bridging input whose
        // keys must never drift, or warm stores written by earlier builds
        // would silently stop hitting.
        let netlist = ModuleKind::Sfu.build();
        let nk = key_netlist(&netlist);
        let cfg = FaultSimConfig::default();
        let mut pats = PatternSeq::new(netlist.inputs().width());
        pats.push_value(0, 0xdead_beef);
        pats.push_value(3, 0x0123_4567_89ab_cdef);

        let universe = warpstl_fault::FaultUniverse::enumerate(&netlist);
        let mut sa = warpstl_fault::FaultList::new(&universe);
        sa.begin_run();
        sa.mark_detected(2, 7, 1);
        let unt: Vec<bool> = (0..sa.len()).map(|i| i % 7 == 0).collect();
        let guide = SimGuide {
            untestable: Some(&unt),
            ..SimGuide::default()
        };
        assert_eq!(
            key_fsim(nk, &pats, &sa, &cfg, &guide).to_hex(),
            "7b9c4636c380b6eff5c4f9c2a88f7efe"
        );

        let bridges = warpstl_fault::BridgeUniverse::sample(
            &netlist,
            &warpstl_fault::BridgeConfig { pairs: 16, seed: 0 },
        );
        let mut br = bridges.new_list();
        br.begin_run();
        br.mark_detected(1, 5, 0);
        let levels = netlist.levelize();
        let leveled = SimGuide {
            levels: Some(&levels),
            ..SimGuide::default()
        };
        assert_eq!(
            key_fsim(nk, &pats, &br, &cfg, &leveled).to_hex(),
            "8216678a27dbc38770677a3e203d7f28"
        );
    }
}
