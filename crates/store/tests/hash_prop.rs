//! Properties of the canonical hasher that the cache's correctness rests
//! on: keys must be stable across *representations* of the same content —
//! a netlist rebuilt from the same structure (fresh `HashMap`s, fresh
//! allocations, different iteration orders) keys identically.

use proptest::prelude::*;

use warpstl_netlist::{Builder, NetId, Netlist};
use warpstl_store::{key_netlist, CanonicalHasher};

/// One random gate: `kind` selects the operator, `a`/`b`/`c` pick
/// operands among the already-built nets (mod current count).
type GateSpec = (u8, u8, u8, u8);

fn build_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("prop");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    for &(kind, a, bb, c) in specs {
        let pick = |sel: u8| nets[sel as usize % nets.len()];
        let (x, y, z) = (pick(a), pick(bb), pick(c));
        let net = match kind % 9 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor(x, y),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(x, y, z),
        };
        nets.push(net);
    }
    let n_out = nets.len().clamp(1, 4);
    for (k, &net) in nets.iter().rev().take(n_out).enumerate() {
        b.output(&format!("o{k}"), net);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn netlist_key_is_stable_across_rebuilds(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..48,
        ),
    ) {
        // Two independent builds of the same structure carry freshly
        // allocated HashMap metadata (kind_histogram) whose iteration
        // order is unrelated; the canonical key must not see that.
        let a = build_netlist(n_inputs, &specs);
        let b = build_netlist(n_inputs, &specs);
        prop_assert_eq!(key_netlist(&a), key_netlist(&b));
    }

    #[test]
    fn unordered_absorb_is_permutation_invariant(
        items in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
        rotation in any::<usize>(),
    ) {
        // Permuting HashMap-like (key, value) metadata must not change the
        // digest. A rotation exercises arbitrary reorderings without
        // needing a shuffle primitive.
        let mut rotated = items.clone();
        if !rotated.is_empty() {
            let mid = rotation % rotated.len();
            rotated.rotate_left(mid);
        }
        let digest = |list: &[(u64, u64)]| {
            let mut h = CanonicalHasher::new();
            h.absorb_unordered(list.iter(), |h, &(k, v)| {
                h.u64(k);
                h.u64(v);
            });
            h.finish()
        };
        prop_assert_eq!(digest(&rotated), digest(&items));
    }
}
