//! Property test: `VecMap` behaves exactly like the `BTreeMap` it
//! replaces in the per-endpoint tables.
//!
//! Host socket tables and client session tables iterate their maps on
//! paths that feed pinned output (port allocation, failure sweeps), so
//! the swap is only safe if every operation returns what `BTreeMap`
//! returns and iteration visits the same entries in the same order.

use proptest::prelude::*;
use punch_net::VecMap;
use std::collections::BTreeMap;

/// One scripted operation against both maps.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u32),
    Remove(u8),
    Get(u8),
    GetMut(u8, u32),
    GetOrInsertWith(u8, u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small key space so removes and lookups hit live keys often.
    let key = 0u8..24;
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        key.clone().prop_map(Op::Get),
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::GetMut(k, v)),
        (key, any::<u32>()).prop_map(|(k, v)| Op::GetOrInsertWith(k, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vecmap_matches_btreemap(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let mut model: BTreeMap<u8, u32> = BTreeMap::new();
        let mut map: VecMap<u8, u32> = VecMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                Op::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k));
                    prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                }
                Op::GetMut(k, v) => {
                    let got = map.get_mut(&k).map(|x| std::mem::replace(x, v));
                    let want = model.get_mut(&k).map(|x| std::mem::replace(x, v));
                    prop_assert_eq!(got, want);
                }
                Op::GetOrInsertWith(k, v) => {
                    let got = map.get_or_insert_with(k, || v);
                    *got = got.wrapping_add(1);
                    let got = *got;
                    let want = model.entry(k).or_insert_with(|| v);
                    *want = want.wrapping_add(1);
                    prop_assert_eq!(got, *want);
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!(map.values().eq(model.values()));
        }
    }
}
