//! Property test: the calendar queue is order-equivalent to the binary
//! heap it replaced.
//!
//! The engine's determinism contract — and every pinned `results/*`
//! artifact — rests on events dispatching in exact `(time, seq)` order.
//! The old implementation got that order from a `BinaryHeap` with a
//! reversed comparator; the calendar queue must reproduce it bit for
//! bit over arbitrary schedules, including the awkward cases: same-day
//! ties, far-future overflow entries, pushes below an already-scanned
//! day, interleaved pops, and wheel growth mid-stream. Alongside the
//! order, it checks the memory bound: the wheel's slab never holds more
//! slots than the queue has ever held entries at once.

use proptest::prelude::*;
use punch_net::calendar::CalendarQueue;
use punch_net::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + offset_ns` (sim time never runs backwards, but
    /// pushes may land before previously scheduled events).
    Push { offset_ns: u64 },
    /// Pop the front; advances the model clock like `Sim::step`.
    Pop,
    /// Pop everything at the current front instant (a same-time burst).
    PopBurst,
    /// Grow the wheel, as `add_node` does while a world is built.
    Grow { actors: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near-future pushes (the hot regime for the wheel)...
        (0u64..50_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        // ...same-instant and same-day ties...
        (0u64..200).prop_map(|offset_ns| Op::Push { offset_ns }),
        // ...and far-future entries that must use the overflow tier
        // (the minimum wheel horizon is ~16.8 ms).
        (0u64..120_000_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        Just(Op::Pop),
        Just(Op::PopBurst),
        (1usize..200_000).prop_map(|actors| Op::Grow { actors }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_pops_in_exact_heap_order(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        // Reference model: min-order on (at, seq) via Reverse, exactly
        // the order the old `BinaryHeap<Scheduled>` produced.
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut max_len = 0usize;

        for op in &ops {
            match op {
                Op::Push { offset_ns } => {
                    let at = now + Duration::from_nanos(*offset_ns);
                    cal.push(at, seq, seq as u32);
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                }
                Op::Pop => {
                    // Peek first, as the run loops do, so the cursor
                    // scans ahead before pops and rewinds get exercised.
                    let peeked = cal.next_at();
                    prop_assert_eq!(peeked, heap.peek().map(|r| r.0.0));
                    let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
                    let want = heap.pop().map(|Reverse((at, s))| (at, s, s as u32));
                    prop_assert_eq!(got, want);
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                }
                Op::PopBurst => {
                    let Some(front) = heap.peek().map(|r| r.0.0) else {
                        prop_assert!(cal.pop_front().is_none());
                        continue;
                    };
                    while heap.peek().is_some_and(|r| r.0.0 == front) {
                        let got = cal.pop_front().map(|e| (e.at, e.seq));
                        let want = heap.pop().map(|Reverse(k)| k);
                        prop_assert_eq!(got, want);
                    }
                    now = front;
                }
                Op::Grow { actors } => {
                    cal.ensure_capacity_for(*actors);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            max_len = max_len.max(cal.len());
            prop_assert!(
                cal.slot_count() <= max_len,
                "slab holds {} slots, peak live entries {}",
                cal.slot_count(),
                max_len
            );
        }

        // Drain: the full remaining sequences must match.
        while let Some(Reverse((at, s))) = heap.pop() {
            let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
            prop_assert_eq!(got, Some((at, s, s as u32)));
        }
        prop_assert!(cal.pop_front().is_none());
        prop_assert!(cal.is_empty());
    }
}
