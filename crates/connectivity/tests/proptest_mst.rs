//! Property tests: the distributed MST under arbitrary weighted update
//! sequences must track Kruskal exactly (no preprocessing, so no
//! approximation slack), with audits at every step.

use dmpc_connectivity::DmpcMst;
use dmpc_core::DmpcParams;
use dmpc_graph::mst::msf_weight;
use dmpc_graph::{Edge, Weight};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn mst_tracks_kruskal(
        ops in proptest::collection::vec((0u32..14, 0u32..14, 1u64..50, any::<bool>()), 1..90)
    ) {
        let n = 14usize;
        let params = DmpcParams::new(n, 100);
        let mut alg = DmpcMst::new(params, 0.1);
        let mut live: Vec<(Edge, Weight)> = Vec::new();
        for (a, b, w, ins) in ops {
            if a == b { continue; }
            let e = Edge::new(a, b);
            let present = live.iter().any(|&(x, _)| x == e);
            let m = if ins && !present {
                live.push((e, w));
                alg.insert(e, w)
            } else if !ins && present {
                live.retain(|&(x, _)| x != e);
                alg.delete(e)
            } else {
                continue;
            };
            prop_assert!(m.clean(), "violations {:?}", m.violations);
            alg.driver().audit().map_err(TestCaseError::fail)?;
            prop_assert_eq!(alg.forest_weight(), msf_weight(n, &live));
        }
    }
}
