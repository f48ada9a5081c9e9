//! The canonical stage-name enum for the SALIENT++ pipeline.
//!
//! Appendix D of the paper breaks distributed batch preparation into ten
//! stages; training compute and the gradient all-reduce follow. Both DES
//! models (`spp_runtime::pipeline`, `spp_runtime::systems`) and the
//! telemetry span names draw their labels from this one enum so the
//! stage list cannot drift between the simulator, the traces, and the
//! bench reports.

/// One stage of the Appendix-D pipeline, plus training and all-reduce.
///
/// Discriminants are the array index used by per-stage accumulators
/// ([`PipelineStage::index`]); Appendix-D numbering (1-based, excluding
/// train/all-reduce) is [`PipelineStage::appendix_stage`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum PipelineStage {
    /// 1 — obtain the next sampled minibatch (CPU sampler pool).
    Sample = 0,
    /// 2 — all-to-all of send/receive counts (NIC, metadata).
    CountExchange = 1,
    /// 3 — metadata transfer to the CPU to size tensors (copy engine).
    MetaToHost = 2,
    /// 4 — all-to-all of requested-node lists (NIC, 4 B/vertex).
    RequestExchange = 3,
    /// 5 — map global→local ids and D2H the request lists (copy).
    MapD2h = 4,
    /// 6 — background CPU thread: masked selection + CPU-side slicing.
    HostSlice = 5,
    /// 7 — host-to-device of the stage-6 output (copy).
    H2d = 6,
    /// 8 — GPU-side slicing of GPU-resident features and combine (GPU).
    GpuSlice = 7,
    /// 9 — all-to-all of the feature payloads (NIC).
    FeatureExchange = 8,
    /// 10 — combine received features and permute to MFG order (GPU).
    CombinePermute = 9,
    /// Training computation (forward + backward).
    Train = 10,
    /// Gradient all-reduce.
    AllReduce = 11,
}

impl PipelineStage {
    /// Number of stages (ten pipeline stages + train + all-reduce).
    pub const COUNT: usize = 12;

    /// Every stage, in pipeline order.
    pub const ALL: [PipelineStage; PipelineStage::COUNT] = [
        PipelineStage::Sample,
        PipelineStage::CountExchange,
        PipelineStage::MetaToHost,
        PipelineStage::RequestExchange,
        PipelineStage::MapD2h,
        PipelineStage::HostSlice,
        PipelineStage::H2d,
        PipelineStage::GpuSlice,
        PipelineStage::FeatureExchange,
        PipelineStage::CombinePermute,
        PipelineStage::Train,
        PipelineStage::AllReduce,
    ];

    /// Dense array index, `0..COUNT`, in pipeline order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Appendix-D stage number (1..=10); `None` for train/all-reduce.
    pub fn appendix_stage(self) -> Option<usize> {
        match self {
            PipelineStage::Train | PipelineStage::AllReduce => None,
            s => Some(s.index() + 1),
        }
    }

    /// Full telemetry span name (`crate.component.stage` convention).
    pub fn label(self) -> &'static str {
        match self {
            PipelineStage::Sample => "pipeline.stage1.sample",
            PipelineStage::CountExchange => "pipeline.stage2.counts",
            PipelineStage::MetaToHost => "pipeline.stage3.meta",
            PipelineStage::RequestExchange => "pipeline.stage4.requests",
            PipelineStage::MapD2h => "pipeline.stage5.map",
            PipelineStage::HostSlice => "pipeline.stage6.slice",
            PipelineStage::H2d => "pipeline.stage7.h2d",
            PipelineStage::GpuSlice => "pipeline.stage8.gpu_slice",
            PipelineStage::FeatureExchange => "pipeline.stage9.comm",
            PipelineStage::CombinePermute => "pipeline.stage10.permute",
            PipelineStage::Train => "pipeline.train",
            PipelineStage::AllReduce => "pipeline.allreduce",
        }
    }

    /// Short label for DES task tags and Figure-1-style lane charts.
    pub fn short(self) -> &'static str {
        match self {
            PipelineStage::Sample => "sample",
            PipelineStage::CountExchange => "counts",
            PipelineStage::MetaToHost => "meta",
            PipelineStage::RequestExchange => "requests",
            PipelineStage::MapD2h => "map",
            PipelineStage::HostSlice => "slice",
            PipelineStage::H2d => "h2d",
            PipelineStage::GpuSlice => "gpu_slice",
            PipelineStage::FeatureExchange => "comm",
            PipelineStage::CombinePermute => "permute",
            PipelineStage::Train => "train",
            PipelineStage::AllReduce => "allreduce",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::PipelineStage;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, s) in PipelineStage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn appendix_numbering_covers_one_through_ten() {
        let nums: Vec<usize> = PipelineStage::ALL
            .iter()
            .filter_map(|s| s.appendix_stage())
            .collect();
        assert_eq!(nums, (1..=10).collect::<Vec<_>>());
        assert_eq!(PipelineStage::Train.appendix_stage(), None);
        assert_eq!(PipelineStage::AllReduce.appendix_stage(), None);
    }

    #[test]
    fn labels_are_unique_and_follow_convention() {
        let labels: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.label()).collect();
        let shorts: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.short()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(l.starts_with("pipeline."), "{l}");
            assert!(!labels[..i].contains(l), "duplicate label {l}");
            assert!(!shorts[..i].contains(&shorts[i]), "duplicate short");
        }
        for s in PipelineStage::ALL {
            if let Some(n) = s.appendix_stage() {
                assert!(s.label().contains(&format!("stage{n}.")), "{}", s.label());
            }
        }
    }
}
