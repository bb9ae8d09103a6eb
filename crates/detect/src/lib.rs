//! # monilog-detect
//!
//! The detection component of MoniLog (Fig. 1, step 2) plus every baseline
//! the paper plans to compare (Section III):
//!
//! **Log-message-counter approaches** (order-invariant, window counts):
//! - [`counters::pca::PcaDetector`] — principal-component subspace + SPE
//!   (Xu et al., SOSP 2009).
//! - [`counters::invariants::InvariantDetector`] — mined linear invariants
//!   over event counts (Lou et al., USENIX ATC 2010).
//! - [`counters::logcluster::LogClusterDetector`] — distance to normal
//!   cluster representatives (Lin et al., ICSE-C 2016).
//! - [`counters::cooccur::CoOccurrenceDetector`] — cross-source pair
//!   surprise, operationalizing the paper's §I motivating example (storage
//!   patterns anomalous only when network actions co-occur).
//!
//! **Deep-learning approaches** (sequence-aware LSTMs):
//! - [`deep::deeplog::DeepLog`] — next-event LSTM with top-g check plus a
//!   per-template parameter-value model for quantitative anomalies
//!   (Du et al., CCS 2017).
//! - [`deep::loganomaly::LogAnomaly`] — semantic template matching for
//!   unseen templates + sequential LSTM + count-vector forecasting
//!   (Meng et al., IJCAI 2019).
//! - [`deep::logrobust::LogRobust`] — semantic vectorization → BiLSTM →
//!   attention → supervised classifier (Zhang et al., ESEC/FSE 2019).
//!
//! Shared substrate: [`window`] (session/sliding windows, count vectors),
//! [`semantic`] (template vectorization), [`eval`] (the Section III
//! precision/recall/F1 metrics), [`linalg`] (symmetric eigensolver for
//! PCA).
//!
//! All detectors implement [`Detector`]: `fit` on a training set (normal
//! windows for the unsupervised ones; labels, when present, are used only
//! by LogRobust), then `score`/`predict` windows.

pub mod counters;
pub mod deep;
pub mod eval;
pub mod linalg;
pub mod semantic;
pub mod window;

mod api;

pub use api::{Assessment, Detector, InferenceStats, TrainSet, Window};
pub use counters::cooccur::{CoOccurrenceDetector, CoOccurrenceDetectorConfig};
pub use counters::invariants::{InvariantDetector, InvariantDetectorConfig};
pub use counters::logcluster::{LogClusterDetector, LogClusterDetectorConfig};
pub use counters::pca::{PcaDetector, PcaDetectorConfig};
pub use deep::deeplog::{DeepLog, DeepLogConfig, ValueModelKind};
pub use deep::loganomaly::{LogAnomaly, LogAnomalyConfig};
pub use deep::logrobust::{LogRobust, LogRobustConfig};
pub use eval::{auc, evaluate, ConfusionCounts, DetectionScores};
pub use semantic::TemplateVectorizer;
