//! Output-analysis toolkit: streaming moments, confidence intervals,
//! time-weighted signals, histograms and batch means.

mod autocorr;
mod batch;
mod ci;
mod histogram;
mod mser;
mod p2;
mod timeweighted;
mod welford;

pub use autocorr::{autocorrelation, effective_sample_size, suggest_batch_size};
pub use batch::BatchMeans;
pub use ci::{normal_quantile, t_critical, ConfidenceInterval, StoppingRule};
pub use histogram::Histogram;
pub use mser::{mser, mser5, MserResult};
pub use p2::P2Quantile;
pub use timeweighted::TimeWeighted;
pub use welford::Welford;
