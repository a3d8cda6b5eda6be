//! Location Privacy-Preserving Mechanisms (LPPMs) for PriSTE.
//!
//! The paper models every LPPM as an *emission matrix* (§II.A): a
//! row-stochastic matrix taking the true cell as input and emitting a
//! perturbed cell. This crate provides:
//!
//! * [`Lppm`] — the emission-matrix abstraction consumed by the
//!   quantification engine and the PriSTE framework, including the
//!   budget-scaling hook that Algorithm 2's exponential decay drives. The
//!   matrix may be materialized lazily; columns and samples always agree
//!   with it bit for bit.
//! * [`PlanarLaplace`] — the α-Planar-Laplace mechanism of
//!   Geo-indistinguishability (Andrés et al., CCS'13), §IV.C's case study:
//!   continuous polar-Laplace sampling via the Lambert `W₋₁` function plus a
//!   grid discretization stored as one translation-invariant kernel table
//!   (`rows × cols` offsets) with a normalizer per cell. Building a rung of
//!   Algorithm 2's α, α/2, … ladder costs `O(rows·cols·supersample²)`
//!   density evaluations plus `O(m²)` table lookups, columns and samples
//!   are read off the table, and the dense `m × m` matrix is materialized
//!   only when [`Lppm::emission_matrix`] is called.
//! * [`DeltaLocationSet`] — δ-location-set privacy (Xiao & Xiong, CCS'15),
//!   §IV.D's case study: the emission domain restricted to the smallest cell
//!   set carrying prior mass ≥ 1−δ, with the Eq. (21) posterior update.
//! * [`UniformMechanism`] / [`RandomizedResponse`] /
//!   [`ExponentialMechanism`] — baselines: the α→0 limit that §IV.C's
//!   convergence argument relies on, the classic discrete ε-DP mechanism,
//!   and an exactly geo-indistinguishable discrete alternative to the
//!   truncated Planar Laplace.
//! * [`lambert`] — a from-scratch Lambert W implementation (both real
//!   branches), the only special function the continuous sampler needs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delta_loc;
mod error;
pub mod lambert;
mod mechanism;
mod planar_laplace;
mod simple;

pub use delta_loc::{DeltaLocationSet, PosteriorTracker};
pub use error::LppmError;
pub use mechanism::Lppm;
pub use planar_laplace::PlanarLaplace;
pub use simple::{ExponentialMechanism, RandomizedResponse, UniformMechanism};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LppmError>;
