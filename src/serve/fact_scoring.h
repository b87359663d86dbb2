#ifndef LTM_SERVE_FACT_SCORING_H_
#define LTM_SERVE_FACT_SCORING_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/interner.h"
#include "store/block_format.h"
#include "truth/options.h"
#include "truth/source_quality.h"
#include "truth/truth_method.h"

namespace ltm {
namespace serve {

/// Frozen source quality keyed by source *name* — the serving-side view
/// of a batch fit. Store slices intern their own source ids in slice
/// order, so serving must remap the learned per-id quality by name;
/// sources the fit never saw score at the prior means (matching
/// LtmIncremental's unseen-source rule).
struct QualityLookup {
  /// name -> (sensitivity, specificity)
  std::unordered_map<std::string, std::pair<double, double>> by_name;
  double prior_sensitivity = 0.0;   ///< alpha1 prior mean
  double prior_specificity = 0.0;   ///< 1 - alpha0 prior mean
  double no_claim_prior = 0.5;      ///< beta prior mean (fact with no claims)
};

/// Builds the name-keyed lookup from a batch read-off. `quality` is
/// indexed by `sources` ids (the fitted interner); ids beyond the
/// read-off's range are ignored (they arrived after the fit and fall
/// back to the priors at scoring time).
QualityLookup BuildQualityLookup(const SourceQuality& quality,
                                 const StringInterner& sources,
                                 const LtmOptions& options);

/// Scores every fact of `slice` in closed form (Eq. 3) under `lookup`,
/// remapping quality onto the slice's own source ids by name. Returns
/// posteriors aligned with slice.facts. Deterministic: no sampling, and
/// the per-fact claim order follows the slice's packed adjacency.
Result<std::vector<double>> ScoreSlice(const Dataset& slice,
                                       const QualityLookup& lookup,
                                       const LtmOptions& options,
                                       const RunContext& ctx);

/// One source's Eq. 3 terms under a fit: the logs of the clamped φ1
/// (sensitivity) and φ0 (false-positive rate) LtmIncremental evaluates
/// per claim, and of their complements.
struct SourceLogTerms {
  double log_phi1 = 0.0;
  double log_phi0 = 0.0;
  double log_not_phi1 = 0.0;
  double log_not_phi0 = 0.0;
};

/// Hash that lets a std::string-keyed map be probed with a string_view.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>()(s);
  }
};

/// An installed quality as the terms of the Eq. 3 log-sum, computed once
/// per install so that scoring a claim is two additions.
struct QualityLogTerms {
  std::unordered_map<std::string, SourceLogTerms, TransparentStringHash,
                     std::equal_to<>>
      by_name;
  SourceLogTerms unseen;  ///< sources the fit never saw (prior means)
  double log_beta_pos = 0.0;
  double log_beta_neg = 0.0;
  double no_claim_prior = 0.5;  ///< beta prior mean (fact with no claims)
};

/// The terms of `lookup`, from the same clamped expressions LtmIncremental
/// uses — unseen sources included, with φ0 = 1 − prior_specificity —
/// so ScoreRows adds the same doubles ScoreSlice does.
QualityLogTerms PrecomputeLogTerms(const QualityLookup& lookup,
                                   const LtmOptions& options);

/// One fact scored by ScoreRows. The views point into the scored rows.
struct RowFactScore {
  std::string_view entity;
  std::string_view attribute;
  double posterior = 0.0;
};

/// Scores every fact of `rows` (seq-ordered, as SnapshotRows returns
/// them) in closed form (Eq. 3) without building a Dataset. Bit-identical
/// to ScoreSlice over the Dataset MaterializeSnapshot replays the same
/// rows into, under the lookup `terms` came from: facts come back in
/// first-appearance order (the Dataset's FactId order), and each fact
/// sums its claims in ClaimTable's order — its distinct asserting sources
/// as positive claims, then the entity's other sources as negative
/// claims, each group in source first-appearance order. Checks ctx for
/// cancellation and deadline once, as LtmIncremental does.
Result<std::vector<RowFactScore>> ScoreRows(
    const std::vector<store::SegmentRow>& rows, const QualityLogTerms& terms,
    const RunContext& ctx);

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_FACT_SCORING_H_
