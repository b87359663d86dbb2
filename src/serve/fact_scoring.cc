#include "serve/fact_scoring.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "truth/ltm_incremental.h"

namespace ltm {
namespace serve {

namespace {

/// LtmIncremental's per-claim expressions, evaluated once: φ1 is the
/// sensitivity, φ0 one minus the specificity, both clamped away from 0
/// and 1.
SourceLogTerms LogTermsOf(double sensitivity, double specificity) {
  const double eps = 1e-12;
  const double phi1 = Clamp(sensitivity, eps, 1.0 - eps);
  const double phi0 = Clamp(1.0 - specificity, eps, 1.0 - eps);
  return SourceLogTerms{std::log(phi1), std::log(phi0), std::log(1.0 - phi1),
                        std::log(1.0 - phi0)};
}

/// Hash of an (entity id, attribute) fact key.
struct FactKeyHash {
  size_t operator()(const std::pair<uint32_t, std::string_view>& k) const {
    return std::hash<std::string_view>()(k.second) * 31 + k.first;
  }
};

}  // namespace

QualityLookup BuildQualityLookup(const SourceQuality& quality,
                                 const StringInterner& sources,
                                 const LtmOptions& options) {
  QualityLookup lookup;
  const size_t n = std::min(sources.size(), quality.NumSources());
  lookup.by_name.reserve(n);
  for (SourceId s = 0; s < n; ++s) {
    lookup.by_name.emplace(
        std::string(sources.Get(s)),
        std::make_pair(quality.sensitivity[s], quality.specificity[s]));
  }
  lookup.prior_sensitivity = options.alpha1.Mean();
  lookup.prior_specificity = 1.0 - options.alpha0.Mean();
  lookup.no_claim_prior = options.beta.Mean();
  return lookup;
}

Result<std::vector<double>> ScoreSlice(const Dataset& slice,
                                       const QualityLookup& lookup,
                                       const LtmOptions& options,
                                       const RunContext& ctx) {
  SourceQuality sliced;
  const size_t n = slice.raw.NumSources();
  sliced.sensitivity.resize(n);
  sliced.specificity.resize(n);
  sliced.precision.resize(n, 0.0);
  sliced.accuracy.resize(n, 0.0);
  sliced.expected_counts.resize(n);
  for (SourceId s = 0; s < n; ++s) {
    const auto it = lookup.by_name.find(std::string(slice.raw.sources().Get(s)));
    if (it != lookup.by_name.end()) {
      sliced.sensitivity[s] = it->second.first;
      sliced.specificity[s] = it->second.second;
    } else {
      sliced.sensitivity[s] = lookup.prior_sensitivity;
      sliced.specificity[s] = lookup.prior_specificity;
    }
  }
  LtmIncremental scorer(std::move(sliced), options);
  LTM_ASSIGN_OR_RETURN(const TruthResult result,
                       scorer.Run(ctx, slice.facts, slice.graph));
  return result.estimate.probability;
}

QualityLogTerms PrecomputeLogTerms(const QualityLookup& lookup,
                                   const LtmOptions& options) {
  QualityLogTerms terms;
  terms.by_name.reserve(lookup.by_name.size());
  for (const auto& [name, quality] : lookup.by_name) {
    terms.by_name.emplace(name, LogTermsOf(quality.first, quality.second));
  }
  terms.unseen =
      LogTermsOf(lookup.prior_sensitivity, lookup.prior_specificity);
  terms.log_beta_pos = std::log(options.beta.pos);
  terms.log_beta_neg = std::log(options.beta.neg);
  terms.no_claim_prior = lookup.no_claim_prior;
  return terms;
}

Result<std::vector<RowFactScore>> ScoreRows(
    const std::vector<store::SegmentRow>& rows, const QualityLogTerms& terms,
    const RunContext& ctx) {
  RunObserver obs(ctx, "ScoreRows");
  LTM_RETURN_IF_ERROR(obs.Check());
  // Numbering sources, entities and facts by first appearance in the
  // seq-ordered rows gives the ids Dataset::FromRaw would.
  std::unordered_map<std::string_view, uint32_t> source_ids;
  std::unordered_map<std::string_view, uint32_t> entity_ids;
  std::unordered_map<std::pair<uint32_t, std::string_view>, uint32_t,
                     FactKeyHash>
      fact_ids;
  std::vector<const SourceLogTerms*> source_terms;
  std::vector<uint32_t> fact_entity;
  std::vector<RowFactScore> out;
  // (fact, source) and (entity, source) claim pairs; duplicates collapse
  // below, as they do in the Dataset's row set.
  std::vector<std::pair<uint32_t, uint32_t>> fact_sources;
  std::vector<std::pair<uint32_t, uint32_t>> entity_sources;
  fact_sources.reserve(rows.size());
  entity_sources.reserve(rows.size());
  for (const store::SegmentRow& row : rows) {
    const auto [source, new_source] =
        source_ids.try_emplace(row.source, source_ids.size());
    if (new_source) {
      const auto it = terms.by_name.find(std::string_view(row.source));
      source_terms.push_back(it != terms.by_name.end() ? &it->second
                                                        : &terms.unseen);
    }
    const uint32_t e =
        entity_ids.try_emplace(row.entity, entity_ids.size()).first->second;
    const auto [fact, new_fact] =
        fact_ids.try_emplace({e, row.attribute}, fact_ids.size());
    if (new_fact) {
      fact_entity.push_back(e);
      out.push_back(RowFactScore{row.entity, row.attribute, 0.0});
    }
    fact_sources.emplace_back(fact->second, source->second);
    entity_sources.emplace_back(e, source->second);
  }
  for (auto* pairs : {&fact_sources, &entity_sources}) {
    std::sort(pairs->begin(), pairs->end());
    pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
  }
  std::vector<size_t> entity_begin(entity_ids.size() + 1, 0);
  for (const auto& [e, s] : entity_sources) ++entity_begin[e + 1];
  for (size_t e = 0; e < entity_ids.size(); ++e) {
    entity_begin[e + 1] += entity_begin[e];
  }

  size_t next = 0;  // fact_sources is fact-major: fact f's run starts here
  for (uint32_t f = 0; f < out.size(); ++f) {
    const size_t begin = next;
    while (next < fact_sources.size() && fact_sources[next].first == f) {
      ++next;
    }
    double lp1 = terms.log_beta_pos;
    double lp0 = terms.log_beta_neg;
    for (size_t i = begin; i < next; ++i) {
      const SourceLogTerms& t = *source_terms[fact_sources[i].second];
      lp1 += t.log_phi1;
      lp0 += t.log_phi0;
    }
    // Negative claims: the entity's sources minus the fact's, both sorted.
    size_t pos = begin;
    const uint32_t e = fact_entity[f];
    for (size_t i = entity_begin[e]; i < entity_begin[e + 1]; ++i) {
      const uint32_t s = entity_sources[i].second;
      while (pos < next && fact_sources[pos].second < s) ++pos;
      if (pos < next && fact_sources[pos].second == s) continue;
      const SourceLogTerms& t = *source_terms[s];
      lp1 += t.log_not_phi1;
      lp0 += t.log_not_phi0;
    }
    out[f].posterior = Sigmoid(lp1 - lp0);
  }
  return out;
}

}  // namespace serve
}  // namespace ltm
