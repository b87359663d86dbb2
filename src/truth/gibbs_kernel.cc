#include "truth/gibbs_kernel.h"

#include <algorithm>
#include <cmath>

namespace ltm {

void LogCountTables::Reset(const BetaPrior& alpha0,
                           const BetaPrior& alpha1) {
  alpha_ = {{{alpha0.neg, alpha0.pos}, {alpha1.neg, alpha1.pos}}};
  for (int i = 0; i < 2; ++i) {
    alpha_sum_[i] = alpha_[i][0] + alpha_[i][1];
    den_[i].clear();
    for (int j = 0; j < 2; ++j) num_[i][j].clear();
  }
}

void LogCountTables::Grow(std::vector<double>* t, double offset,
                          size_t needed) {
  size_t new_size = std::max<size_t>(t->size() * 2, 64);
  new_size = std::max(new_size, needed + 1);
  new_size = std::min(new_size, kMaxEntries);
  size_t k = t->size();
  t->resize(new_size);
  for (; k < new_size; ++k) {
    (*t)[k] = std::log(static_cast<double>(k) + offset);
  }
}

double FlipProbability(const ClaimGraph& graph, FactId f, int cur,
                       const std::vector<int64_t>& counts,
                       const std::array<double, 2>& log_beta,
                       LogCountTables* tables) {
  const int other = 1 - cur;
  double lp_cur = log_beta[cur];
  double lp_other = log_beta[other];
  for (uint32_t entry : graph.FactClaims(f)) {
    const uint32_t s = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t* c = &counts[s * 4];
    // Fact f's own claim is counted under cur, so the self-excluded
    // counts are the raw counts minus one — always >= 0.
    lp_cur += tables->LogNum(cur, j, c[cur * 2 + j] - 1) -
              tables->LogDen(cur, c[cur * 2] + c[cur * 2 + 1] - 1);
    lp_other += tables->LogNum(other, j, c[other * 2 + j]) -
                tables->LogDen(other, c[other * 2] + c[other * 2 + 1]);
  }
  // p(flip) = p_other / (p_cur + p_other) = sigmoid(lp_other - lp_cur).
  return 1.0 / (1.0 + std::exp(lp_cur - lp_other));
}

int GibbsSweepRange(const ClaimGraph& graph, FactId begin, FactId end,
                    std::vector<uint8_t>* truth,
                    std::vector<int64_t>* counts,
                    const std::array<double, 2>& log_beta,
                    LogCountTables* tables, Rng* rng) {
  int flips = 0;
  for (FactId f = begin; f < end; ++f) {
    const int cur = (*truth)[f];
    const double p_flip =
        FlipProbability(graph, f, cur, *counts, log_beta, tables);
    if (rng->Uniform() < p_flip) {
      ++flips;
      const int other = 1 - cur;
      (*truth)[f] = static_cast<uint8_t>(other);
      for (uint32_t entry : graph.FactClaims(f)) {
        const uint32_t s = ClaimGraph::PackedId(entry);
        const int j = ClaimGraph::PackedObs(entry);
        --(*counts)[s * 4 + cur * 2 + j];
        ++(*counts)[s * 4 + other * 2 + j];
      }
    }
  }
  return flips;
}

void RecountClaims(const ClaimGraph& graph,
                   const std::vector<uint8_t>& truth,
                   std::vector<int64_t>* counts) {
  std::fill(counts->begin(), counts->end(), 0);
  for (FactId f = 0; f < truth.size(); ++f) {
    const int i = truth[f];
    for (uint32_t entry : graph.FactClaims(f)) {
      ++(*counts)[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                  ClaimGraph::PackedObs(entry)];
    }
  }
}

}  // namespace ltm
