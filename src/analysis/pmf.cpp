#include "analysis/pmf.hpp"

#include <algorithm>
#include <stdexcept>

namespace coeff::analysis {

Pmf::Pmf(sim::Time quantum, std::size_t max_bins) : quantum_(quantum) {
  if (quantum <= sim::Time::zero()) {
    throw std::invalid_argument("Pmf: quantum must be positive");
  }
  if (max_bins == 0) {
    throw std::invalid_argument("Pmf: max_bins must be positive");
  }
  bins_.assign(max_bins, 0.0);
}

std::size_t Pmf::bin_of(sim::Time t) const {
  if (t < sim::Time::zero()) {
    throw std::invalid_argument("Pmf: negative delay");
  }
  // Round up: bin i carries "completes within i quanta", so pushing
  // mass later keeps every tail an upper bound.
  const std::int64_t q = quantum_.ns();
  const std::int64_t idx = (t.ns() + q - 1) / q;
  return static_cast<std::size_t>(idx);
}

Pmf Pmf::delta(sim::Time t, sim::Time quantum, std::size_t max_bins,
               double mass) {
  Pmf out(quantum, max_bins);
  out.add_mass(t, mass);
  return out;
}

void Pmf::cover(std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  if (lo_ == hi_) {
    lo_ = lo;
    hi_ = hi;
  } else {
    lo_ = std::min(lo_, lo);
    hi_ = std::max(hi_, hi);
  }
}

void Pmf::add_mass(sim::Time t, double mass) {
  const std::size_t idx = bin_of(t);
  if (idx >= bins_.size()) {
    overflow_ += mass;
  } else {
    bins_[idx] += mass;
    cover(idx, idx + 1);
  }
}

Pmf Pmf::convolve(const Pmf& other) const {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: convolve quantum mismatch");
  }
  const std::size_t n = std::max(bins_.size(), other.bins_.size());
  Pmf out(quantum_, n);
  double in_a = 0.0;
  double in_b = 0.0;
  for (std::size_t i = lo_; i < hi_; ++i) {
    const double a = bins_[i];
    if (a == 0.0) continue;
    in_a += a;
    // Products with k = i + j < n land in the grid, the rest overflow;
    // both halves keep ascending j, the order a full-grid walk adds in.
    const std::size_t split = std::clamp(n - i, other.lo_, other.hi_);
    for (std::size_t j = other.lo_; j < split; ++j) {
      out.bins_[i + j] += a * other.bins_[j];
    }
    for (std::size_t j = split; j < other.hi_; ++j) {
      out.overflow_ += a * other.bins_[j];
    }
  }
  for (std::size_t j = other.lo_; j < other.hi_; ++j) in_b += other.bins_[j];
  if (lo_ < hi_ && other.lo_ < other.hi_) {
    out.cover(lo_ + other.lo_, std::min(n, hi_ + other.hi_ - 1));
  }
  // Overflow is absorbing: an overflowed operand overflows the sum no
  // matter what the other contributes.
  out.overflow_ += overflow_ * (in_b + other.overflow_) + other.overflow_ * in_a;
  return out;
}

void Pmf::accumulate(const Pmf& other, double weight) {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: accumulate quantum mismatch");
  }
  const std::size_t n = std::min(bins_.size(), other.bins_.size());
  const std::size_t split = std::clamp(n, other.lo_, other.hi_);
  for (std::size_t i = other.lo_; i < split; ++i) {
    bins_[i] += weight * other.bins_[i];
  }
  for (std::size_t i = split; i < other.hi_; ++i) {
    overflow_ += weight * other.bins_[i];
  }
  overflow_ += weight * other.overflow_;
  cover(other.lo_, split);
}

void Pmf::accumulate_shifted(const Pmf& other, sim::Time dt, double weight) {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: accumulate quantum mismatch");
  }
  const std::size_t shift = other.bin_of(dt);
  const std::size_t n = std::min(bins_.size(), other.bins_.size());
  const std::size_t m = other.bins_.size();
  // Source bins [lo, in_grid) land in this grid; [in_grid, in_other)
  // land inside other's grid but past this one (overflow, as
  // accumulate routes them); [in_other, hi) spill off other's grid and
  // join its overflow bucket before weighting.
  const auto last_source = [&](std::size_t bins) {
    return shift < bins ? bins - shift : 0;
  };
  const std::size_t in_grid = std::clamp(last_source(n), other.lo_, other.hi_);
  const std::size_t in_other =
      std::clamp(last_source(m), in_grid, other.hi_);
  for (std::size_t i = other.lo_; i < in_grid; ++i) {
    bins_[i + shift] += weight * other.bins_[i];
  }
  for (std::size_t i = in_grid; i < in_other; ++i) {
    overflow_ += weight * other.bins_[i];
  }
  double spilled = 0.0;
  for (std::size_t i = in_other; i < other.hi_; ++i) spilled += other.bins_[i];
  overflow_ += weight * (spilled + other.overflow_);
  if (other.lo_ < in_grid) cover(other.lo_ + shift, in_grid + shift);
}

double Pmf::tail_above(sim::Time t) const {
  double tail = overflow_;
  if (t < sim::Time::zero()) t = sim::Time::zero();
  // Bin i sits at grid value i*q; strictly-greater comparison.
  const std::int64_t q = quantum_.ns();
  const std::size_t first =
      static_cast<std::size_t>(t.ns() / q) + 1;  // first bin with i*q > t
  for (std::size_t i = std::max(first, lo_); i < hi_; ++i) tail += bins_[i];
  return tail;
}

sim::Time Pmf::quantile(double p) const {
  // A full-grid walk meets cum >= p at bin 0 for any p <= 0; for p > 0
  // the bins below the support add exactly nothing.
  if (p <= 0.0) return sim::Time::zero();
  double cum = 0.0;
  for (std::size_t i = lo_; i < hi_; ++i) {
    cum += bins_[i];
    if (cum >= p) return quantum_ * static_cast<std::int64_t>(i);
  }
  return sim::Time::max();
}

double Pmf::normalize() {
  const double total = total_mass();
  if (total <= 0.0) return 1.0;
  const double inv = 1.0 / total;
  for (std::size_t i = lo_; i < hi_; ++i) bins_[i] *= inv;
  overflow_ *= inv;
  return inv;
}

double Pmf::total_mass() const {
  double total = overflow_;
  for (std::size_t i = lo_; i < hi_; ++i) total += bins_[i];
  return total;
}

Pmf with_cycle_slips(const Pmf& first_opportunity, double p_slip,
                     sim::Time cycle, int max_slips) {
  if (!(p_slip >= 0.0) || p_slip > 1.0) {
    throw std::invalid_argument("with_cycle_slips: p_slip outside [0, 1]");
  }
  if (max_slips < 0) {
    throw std::invalid_argument("with_cycle_slips: negative max_slips");
  }
  if (cycle < sim::Time::zero()) {
    throw std::invalid_argument("with_cycle_slips: negative cycle");
  }
  Pmf out(first_opportunity.quantum(), first_opportunity.max_bins());
  // p_pow tracks p_slip^j; the leftover after the truncated geometric sum
  // is exactly p_slip^(max_slips+1), routed to the overflow bucket so the
  // composition conserves mass.
  double p_pow = 1.0;
  for (int j = 0; j <= max_slips; ++j) {
    const double weight = (1.0 - p_slip) * p_pow;
    if (weight > 0.0) {
      out.accumulate_shifted(first_opportunity, cycle * j, weight);
    }
    p_pow *= p_slip;
    if (p_pow == 0.0 && j < max_slips) break;
  }
  out.add_overflow(p_pow * first_opportunity.total_mass());
  return out;
}

}  // namespace coeff::analysis
