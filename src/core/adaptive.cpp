#include "core/adaptive.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mpi/rank.hpp"

namespace ds::stream {

AdaptiveBatcher::AdaptiveBatcher(Stream& stream, std::size_t record_bytes,
                                 AdaptiveConfig config)
    : stream_(&stream), record_bytes_(record_bytes), config_(config) {
  // Validate before clamping: std::clamp with min > max is UB, so the
  // bounds must be known-sane before target_ is derived from them.
  if (config_.min_records == 0 || config_.min_records > config_.max_records)
    throw std::invalid_argument("AdaptiveBatcher: bad record bounds");
  if (config_.growth <= 1.0)
    throw std::invalid_argument("AdaptiveBatcher: growth must exceed 1");
  if (element_bytes(record_bytes, config_.max_records) >
      stream.element_size())
    throw std::invalid_argument(
        "AdaptiveBatcher: stream element too small for max_records");
  target_ = std::clamp(config_.initial_records, config_.min_records,
                       config_.max_records);
}

void AdaptiveBatcher::push(mpi::Rank& self) {
  // The controller's first window starts at the first record, not at
  // sim-time zero: a batcher created late must not see the pre-history as
  // elapsed production time (it would dilute overhead_fraction and skew the
  // first adapt() decision).
  if (!window_started_) {
    window_start_ = self.now();
    window_started_ = true;
  }
  ++pending_;
  ++records_;
  if (pending_ >= target_) flush(self);
}

void AdaptiveBatcher::flush(mpi::Rank& self) {
  if (pending_ == 0) return;
  const AdaptiveHeader header{pending_, 0};
  const util::SimTime before = self.now();
  stream_->isend(self, mpi::SendBuf::header_only(
                           header, sizeof header + pending_ * record_bytes_));
  // Everything the injection charged to this fiber counts as overhead o.
  overhead_in_window_ += self.now() - before;
  pending_ = 0;
  ++elements_;

  const util::SimTime now = self.now();
  if (flushes_in_window_ > 0) flush_gap_sum_ += now - last_flush_at_;
  last_flush_at_ = now;
  if (++flushes_in_window_ >= config_.window) adapt(self);
}

void AdaptiveBatcher::finish(mpi::Rank& self) {
  flush(self);
  stream_->terminate(self);
}

void AdaptiveBatcher::adapt(mpi::Rank& /*self*/) {
  const util::SimTime elapsed = last_flush_at_ - window_start_;
  const double overhead_fraction =
      elapsed > 0 ? static_cast<double>(overhead_in_window_) /
                        static_cast<double>(elapsed)
                  : 0.0;
  const util::SimTime mean_gap =
      flushes_in_window_ > 1
          ? flush_gap_sum_ / (flushes_in_window_ - 1)
          : 0;

  // Eq. 4's two failure modes: too much (D/S)*o -> grow S; flow too coarse
  // for pipelining/absorption -> shrink S. Overhead pressure wins ties (the
  // paper calls congestion from over-fine elements the costlier error).
  if (overhead_fraction > config_.max_overhead_fraction) {
    target_ = std::min<std::uint32_t>(
        config_.max_records,
        static_cast<std::uint32_t>(static_cast<double>(target_) * config_.growth));
  } else if (mean_gap > config_.max_flush_interval) {
    // Guarantee progress toward min_records: the truncated quotient alone
    // can repeat the current target (e.g. small targets under a growth just
    // above 1), leaving the batch stuck above the floor.
    const auto shrunk =
        static_cast<std::uint32_t>(static_cast<double>(target_) / config_.growth);
    target_ = std::max(config_.min_records,
                       std::min(shrunk, target_ > 0 ? target_ - 1 : 0));
  }

  flushes_in_window_ = 0;
  flush_gap_sum_ = 0;
  overhead_in_window_ = 0;
  // The next window opens at its first push, not now: an idle gap between
  // bursts must not count as elapsed production time (same skew the first
  // window had before it was stamped lazily).
  window_started_ = false;
}

std::uint32_t FlowController::observe_flush(FlushTrigger trigger,
                                            std::uint32_t elements,
                                            std::uint64_t wire_bytes,
                                            std::uint32_t budget) {
  ++flushes_in_window_;
  bytes_in_window_ += wire_bytes;
  if (trigger == FlushTrigger::Budget) ++budget_flushes_;
  if (trigger == FlushTrigger::Idle && elements > 0) ++idle_flushes_;
  if (trigger == FlushTrigger::Credit) ++credit_flushes_;
  if (flushes_in_window_ < config_.window) {
    window_rolled_ = false;
    return budget;
  }

  const double budget_fraction =
      static_cast<double>(budget_flushes_) / flushes_in_window_;
  const double occupancy =
      static_cast<double>(bytes_in_window_) /
      (static_cast<double>(flushes_in_window_) * static_cast<double>(budget));
  std::uint32_t next = budget;
  if (budget_fraction >= config_.grow_fraction) {
    // Bursts keep filling frames: double the budget so each burst leaves in
    // fewer, larger messages (more per-message software cost amortized).
    next = std::min(config_.max_budget > 0 ? config_.max_budget : budget * 2,
                    budget * 2);
  } else if (budget_flushes_ == 0 && occupancy < config_.shrink_occupancy &&
             idle_flushes_ > 0) {
    // Sparse producer: frames leave near-empty from the backstop, so a large
    // budget buys nothing — halve it (never below one small element's worth).
    next = std::max(config_.min_budget, budget / 2);
  }
  window_rolled_ = true;
  last_window_credit_stalled_ = credit_flushes_ > 0;
  flushes_in_window_ = 0;
  budget_flushes_ = 0;
  idle_flushes_ = 0;
  credit_flushes_ = 0;
  bytes_in_window_ = 0;
  return next;
}

std::uint32_t FlowController::retune_window(std::uint32_t current,
                                            std::uint32_t configured,
                                            std::uint32_t cap,
                                            bool credit_stalled) noexcept {
  if (configured == 0) return 0;  // flow control off
  if (credit_stalled) return std::min(cap, current * 2);
  // No credit stall this window: decay halfway toward the configured value
  // (never below it — the consumer's liveness clamp is derived from it).
  if (current <= configured) return configured;
  return current - (current - configured + 1) / 2;
}

std::uint32_t FlowController::retune_ack_interval(
    std::uint32_t current, std::uint32_t frame_elements,
    std::uint32_t default_interval, std::uint32_t limit) noexcept {
  // Track the frame occupancy, but never drop below half the liveness clamp
  // (~half the credit window per consumer): acking in window-halves keeps a
  // credit-blocked producer refilling in large bursts (double-buffering).
  // Without that floor the loop locks into dribbles — each ack batch of k
  // credits unblocks a k-element burst, which flushes as a k-element frame,
  // which retunes the ack batch back to k.
  const std::uint32_t target = std::min(
      limit,
      std::max({default_interval, frame_elements, limit / 2}));
  // Move halfway toward the target each frame: smooth against one-off
  // partial frames while converging in a few frames of steady occupancy.
  if (target > current) return current + (target - current + 1) / 2;
  if (target < current) return current - (current - target + 1) / 2;
  return current;
}

std::uint32_t adaptive_record_count(const StreamElement& element) {
  if (!element.data || element.data_bytes < sizeof(AdaptiveHeader)) return 0;
  AdaptiveHeader header;
  std::memcpy(&header, element.data, sizeof header);
  return header.records;
}

}  // namespace ds::stream
