#include "support/flight_recorder.h"

#include <algorithm>

#include "support/strutil.h"

namespace uchecker::telemetry {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kPhaseBegin: return "phase_begin";
    case FlightKind::kPhaseEnd: return "phase_end";
    case FlightKind::kProgress: return "progress";
    case FlightKind::kSolverCall: return "solver_call";
    case FlightKind::kEvent: return "event";
    case FlightKind::kQueue: return "queue";
  }
  return "event";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_count_(round_up_pow2(capacity)),
      mask_(slots_count_ - 1),
      slots_(new Slot[slots_count_]),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t FlightRecorder::now_us() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::record(FlightKind kind, std::string_view detail,
                            std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t index = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index & mask_];
  // Mark the slot mid-write; readers seeing an odd seq skip it.
  slot.seq.store(2 * index + 1, std::memory_order_release);
  slot.t_us.store(now_us(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  const std::size_t n = std::min(detail.size(), kDetailBytes);
  for (std::size_t i = 0; i < n; ++i) {
    slot.detail[i].store(detail[i], std::memory_order_relaxed);
  }
  slot.detail_len.store(static_cast<std::uint8_t>(n),
                        std::memory_order_relaxed);
  // Publish: even seq encodes the event index so readers can order and
  // verify the copy they made.
  slot.seq.store(2 * index + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(slots_count_);
  for (std::size_t s = 0; s < slots_count_; ++s) {
    const Slot& slot = slots_[s];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1) != 0) continue;  // empty or mid-write
    FlightEvent ev;
    ev.index = seq / 2 - 1;
    ev.t_us = slot.t_us.load(std::memory_order_relaxed);
    ev.a = slot.a.load(std::memory_order_relaxed);
    ev.b = slot.b.load(std::memory_order_relaxed);
    ev.kind = static_cast<FlightKind>(slot.kind.load(std::memory_order_relaxed));
    const std::size_t n =
        std::min<std::size_t>(slot.detail_len.load(std::memory_order_relaxed),
                              kDetailBytes);
    ev.detail.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ev.detail[i] = slot.detail[i].load(std::memory_order_relaxed);
    }
    // Re-check: if a writer claimed the slot during the copy, the copy
    // may be torn — drop it.
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    out.push_back(std::move(ev));
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.index < y.index;
            });
  return out;
}

namespace {

// Innermost phase begun but never ended in the visible window.
std::vector<std::string_view> open_phases(
    const std::vector<FlightEvent>& events) {
  std::vector<std::string_view> phase_stack;
  for (const FlightEvent& ev : events) {
    switch (ev.kind) {
      case FlightKind::kPhaseBegin:
        phase_stack.push_back(ev.detail);
        break;
      case FlightKind::kPhaseEnd:
        // Pop through to the matching begin (defensive against begins
        // that scrolled out of the ring).
        while (!phase_stack.empty()) {
          const bool match = phase_stack.back() == ev.detail;
          phase_stack.pop_back();
          if (match) break;
        }
        break;
      default:
        break;
    }
  }
  return phase_stack;
}

}  // namespace

std::string FlightRecorder::wedged_phase() const {
  const std::vector<FlightEvent> events = snapshot();
  const std::vector<std::string_view> stack = open_phases(events);
  return stack.empty() ? std::string() : std::string(stack.back());
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEvent> events = snapshot();
  const std::uint64_t total = total_recorded();
  const std::uint64_t dropped =
      total > slots_count_ ? total - slots_count_ : 0;

  const std::vector<std::string_view> phase_stack = open_phases(events);
  const FlightEvent* last_progress = nullptr;
  for (const FlightEvent& ev : events) {
    if (ev.kind == FlightKind::kProgress) last_progress = &ev;
  }

  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"total_recorded\": ";
  out += std::to_string(total);
  out += ", \"dropped\": ";
  out += std::to_string(dropped);
  out += ", \"wedged_phase\": ";
  if (phase_stack.empty()) {
    out += "null";
  } else {
    out += strutil::quote(phase_stack.back());
  }
  out += ", \"last_progress\": ";
  if (last_progress == nullptr) {
    out += "null";
  } else {
    out += "{\"t_us\": ";
    out += std::to_string(last_progress->t_us);
    out += ", \"live_paths\": ";
    out += std::to_string(last_progress->a);
    out += ", \"objects\": ";
    out += std::to_string(last_progress->b);
    out += '}';
  }
  out += ", \"events\": [";
  bool first = true;
  for (const FlightEvent& ev : events) {
    if (!first) out += ", ";
    first = false;
    out += "{\"t_us\": ";
    out += std::to_string(ev.t_us);
    out += ", \"kind\": ";
    out += strutil::quote(flight_kind_name(ev.kind));
    out += ", \"detail\": ";
    out += strutil::quote(ev.detail);
    out += ", \"a\": ";
    out += std::to_string(ev.a);
    out += ", \"b\": ";
    out += std::to_string(ev.b);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace uchecker::telemetry
