#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

namespace vihot::obs {

namespace {

/// Relaxed CAS-min/max update for atomic doubles (fetch_min/fetch_max for
/// floating point does not exist pre-C++26).
template <typename Cmp>
void update_extreme(std::atomic<double>& slot, double x, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(x, cur) &&
         !slot.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void add_double(std::atomic<double>& slot, double x) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

Histogram::Histogram(std::initializer_list<double> bounds) {
  for (const double b : bounds) {
    if (n_ >= kMaxBuckets) break;
    bounds_[n_++] = b;
  }
}

void Histogram::observe(double x) noexcept {
  std::size_t i = 0;
  while (i < n_ && x > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  add_double(sum_, x);
  if (prev == 0) {
    // First observation seeds both extremes; racing observers correct
    // them through the CAS updates below.
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  }
  update_extreme(min_, x, [](double a, double b) { return a < b; });
  update_extreme(max_, x, [](double a, double b) { return a > b; });
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= n_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

void Registry::attach(const std::string& name, const Counter& c) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.push_back({name, &c, nullptr});
}

void Registry::attach(const std::string& name, const Histogram& h) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.push_back({name, nullptr, &h});
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os.precision(12);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (e.counter == nullptr) continue;
    os << (first ? "\n" : ",\n") << "    \"";
    json_escape(os, e.name);
    os << "\": " << e.counter->value();
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const Entry& e : entries_) {
    if (e.histogram == nullptr) continue;
    const Histogram& h = *e.histogram;
    os << (first ? "\n" : ",\n") << "    \"";
    json_escape(os, e.name);
    os << "\": {\"count\": " << h.count() << ", \"sum\": " << h.sum()
       << ", \"min\": " << h.min() << ", \"max\": " << h.max()
       << ", \"buckets\": [";
    for (std::size_t i = 0; i <= h.num_bounds(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < h.num_bounds()) {
        os << h.bound(i);
      } else {
        os << "\"+inf\"";
      }
      os << ", \"count\": " << h.bucket_count(i) << '}';
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void Registry::write_csv(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os.precision(12);
  os << "kind,name,field,value\n";
  for (const Entry& e : entries_) {
    if (e.counter != nullptr) {
      os << "counter," << e.name << ",value," << e.counter->value() << '\n';
      continue;
    }
    const Histogram& h = *e.histogram;
    os << "histogram," << e.name << ",count," << h.count() << '\n';
    os << "histogram," << e.name << ",sum," << h.sum() << '\n';
    os << "histogram," << e.name << ",min," << h.min() << '\n';
    os << "histogram," << e.name << ",max," << h.max() << '\n';
    for (std::size_t i = 0; i <= h.num_bounds(); ++i) {
      os << "histogram," << e.name << ",le_";
      if (i < h.num_bounds()) {
        os << h.bound(i);
      } else {
        os << "inf";
      }
      os << ',' << h.bucket_count(i) << '\n';
    }
  }
}

}  // namespace vihot::obs
