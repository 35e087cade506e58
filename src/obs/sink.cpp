#include "obs/sink.h"

namespace vihot::obs {

void Sink::attach_to(Registry& registry, const std::string& prefix) const {
  const auto attach_family = [&](const char* family, const auto& stats) {
    const std::string base = prefix + family + ".";
    stats.for_each_metric([&](const char* suffix, const auto& metric) {
      registry.attach(base + suffix, metric);
    });
  };
  attach_family("tracker", tracker);
  attach_family("engine", engine);
  attach_family("ingest", ingest);
  attach_family("profile_store", profile_store);
  attach_family("daemon", daemon);
  attach_family("replay", replay);
  attach_family("scenario", scenario);
}

TrackerStatsSnapshot snapshot(const TrackerStats& stats) {
  TrackerStatsSnapshot out;
#define VIHOT_OBS_COPY_COUNTER(member, suffix) \
  out.member = stats.member.value();
#define VIHOT_OBS_COPY_HISTOGRAM(member, suffix, ...) \
  out.member##_mean = stats.member.mean();
  VIHOT_OBS_TRACKER_METRICS(VIHOT_OBS_COPY_COUNTER, VIHOT_OBS_COPY_HISTOGRAM)
#undef VIHOT_OBS_COPY_COUNTER
#undef VIHOT_OBS_COPY_HISTOGRAM
  return out;
}

}  // namespace vihot::obs
