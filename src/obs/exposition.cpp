#include "obs/exposition.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace fdd::obs {

namespace {

constexpr std::string_view kPrefix = "flatdd_";

bool validNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

void appendMangled(std::string& out, std::string_view name) {
  out += kPrefix;
  for (const char c : name) {
    out += validNameChar(c) ? c : '_';
  }
}

void appendLabelValue(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void appendHeader(std::string& out, std::string_view mangledFamily,
                  std::string_view type, std::string_view help) {
  out += "# HELP ";
  out += mangledFamily;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += mangledFamily;
  out += ' ';
  out += type;
  out += '\n';
}

void appendDouble(std::string& out, double v) {
  out += json::numberToString(v);
}

/// Upper bound (inclusive) of log2 histogram bucket `b`, in nanoseconds:
/// bucket 0 holds exactly 0, bucket b holds [2^(b-1), 2^b).
std::uint64_t bucketUpperNs(std::size_t b) {
  return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
}

}  // namespace

std::string prometheusName(std::string_view name) {
  std::string out;
  out.reserve(kPrefix.size() + name.size());
  appendMangled(out, name);
  return out;
}

void writePrometheusText(const ObsSnapshot& snap, std::string& out) {
  // One reservation up front; everything below is plain appends. The
  // estimate deliberately overshoots a little so a serving loop reusing
  // the buffer settles after the first scrape.
  std::size_t estimate = 256;
  estimate += snap.counters.size() * 160;
  estimate += snap.gauges.size() * 160;
  for (const auto& h : snap.histograms) {
    estimate += 320 + h.buckets.size() * 96;
  }
  estimate += snap.poolPhases.size() * 420;
  out.reserve(out.size() + estimate);

  std::string family;  // reused mangled-name scratch
  family.reserve(96);

  for (const auto& c : snap.counters) {
    family.clear();
    appendMangled(family, c.name);
    family += "_total";
    appendHeader(out, family, "counter", "FlatDD counter");
    out += family;
    out += ' ';
    out += std::to_string(c.value);
    out += '\n';
  }

  for (const auto& g : snap.gauges) {
    family.clear();
    appendMangled(family, g.name);
    appendHeader(out, family, "gauge", "FlatDD gauge");
    out += family;
    out += ' ';
    appendDouble(out, g.value);
    out += '\n';
  }

  for (const auto& h : snap.histograms) {
    family.clear();
    appendMangled(family, h.name);
    family += "_seconds";
    appendHeader(out, family, "histogram",
                 "FlatDD log2-bucketed latency histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += family;
      out += "_bucket{le=\"";
      appendDouble(out, static_cast<double>(bucketUpperNs(b)) / 1e9);
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    // The count and the buckets are read one by one while writers may
    // still record, so they can disagree mid-scrape; +Inf must never fall
    // below the last finite bucket.
    const std::uint64_t total = std::max(cumulative, h.count);
    out += family;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(total);
    out += '\n';
    out += family;
    out += "_sum ";
    appendDouble(out, static_cast<double>(h.sumNs) / 1e9);
    out += '\n';
    out += family;
    out += "_count ";
    out += std::to_string(total);
    out += '\n';
  }

  if (!snap.poolPhases.empty()) {
    appendHeader(out, "flatdd_pool_phase_imbalance", "gauge",
                 "Per-phase load imbalance (max worker busy / mean)");
    for (const auto& p : snap.poolPhases) {
      out += "flatdd_pool_phase_imbalance{phase=\"";
      appendLabelValue(out, p.phase);
      out += "\"} ";
      appendDouble(out, p.imbalance);
      out += '\n';
    }
    appendHeader(out, "flatdd_pool_phase_regions_total", "counter",
                 "Fork/join regions executed per pool phase");
    for (const auto& p : snap.poolPhases) {
      out += "flatdd_pool_phase_regions_total{phase=\"";
      appendLabelValue(out, p.phase);
      out += "\"} ";
      out += std::to_string(p.regions);
      out += '\n';
    }
    appendHeader(out, "flatdd_pool_phase_wall_seconds_total", "counter",
                 "Summed region wall time per pool phase");
    for (const auto& p : snap.poolPhases) {
      out += "flatdd_pool_phase_wall_seconds_total{phase=\"";
      appendLabelValue(out, p.phase);
      out += "\"} ";
      appendDouble(out, p.wallSeconds);
      out += '\n';
    }
  }

  appendHeader(out, "flatdd_trace_dropped_events", "gauge",
               "Trace events overwritten by ring wraparound");
  out += "flatdd_trace_dropped_events ";
  out += std::to_string(snap.droppedTraceEvents);
  out += '\n';
}

std::string prometheusText() {
  std::string out;
  writePrometheusText(Registry::instance().snapshot(), out);
  return out;
}

}  // namespace fdd::obs
