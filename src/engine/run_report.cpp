#include "engine/run_report.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace fdd::engine {

namespace {

using json::numberToString;
using JsonObject = json::Object;
using JsonArray = json::Array;
using JsonValue = json::Value;

// Typed field extraction (missing/mistyped keys keep the default).
void get(const JsonObject& o, std::string_view key, std::string& out) {
  if (const auto it = o.find(key); it != o.end()) {
    if (const auto* s = it->second.string()) {
      out = *s;
    }
  }
}
void get(const JsonObject& o, std::string_view key, double& out) {
  if (const auto it = o.find(key); it != o.end()) {
    if (const auto* d = it->second.number()) {
      out = *d;
    }
  }
}
void get(const JsonObject& o, std::string_view key, bool& out) {
  if (const auto it = o.find(key); it != o.end()) {
    if (const auto* b = it->second.boolean()) {
      out = *b;
    }
  }
}
void get(const JsonObject& o, std::string_view key, std::size_t& out) {
  double d = static_cast<double>(out);
  get(o, key, d);
  out = static_cast<std::size_t>(d);
}
// 64-bit values that must round-trip exactly travel as decimal strings (a
// JSON double only holds 53 mantissa bits); a plain number is accepted too
// for hand-edited reports.
void getU64(const JsonObject& o, std::string_view key, std::uint64_t& out) {
  const auto it = o.find(key);
  if (it == o.end()) {
    return;
  }
  if (const auto* s = it->second.string()) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s->c_str(), &end, 10);
    if (end != s->c_str() && *end == '\0') {
      out = parsed;
    }
  } else if (const auto* d = it->second.number()) {
    out = static_cast<std::uint64_t>(*d);
  }
}
void get(const JsonObject& o, std::string_view key, unsigned& out) {
  double d = out;
  get(o, key, d);
  out = static_cast<unsigned>(d);
}
void get(const JsonObject& o, std::string_view key, Qubit& out) {
  double d = out;
  get(o, key, d);
  out = static_cast<Qubit>(d);
}
void get(const JsonObject& o, std::string_view key, std::vector<double>& out) {
  if (const auto it = o.find(key); it != o.end()) {
    if (const JsonArray* arr = it->second.array()) {
      out.clear();
      out.reserve(arr->size());
      for (const auto& entry : *arr) {
        out.push_back(entry.number() != nullptr ? *entry.number() : 0.0);
      }
    }
  }
}

void writeMetrics(json::Writer& w, const MetricsReport& m) {
  w.beginObjectIn("metrics");
  w.beginArray("counters");
  for (const auto& c : m.counters) {
    w.beginObjectEntry();
    w.field("name", c.name);
    w.field("value", c.value);
    w.endObject();
  }
  w.endArray();
  w.beginArray("histograms");
  for (const auto& h : m.histograms) {
    w.beginObjectEntry();
    w.field("name", h.name);
    w.field("count", h.count);
    w.field("sumSeconds", h.sumSeconds);
    w.field("minSeconds", h.minSeconds);
    w.field("maxSeconds", h.maxSeconds);
    w.field("p50Seconds", h.p50Seconds);
    w.field("p99Seconds", h.p99Seconds);
    w.beginArray("buckets");
    for (const double b : h.buckets) {
      w.element(b);
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.beginArray("poolPhases");
  for (const auto& p : m.poolPhases) {
    w.beginObjectEntry();
    w.field("phase", p.phase);
    w.field("regions", p.regions);
    w.field("wallSeconds", p.wallSeconds);
    w.beginArray("busySeconds");
    for (const double b : p.busySeconds) {
      w.element(b);
    }
    w.endArray();
    w.field("imbalance", p.imbalance);
    w.endObject();
  }
  w.endArray();
  w.field("loadImbalance", m.loadImbalance);
  w.field("droppedTraceEvents", m.droppedTraceEvents);
  w.endObject();
}

MetricsReport readMetrics(const JsonObject& o) {
  MetricsReport m;
  if (const auto it = o.find("counters"); it != o.end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* c = entry.object()) {
          MetricCounter counter;
          get(*c, "name", counter.name);
          get(*c, "value", counter.value);
          m.counters.push_back(std::move(counter));
        }
      }
    }
  }
  if (const auto it = o.find("histograms"); it != o.end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* h = entry.object()) {
          MetricHistogram hist;
          get(*h, "name", hist.name);
          get(*h, "count", hist.count);
          get(*h, "sumSeconds", hist.sumSeconds);
          get(*h, "minSeconds", hist.minSeconds);
          get(*h, "maxSeconds", hist.maxSeconds);
          get(*h, "p50Seconds", hist.p50Seconds);
          get(*h, "p99Seconds", hist.p99Seconds);
          get(*h, "buckets", hist.buckets);
          m.histograms.push_back(std::move(hist));
        }
      }
    }
  }
  if (const auto it = o.find("poolPhases"); it != o.end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* p = entry.object()) {
          PoolPhaseMetrics phase;
          get(*p, "phase", phase.phase);
          get(*p, "regions", phase.regions);
          get(*p, "wallSeconds", phase.wallSeconds);
          get(*p, "busySeconds", phase.busySeconds);
          get(*p, "imbalance", phase.imbalance);
          m.poolPhases.push_back(std::move(phase));
        }
      }
    }
  }
  get(o, "loadImbalance", m.loadImbalance);
  get(o, "droppedTraceEvents", m.droppedTraceEvents);
  return m;
}

}  // namespace

MetricsReport metricsFromSnapshot(const obs::ObsSnapshot& snap) {
  MetricsReport m;
  m.counters.reserve(snap.counters.size() + snap.gauges.size());
  for (const auto& c : snap.counters) {
    m.counters.push_back(
        MetricCounter{c.name, static_cast<double>(c.value)});
  }
  // Gauges fold into the same flat list: their last value is a point-in-time
  // reading, which is all the report needs (the trace has the full track).
  for (const auto& g : snap.gauges) {
    m.counters.push_back(MetricCounter{g.name, g.value});
  }
  m.histograms.reserve(snap.histograms.size());
  for (const auto& h : snap.histograms) {
    MetricHistogram hist;
    hist.name = h.name;
    hist.count = h.count;
    hist.sumSeconds = static_cast<double>(h.sumNs) / 1e9;
    hist.minSeconds = static_cast<double>(h.minNs) / 1e9;
    hist.maxSeconds = static_cast<double>(h.maxNs) / 1e9;
    hist.p50Seconds = static_cast<double>(h.p50Ns) / 1e9;
    hist.p99Seconds = static_cast<double>(h.p99Ns) / 1e9;
    hist.buckets.reserve(h.buckets.size());
    for (const auto b : h.buckets) {
      hist.buckets.push_back(static_cast<double>(b));
    }
    m.histograms.push_back(std::move(hist));
  }
  m.poolPhases.reserve(snap.poolPhases.size());
  for (const auto& p : snap.poolPhases) {
    PoolPhaseMetrics phase;
    phase.phase = p.phase;
    phase.regions = p.regions;
    phase.wallSeconds = p.wallSeconds;
    phase.busySeconds = p.busySeconds;
    phase.imbalance = p.imbalance;
    m.poolPhases.push_back(std::move(phase));
  }
  m.loadImbalance = snap.worstImbalance();
  m.droppedTraceEvents = snap.droppedTraceEvents;
  return m;
}

std::string RunReport::toJson() const {
  json::Writer w;
  w.beginObject();
  w.field("backend", backend);
  w.field("circuit", circuit);
  w.field("qubits", qubits);
  w.field("gates", gates);
  w.field("depth", depth);
  w.field("threads", threads);
  w.field("seed", std::to_string(seed));
  w.field("simdTier", simdTier);
  w.field("simdLanes", simdLanes);

  w.beginObjectIn("timings");
  w.field("total", totalSeconds);
  w.field("pipeline", pipelineSeconds);
  w.field("simulate", simulateSeconds);
  w.field("ddPhase", ddPhaseSeconds);
  w.field("dmavPhase", dmavPhaseSeconds);
  w.field("conversion", conversionSeconds);
  w.field("fusion", fusionSeconds);
  w.field("planCompile", planCompileSeconds);
  w.field("dmavReplay", dmavReplaySeconds);
  w.endObject();

  w.beginObjectIn("counters");
  w.field("converted", converted);
  w.field("conversionGateIndex", conversionGateIndex);
  w.field("ddGates", ddGates);
  w.field("dmavGates", dmavGates);
  w.field("cachedGates", cachedGates);
  w.field("cacheHits", cacheHits);
  w.field("planCacheHits", planCacheHits);
  w.field("planCacheMisses", planCacheMisses);
  w.field("planCompiles", planCompiles);
  w.field("diagRuns", diagRuns);
  w.field("diagRunGates", diagRunGates);
  w.field("denseBlockGates", denseBlockGates);
  w.field("inPlaceGates", inPlaceGates);
  w.field("peakDDSize", peakDDSize);
  w.field("dmavModelCost", dmavModelCost);
  w.field("reorderCount", reorderCount);
  w.field("reorderSwaps", reorderSwaps);
  w.field("ddSizePreReorder", ddSizePreReorder);
  w.field("ddSizePostReorder", ddSizePostReorder);
  w.field("reorderSeconds", reorderSeconds);
  w.endObject();

  w.beginArray("ordering");
  for (const Qubit q : ordering) {
    w.element(static_cast<double>(q));
  }
  w.endArray();

  w.beginObjectIn("memory");
  w.field("accountedBytes", memoryBytes);
  w.field("peakRssBytes", peakRssBytes);
  w.endObject();

  w.beginArray("passes");
  for (const auto& p : passes) {
    w.beginObjectEntry();
    w.field("name", p.name);
    w.field("circuitTransform", p.circuitTransform);
    w.field("seconds", p.seconds);
    w.field("gatesBefore", p.gatesBefore);
    w.field("gatesAfter", p.gatesAfter);
    w.field("note", p.note);
    w.endObject();
  }
  w.endArray();

  w.beginArray("perGate");
  for (const auto& g : perGate) {
    w.beginObjectEntry();
    w.field("gate", g.gateIndex);
    w.field("phase", g.phase);
    w.field("seconds", g.seconds);
    w.field("ddSize", g.ddSize);
    w.endObject();
  }
  w.endArray();

  writeMetrics(w, metrics);

  w.beginArray("ewmaLog");
  for (const auto& t : ewmaLog) {
    w.beginObjectEntry();
    w.field("gate", t.gate);
    w.field("ddSize", t.ddSize);
    w.field("ewma", t.ewma);
    w.field("threshold", t.threshold);
    w.field("triggered", t.triggered);
    w.endObject();
  }
  w.endArray();

  w.endObject();
  return w.take();
}

RunReport RunReport::fromJson(std::string_view text) {
  JsonValue root;
  try {
    root = json::parse(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string{"RunReport::fromJson: "} +
                                e.what());
  }
  const JsonObject* top = root.object();
  if (top == nullptr) {
    throw std::invalid_argument("RunReport::fromJson: top level not an object");
  }

  RunReport r;
  get(*top, "backend", r.backend);
  get(*top, "circuit", r.circuit);
  get(*top, "qubits", r.qubits);
  get(*top, "gates", r.gates);
  get(*top, "depth", r.depth);
  get(*top, "threads", r.threads);
  getU64(*top, "seed", r.seed);
  get(*top, "simdTier", r.simdTier);
  get(*top, "simdLanes", r.simdLanes);

  if (const auto it = top->find("timings"); it != top->end()) {
    if (const JsonObject* t = it->second.object()) {
      get(*t, "total", r.totalSeconds);
      get(*t, "pipeline", r.pipelineSeconds);
      get(*t, "simulate", r.simulateSeconds);
      get(*t, "ddPhase", r.ddPhaseSeconds);
      get(*t, "dmavPhase", r.dmavPhaseSeconds);
      get(*t, "conversion", r.conversionSeconds);
      get(*t, "fusion", r.fusionSeconds);
      get(*t, "planCompile", r.planCompileSeconds);
      get(*t, "dmavReplay", r.dmavReplaySeconds);
    }
  }
  if (const auto it = top->find("counters"); it != top->end()) {
    if (const JsonObject* c = it->second.object()) {
      get(*c, "converted", r.converted);
      get(*c, "conversionGateIndex", r.conversionGateIndex);
      get(*c, "ddGates", r.ddGates);
      get(*c, "dmavGates", r.dmavGates);
      get(*c, "cachedGates", r.cachedGates);
      get(*c, "cacheHits", r.cacheHits);
      get(*c, "planCacheHits", r.planCacheHits);
      get(*c, "planCacheMisses", r.planCacheMisses);
      get(*c, "planCompiles", r.planCompiles);
      get(*c, "diagRuns", r.diagRuns);
      get(*c, "diagRunGates", r.diagRunGates);
      get(*c, "denseBlockGates", r.denseBlockGates);
      get(*c, "inPlaceGates", r.inPlaceGates);
      get(*c, "peakDDSize", r.peakDDSize);
      get(*c, "dmavModelCost", r.dmavModelCost);
      get(*c, "reorderCount", r.reorderCount);
      get(*c, "reorderSwaps", r.reorderSwaps);
      get(*c, "ddSizePreReorder", r.ddSizePreReorder);
      get(*c, "ddSizePostReorder", r.ddSizePostReorder);
      get(*c, "reorderSeconds", r.reorderSeconds);
    }
  }
  if (const auto it = top->find("ordering"); it != top->end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        r.ordering.push_back(entry.number() != nullptr
                                 ? static_cast<Qubit>(*entry.number())
                                 : Qubit{0});
      }
    }
  }
  if (const auto it = top->find("memory"); it != top->end()) {
    if (const JsonObject* m = it->second.object()) {
      get(*m, "accountedBytes", r.memoryBytes);
      get(*m, "peakRssBytes", r.peakRssBytes);
    }
  }
  if (const auto it = top->find("passes"); it != top->end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* p = entry.object()) {
          PassReport pass;
          get(*p, "name", pass.name);
          get(*p, "circuitTransform", pass.circuitTransform);
          get(*p, "seconds", pass.seconds);
          get(*p, "gatesBefore", pass.gatesBefore);
          get(*p, "gatesAfter", pass.gatesAfter);
          get(*p, "note", pass.note);
          r.passes.push_back(std::move(pass));
        }
      }
    }
  }
  if (const auto it = top->find("perGate"); it != top->end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* g = entry.object()) {
          GateReport gate;
          get(*g, "gate", gate.gateIndex);
          get(*g, "phase", gate.phase);
          get(*g, "seconds", gate.seconds);
          get(*g, "ddSize", gate.ddSize);
          r.perGate.push_back(std::move(gate));
        }
      }
    }
  }
  if (const auto it = top->find("metrics"); it != top->end()) {
    if (const JsonObject* m = it->second.object()) {
      r.metrics = readMetrics(*m);
    }
  }
  if (const auto it = top->find("ewmaLog"); it != top->end()) {
    if (const JsonArray* arr = it->second.array()) {
      for (const auto& entry : *arr) {
        if (const JsonObject* t = entry.object()) {
          EwmaTickReport tick;
          get(*t, "gate", tick.gate);
          get(*t, "ddSize", tick.ddSize);
          get(*t, "ewma", tick.ewma);
          get(*t, "threshold", tick.threshold);
          get(*t, "triggered", tick.triggered);
          r.ewmaLog.push_back(tick);
        }
      }
    }
  }
  return r;
}

std::string RunReport::toCsv() const {
  std::string csv = "key,value\n";
  auto row = [&csv](std::string_view key, const std::string& value) {
    csv += key;
    csv += ',';
    csv += value;
    csv += '\n';
  };
  row("backend", backend);
  row("circuit", circuit);
  row("qubits", std::to_string(qubits));
  row("gates", std::to_string(gates));
  row("depth", std::to_string(depth));
  row("threads", std::to_string(threads));
  row("seed", std::to_string(seed));
  row("simd_tier", simdTier);
  row("simd_lanes", std::to_string(simdLanes));
  row("total_seconds", numberToString(totalSeconds));
  row("pipeline_seconds", numberToString(pipelineSeconds));
  row("simulate_seconds", numberToString(simulateSeconds));
  row("dd_phase_seconds", numberToString(ddPhaseSeconds));
  row("dmav_phase_seconds", numberToString(dmavPhaseSeconds));
  row("conversion_seconds", numberToString(conversionSeconds));
  row("fusion_seconds", numberToString(fusionSeconds));
  row("plan_compile_ms", numberToString(planCompileSeconds * 1e3));
  row("dmav_replay_ms", numberToString(dmavReplaySeconds * 1e3));
  row("converted", converted ? "1" : "0");
  row("conversion_gate_index", std::to_string(conversionGateIndex));
  row("dd_gates", std::to_string(ddGates));
  row("dmav_gates", std::to_string(dmavGates));
  row("cached_gates", std::to_string(cachedGates));
  row("cache_hits", std::to_string(cacheHits));
  row("plan_cache_hits", std::to_string(planCacheHits));
  row("plan_cache_misses", std::to_string(planCacheMisses));
  row("diag_runs", std::to_string(diagRuns));
  row("diag_run_gates", std::to_string(diagRunGates));
  row("dense_block_gates", std::to_string(denseBlockGates));
  row("in_place_gates", std::to_string(inPlaceGates));
  row("peak_dd_size", std::to_string(peakDDSize));
  row("dmav_model_cost", numberToString(dmavModelCost));
  row("reorder_count", std::to_string(reorderCount));
  row("reorder_swaps", std::to_string(reorderSwaps));
  row("dd_size_pre_reorder", std::to_string(ddSizePreReorder));
  row("dd_size_post_reorder", std::to_string(ddSizePostReorder));
  row("reorder_seconds", numberToString(reorderSeconds));
  if (!ordering.empty()) {
    std::string levels;
    for (const Qubit q : ordering) {
      if (!levels.empty()) {
        levels += ' ';
      }
      levels += std::to_string(q);
    }
    row("ordering", levels);
  }
  row("memory_bytes", std::to_string(memoryBytes));
  row("peak_rss_bytes", std::to_string(peakRssBytes));
  if (!metrics.empty()) {
    row("load_imbalance", numberToString(metrics.loadImbalance));
    row("dropped_trace_events", std::to_string(metrics.droppedTraceEvents));
  }
  return csv;
}

std::string RunReport::perGateCsv() const {
  std::string csv = "gate,phase,seconds,dd_size\n";
  for (const auto& g : perGate) {
    csv += std::to_string(g.gateIndex);
    csv += ',';
    csv += g.phase;
    csv += ',';
    csv += numberToString(g.seconds);
    csv += ',';
    csv += std::to_string(g.ddSize);
    csv += '\n';
  }
  return csv;
}

}  // namespace fdd::engine
