// Minimal JSON emission for the result line and the run envelope.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number (non-finite values become 0 so the line stays
/// valid JSON).
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An ordered JSON object under construction.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    fields_.emplace_back(k, json_num(v));
    return *this;
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, json_str(v));
    return *this;
  }
  JsonObject& boolean(const std::string& k, bool v) {
    fields_.emplace_back(k, v ? "true" : "false");
    return *this;
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    fields_.emplace_back(k, json);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A named metric with its unit, as the result line carries it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_num(v[i]);
  }
  return out + "]";
}

inline std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  }
  return o.dump();
}

}  // namespace perfbench
