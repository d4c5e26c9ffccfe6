#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fgnvm {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;

    // Accept "key = value", "key=value", and "key value".
    std::string key, value;
    const auto eq = line.find('=');
    if (eq != std::string::npos) {
      key = trim(line.substr(0, eq));
      value = trim(line.substr(eq + 1));
    } else {
      const auto ws = line.find_first_of(" \t");
      if (ws == std::string::npos) {
        throw std::runtime_error("Config: malformed line " +
                                 std::to_string(line_no) + ": '" + line + "'");
      }
      key = trim(line.substr(0, ws));
      value = trim(line.substr(ws + 1));
    }
    if (key.empty() || value.empty()) {
      throw std::runtime_error("Config: empty key or value at line " +
                               std::to_string(line_no));
    }
    cfg.set(key, value);
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("Config: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_string(buf.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_u64(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
}

void Config::set_double(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  values_[key] = os.str();
}

void Config::set_bool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  return find(key).value_or(dflt);
}

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  try {
    // std::stoull accepts a leading '-' (after whitespace) and wraps the
    // negated value, so "-1" would parse as 2^64 - 1.
    const auto first = std::find_if_not(
        v->begin(), v->end(), [](unsigned char c) { return std::isspace(c); });
    if (first != v->end() && *first == '-') {
      throw std::invalid_argument("negative");
    }
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(*v, &pos, 0);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: '" + key + "' is not an integer: '" +
                             *v + "'");
  }
}

double Config::get_double(const std::string& key, double dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: '" + key + "' is not a number: '" + *v +
                             "'");
  }
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
    return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
    return false;
  throw std::runtime_error("Config: '" + key + "' is not a boolean: '" + *v +
                           "'");
}

std::string Config::require_string(const std::string& key) const {
  const auto v = find(key);
  if (!v) throw std::runtime_error("Config: missing required key '" + key + "'");
  return *v;
}

std::uint64_t Config::require_u64(const std::string& key) const {
  if (!contains(key))
    throw std::runtime_error("Config: missing required key '" + key + "'");
  return get_u64(key, 0);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

}  // namespace fgnvm
