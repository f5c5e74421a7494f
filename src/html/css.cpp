#include "html/css.h"

#include <array>

#include "util/strings.h"

namespace catalyst::html {

namespace {

/// Bytes that can open a construct the scanner extracts: "/*",
/// "@import" and "url(" (any case). No other byte can start a match.
constexpr std::array<bool, 256> kOpensConstruct = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {'/', '@', 'u', 'U'}) table[c] = true;
  return table;
}();

/// Returns the quoted or unquoted string starting at `pos`; advances pos
/// past it. Empty result on malformed input.
std::string read_css_string(std::string_view css, std::size_t& pos) {
  while (pos < css.size() && ascii_isspace(css[pos])) ++pos;
  if (pos >= css.size()) return {};
  std::string out;
  if (css[pos] == '"' || css[pos] == '\'') {
    const char quote = css[pos++];
    while (pos < css.size() && css[pos] != quote) out.push_back(css[pos++]);
    if (pos < css.size()) ++pos;
  } else {
    while (pos < css.size() && !ascii_isspace(css[pos]) && css[pos] != ')' &&
           css[pos] != ';') {
      out.push_back(css[pos++]);
    }
  }
  return out;
}

}  // namespace

std::vector<CssReference> extract_css_references(std::string_view css) {
  std::vector<CssReference> out;
  std::size_t pos = 0;
  while (pos < css.size()) {
    // Jump to the next byte that can open a construct.
    while (!kOpensConstruct[static_cast<unsigned char>(css[pos])]) {
      if (++pos == css.size()) return out;
    }
    // Skip comments.
    if (css.substr(pos, 2) == "/*") {
      const auto end = css.find("*/", pos + 2);
      pos = (end == std::string_view::npos) ? css.size() : end + 2;
      continue;
    }
    if (istarts_with(css.substr(pos), "@import")) {
      pos += 7;
      while (pos < css.size() && ascii_isspace(css[pos])) ++pos;
      std::string url;
      if (istarts_with(css.substr(pos), "url(")) {
        pos += 4;
        url = read_css_string(css, pos);
        if (pos < css.size() && css[pos] == ')') ++pos;
      } else {
        url = read_css_string(css, pos);
      }
      if (!url.empty() && !istarts_with(url, "data:")) {
        out.push_back(CssReference{std::move(url), /*is_import=*/true});
      }
      continue;
    }
    if (istarts_with(css.substr(pos), "url(")) {
      pos += 4;
      std::string url = read_css_string(css, pos);
      if (pos < css.size() && css[pos] == ')') ++pos;
      if (!url.empty() && !istarts_with(url, "data:")) {
        out.push_back(CssReference{std::move(url), /*is_import=*/false});
      }
      continue;
    }
    ++pos;
  }
  return out;
}

}  // namespace catalyst::html
