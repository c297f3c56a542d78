#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace dcft {

namespace {

/// Case-insensitive comparison against an all-lowercase literal.
bool iequals(std::string_view value, std::string_view lower_literal) {
    if (value.size() != lower_literal.size()) return false;
    for (std::size_t i = 0; i < value.size(); ++i) {
        const char c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(value[i])));
        if (c != lower_literal[i]) return false;
    }
    return true;
}

}  // namespace

bool env_value_truthy(const char* value) {
    if (value == nullptr) return false;
    const std::string_view v(value);
    if (v.empty()) return false;
    if (iequals(v, "false") || iequals(v, "off") || iequals(v, "no"))
        return false;
    // "0", "00", "000", ... are all falsy; "0x", "01" are truthy (we only
    // fold strings that are *entirely* zeros).
    bool all_zero = true;
    for (const char c : v)
        if (c != '0') {
            all_zero = false;
            break;
        }
    return !all_zero;
}

bool env_flag_enabled(const char* name) {
    return env_value_truthy(std::getenv(name));
}

std::optional<bool> env_flag_state(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr) return std::nullopt;
    return env_value_truthy(v);
}

std::optional<std::uint64_t> parse_u64(const char* text) {
    // strtoull alone would skip leading blanks and wrap "-5" around.
    if (text == nullptr || !std::isdigit(static_cast<unsigned char>(*text)))
        return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE) return std::nullopt;
    return static_cast<std::uint64_t>(n);
}

std::optional<std::uint64_t> parse_positive_u64(const char* text) {
    const std::optional<std::uint64_t> n = parse_u64(text);
    if (n == std::uint64_t{0}) return std::nullopt;
    return n;
}

std::optional<std::uint64_t> env_positive_u64(const char* name) {
    return parse_positive_u64(std::getenv(name));
}

ScopedEnv::ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* previous = std::getenv(name)) previous_ = previous;
    if (value != nullptr)
        ::setenv(name, value, 1);
    else
        ::unsetenv(name);
}

ScopedEnv::~ScopedEnv() {
    if (previous_.has_value())
        ::setenv(name_.c_str(), previous_->c_str(), 1);
    else
        ::unsetenv(name_.c_str());
}

}  // namespace dcft
