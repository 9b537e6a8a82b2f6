#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mio {

namespace {

/** A flag's value does not parse as its type: say so and exit 2. */
[[noreturn]] void
rejectValue(const std::string &name, const std::string &value,
            const char *want)
{
    fprintf(stderr, "--%s=%s: not %s\n", name.c_str(), value.c_str(),
            want);
    exit(2);
}

} // namespace

Flags::Flags(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (strncmp(arg, "--", 2) != 0)
            continue;
        std::string body(arg + 2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && strncmp(argv[i + 1], "--", 2) != 0) {
            values_[body] = argv[++i];
        } else {
            values_[body] = "true";
        }
    }
}

bool
Flags::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Flags::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

int64_t
Flags::getInt(const std::string &name, int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const long long v = strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0)
        rejectValue(name, it->second, "an integer");
    return v;
}

double
Flags::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0)
        rejectValue(name, it->second, "a number");
    return v;
}

bool
Flags::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    rejectValue(name, v, "true/false, 1/0 or yes/no");
}

uint64_t
Flags::getSize(const std::string &name, uint64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = strtod(text, &end);
    const bool number =
        end != text && errno == 0 && v >= 0 && std::isfinite(v);
    uint64_t mult = 1;
    switch (*end) {
      case 'k': case 'K': mult = 1024ULL; end++; break;
      case 'm': case 'M': mult = 1024ULL * 1024; end++; break;
      case 'g': case 'G': mult = 1024ULL * 1024 * 1024; end++; break;
      default: break;
    }
    if (!number || *end != '\0')
        rejectValue(name, it->second, "a size (bytes or k/m/g suffix)");
    return static_cast<uint64_t>(v * static_cast<double>(mult));
}

} // namespace mio
