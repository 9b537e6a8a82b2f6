/**
 * @file
 * Minimal command-line flag parser shared by the bench binaries and
 * examples: --name=value or --name value, with typed accessors. A
 * typed accessor given a value that does not parse as its type prints
 * the flag and value to stderr and exits with code 2.
 */
#ifndef MIO_UTIL_FLAGS_H_
#define MIO_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace mio {

class Flags
{
  public:
    Flags(int argc, char **argv);

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &def) const;
    int64_t getInt(const std::string &name, int64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def) const;

    /** Human-readable size: plain bytes or a k/m/g suffix (binary). */
    uint64_t getSize(const std::string &name, uint64_t def) const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace mio

#endif // MIO_UTIL_FLAGS_H_
