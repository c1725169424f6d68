/**
 * @file
 * A small command-line / key-value options parser for the CLI tool,
 * benches, and examples.
 *
 * Flags take the forms `--name=value`, `--name value`, or bare
 * `--name` for booleans. Unknown flags are fatal (user error), so
 * typos do not silently run the wrong experiment, and so is giving
 * the same flag twice (the silent last-one-wins alternative lets
 * pasted sweep command lines collect data under the wrong knob). Every option is
 * registered with a description, and `--help` prints them.
 */

#ifndef KELP_SIM_OPTIONS_HH
#define KELP_SIM_OPTIONS_HH

#include <map>
#include <string>
#include <vector>

namespace kelp {
namespace sim {

/** Declarative command-line options. */
class Options
{
  public:
    /**
     * @param program Program name for the usage banner.
     * @param summary One-line description.
     */
    Options(std::string program, std::string summary);

    /** Register options (call before parse()). A string option's
     * @p metavar names its value in the usage text. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help,
                   const std::string &metavar = "string");
    void addInt(const std::string &name, long def,
                const std::string &help);
    void addDouble(const std::string &name, double def,
                   const std::string &help);
    void addBool(const std::string &name, bool def,
                 const std::string &help);

    /**
     * Parse argv. Returns false if `--help` was requested (usage has
     * been printed); exits fatally (with usage text) on malformed,
     * unknown, or repeated flags.
     */
    bool parse(int argc, const char *const *argv);

    /** Typed getters (fatal on unknown name or type mismatch). */
    std::string getString(const std::string &name) const;
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** True if the user supplied the option explicitly. */
    bool isSet(const std::string &name) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Render the usage/help text. */
    std::string usage() const;

  private:
    enum class Kind { String, Int, Double, Bool };

    struct Option
    {
        Kind kind;
        std::string value;
        std::string def;
        std::string help;
        std::string metavar;
        bool set = false;
    };

    const Option &lookup(const std::string &name, Kind kind) const;
    void add(const std::string &name, Kind kind,
             const std::string &def, const std::string &help,
             const std::string &metavar);

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
};

} // namespace sim
} // namespace kelp

#endif // KELP_SIM_OPTIONS_HH
