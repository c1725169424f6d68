#include "sim/options.hh"

#include <cstdio>
#include <sstream>

#include "sim/log.hh"
#include "sim/number.hh"

namespace kelp {
namespace sim {

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
    addBool("help", false, "print this help and exit");
}

void
Options::add(const std::string &name, Kind kind, const std::string &def,
             const std::string &help, const std::string &metavar)
{
    KELP_ASSERT(!options_.count(name), "duplicate option --", name);
    options_[name] = Option{kind, def, def, help, metavar, false};
    order_.push_back(name);
}

void
Options::addString(const std::string &name, const std::string &def,
                   const std::string &help, const std::string &metavar)
{
    add(name, Kind::String, def, help, metavar);
}

void
Options::addInt(const std::string &name, long def,
                const std::string &help)
{
    add(name, Kind::Int, std::to_string(def), help, "int");
}

void
Options::addDouble(const std::string &name, double def,
                   const std::string &help)
{
    add(name, Kind::Double, formatDouble(def), help, "num");
}

void
Options::addBool(const std::string &name, bool def,
                 const std::string &help)
{
    add(name, Kind::Bool, def ? "true" : "false", help, "");
}

bool
Options::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown flag --", name, "\n", usage());
        Option &opt = it->second;
        if (opt.set) {
            // Silently taking the last occurrence would let a sweep
            // script that pastes `--seed=1 ... --seed=2` collect data
            // under the wrong seed without any sign of trouble.
            fatal("flag --", name,
                  " given more than once; each flag may appear at "
                  "most once\n",
                  usage());
        }
        if (!have_value) {
            if (opt.kind == Kind::Bool) {
                value = "true";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                fatal("flag --", name, " needs a value");
            }
        }
        // Validate typed values eagerly.
        switch (opt.kind) {
          case Kind::Int:
            if (!parseInt<long>(value))
                fatal("flag --", name, " expects an integer, got '",
                      value, "'");
            break;
          case Kind::Double:
            if (!parseDouble(value))
                fatal("flag --", name, " expects a number, got '",
                      value, "'");
            break;
          case Kind::Bool:
            if (value != "true" && value != "false" && value != "1" &&
                value != "0") {
                fatal("flag --", name, " expects true/false");
            }
            break;
          case Kind::String:
            break;
        }
        opt.value = value;
        opt.set = true;
    }

    if (getBool("help")) {
        std::fputs(usage().c_str(), stdout);
        return false;
    }
    return true;
}

const Options::Option &
Options::lookup(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    KELP_ASSERT(it != options_.end(), "unregistered option --", name);
    KELP_ASSERT(it->second.kind == kind, "type mismatch for --", name);
    return it->second;
}

std::string
Options::getString(const std::string &name) const
{
    return lookup(name, Kind::String).value;
}

long
Options::getInt(const std::string &name) const
{
    return *parseInt<long>(lookup(name, Kind::Int).value);
}

double
Options::getDouble(const std::string &name) const
{
    return *parseDouble(lookup(name, Kind::Double).value);
}

bool
Options::getBool(const std::string &name) const
{
    const std::string &v = lookup(name, Kind::Bool).value;
    return v == "true" || v == "1";
}

bool
Options::isSet(const std::string &name) const
{
    auto it = options_.find(name);
    KELP_ASSERT(it != options_.end(), "unregistered option --", name);
    return it->second.set;
}

std::string
Options::usage() const
{
    std::ostringstream os;
    os << program_ << " -- " << summary_ << "\n\noptions:\n";
    for (const auto &name : order_) {
        const Option &o = options_.at(name);
        os << "  --" << name;
        if (!o.metavar.empty())
            os << "=<" << o.metavar << ">";
        os << "\n      " << o.help << " (default: " << o.def << ")\n";
    }
    return os.str();
}

} // namespace sim
} // namespace kelp
