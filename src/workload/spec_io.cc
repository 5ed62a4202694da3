#include "workload/spec_io.hh"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "util/logging.hh"

namespace bpsim
{

namespace
{

/** Trims ASCII whitespace from both ends. */
std::string
trim(const std::string &text)
{
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

double
parseDouble(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        BPSIM_FATAL("spec key '" << key << "': '" << text
                    << "' is not a number");
    return value;
}

std::uint64_t
parseUint(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        BPSIM_FATAL("spec key '" << key << "': '" << text
                    << "' is not an integer");
    return value;
}

std::string
formatDouble(double value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

/** Setter/getter pair for one file key. */
struct Field
{
    std::function<void(WorkloadSpec &, const std::string &,
                       const std::string &)>
        set;
    std::function<std::string(const WorkloadSpec &)> get;
};

Field
stringField(std::string WorkloadSpec::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &,
                 const std::string &v) { s.*member = v; },
        [member](const WorkloadSpec &s) { return s.*member; }};
}

Field
uintField(std::uint64_t WorkloadSpec::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &key,
                 const std::string &v) { s.*member = parseUint(key, v); },
        [member](const WorkloadSpec &s) {
            return std::to_string(s.*member);
        }};
}

Field
doubleField(double WorkloadSpec::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &key,
                 const std::string &v) {
            s.*member = parseDouble(key, v);
        },
        [member](const WorkloadSpec &s) {
            return formatDouble(s.*member);
        }};
}

Field
mixField(double BehaviorMix::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &key,
                 const std::string &v) {
            s.mix.*member = parseDouble(key, v);
        },
        [member](const WorkloadSpec &s) {
            return formatDouble(s.mix.*member);
        }};
}

Field
paramDoubleField(double BehaviorParams::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &key,
                 const std::string &v) {
            s.params.*member = parseDouble(key, v);
        },
        [member](const WorkloadSpec &s) {
            return formatDouble(s.params.*member);
        }};
}

Field
paramUnsignedField(unsigned BehaviorParams::*member)
{
    return Field{
        [member](WorkloadSpec &s, const std::string &key,
                 const std::string &v) {
            s.params.*member =
                static_cast<unsigned>(parseUint(key, v));
        },
        [member](const WorkloadSpec &s) {
            return std::to_string(s.params.*member);
        }};
}

const std::map<std::string, Field> &
fieldRegistry()
{
    static const std::map<std::string, Field> registry = {
        {"name", stringField(&WorkloadSpec::name)},
        {"suite", stringField(&WorkloadSpec::suite)},
        {"static_branches", uintField(&WorkloadSpec::staticBranches)},
        {"dynamic_branches", uintField(&WorkloadSpec::dynamicBranches)},
        {"seed", uintField(&WorkloadSpec::seed)},
        {"zipf_exponent", doubleField(&WorkloadSpec::zipfExponent)},
        {"zipf_offset", doubleField(&WorkloadSpec::zipfOffset)},
        {"sites_per_routine",
         doubleField(&WorkloadSpec::sitesPerRoutine)},
        {"code_base", uintField(&WorkloadSpec::codeBase)},
        {"mix.strongly_biased", mixField(&BehaviorMix::stronglyBiased)},
        {"mix.loop", mixField(&BehaviorMix::loop)},
        {"mix.global_correlated",
         mixField(&BehaviorMix::globalCorrelated)},
        {"mix.local_correlated",
         mixField(&BehaviorMix::localCorrelated)},
        {"mix.pattern", mixField(&BehaviorMix::pattern)},
        {"mix.phase_modal", mixField(&BehaviorMix::phaseModal)},
        {"mix.weakly_biased", mixField(&BehaviorMix::weaklyBiased)},
        {"params.strong_lo",
         paramDoubleField(&BehaviorParams::strongLo)},
        {"params.strong_hi",
         paramDoubleField(&BehaviorParams::strongHi)},
        {"params.strong_taken_share",
         paramDoubleField(&BehaviorParams::strongTakenShare)},
        {"params.weak_lo", paramDoubleField(&BehaviorParams::weakLo)},
        {"params.weak_hi", paramDoubleField(&BehaviorParams::weakHi)},
        {"params.loop_trip_lo",
         paramDoubleField(&BehaviorParams::loopTripLo)},
        {"params.loop_trip_hi",
         paramDoubleField(&BehaviorParams::loopTripHi)},
        {"params.loop_deterministic_share",
         paramDoubleField(&BehaviorParams::loopDeterministicShare)},
        {"params.corr_depth_lo",
         paramUnsignedField(&BehaviorParams::corrDepthLo)},
        {"params.corr_depth_hi",
         paramUnsignedField(&BehaviorParams::corrDepthHi)},
        {"params.corr_noise",
         paramDoubleField(&BehaviorParams::corrNoise)},
        {"params.corr_output_bias",
         paramDoubleField(&BehaviorParams::corrOutputBias)},
        {"params.local_depth_lo",
         paramUnsignedField(&BehaviorParams::localDepthLo)},
        {"params.local_depth_hi",
         paramUnsignedField(&BehaviorParams::localDepthHi)},
        {"params.pattern_len_lo",
         paramUnsignedField(&BehaviorParams::patternLenLo)},
        {"params.pattern_len_hi",
         paramUnsignedField(&BehaviorParams::patternLenHi)},
        {"params.phase_length",
         paramDoubleField(&BehaviorParams::phaseLength)},
    };
    return registry;
}

} // namespace

WorkloadSpec
parseWorkloadSpec(std::istream &in, const std::string &sourceName)
{
    WorkloadSpec spec;
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string trimmed = trim(line);
        if (trimmed.empty())
            continue;
        const auto eq = trimmed.find('=');
        if (eq == std::string::npos)
            BPSIM_FATAL(sourceName << ":" << line_number
                        << ": expected 'key = value', got '" << trimmed
                        << "'");
        const std::string key = trim(trimmed.substr(0, eq));
        const std::string value = trim(trimmed.substr(eq + 1));
        const auto field = fieldRegistry().find(key);
        if (field == fieldRegistry().end())
            BPSIM_FATAL(sourceName << ":" << line_number
                        << ": unknown spec key '" << key << "'");
        field->second.set(spec, key, value);
    }
    return spec;
}

WorkloadSpec
loadWorkloadSpec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        BPSIM_FATAL("cannot open workload spec '" << path << "'");
    return parseWorkloadSpec(in, path);
}

void
writeWorkloadSpec(std::ostream &out, const WorkloadSpec &spec)
{
    out << "# bimode-bp workload spec\n";
    for (const auto &[key, field] : fieldRegistry())
        out << key << " = " << field.get(spec) << "\n";
}

void
saveWorkloadSpec(const std::string &path, const WorkloadSpec &spec)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        BPSIM_FATAL("cannot write workload spec '" << path << "'");
    writeWorkloadSpec(out, spec);
    out.flush();
    if (!out)
        BPSIM_FATAL("I/O error writing workload spec '" << path << "'");
}

} // namespace bpsim
