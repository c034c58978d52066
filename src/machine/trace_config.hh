/**
 * @file
 * Builds the trace::RecorderConfig name tables from the ISA and
 * coherence enums. common/trace.hh deliberately knows nothing about
 * either layer, so the machines inject the names here.
 */

#ifndef APRIL_MACHINE_TRACE_CONFIG_HH
#define APRIL_MACHINE_TRACE_CONFIG_HH

#include <span>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "common/trace.hh"
#include "isa/instruction.hh"
#include "network/telemetry.hh"

namespace april
{

/** RecorderConfig for a machine of @p num_nodes x @p frames cores. */
inline trace::RecorderConfig
makeRecorderConfig(uint32_t num_nodes, uint32_t frames)
{
    trace::RecorderConfig rc;
    rc.numNodes = num_nodes;
    rc.framesPerNode = frames;
    for (uint8_t k = 0; k < uint8_t(TrapKind::NumKinds); ++k)
        rc.trapNames.push_back(trapKindName(TrapKind(k)));
    for (auto s : {coh::DirState::Uncached, coh::DirState::Shared,
                   coh::DirState::Exclusive})
        rc.cohStateNames.push_back(coh::dirStateName(s));
    return rc;
}

/** Message-class text for net::Telemetry (one class per coherence
 *  MsgType; same injection idiom as the recorder config), built once
 *  per process. */
inline std::span<const net::ClassText>
messageClasses()
{
    static const std::vector<net::ClassText> table = [] {
        std::vector<std::string> names;
        names.reserve(coh::kNumMsgTypes);
        for (size_t t = 0; t < coh::kNumMsgTypes; ++t)
            names.emplace_back(coh::msgTypeName(coh::MsgType(t)));
        return net::Telemetry::classText(names);
    }();
    return table;
}

} // namespace april

#endif // APRIL_MACHINE_TRACE_CONFIG_HH
